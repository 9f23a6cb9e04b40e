"""Textbook forms of what wivision computes faster, kept as test oracles.

* The sample covariance, its full eigendecomposition with an explicit noise
  basis, and ``|E_N^H v|^2`` evaluated from the signal basis.  The program
  takes the subspace from the snapshot matrix by the method of snapshots and
  never forms a noise basis.
* The scalar per-element phase model and the full virtual steering vector,
  against which the broadcasting factor functions of ``wivision.arraymodel``
  are checked.
* Background subtraction one frame at a time: a trailing-window median per
  frame and a subtract-clamp-floor per frame, against which the one-pass
  ``wivision.imaging.enhance_track`` is checked bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from wivision.arraymodel import (
    ArrayGeometry,
    ChannelConfig,
    PathHypothesis,
    direction_vector,
    steering_tensor,
    subcarrier_factors,
    tx_factors,
)
from wivision.imaging import SpectrumTrack
from wivision.music import NoiseSubspace, SnapshotWindow, Spectrum2D, estimate_source_count


def covariance(window: SnapshotWindow) -> np.ndarray:
    """Sample covariance R = X X^H / window_len; Hermitian PSD."""
    x = window.matrix
    r = x @ x.conj().T
    r /= window.window_len
    return r


def noise_subspace(r: np.ndarray,
                   s_hat: int | None = None) -> tuple[NoiseSubspace, np.ndarray]:
    """Full eigendecomposition of a covariance: the split and its noise basis."""
    lam, vec = np.linalg.eigh(np.asarray(r, dtype=complex))
    lam = lam[::-1]
    vec = vec[:, ::-1]
    if s_hat is None:
        s_hat = estimate_source_count(lam)
    return NoiseSubspace(vec[:, :s_hat], s_hat, eigenvalues=lam), vec[:, s_hat:]


def noise_basis(sub: NoiseSubspace) -> np.ndarray:
    """Orthonormal complement of the signal basis, (dim, dim - s_hat)."""
    if sub.s_hat == 0:
        return np.eye(sub.dim, dtype=complex)
    return scipy.linalg.null_space(sub.signal_basis.conj().T)


def projection_deficit(sub: NoiseSubspace, vec: np.ndarray) -> float:
    """|v|^2 - |E_S^H v|^2, i.e. |E_N^H v|^2 without forming E_N."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    proj = sub.signal_basis.conj().T @ v
    return float(np.vdot(v, v).real - np.vdot(proj, proj).real)


@dataclass(frozen=True)
class SteeringVector:
    """Virtual-array response to one path hypothesis.

    ``values`` has length n_rx * n_tx * n_subcarriers and is ordered tx-major,
    then rx antenna, then subcarrier; every entry has unit magnitude.
    """

    values: np.ndarray
    n_rx: int
    n_tx: int
    n_subcarriers: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.n_rx * self.n_tx * self.n_subcarriers,):
            raise ValueError("steering vector length must equal n_rx * n_tx * n_subcarriers")
        if np.max(np.abs(np.abs(v) - 1.0)) > 1e-12:
            raise ValueError("steering vector entries must have unit magnitude")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def as_frame_tensor(self) -> np.ndarray:
        """Reshape into the (rx, tx, subcarrier) layout of a CSI frame."""
        t = self.values.reshape(self.n_tx, self.n_rx, self.n_subcarriers)
        return t.transpose(1, 0, 2)


def rx_phase(cfg: ChannelConfig, geom: ArrayGeometry, k: int, hyp: PathHypothesis) -> complex:
    """Phase factor of rx antenna ``k`` for an incident path; unit magnitude."""
    if not 0 <= k < geom.n_rx:
        raise IndexError(f"rx antenna index {k} out of range [0, {geom.n_rx})")
    d = direction_vector(hyp.azimuth_deg, hyp.elevation_deg)
    proj = float(d @ geom.rx_positions[k])
    return complex(np.exp(-2j * np.pi * cfg.carrier_hz * proj / cfg.speed_of_light))


def tx_phase(cfg: ChannelConfig, m: int, aod_deg: float) -> complex:
    """Phase factor of tx antenna ``m`` relative to tx antenna 0; unit magnitude."""
    if m < 0:
        raise IndexError(f"tx antenna index must be >= 0, got {m}")
    return complex(tx_factors(cfg, m + 1, aod_deg)[..., m])


def subcarrier_phase(cfg: ChannelConfig, n: int, tof_s: float) -> complex:
    """Phase factor of subcarrier ``n`` relative to subcarrier 0; unit magnitude."""
    if n < 0:
        raise IndexError(f"subcarrier index must be >= 0, got {n}")
    if tof_s < 0:
        raise ValueError(f"tof_s must be >= 0, got {tof_s}")
    return complex(subcarrier_factors(cfg, n + 1, tof_s)[..., n])


def virtual_steering_vector(cfg: ChannelConfig, geom: ArrayGeometry,
                            hyp: PathHypothesis) -> SteeringVector:
    """Full virtual-array steering vector for one hypothesis (tx, rx, subcarrier order)."""
    tensor = steering_tensor(cfg, geom, hyp.azimuth_deg, hyp.elevation_deg,
                             hyp.tof_s, hyp.aod_deg)
    values = tensor.transpose(1, 0, 2).reshape(geom.dim)
    return SteeringVector(values, n_rx=geom.n_rx, n_tx=geom.n_tx,
                          n_subcarriers=geom.n_subcarriers)


def static_estimate(track: SpectrumTrack, window: int) -> Spectrum2D:
    """Per-bin temporal median over the trailing ``window`` frames."""
    block = np.stack([f.grid for f in track.frames[-window:]])
    return Spectrum2D(np.median(block, axis=0), timestamp_ns=track.frames[-1].timestamp_ns)


def enhance(frame: Spectrum2D, static: Spectrum2D, floor_db: float) -> Spectrum2D:
    """Subtract ``static`` in linear power, clamp at zero, zero bins far below the peak."""
    diff = np.maximum(frame.grid - static.grid, 0.0)
    peak = diff.max()
    if peak > 0 and np.isfinite(floor_db):
        diff[diff < peak * 10.0 ** (-floor_db / 10.0)] = 0.0
    return Spectrum2D(diff, timestamp_ns=frame.timestamp_ns)


def enhance_track(track: SpectrumTrack, static_window: int, floor_db: float,
                  mode: str) -> list[Spectrum2D]:
    """Enhanced frames of ``track``, each against its own static estimate."""
    if mode == "global":
        static = static_estimate(track, len(track))
        return [enhance(f, static, floor_db) for f in track.frames]
    return [enhance(track.frames[i],
                    static_estimate(SpectrumTrack(track.frames[:i + 1]), static_window),
                    floor_db)
            for i in range(static_window - 1, len(track))]
