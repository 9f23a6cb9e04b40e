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
* Rendering and sanitizing a whole capture at once, against which the
  blocked ``wivision.simulate.simulate`` and
  ``wivision.sanitize.sanitize_tensors`` are checked bit for bit.
* Reading a whole CSIF file as bytes, its layout block with ``struct`` and
  ``frombuffer``, and copying its payload to complex128, against which the
  stages fed by ``wivision.csif.read_csif``, which holds the payload at
  complex64, are checked bit for bit.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from wivision.arraymodel import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    ChannelConfig,
    PathHypothesis,
    direction_vector,
    steering_tensor,
    subcarrier_factors,
    tx_factors,
)
from wivision.csif import _HEADER, _packet_dtype
from wivision.imaging import SpectrumTrack
from wivision.music import NoiseSubspace, SnapshotWindow, estimate_source_count
from wivision.simulate import Scene, packet_times
from wivision.stream import CsiStream


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
    return complex(np.exp(-2j * np.pi * cfg.carrier_hz * proj / SPEED_OF_LIGHT))


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


def static_estimate(grids: np.ndarray, end: int, window: int) -> np.ndarray:
    """Per-bin temporal median over the ``window`` frames of ``grids`` that end at
    frame ``end``."""
    return np.median(grids[end + 1 - window:end + 1], axis=0)


def enhance(frame: np.ndarray, static: np.ndarray, floor_db: float) -> np.ndarray:
    """Subtract ``static`` in linear power, clamp at zero, zero bins far below the peak."""
    diff = np.maximum(frame - static, 0.0)
    peak = diff.max()
    if peak > 0 and np.isfinite(floor_db):
        diff[diff < peak * 10.0 ** (-floor_db / 10.0)] = 0.0
    return diff


def enhance_track(track: SpectrumTrack, static_window: int, floor_db: float,
                  mode: str) -> list[tuple[int, np.ndarray]]:
    """``(timestamp, enhanced grid)`` of the frames of ``track`` that have a
    static estimate, each frame against its own."""
    grids, ts = track.grids, track.timestamps_ns
    if mode == "global":
        static = static_estimate(grids, len(grids) - 1, len(grids))
        return [(int(ts[i]), enhance(grids[i], static, floor_db))
                for i in range(len(grids))]
    return [(int(ts[i]), enhance(grids[i], static_estimate(grids, i, static_window),
                                 floor_db))
            for i in range(static_window - 1, len(grids))]


def simulate_tensors(scene: Scene, cfg: ChannelConfig, geom: ArrayGeometry) -> np.ndarray:
    """The (n, rx, tx, subcarrier) tensors of a scene, every path rendered over
    the whole capture at once and the noise drawn in one call."""
    t = packet_times(scene)
    children = np.random.SeedSequence(scene.rng_seed).spawn(len(scene.paths) + 1)
    n = scene.n_packets
    signal = np.zeros((n, geom.n_rx, geom.n_tx, geom.n_subcarriers), dtype=complex)
    for path, child in zip(scene.paths, children):
        az, el, tof, aod = path.hypothesis_at(t)
        tensor = steering_tensor(cfg, geom, az, el, tof, aod)
        g = path.gains_at(t)
        if path.phase_jitter > 0:
            rng = np.random.default_rng(child)
            dither = rng.uniform(-np.pi * path.phase_jitter, np.pi * path.phase_jitter, n)
            g = g * np.exp(1j * dither)
        signal += g[:, None, None, None] * tensor

    if math.isfinite(scene.snr_db):
        p_signal = float(np.mean(np.abs(signal) ** 2))
        noise_var = p_signal / 10.0 ** (scene.snr_db / 10.0)
        rng = np.random.default_rng(children[-1])
        parts = rng.standard_normal(signal.shape + (2,))
        signal = signal + math.sqrt(noise_var / 2.0) * (parts[..., 0] + 1j * parts[..., 1])
    return signal


def sanitize_tensors(tensors: np.ndarray) -> np.ndarray:
    """Per-packet offset and slope removal over the whole capture at once."""
    n_su = tensors.shape[-1]
    n_idx = np.arange(n_su, dtype=float)
    centered = n_idx - n_idx.mean()
    norm = centered @ centered

    phases = np.unwrap(np.angle(tensors), axis=-1)
    n_pairs = tensors.shape[1] * tensors.shape[2]
    slopes = np.einsum("prmn,n->p", phases, centered) / (n_pairs * norm)
    detrended = tensors * np.exp(-1j * slopes[:, None, None, None] * n_idx)
    intercepts = np.angle(detrended.sum(axis=(1, 2, 3)))
    detrended *= np.exp(-1j * intercepts)[:, None, None, None]
    return detrended


def read_csif(path) -> CsiStream:
    """A valid CSIF version 2 file read whole as bytes, its payload copied to
    complex128."""
    with open(path, "rb") as fh:
        raw = fh.read()
    _, version, n_rx, n_tx, n_su, carrier_hz, spacing_hz, _ = _HEADER.unpack_from(raw)
    assert version == 2
    (tx_spacing_m,) = struct.unpack_from("<d", raw, _HEADER.size)
    positions = np.frombuffer(raw, dtype="<f8", count=3 * n_rx, offset=_HEADER.size + 8)
    packets = np.frombuffer(raw, dtype=_packet_dtype(n_rx, n_tx, n_su),
                            offset=_HEADER.size + 8 + positions.nbytes)
    cfg = ChannelConfig(carrier_hz, spacing_hz, tx_spacing_m)
    geometry = ArrayGeometry(positions.reshape(n_rx, 3), n_tx, n_su)
    return CsiStream(cfg, geometry, packets["ts"].astype(np.int64),
                     packets["iq"].astype(complex))
