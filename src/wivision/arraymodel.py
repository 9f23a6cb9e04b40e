"""Array geometry, channel constants, and virtual-array steering vectors.

The imaging chain treats every (tx antenna, rx antenna, subcarrier) triple of a
MIMO-OFDM link as one sensor of a large virtual array.  The response of that
array to a single propagation path is the Kronecker product of three factor
vectors:

* a transmit factor ``Gamma(aod)**m`` from the linear tx array,
* a receive factor ``exp(-j*2*pi*f * d(az, el) . l_k / c)`` from the rx
  element positions ``l_k`` (all with ``y == 0``),
* a subcarrier factor ``Omega(tof)**n`` from the per-subcarrier delay phase.

Steering vectors are ordered tx-major, then rx antenna, then subcarrier.  All
angles are degrees in [1, 180]; azimuth is measured in the horizontal plane,
elevation from the vertical axis, with the look direction
``d(az, el) = [cos(az) sin(el), sin(az) sin(el), cos(el)]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
"""Propagation speed used throughout, m/s."""

DEFAULT_CARRIER_HZ = 5.18e9
"""Default carrier frequency (5 GHz WiFi band), configurable."""

DEFAULT_SUBCARRIER_SPACING_HZ = 1.25e6
"""Default spacing between reported subcarriers (every 4th of a 312.5 kHz grid)."""

ANGLE_MIN_DEG = 1.0
ANGLE_MAX_DEG = 180.0

N_ANGLE_BINS = 180
"""Azimuth/elevation grids run 1..180 degrees in 1 degree steps."""


@dataclass(frozen=True)
class ChannelConfig:
    """Carrier and OFDM constants shared by simulator and estimator.

    ``tx_spacing_m`` defaults to half the carrier wavelength when omitted.
    Each field must be finite and positive; a ValueError names the first
    that is not, ``tx_spacing_m`` checked after its default is filled in.
    """

    carrier_hz: float = DEFAULT_CARRIER_HZ
    subcarrier_spacing_hz: float = DEFAULT_SUBCARRIER_SPACING_HZ
    tx_spacing_m: float | None = None

    def __post_init__(self):
        for name in ("carrier_hz", "subcarrier_spacing_hz", "tx_spacing_m"):
            if name == "tx_spacing_m" and self.tx_spacing_m is None:
                object.__setattr__(self, name, self.wavelength_m / 2.0)
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz


@dataclass(frozen=True)
class ArrayGeometry:
    """Receive element positions plus tx antenna and subcarrier counts.

    ``rx_positions`` is an (n_rx, 3) array of meters; every element must lie in
    the y == 0 plane.
    """

    rx_positions: np.ndarray
    n_tx: int = 3
    n_subcarriers: int = 30

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.rx_positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] == 0:
            raise ValueError(f"rx_positions must be a nonempty (n, 3) array, got {pos.shape}")
        if not np.isfinite(pos).all():
            raise ValueError("rx positions must be finite")
        if np.any(pos[:, 1] != 0.0):
            raise ValueError("rx positions must lie in the y == 0 plane")
        pos.setflags(write=False)
        object.__setattr__(self, "rx_positions", pos)
        if self.n_tx < 1:
            raise ValueError(f"n_tx must be >= 1, got {self.n_tx}")
        if self.n_subcarriers < 1:
            raise ValueError(f"n_subcarriers must be >= 1, got {self.n_subcarriers}")

    @property
    def n_rx(self) -> int:
        return self.rx_positions.shape[0]

    @property
    def dim(self) -> int:
        """Size of the virtual array, n_rx * n_tx * n_subcarriers."""
        return self.n_rx * self.n_tx * self.n_subcarriers

    @classmethod
    def l_shaped(cls, spacing_m: float, arm_x: int = 5, arm_z: int = 5,
                 n_tx: int = 3, n_subcarriers: int = 30) -> "ArrayGeometry":
        """L-shaped layout: ``arm_x`` elements along X and ``arm_z`` along Z
        sharing the corner element at the origin (arm_x + arm_z - 1 total)."""
        if arm_x < 1 or arm_z < 1:
            raise ValueError("each arm needs at least one element")
        xs = [(i * spacing_m, 0.0, 0.0) for i in range(arm_x)]
        zs = [(0.0, 0.0, j * spacing_m) for j in range(1, arm_z)]
        return cls(np.array(xs + zs), n_tx=n_tx, n_subcarriers=n_subcarriers)


def default_geometry(cfg: ChannelConfig, *, n_rx: int = 9, n_tx: int = 3,
                     n_subcarriers: int = 30) -> ArrayGeometry:
    """L-shaped array of ``n_rx`` elements at half-wavelength spacing: two arms
    sharing a corner, the X arm one longer if ``n_rx`` is even (nine are 5 + 5)."""
    arm_x = (n_rx + 2) // 2
    return ArrayGeometry.l_shaped(cfg.wavelength_m / 2.0, arm_x=arm_x,
                                  arm_z=n_rx + 1 - arm_x, n_tx=n_tx,
                                  n_subcarriers=n_subcarriers)


@dataclass(frozen=True)
class PathHypothesis:
    """One candidate propagation path: 2D AoA, time of flight, and AoD."""

    azimuth_deg: float
    elevation_deg: float
    tof_s: float = 0.0
    aod_deg: float = 90.0

    def __post_init__(self):
        for name in ("azimuth_deg", "elevation_deg", "aod_deg"):
            v = getattr(self, name)
            if not ANGLE_MIN_DEG <= v <= ANGLE_MAX_DEG:
                raise ValueError(f"{name} must be in [1, 180] degrees, got {v}")
        if self.tof_s < 0:
            raise ValueError(f"tof_s must be >= 0, got {self.tof_s}")


# ---------------------------------------------------------------------------
# Factor functions.  These accept arbitrary float inputs (no angle-range
# validation) and broadcast, so the simulator and the grid evaluator share one
# implementation.
# ---------------------------------------------------------------------------

def direction_vector(azimuth_deg, elevation_deg) -> np.ndarray:
    """Unit look-direction vector(s), shape (..., 3)."""
    az = np.deg2rad(np.asarray(azimuth_deg, dtype=float))
    el = np.deg2rad(np.asarray(elevation_deg, dtype=float))
    return np.stack(
        [np.cos(az) * np.sin(el), np.sin(az) * np.sin(el), np.cos(el) * np.ones_like(az)],
        axis=-1,
    )

def rx_factors(cfg: ChannelConfig, geom: ArrayGeometry, azimuth_deg, elevation_deg) -> np.ndarray:
    """Per-rx-antenna phase factors, shape (..., n_rx)."""
    d = direction_vector(azimuth_deg, elevation_deg)
    proj = d @ geom.rx_positions.T
    return np.exp((-2j * np.pi * cfg.carrier_hz / SPEED_OF_LIGHT) * proj)


def tx_factors(cfg: ChannelConfig, n_tx: int, aod_deg) -> np.ndarray:
    """Per-tx-antenna phase factors Gamma(aod)**m, shape (..., n_tx)."""
    aod = np.deg2rad(np.asarray(aod_deg, dtype=float))
    step = (-2.0 * np.pi * cfg.carrier_hz * cfg.tx_spacing_m / SPEED_OF_LIGHT) * np.sin(aod)
    return np.exp(1j * step[..., None] * np.arange(n_tx))


def subcarrier_factors(cfg: ChannelConfig, n_subcarriers: int, tof_s) -> np.ndarray:
    """Per-subcarrier phase factors Omega(tof)**n, shape (..., n_subcarriers)."""
    tof = np.asarray(tof_s, dtype=float)
    step = -2.0 * np.pi * cfg.subcarrier_spacing_hz * tof
    return np.exp(1j * step[..., None] * np.arange(n_subcarriers))


def steering_tensor(cfg: ChannelConfig, geom: ArrayGeometry,
                    azimuth_deg, elevation_deg, tof_s, aod_deg) -> np.ndarray:
    """Outer product of the three factor vectors, shape (..., rx, tx, subcarrier).

    This is the per-frame layout; the simulator renders frames directly from it
    so that a rendered single-path frame matches the steering vector bit for bit.
    """
    fr = rx_factors(cfg, geom, azimuth_deg, elevation_deg)
    fm = tx_factors(cfg, geom.n_tx, aod_deg)
    fn = subcarrier_factors(cfg, geom.n_subcarriers, tof_s)
    return np.einsum("...r,...m,...n->...rmn", fr, fm, fn)

