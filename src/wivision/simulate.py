"""Synthetic CSI oracle: renders packet streams from a known multipath scene.

Every downstream stage is verified against this simulator, so its contract is
strict: a frame is the superposition of per-path steering tensors scaled by the
path gains at the frame time, plus complex white Gaussian noise scaled to the
scene SNR.  Output is deterministic given the scene seed.

Multipath components generated from one transmitter are mutually coherent,
which degrades subspace estimation.  Paths therefore carry an optional
per-packet ``phase_jitter`` (small unresolved motion) that decorrelates them
across a snapshot window; scenes meant to resolve several reflectors should
enable it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .arraymodel import (
    ANGLE_MAX_DEG,
    ANGLE_MIN_DEG,
    ArrayGeometry,
    ChannelConfig,
    PathHypothesis,
    steering_tensor,
)

PATH_TAGS = ("los", "static", "human", "secondary")


class DegenerateSceneError(ValueError):
    """Scene cannot produce a meaningful stream (e.g. no paths to render)."""


@dataclass(frozen=True)
class GainGate:
    """Periodic on/off gain switch modeling specular visibility of a body part.

    The gain is 1 for the first ``duty`` fraction of each period, counted from
    ``phase_s``, and 0 for the rest.
    """

    period_s: float
    duty: float = 0.5
    phase_s: float = 0.0

    def __post_init__(self):
        if not self.period_s > 0:
            raise ValueError(f"gate period must be positive, got {self.period_s}")
        if not 0.0 < self.duty <= 1.0:
            raise ValueError(f"gate duty must be in (0, 1], got {self.duty}")

    def values(self, t_s) -> np.ndarray:
        t = np.asarray(t_s, dtype=float)
        on = ((t - self.phase_s) % self.period_s) < self.duty * self.period_s
        return on.astype(float)


def amplitude_from_db(gain_db: float) -> float:
    """Amplitude ``10 ** (gain_db / 20)``; ValueError unless it is finite and positive."""
    try:
        amplitude = 10.0 ** (gain_db / 20.0)
    except OverflowError:
        amplitude = math.inf
    if not 0.0 < amplitude < math.inf:
        raise ValueError(f"gain_db must give a finite, positive amplitude, got {gain_db:g}")
    return amplitude


@dataclass(frozen=True)
class ScenePath:
    """One ground-truth propagation path.

    ``motion`` is an optional piecewise-linear trajectory given as strictly
    increasing (time_s, PathHypothesis) keyframes; parameters are interpolated
    per component and clamped outside the keyframe range.  ``phase_jitter`` in
    [0, 1] scales a per-packet uniform phase dither of up to +-pi.
    """

    hypothesis: PathHypothesis
    gain: complex = 1.0 + 0.0j
    tag: str = "static"
    motion: tuple[tuple[float, PathHypothesis], ...] | None = None
    gate: GainGate | None = None
    phase_jitter: float = 0.0

    def __post_init__(self):
        if abs(self.gain) <= 0:
            raise ValueError("path gain magnitude must be positive")
        if self.tag not in PATH_TAGS:
            raise ValueError(f"unknown path tag {self.tag!r}, expected one of {PATH_TAGS}")
        if not 0.0 <= self.phase_jitter <= 1.0:
            raise ValueError(f"phase_jitter must be in [0, 1], got {self.phase_jitter}")
        if self.motion is not None:
            motion = tuple((float(t), h) for t, h in self.motion)
            times = [t for t, _ in motion]
            if len(motion) < 2:
                raise ValueError("motion needs at least two keyframes")
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ValueError("motion keyframe times must be strictly increasing")
            object.__setattr__(self, "motion", motion)

    def hypothesis_at(self, t_s) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Interpolated (azimuth, elevation, tof, aod) arrays at the given times."""
        t = np.asarray(t_s, dtype=float)
        if self.motion is None:
            h = self.hypothesis
            ones = np.ones_like(t)
            return h.azimuth_deg * ones, h.elevation_deg * ones, h.tof_s * ones, h.aod_deg * ones
        times = np.array([k for k, _ in self.motion])
        hyps = [h for _, h in self.motion]
        az = np.interp(t, times, [h.azimuth_deg for h in hyps])
        el = np.interp(t, times, [h.elevation_deg for h in hyps])
        tof = np.interp(t, times, [h.tof_s for h in hyps])
        aod = np.interp(t, times, [h.aod_deg for h in hyps])
        return az, el, tof, aod

    def gains_at(self, t_s) -> np.ndarray:
        """Complex gain schedule at the given times (gate applied, no jitter)."""
        t = np.asarray(t_s, dtype=float)
        g = np.full(t.shape, complex(self.gain))
        if self.gate is not None:
            g = g * self.gate.values(t)
        return g


_MAX_PACKET_RATE_HZ = 1e9
_MAX_DURATION_S = 2.0**63 / 1e9


@dataclass(frozen=True)
class Scene:
    """Ground-truth scene: paths plus noise, rate, duration, and seed."""

    paths: tuple[ScenePath, ...]
    snr_db: float = math.inf
    packet_rate_hz: float = 1000.0
    duration_s: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        if not self.packet_rate_hz > 0:
            raise ValueError(f"packet_rate_hz must be positive, got {self.packet_rate_hz}")
        # packet timestamps are whole nanoseconds: they must strictly increase
        # and the last one must fit in int64
        if not self.packet_rate_hz <= _MAX_PACKET_RATE_HZ:
            raise ValueError(f"packet_rate_hz must be at most {_MAX_PACKET_RATE_HZ:g}, so "
                             f"that nanosecond timestamps increase, got {self.packet_rate_hz}")
        if not self.duration_s > 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if not self.duration_s < _MAX_DURATION_S:
            raise ValueError(f"duration_s must be below {_MAX_DURATION_S:.4g}, so that "
                             f"nanosecond timestamps fit in int64, got {self.duration_s}")
        n_los = sum(1 for p in self.paths if p.tag == "los")
        if n_los > 1:
            raise ValueError(f"a scene may contain at most one los path, got {n_los}")

    @property
    def n_packets(self) -> int:
        return max(1, int(round(self.packet_rate_hz * self.duration_s)))


@dataclass(frozen=True)
class CsiStream:
    """A packet stream as one array, plus the channel/geometry it was measured with.

    ``timestamps_ns`` is an (n,) int64 array of strictly increasing packet
    times; ``tensors`` is the (n, rx antenna, tx antenna, subcarrier) complex
    array of channel tensors.  Both are stored without a copy and made
    read-only.
    """

    config: ChannelConfig
    geometry: ArrayGeometry
    timestamps_ns: np.ndarray
    tensors: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps_ns, dtype=np.int64)
        t = np.asarray(self.tensors, dtype=complex)
        shape = (self.geometry.n_rx, self.geometry.n_tx, self.geometry.n_subcarriers)
        if ts.ndim != 1:
            raise ValueError(f"timestamps must be 1-D, got shape {ts.shape}")
        if t.ndim != 4 or t.shape[1:] != shape:
            raise ValueError(f"packet 0: tensor shape {t.shape[1:]} does not match "
                             f"geometry {shape}")
        if len(t) != len(ts):
            raise ValueError(f"packet {min(len(t), len(ts))}: {len(ts)} timestamps "
                             f"but {len(t)} tensors")
        late = np.flatnonzero(np.diff(ts) <= 0)
        if late.size:
            p = int(late[0]) + 1
            raise ValueError(f"packet {p}: timestamp {ts[p]} is not after {ts[p - 1]}")
        bad = np.flatnonzero(~np.isfinite(t).all(axis=(1, 2, 3)))
        if bad.size:
            raise ValueError(f"packet {int(bad[0])}: tensor contains non-finite values")
        for name, a in (("timestamps_ns", ts), ("tensors", t)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.timestamps_ns)


def packet_times(scene: Scene) -> np.ndarray:
    """Packet emission times in seconds, packet i at i / packet_rate."""
    return np.arange(scene.n_packets) / scene.packet_rate_hz


def simulate(scene: Scene, cfg: ChannelConfig, geom: ArrayGeometry) -> CsiStream:
    """Render the CSI stream of a scene.

    Each frame is sum_s gain_s(t) * steering_tensor(path_s at t) plus, at finite
    SNR, white complex Gaussian noise whose per-element power is the stream's
    mean per-element signal power divided by the linear SNR.  Identical
    (scene, seed) inputs produce bit-identical streams.
    """
    if not scene.paths:
        raise DegenerateSceneError("scene has no paths; nothing to render")
    t = packet_times(scene)
    ts_ns = np.round(t * 1e9).astype(np.int64)

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

    return CsiStream(cfg, geom, ts_ns, signal)


def inject_phase_offsets(stream: CsiStream, seed: int,
                         offset_range: tuple[float, float] = (0.0, 2.0 * np.pi),
                         slope_range: tuple[float, float] | None = None) -> CsiStream:
    """Apply per-packet STO/PDD phase errors, identical across antenna pairs.

    Subcarrier ``n`` of every (rx, tx) pair in packet ``p`` is multiplied by
    ``exp(-1j * (eta0_p + eta1_p * n))`` with (eta0, eta1) drawn uniformly per
    packet from the given ranges.  Default slope range is +-pi/n_subcarriers.
    """
    n_su = stream.geometry.n_subcarriers
    if slope_range is None:
        slope_range = (-np.pi / n_su, np.pi / n_su)
    n = len(stream)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    eta0 = rng.uniform(offset_range[0], offset_range[1], n)
    eta1 = rng.uniform(slope_range[0], slope_range[1], n)
    ramp = np.exp(-1j * (eta0[:, None] + np.outer(eta1, np.arange(n_su))))
    return replace(stream, tensors=stream.tensors * ramp[:, None, None, :])


def degrade_stream(stream: CsiStream) -> CsiStream:
    """Collapse a stream to 1 tx antenna and 1 subcarrier (rx-only diversity)."""
    geom = ArrayGeometry(stream.geometry.rx_positions, n_tx=1, n_subcarriers=1)
    tensors = np.ascontiguousarray(stream.tensors[:, :, :1, :1])
    return CsiStream(stream.config, geom, stream.timestamps_ns, tensors)


# ---------------------------------------------------------------------------
# Scene presets.
# ---------------------------------------------------------------------------

def six_reflector_scene(snr_db: float = math.inf, packet_rate_hz: float = 1000.0,
                        duration_s: float = 0.12, rng_seed: int = 0) -> Scene:
    """Line-of-sight plus five separated reflectors, all jittered for decorrelation.

    Used as the resolution benchmark: full diversity resolves all six
    components, the degraded 1-packet/1-tx/1-subcarrier configuration does not.
    """
    ns = 1e-9
    specs = [
        ("los", 90.0, 90.0, 5.0, 90.0, 0.0),
        ("static", 50.0, 95.0, 20.0, 70.0, -6.0),
        ("static", 130.0, 85.0, 25.0, 110.0, -6.0),
        ("static", 70.0, 60.0, 35.0, 80.0, -8.0),
        ("static", 110.0, 120.0, 30.0, 100.0, -8.0),
        ("static", 90.0, 40.0, 45.0, 60.0, -8.0),
    ]
    paths = [
        ScenePath(PathHypothesis(az, el, tof * ns, aod),
                  gain=10.0 ** (gain_db / 20.0), tag=tag, phase_jitter=1.0)
        for tag, az, el, tof, aod, gain_db in specs
    ]
    return Scene(tuple(paths), snr_db=snr_db, packet_rate_hz=packet_rate_hz,
                 duration_s=duration_s, rng_seed=rng_seed)


def six_reflector_truth() -> list[tuple[float, float]]:
    """(azimuth, elevation) ground truth of the six-reflector benchmark."""
    return [(90.0, 90.0), (50.0, 95.0), (130.0, 85.0),
            (70.0, 60.0), (110.0, 120.0), (90.0, 40.0)]


@dataclass(frozen=True)
class PersonaParams:
    """Synthetic walking persona: body extents and gait for the Re-ID harness."""

    elevation_span_deg: float
    azimuth_span_deg: float
    gait_period_s: float
    walk_speed_deg_per_s: float = 6.0
    start_azimuth_deg: float = 60.0
    center_elevation_deg: float = 90.0
    gain_db: float = 0.0
    tof_ns: float = 30.0
    aod_deg: float = 90.0
    leg_duty: float = 0.5
    head_gated: bool = False

    def __post_init__(self):
        if not self.gait_period_s > 0:
            raise ValueError(f"gait period must be positive, got {self.gait_period_s}")
        if self.elevation_span_deg < 0 or self.azimuth_span_deg < 0:
            raise ValueError("body spans must be >= 0")
        if not 0.0 < self.leg_duty < 1.0:
            raise ValueError(f"leg_duty must be in (0, 1), got {self.leg_duty}")


def human_walk_preset(persona: PersonaParams, duration_s: float = 2.0,
                      packet_rate_hz: float = 1000.0, snr_db: float = math.inf,
                      rng_seed: int = 0) -> Scene:
    """Scene of head/torso/leg paths for one walking persona.

    Part elevations span ``elevation_span_deg`` around the persona's center
    elevation, the torso pair spans ``azimuth_span_deg`` in azimuth, and the
    leg path's gain switches on and off at the gait period (specular
    visibility).  All parts advance in azimuth at the walk speed, stepping
    through whole-degree stances (a dwell of ``1 / walk_speed`` per degree)
    so each estimation window sees a small set of exact positions instead of
    a continuous smear.
    """
    p = persona
    drift = p.walk_speed_deg_per_s * duration_s
    half_el = p.elevation_span_deg / 2.0
    half_az = p.azimuth_span_deg / 2.0
    base = amplitude_from_db(p.gain_db)
    ns = 1e-9

    def stance_keyframes(az0, el, tof):
        n_steps = int(math.floor(drift))
        if n_steps < 1:
            return ((0.0, PathHypothesis(az0, el, tof, p.aod_deg)),
                    (duration_s, PathHypothesis(az0, el, tof, p.aod_deg)))
        # keep the inter-stance ramp shorter than any sane packet spacing so
        # no snapshot lands on an interpolated position
        dwell = duration_s / (n_steps + 1)
        ramp = min(1e-6, dwell / 10.0)
        frames = []
        for k in range(n_steps + 1):
            hyp = PathHypothesis(az0 + k, el, tof, p.aod_deg)
            frames.append((k * dwell, hyp))
            frames.append((min((k + 1) * dwell - ramp, duration_s), hyp))
        return tuple(frames)

    def part(az_off, el_off, rel_gain_db, tof_off_ns, gate=None):
        az0 = p.start_azimuth_deg + az_off
        el = p.center_elevation_deg + el_off
        tof = (p.tof_ns + tof_off_ns) * ns
        for a in (az0, az0 + drift):
            if not ANGLE_MIN_DEG <= a <= ANGLE_MAX_DEG:
                raise ValueError(
                    f"persona azimuth {a:.1f} deg leaves [1, 180]; "
                    "reduce walk speed, duration, or spans"
                )
        if not ANGLE_MIN_DEG <= el <= ANGLE_MAX_DEG:
            raise ValueError(f"persona elevation {el:.1f} deg leaves [1, 180]")
        motion = stance_keyframes(az0, el, tof)
        return ScenePath(motion[0][1], gain=base * 10.0 ** (rel_gain_db / 20.0),
                         tag="human", motion=motion, gate=gate, phase_jitter=1.0)

    leg_gate = GainGate(period_s=p.gait_period_s, duty=p.leg_duty)
    head_gate = leg_gate if p.head_gated else None
    paths = (
        part(0.0, +half_el, -2.0, 0.0, gate=head_gate),  # head
        part(-half_az, 0.0, 0.0, 2.0),                   # torso left
        part(+half_az, 0.0, 0.0, 4.0),                   # torso right
        part(0.0, -half_el, -1.0, 6.0, gate=leg_gate),   # legs
    )
    return Scene(paths, snr_db=snr_db, packet_rate_hz=packet_rate_hz,
                 duration_s=duration_s, rng_seed=rng_seed)
