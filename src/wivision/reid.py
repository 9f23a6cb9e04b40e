"""Hand-crafted identity features and ranking metrics.

The feature extractor is deliberately simple: body extents and centroid from
an aggregated enhanced track, plus gait period and power modulation from the
per-frame total-power series.  It exists to exercise the ranking and
cumulative-matching machinery end to end with the synthetic persona harness;
it is not a learned embedding.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Mapping, Sequence

import numpy as np

from .imaging import SpectrumTrack

MIN_FEATURE_FRAMES = 50
FEATURE_FLOOR_DB = 20.0
SMOOTHING_FRAMES = 5
MIN_GAIT_AUTOCORR = 0.25


@dataclass(frozen=True)
class FeatureVector:
    """Persona descriptor: static body extents plus dynamic gait summary."""

    elevation_extent_deg: float
    azimuth_extent_deg: float
    total_power: float
    centroid_elevation_deg: float
    gait_period_s: float
    power_modulation_depth: float

    def __post_init__(self):
        if self.elevation_extent_deg < 0 or self.azimuth_extent_deg < 0:
            raise ValueError("extents must be >= 0")
        if self.gait_period_s < 0:
            raise ValueError("gait period must be >= 0 (0 means undetected)")
        if not 0.0 <= self.power_modulation_depth <= 1.0:
            raise ValueError("modulation depth must be in [0, 1]")

    def as_array(self) -> np.ndarray:
        return np.array(astuple(self))


def _dominant_autocorr_lag(series: np.ndarray, min_peak: float) -> int:
    """Lag of the strongest autocorrelation local maximum, 0 if none qualifies."""
    q = series - series.mean()
    ac = np.correlate(q, q, mode="full")[len(q) - 1:]
    if ac[0] <= 0:
        return 0
    ac = ac / ac[0]
    max_lag = len(q) // 2
    best_lag, best_val = 0, min_peak
    for lag in range(2, max_lag):
        if ac[lag] > ac[lag - 1] and ac[lag] >= ac[lag + 1] and ac[lag] > best_val:
            best_lag, best_val = lag, ac[lag]
    return best_lag


def extract_features(track: SpectrumTrack) -> FeatureVector:
    """Extract the identity feature vector from an enhanced spectrum track.

    Extents and centroid come from the power-weighted aggregate of all frames
    (bins above the dB floor); the gait period is the dominant autocorrelation
    lag of the per-frame total-power series, 0 when no periodicity stands out.
    """
    if len(track) < MIN_FEATURE_FRAMES:
        raise ValueError(f"feature extraction needs at least {MIN_FEATURE_FRAMES} frames, "
                         f"track has {len(track)}")
    stack = track.stack()
    agg = stack.max(axis=0)
    peak = agg.max()
    if peak <= 0:
        raise ValueError("track is all-zero; no subject to describe")
    active = agg >= peak * 10.0 ** (-FEATURE_FLOOR_DB / 10.0)
    az_idx, el_idx = np.nonzero(active)
    az_deg = az_idx + 1.0
    el_deg = el_idx + 1.0
    weights = agg[active]
    centroid_el = float(np.sum(el_deg * weights) / np.sum(weights))

    power = stack.sum(axis=(1, 2))
    total_power = float(power.mean())
    # smoothing suppresses frame-rate texture (window straddling, bin
    # crossings) so the modulation and its period reflect the subject
    kernel = np.ones(SMOOTHING_FRAMES) / SMOOTHING_FRAMES
    smoothed = np.convolve(power, kernel, mode="valid")
    hi, lo = float(smoothed.max()), float(smoothed.min())
    modulation = (hi - lo) / (hi + lo) if hi + lo > 0 else 0.0

    lag = _dominant_autocorr_lag(smoothed, MIN_GAIT_AUTOCORR)
    gait_period = lag / track.frame_rate_hz if lag else 0.0

    return FeatureVector(
        elevation_extent_deg=float(el_deg.max() - el_deg.min()),
        azimuth_extent_deg=float(az_deg.max() - az_deg.min()),
        total_power=total_power,
        centroid_elevation_deg=centroid_el,
        gait_period_s=gait_period,
        power_modulation_depth=float(np.clip(modulation, 0.0, 1.0)),
    )


@dataclass(frozen=True)
class RankingResult:
    """Gallery identities ordered by ascending feature distance to one probe."""

    probe_id: str
    gallery_ids: tuple[str, ...]
    distances: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float)
        if d.shape != (len(self.gallery_ids),):
            raise ValueError("one distance per gallery id required")
        if np.any(d < 0) or np.any(np.diff(d) < 0):
            raise ValueError("distances must be nonnegative and ascending")
        if len(set(self.gallery_ids)) != len(self.gallery_ids):
            raise ValueError("gallery ids must be unique")
        object.__setattr__(self, "distances", d)

    def rank_of(self, gallery_id: str) -> int:
        """1-based rank of a gallery identity."""
        return self.gallery_ids.index(gallery_id) + 1


def rank(probe: FeatureVector,
         gallery: Sequence[tuple[str, FeatureVector]],
         probe_id: str = "probe") -> RankingResult:
    """Rank gallery identities by Euclidean distance in z-normalized features.

    Normalization statistics (per-component mean and standard deviation) come
    from the gallery; constant components are left unscaled.  Ties keep
    gallery insertion order.
    """
    if not gallery:
        raise ValueError("gallery must be nonempty")
    ids = [g_id for g_id, _ in gallery]
    feats = np.stack([fv.as_array() for _, fv in gallery])
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std[std == 0] = 1.0
    z_gallery = (feats - mean) / std
    z_probe = (probe.as_array() - mean) / std
    dist = np.linalg.norm(z_gallery - z_probe, axis=1)
    order = np.argsort(dist, kind="stable")
    return RankingResult(probe_id, tuple(ids[i] for i in order), dist[order])


@dataclass(frozen=True)
class CmcCurve:
    """Cumulative matching characteristic: values[k-1] is the rank-k accuracy."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("CMC curve must be a nonempty 1-D sequence")
        if np.any(v < 0) or np.any(v > 1) or np.any(np.diff(v) < -1e-12):
            raise ValueError("CMC values must be nondecreasing fractions in [0, 1]")
        object.__setattr__(self, "values", v)

    def rank_accuracy(self, k: int) -> float:
        if not 1 <= k <= self.values.size:
            raise ValueError(f"rank must be in [1, {self.values.size}], got {k}")
        return float(self.values[k - 1])

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("k,accuracy\n")
            for k, v in enumerate(self.values, start=1):
                fh.write(f"{k},{float(v)!r}\n")


def cmc(results: Sequence[RankingResult], truth: Mapping[str, str]) -> CmcCurve:
    """CMC curve over ranking results given the probe -> gallery truth map."""
    if not results:
        raise ValueError("cmc needs at least one ranking result")
    max_rank = max(len(r.gallery_ids) for r in results)
    hits = np.zeros(max_rank)
    for r in results:
        if r.probe_id not in truth:
            raise ValueError(f"probe {r.probe_id!r} missing from truth map")
        true_id = truth[r.probe_id]
        if true_id in r.gallery_ids:
            hits[r.rank_of(true_id) - 1:] += 1
    return CmcCurve(hits / len(results))
