"""Human-centric processing of spectrum tracks.

A track is one ``(frames, 180, 180)`` array of spectrum grids with a
timestamp per frame.  Raw angle images mix the person with the line-of-sight
and every static reflector.  :func:`enhance_track` estimates the static
component from the track's array as a per-bin temporal median (robust to the
person transiting a bin), and then subtracts it from every frame in one pass,
in the linear power domain; weak residuals such as secondary reflections are
removed with a dB threshold relative to each enhanced frame's maximum.
Because the body reflects specularly, a single frame only images the body
parts oriented toward the receiver, so several consecutive enhanced frames are
aggregated with a per-bin maximum.
"""

from __future__ import annotations

import numpy as np

from .arraymodel import N_ANGLE_BINS
from .music import Spectrum2D

DEFAULT_FRAME_RATE_HZ = 30.0
DEFAULT_STATIC_WINDOW = 90
DEFAULT_FLOOR_DB = 20.0
DEFAULT_AGGREGATE_FRAMES = 15


class SpectrumTrack:
    """Time-ordered spectrum frames at a fixed frame rate, validated once when built.

    ``grids`` is one read-only ``(n, 180, 180)`` array, not copied when float64;
    frame ``i`` is taken at ``timestamps_ns[i]`` (by default ``i``).
    """

    def __init__(self, grids=None, timestamps_ns=None,
                 frame_rate_hz: float = DEFAULT_FRAME_RATE_HZ):
        n = N_ANGLE_BINS
        g = np.empty((0, n, n)) if grids is None else np.asarray(grids, dtype=float)
        ts = np.arange(len(g)) if timestamps_ns is None else np.asarray(timestamps_ns, np.int64)
        if g.ndim != 3 or g.shape[1:] != (n, n) or ts.shape != (len(g),):
            raise ValueError(f"a track is (frames, {n}, {n}) grids with one timestamp "
                             f"per frame, got grids {g.shape} and timestamps {ts.shape}")
        # NaN fails min >= 0 as a negative value does
        if g.size and not (g.min() >= 0 and np.isfinite(g.max())):
            raise ValueError("spectrum values must be finite and >= 0")
        if not (np.isfinite(frame_rate_hz) and frame_rate_hz > 0):
            raise ValueError(f"frame_rate_hz must be finite and > 0, got {frame_rate_hz}")
        g.setflags(write=False)
        ts.setflags(write=False)
        self._rows, self.grids, self.timestamps_ns = g, g, ts
        self.frame_rate_hz = float(frame_rate_hz)

    def __len__(self) -> int:
        return len(self.timestamps_ns)

    def append(self, frame: Spectrum2D) -> None:
        """Add ``frame`` after the last.  A full track first reserves as many
        spare rows as it holds frames, so ``n`` appends copy O(n) frames."""
        n = len(self)
        if n == len(self._rows):
            self._rows = np.empty((max(1, 2 * n),) + self._rows.shape[1:])
            self._rows[:n] = self.grids
        self._rows[n] = frame.grid
        self.grids = self._rows[:n + 1]
        self.grids.setflags(write=False)
        self.timestamps_ns = np.append(self.timestamps_ns, frame.timestamp_ns)
        self.timestamps_ns.setflags(write=False)


def aggregate(track: SpectrumTrack, k: int = DEFAULT_AGGREGATE_FRAMES) -> Spectrum2D:
    """Per-bin maximum over the ``k`` most recent frames of an enhanced track."""
    if k < 1:
        raise ValueError("aggregation needs k >= 1 frames")
    if len(track) < k:
        raise ValueError(f"aggregation needs at least {k} frames, track has {len(track)}")
    return Spectrum2D(track.grids[-k:].max(axis=0),
                      timestamp_ns=int(track.timestamps_ns[-1]))


def enhance_track(track: SpectrumTrack, static_window: int = DEFAULT_STATIC_WINDOW,
                  floor_db: float = DEFAULT_FLOOR_DB, *,
                  mode: str = "rolling") -> SpectrumTrack:
    """Enhance every frame of a raw track.

    The static spectrum is a per-bin median.  ``rolling`` takes, for each
    frame, the median over the trailing ``static_window`` frames ending at that
    frame (the first ``static_window - 1`` frames are dropped).  ``global``
    takes one median over the whole track and applies it everywhere, which
    suits short captures where a moving subject never dominates a bin; it does
    not use ``static_window``.

    Each frame minus its static spectrum is clamped at zero; then every bin
    more than ``floor_db`` below that frame's maximum is zeroed, which removes
    weak secondary reflections.  ``floor_db`` must be >= 0 or infinite; an
    infinite one zeroes nothing.
    """
    if mode not in ("rolling", "global"):
        raise ValueError(f"mode must be 'rolling' or 'global', got {mode!r}")
    if not (floor_db >= 0 or np.isinf(floor_db)):
        raise ValueError(f"floor_db must be >= 0 or infinite, got {floor_db}")
    if static_window < 1:
        raise ValueError("static window must be >= 1")
    first = static_window - 1 if mode == "rolling" else 0
    if len(track) <= first:
        raise ValueError(f"static estimation needs at least {first + 1} frames, "
                         f"track has {len(track)}")
    grids = track.grids
    diff = np.empty((len(grids) - first,) + grids.shape[1:])
    if mode == "global":
        diff[:] = np.median(grids, axis=0)
    else:
        for j in range(len(diff)):
            diff[j] = np.median(grids[j:j + static_window], axis=0)
    np.subtract(grids[first:], diff, out=diff)
    np.maximum(diff, 0.0, out=diff)
    if np.isfinite(floor_db):
        peak = diff.max(axis=(1, 2), keepdims=True)
        diff[diff < peak * 10.0 ** (-floor_db / 10.0)] = 0.0
    return SpectrumTrack(diff, track.timestamps_ns[first:], track.frame_rate_hz)
