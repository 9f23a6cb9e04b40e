"""Human-centric processing of spectrum tracks.

Raw angle images mix the person with the line-of-sight and every static
reflector.  The static component is estimated as a per-bin temporal median
(robust to the person transiting a bin) and subtracted in the linear power
domain; weak residuals such as secondary reflections are removed with a dB
threshold relative to the enhanced image's maximum.  Because the body reflects
specularly, a single frame only images the body parts oriented toward the
receiver, so several consecutive enhanced frames are aggregated with a per-bin
maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .music import Spectrum2D

DEFAULT_FRAME_RATE_HZ = 30.0
DEFAULT_STATIC_WINDOW = 90
DEFAULT_FLOOR_DB = 20.0
DEFAULT_AGGREGATE_FRAMES = 15


@dataclass
class SpectrumTrack:
    """Time-ordered spectrum frames at a fixed frame rate."""

    frames: list[Spectrum2D] = field(default_factory=list)
    frame_rate_hz: float = DEFAULT_FRAME_RATE_HZ

    def __post_init__(self):
        if not self.frame_rate_hz > 0:
            raise ValueError(f"frame_rate_hz must be positive, got {self.frame_rate_hz}")
        shapes = {f.grid.shape for f in self.frames}
        if len(shapes) > 1:
            raise ValueError(f"track frames must share one shape, got {shapes}")

    def __len__(self) -> int:
        return len(self.frames)

    def append(self, frame: Spectrum2D) -> None:
        if self.frames and frame.grid.shape != self.frames[0].grid.shape:
            raise ValueError("appended frame shape does not match track")
        self.frames.append(frame)

    def stack(self) -> np.ndarray:
        return np.stack([f.grid for f in self.frames])


def static_estimate(track: SpectrumTrack, window: int = DEFAULT_STATIC_WINDOW) -> Spectrum2D:
    """Per-bin temporal median over the trailing ``window`` frames."""
    if window < 1:
        raise ValueError("static window must be >= 1")
    if len(track) < window:
        raise ValueError(
            f"static estimation needs at least {window} frames, track has {len(track)}"
        )
    block = np.stack([f.grid for f in track.frames[-window:]])
    return Spectrum2D(np.median(block, axis=0), timestamp_ns=track.frames[-1].timestamp_ns)


def enhance(frame: Spectrum2D, static: Spectrum2D,
            floor_db: float = DEFAULT_FLOOR_DB) -> Spectrum2D:
    """Subtract the static spectrum and zero bins far below the new maximum.

    Subtraction happens in linear power (clamped at zero); afterwards every bin
    more than ``floor_db`` below the enhanced image's maximum is zeroed, which
    removes weak secondary reflections.
    """
    if frame.grid.shape != static.grid.shape:
        raise ValueError(
            f"frame shape {frame.grid.shape} does not match static {static.grid.shape}"
        )
    diff = np.maximum(frame.grid - static.grid, 0.0)
    peak = diff.max()
    if peak > 0 and np.isfinite(floor_db):
        diff[diff < peak * 10.0 ** (-floor_db / 10.0)] = 0.0
    return Spectrum2D(diff, timestamp_ns=frame.timestamp_ns)


def aggregate(track: SpectrumTrack, k: int = DEFAULT_AGGREGATE_FRAMES) -> Spectrum2D:
    """Per-bin maximum over the ``k`` most recent frames of an enhanced track."""
    if k < 1:
        raise ValueError("aggregation needs k >= 1 frames")
    if len(track) < k:
        raise ValueError(f"aggregation needs at least {k} frames, track has {len(track)}")
    block = np.stack([f.grid for f in track.frames[-k:]])
    return Spectrum2D(block.max(axis=0), timestamp_ns=track.frames[-1].timestamp_ns)


def enhance_track(track: SpectrumTrack, static_window: int = DEFAULT_STATIC_WINDOW,
                  floor_db: float = DEFAULT_FLOOR_DB, *,
                  mode: str = "rolling") -> SpectrumTrack:
    """Enhance every frame of a raw track.

    ``rolling`` uses, for each frame, the median over the trailing
    ``static_window`` frames ending at that frame (the first
    ``static_window - 1`` frames are dropped).  ``global`` estimates one static
    spectrum from the median over the whole track and applies it everywhere,
    which suits short captures where a moving subject never dominates a bin;
    it does not use ``static_window``.
    """
    if mode not in ("rolling", "global"):
        raise ValueError(f"mode must be 'rolling' or 'global', got {mode!r}")
    if static_window < 1:
        raise ValueError("static window must be >= 1")
    needed = static_window if mode == "rolling" else 1
    if len(track) < needed:
        raise ValueError(
            f"static estimation needs at least {needed} frames, track has {len(track)}"
        )
    out = SpectrumTrack(frame_rate_hz=track.frame_rate_hz)
    if mode == "global":
        static = static_estimate(track, window=len(track))
        for frame in track.frames:
            out.append(enhance(frame, static, floor_db))
        return out
    stack = track.stack()
    for i in range(static_window - 1, len(track)):
        block = stack[i - static_window + 1:i + 1]
        static = Spectrum2D(np.median(block, axis=0))
        out.append(enhance(track.frames[i], static, floor_db))
    return out
