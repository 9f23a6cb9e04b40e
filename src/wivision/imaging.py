"""Human-centric processing of spectrum tracks.

Raw angle images mix the person with the line-of-sight and every static
reflector.  :func:`enhance_track` stacks a track into one array, estimates the
static component as a per-bin temporal median (robust to the person transiting
a bin), and then subtracts it from every frame in one pass, in the linear
power domain; weak residuals such as secondary reflections are removed with a
dB threshold relative to each enhanced frame's maximum.  Because the body
reflects specularly, a single frame only images the body parts oriented toward
the receiver, so several consecutive enhanced frames are aggregated with a
per-bin maximum.
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

    def __len__(self) -> int:
        return len(self.frames)

    def append(self, frame: Spectrum2D) -> None:
        self.frames.append(frame)

    def stack(self) -> np.ndarray:
        return np.stack([f.grid for f in self.frames])


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
    needed = static_window if mode == "rolling" else 1
    if len(track) < needed:
        raise ValueError(
            f"static estimation needs at least {needed} frames, track has {len(track)}"
        )
    stack = track.stack()
    if mode == "global":
        frames = track.frames
        diff = stack
        diff -= np.median(stack, axis=0)
    else:
        frames = track.frames[static_window - 1:]
        diff = np.empty((len(frames),) + stack.shape[1:])
        for j in range(len(frames)):
            diff[j] = np.median(stack[j:j + static_window], axis=0)
        np.subtract(stack[static_window - 1:], diff, out=diff)
    np.maximum(diff, 0.0, out=diff)
    if np.isfinite(floor_db):
        peak = diff.max(axis=(1, 2), keepdims=True)
        diff[diff < peak * 10.0 ** (-floor_db / 10.0)] = 0.0
    return SpectrumTrack([Spectrum2D(d, timestamp_ns=f.timestamp_ns)
                          for d, f in zip(diff, frames)],
                         frame_rate_hz=track.frame_rate_hz)
