"""Spectrum interchange formats: 8-bit PGM for viewing, CSV for processing."""

from __future__ import annotations

import functools
import operator

import numpy as np

from .arraymodel import N_ANGLE_BINS
from .music import Spectrum2D


def export_spectrum(spec: Spectrum2D, path, format: str = "csv") -> None:
    """Write a spectrum as ``pgm`` (8-bit grayscale) or ``csv``."""
    if format == "pgm":
        write_pgm(spec, path)
    elif format == "csv":
        write_spectrum_csv(spec, path)
    else:
        raise ValueError(f"unknown spectrum format {format!r}, expected pgm or csv")


def write_pgm(spec: Spectrum2D, path) -> None:
    """Binary PGM, linearly scaled so the maximum bin maps to 255.

    Row 0 is elevation 180 degrees (top of the image); columns run azimuth
    1..180 left to right.
    """
    g = spec.grid
    peak = g.max()
    scaled = np.zeros_like(g) if peak <= 0 else g * (255.0 / peak)
    pixels = np.floor(scaled + 0.5).astype(np.uint8)
    raster = pixels.T[::-1]  # (elevation rows top-down, azimuth columns)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{N_ANGLE_BINS} {N_ANGLE_BINS}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())


@functools.cache
def _csv_row_prefixes() -> tuple[str, ...]:
    """``"azimuth,elevation,"`` of every CSV row, in the row-major order of the grid."""
    return tuple(f"{a},{e}," for a in range(1, N_ANGLE_BINS + 1)
                 for e in range(1, N_ANGLE_BINS + 1))


def write_spectrum_csv(spec: Spectrum2D, path) -> None:
    """CSV with header ``azimuth,elevation,power``, one row per bin.

    Powers are written with ``repr``, the shortest string that reads back to
    the same float.
    """
    powers = map(repr, spec.grid.reshape(-1).tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("azimuth,elevation,power\n")
        fh.write("\n".join(map(operator.add, _csv_row_prefixes(), powers)))
        fh.write("\n")


def read_spectrum_csv(path, timestamp_ns: int = 0) -> Spectrum2D:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.shape != (N_ANGLE_BINS * N_ANGLE_BINS, 3):
        raise ValueError(f"spectrum CSV must have {N_ANGLE_BINS * N_ANGLE_BINS} "
                         f"data rows of azimuth,elevation,power; got {data.shape}")
    grid = np.zeros((N_ANGLE_BINS, N_ANGLE_BINS))
    az = data[:, 0].astype(int) - 1
    el = data[:, 1].astype(int) - 1
    if az.min() < 0 or az.max() >= N_ANGLE_BINS or el.min() < 0 or el.max() >= N_ANGLE_BINS:
        raise ValueError("spectrum CSV angles must lie in [1, 180]")
    grid[az, el] = data[:, 2]
    return Spectrum2D(grid, timestamp_ns=timestamp_ns)
