"""Spectrum interchange formats: 8-bit PGM for viewing, CSV for processing.

CSV powers are written exactly as Python's ``repr`` writes them: the shortest
decimal that reads back to the same double.  Calling ``repr`` on each of the
32,400 bins cost most of the time spent writing a frame, so
:func:`write_spectrum_csv` finds those digits for a whole frame at once in
uint64 arithmetic.  It ports Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020) as OpenJDK's ``DoubleToDecimal`` implements it; for
normal doubles Schubfach picks the same decimal as Ryu (U. Adams, PLDI 2018)
and as ``repr``.  The rows are then laid out as bytes with array operations.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple

import numpy as np

from .arraymodel import N_ANGLE_BINS
from .music import Spectrum2D


def _check_shape(grid: np.ndarray) -> None:
    if grid.shape != (N_ANGLE_BINS, N_ANGLE_BINS):
        raise ValueError(f"spectrum grid must be {N_ANGLE_BINS}x{N_ANGLE_BINS}, "
                         f"got {grid.shape}")


def write_pgm(grid: np.ndarray, path) -> None:
    """Binary PGM of a :attr:`Spectrum2D.grid`-like ``(180, 180)`` array,
    linearly scaled so the maximum bin maps to 255.

    Row 0 is elevation 180 degrees (top of the image); columns run azimuth
    1..180 left to right.
    """
    _check_shape(grid)
    peak = float(grid.max())
    if peak <= 0:
        scaled = np.zeros_like(grid)
    elif math.isfinite(255.0 / peak):
        scaled = grid * (255.0 / peak)
    else:  # peak below 255 / DBL_MAX: 255 / peak overflows, grid / peak cannot
        scaled = grid / peak * 255.0
    pixels = np.floor(scaled + 0.5).astype(np.uint8)
    raster = pixels.T[::-1]  # (elevation rows top-down, azimuth columns)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{N_ANGLE_BINS} {N_ANGLE_BINS}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())


# A positive normal double is c·2^q with c in [2^52, 2^53) and q >= -1074; its
# shortest decimal is f·10^k.  Names follow DoubleToDecimal.
_C_MIN = 1 << 52
_T_MASK = np.uint64(_C_MIN - 1)
_LOW32 = np.uint64(0xFFFF_FFFF)
_LOW63 = np.uint64((1 << 63) - 1)
_DOTS = np.uint64(int.from_bytes(b"." * 8, "little"))
_ZEROS = np.frombuffer(b"0" * 20 + b"\0" * 4, dtype="<u8")[:, None]  # digit words of f = 0
_WORD_BYTE = np.array([[0], [8], [16]])
_POW10 = np.array([10 ** i for i in range(19)], dtype=np.uint64)
# Every f has at most 18 digits, so f·10^(18 - len(f)) holds them all.  The
# shortest decimal has at most 17 significant digits, and a row shows at most
# 18 characters of digits and point.
_DIGITS = 18
# Rows per pass of _value_words.  Each temporary array then stays below glibc's
# 128 KiB mmap threshold, so it is reused heap memory rather than fresh pages.
_CHUNK = 3240
_DECPT_MIN = -323  # value = 0.d1d2… × 10^decpt; 5e-324 has decpt -323
_DECPT_MAX = 309   # DBL_MAX, 1.7976931348623157e+308


def _flog10pow2(e: int) -> int:
    """floor(log10(2^e))."""
    return (e * 661971961083) >> 41


def _flog10_three_quarters_pow2(e: int) -> int:
    """floor(log10(3/4 · 2^e))."""
    return (e * 661971961083 - 274743187321) >> 41


def _flog2pow10(e: int) -> int:
    """floor(log2(10^e))."""
    return (e * 913124641741) >> 38


# A CSV row is built as 5 little-endian uint64 words, 40 bytes, then its NUL
# bytes are dropped:
#   word 0       "azimuth,elevation,"
#   word 1       the sign, then "0." and the zeros of 0.000ddd
#   words 2 to 4 up to 18 digits with the point, then from byte 34 the
#                exponent of d.ddde±XX, and the newline in byte 39
class _CsvTables(NamedTuple):
    zero_rows: np.ndarray  # (32400, 5) every row as if its value were 0.0
    k: np.ndarray          # (4096,) decimal exponent, by 2·(biased exponent) + irregular
    scale: np.ndarray      # (6, 4096) h, g1, and the 32-bit halves of g1 and g0, by the same
    quad: np.ndarray       # (10000,) "%04d" % i as a word
    point: np.ndarray      # byte of the point among the digits (24: none), by decpt
    run: np.ndarray        # digits shown at least, by decpt
    lead: np.ndarray       # word 1 without the sign, by decpt
    tail: np.ndarray       # the exponent and the newline in word 4, by decpt
    keep: np.ndarray       # (3, 26) mask of the first L bytes of 3 words, L = 0..25


@functools.cache
def _csv_tables() -> _CsvTables:
    """Tables for :func:`write_spectrum_csv`, built once per process."""
    zero_rows = np.zeros((N_ANGLE_BINS * N_ANGLE_BINS, 5), dtype="<u8")
    angle = [f"{i},".encode("ascii") for i in range(1, N_ANGLE_BINS + 1)]
    word = np.array([int.from_bytes(a, "little") for a in angle], dtype=np.uint64)
    shift = np.array([8 * len(a) for a in angle], dtype=np.uint64)
    zero_rows[:, 0] = (word[:, None] | word << shift[:, None]).reshape(-1)
    zero_rows[:, 2] = int.from_bytes(b"0.0", "little")
    zero_rows[:, 4] = int.from_bytes(b"\0" * 7 + b"\n", "little")
    ks, scale = [], []
    for bq in range(2048):
        q = max(bq, 1) - 1075  # bq 0 (subnormal) never reaches the table
        for irregular in (False, True):
            k = _flog10_three_quarters_pow2(q) if irregular else _flog10pow2(q)
            # g = floor(10^-k · 2^-r) + 1, with r such that 2^125 <= g - 1 < 2^126
            r = _flog2pow10(-k) - 125
            if k > 0:
                g = (1 << -r) // 10 ** k + 1
            elif r < 0:
                g = (10 ** -k << -r) + 1
            else:
                g = (10 ** -k >> r) + 1
            g1, g0 = g >> 63, g & ((1 << 63) - 1)
            ks.append(k)
            scale.append((q + _flog2pow10(-k) + 2, g1, g1 >> 32, g1 & 0xFFFF_FFFF,
                          g0 >> 32, g0 & 0xFFFF_FFFF))
    i = np.arange(10_000, dtype=np.uint64)
    quad = sum((i // 10 ** (3 - j) % 10 + ord("0")) << 8 * j for j in range(4))
    point, run, lead, tail = [], [], [], []
    for decpt in range(_DECPT_MIN, _DECPT_MAX + 1):
        zeros = exponent = b""
        if 0 < decpt <= 16:      # ddd.ddd, with at least one digit after the point
            point.append(decpt)
            run.append(decpt + 1)
        elif -4 < decpt <= 0:    # 0.000ddd
            point.append(24)
            run.append(0)
            zeros = b"0." + b"0" * -decpt
        else:                    # d.ddde±XX, with no point when there is one digit
            point.append(1)
            run.append(0)
            exponent = b"e%+03d" % (decpt - 1)
        lead.append(int.from_bytes(b"\0" + zeros, "little"))
        tail.append(int.from_bytes(b"\0\0" + exponent.ljust(5, b"\0") + b"\n", "little"))
    keep = [np.frombuffer((b"\xff" * n)[:24].ljust(24, b"\0"), dtype="<u8") for n in range(26)]
    return _CsvTables(zero_rows, np.array(ks, dtype=np.int64),
                      np.array(scale, dtype=np.uint64).T.copy(),
                      quad, np.array(point), np.array(run),
                      np.array(lead, dtype=np.uint64), np.array(tail, dtype=np.uint64),
                      np.array(keep, dtype=np.uint64).T.copy())


def _mulhi(ah, al, bh, bl):
    """High 64 bits of the 128-bit product a·b, from the 32-bit halves of a and b."""
    lh = al * bh
    hl = ah * bl
    mid = ((al * bl) >> 32) + (lh & _LOW32) + (hl & _LOW32)
    return ah * bh + (lh >> 32) + (hl >> 32) + (mid >> 32)


def _rop(g1, g1h, g1l, g0h, g0l, cp):
    """g·cp / 2^127 rounded to odd, for g = g1·2^63 + g0 (``rop`` of DoubleToDecimal)."""
    ch, cl = cp >> 32, cp & _LOW32
    z = ((g1 * cp) >> 1) + _mulhi(g0h, g0l, ch, cl)
    return (_mulhi(g1h, g1l, ch, cl) + (z >> 63)) | (((z & _LOW63) + _LOW63) >> 63)


def _shortest(mag: np.ndarray, tables: _CsvTables) -> tuple[np.ndarray, np.ndarray]:
    """``(f, k)``, f·10^k the shortest decimal of each positive normal double.

    ``mag`` holds the doubles' bits.  Of the shortest decimals that round to a
    double, this is the closest one, and the even one of two equally close.
    """
    t = mag & _T_MASK
    bq = mag >> 52
    # Irregular spacing: c = 2^52 above the smallest exponent, so the next
    # double below is closer than the next one above.
    irregular = (t == 0) & (bq > 1)
    idx = bq << 1 | irregular
    k = np.take(tables.k, idx)
    g = np.take(tables.scale, idx, axis=1)
    h = g[0]
    c = t | _C_MIN
    out = c & 1  # an odd c excludes the ends of its rounding interval
    cb = c << 2
    vb = _rop(*g[1:], cb << h)
    vbl = _rop(*g[1:], (cb - 2 + irregular) << h)
    vbr = _rop(*g[1:], (cb + 2) << h)
    s = vb >> 2
    # One digit fewer: take u' = sp10 or w' = sp10 + 10 if exactly one rounds to v.
    sp10 = s // 10 * 10
    upin = vbl + out <= sp10 << 2
    wpin = ((sp10 + 10) << 2) + out <= vbr
    uin = vbl + out <= s << 2
    win = ((s + 1) << 2) + out <= vbr
    # If both s and s + 1 round to v, the closer one; on a tie, the even one.
    frac = vb & 3
    pick_s = np.where(uin != win, uin, (frac < 2) | ((frac == 2) & ((s & 1) == 0)))
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + 10), s + ~pick_s)
    return f, k


def _value_words(values: np.ndarray, tables: _CsvTables) -> np.ndarray:
    """Words 1 to 4 of the rows of nonzero ``values``: ``repr(value)`` and ``\\n``.

    Returns a (4, n) uint64 array.  Bytes outside the text are NUL.
    """
    bits = values.view(np.uint64)
    mag = bits & _LOW63
    # f·10^k per value; -0.0 keeps 0·10^1, which lays out as 0.0
    f = np.zeros(bits.size, dtype=np.uint64)
    k = np.ones(bits.size, dtype=np.int64)
    normal = np.flatnonzero(mag >= _C_MIN)
    f[normal], k[normal] = _shortest(mag[normal], tables)
    for i in np.flatnonzero((mag != 0) & (mag < _C_MIN)):  # subnormal: rare, so repr
        mantissa, _, exponent = repr(abs(float(values[i]))).partition("e")
        digits = mantissa.replace(".", "")
        f[i], k[i] = int(digits), int(exponent) - len(digits) + 1

    # The digits of f, left-aligned: one ASCII digit per byte of 3 words.
    n_digits = np.searchsorted(_POW10, f, side="right")
    decpt = n_digits + k
    hi, lo = np.divmod(f * np.take(_POW10, _DIGITS - n_digits), 10 ** 10)
    mid, low = np.divmod(lo, 1_000_000)
    quad = tables.quad
    digits = np.stack([np.take(quad, hi // 10_000) | np.take(quad, hi % 10_000) << 32,
                       np.take(quad, mid) | np.take(quad, low // 100) << 32,
                       np.take(quad, low % 100 * 100)])
    # Significant digits: up to the highest byte of the words that is not "0".
    # Each byte of d is below 10, so no word rounds up past its top byte in
    # float64, and frexp's exponent is its bit length.
    d = digits ^ _ZEROS
    d_bytes = (np.frexp(d.astype(np.float64))[1] + 7) // 8
    nd = np.max(np.where(d_bytes > 0, d_bytes + _WORD_BYTE, 0), axis=0)

    # Insert the point, cut after the last digit shown, and add the rest.
    row = decpt - _DECPT_MIN
    point = np.take(tables.point, row)
    shown = np.maximum(nd, np.take(tables.run, row))
    shown += point < shown
    below = np.take(tables.keep, point, axis=1)
    above = digits & ~below
    moved = above << 8
    moved[1:] |= above[:-1] >> 56
    dot = (np.take(tables.keep, point + 1, axis=1) ^ below) & _DOTS
    words = np.empty((4, bits.size), dtype=np.uint64)
    words[0] = np.take(tables.lead, row) | (bits >> 63) * ord("-")
    words[1:] = (digits & below | dot | moved) & np.take(tables.keep, shown, axis=1)
    words[3] |= np.take(tables.tail, row)
    return words


def _csv_rows(values: np.ndarray) -> bytes:
    """The rows ``azimuth,elevation,repr(value)\\n`` of a flat grid, or of its start."""
    tables = _csv_tables()
    parts = []
    for start in range(0, values.size, _CHUNK):
        block = values[start:start + _CHUNK]
        rows = tables.zero_rows[start:start + block.size].copy()
        at = np.flatnonzero(block.view(np.uint64))
        rows[at, 1:] = _value_words(block[at], tables).T
        flat = rows.view(np.uint8).reshape(-1)
        parts.append(flat[flat != 0])
    return b"".join(parts)


def write_spectrum_csv(grid: np.ndarray, path) -> None:
    """CSV of a :attr:`Spectrum2D.grid`-like ``(180, 180)`` float64 array, with
    header ``azimuth,elevation,power`` and one row per bin.

    Powers are written exactly as ``repr`` writes them: the shortest string
    that reads back to the same float.
    """
    _check_shape(grid)
    with open(path, "wb") as fh:
        fh.write(b"azimuth,elevation,power\n" + _csv_rows(grid.reshape(-1)))


def read_spectrum_csv(path) -> Spectrum2D:
    """Read a spectrum CSV; every fault raises a ``ValueError`` naming ``path``.

    The file must hold one row per (azimuth, elevation) bin, each exactly once.
    """
    try:
        return _parse_spectrum_csv(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_spectrum_csv(path) -> Spectrum2D:
    n_bins = N_ANGLE_BINS * N_ANGLE_BINS
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data rows: reported below
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (n_bins, 3):
        raise ValueError(f"spectrum CSV must have {n_bins} data rows of "
                         f"azimuth,elevation,power; got {data.shape}")
    angles = data[:, :2]
    if not np.all((angles >= 1) & (angles <= N_ANGLE_BINS) & (angles == np.floor(angles))):
        raise ValueError(f"spectrum CSV angles must be whole degrees in [1, {N_ANGLE_BINS}]")
    az = data[:, 0].astype(int) - 1
    el = data[:, 1].astype(int) - 1
    missing = np.flatnonzero(np.bincount(az * N_ANGLE_BINS + el, minlength=n_bins) == 0)
    if missing.size:  # as many rows as bins, so some bin is also repeated
        a, e = divmod(int(missing[0]), N_ANGLE_BINS)
        raise ValueError(f"spectrum CSV has no row for azimuth {a + 1}, elevation {e + 1}; "
                         "every bin must appear exactly once")
    grid = np.zeros((N_ANGLE_BINS, N_ANGLE_BINS))
    grid[az, el] = data[:, 2]
    return Spectrum2D(grid)
