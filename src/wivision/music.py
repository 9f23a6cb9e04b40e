"""Joint (azimuth, elevation, tof, aod) MUSIC over the virtual array.

Pipeline: sliding snapshot windows over the packet stream, signal/noise
subspace split by the method of snapshots, and a spatial-spectrum scan

    P(az, el, tof, aod) = 1 / (a^H E_N E_N^H a)

reduced over the (tof, aod) grid to a 180 x 180 angle image.

Three implementation notes that matter for speed on the 810-element virtual
array:

* Windows are read-only views into one vectorized copy of the stream.
* With far fewer snapshots than array elements the covariance is rank
  deficient, so the signal basis comes from the method of snapshots
  (Sirovich 1987): the small window_len x window_len Gram matrix X^H X is
  eigendecomposed and only the kept eigenvectors are lifted to the array,
  U = X V Lambda^(-1/2).  The noise projection is evaluated implicitly as
  ``|a|^2 - |E_S^H a|^2``; the 700-odd noise eigenvectors are never formed.
* The scan never materializes steering vectors.  Basis columns are contracted
  against the tx and subcarrier factor vectors per (tof, aod) grid point and
  collapsed to a 9 x 9 Hermitian form.  Every rx element lies in the y == 0
  plane, so the z-part of an rx pair product depends on elevation alone and,
  on one elevation row, the pairs collapse onto their distinct x-lags (4 on
  the default L-array).  One small complex product phases and sums the pair
  forms per lag and row; the denominators of a chunk of whole elevation rows
  are then one batched real product of a cached per-row table
  ``[1 | cos(kappa lag u) | sin(kappa lag u)]`` against those per-row
  coefficients.  The tail is a gated clip (it runs only when the chunk's
  minimum falls below the floor), the reciprocal, and a reduction: ``sum`` is
  one matrix-vector product with a ones vector, ``max`` is ``np.max``.  A full
  image takes about 9.4 ms per window on a 2-core Xeon (s_hat 12), of which
  the reciprocal is about 3 ms.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from .arraymodel import (
    N_ANGLE_BINS,
    ArrayGeometry,
    ChannelConfig,
    direction_vector,
    subcarrier_factors,
    tx_factors,
)
from .simulate import CsiStream

logger = logging.getLogger(__name__)

DEFAULT_WINDOW_LEN = 100
DEFAULT_STRIDE = 33
DEFAULT_TOF_GRID_S = np.arange(16) * 5e-9
DEFAULT_AOD_GRID_DEG = np.arange(20.0, 161.0, 20.0)

_EIGENVALUE_FLOOR_REL = 1e-9
_THRESHOLD_FACTOR = 10.0
_DENOMINATOR_FLOOR_REL = 1e-15
_LAG_TOL_WAVELENGTHS = 1e-12
_CHUNK_DOUBLES = 1 << 16


@dataclass(frozen=True)
class GridSpec:
    """Search grids for the marginalized time-of-flight and AoD dimensions."""

    tof_grid_s: np.ndarray = field(default_factory=lambda: DEFAULT_TOF_GRID_S.copy())
    aod_grid_deg: np.ndarray = field(default_factory=lambda: DEFAULT_AOD_GRID_DEG.copy())

    def __post_init__(self):
        for name in ("tof_grid_s", "aod_grid_deg"):
            g = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if g.size == 0:
                raise ValueError(f"{name} must be nonempty")
            if not np.all(np.isfinite(g)):
                raise ValueError(f"{name} must be finite, got {g}")
            if g.size > 1 and np.any(np.diff(g) <= 0):
                raise ValueError(f"{name} must be strictly increasing")
            g.setflags(write=False)
            object.__setattr__(self, name, g)


@dataclass(frozen=True)
class SnapshotWindow:
    """One covariance estimation window: vectorized frames as matrix columns.

    Rows follow the steering-vector ordering (tx-major, then rx, then
    subcarrier); there is one column per packet.
    """

    matrix: np.ndarray
    timestamp_ns: int = 0

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[1] < 1:
            raise ValueError("window matrix must be 2-D with at least one column, "
                             f"got shape {self.matrix.shape}")

    @property
    def window_len(self) -> int:
        return self.matrix.shape[1]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def vectorize_frames(tensors: np.ndarray) -> np.ndarray:
    """(n, rx, tx, su) frame tensors -> (n, rx*tx*su) rows in steering order."""
    n = tensors.shape[0]
    return np.ascontiguousarray(tensors.transpose(0, 2, 1, 3)).reshape(n, -1)


def windows(stream: CsiStream, window_len: int = DEFAULT_WINDOW_LEN,
            stride: int = DEFAULT_STRIDE) -> list[SnapshotWindow]:
    """Overlapping snapshot windows; empty (with a log note) if the stream is short.

    Window matrices are read-only views into one vectorized copy of the stream,
    so overlapping windows share memory.
    """
    if window_len < 1 or stride < 1:
        raise ValueError("window_len and stride must be >= 1")
    n = len(stream)
    if n < window_len:
        logger.warning("stream of %d packets is shorter than one %d-packet window; "
                       "no windows produced", n, window_len)
        return []
    rows = vectorize_frames(stream.tensors)
    # views[start] is the (dim, window_len) matrix of packets start.. as columns
    views = np.lib.stride_tricks.sliding_window_view(rows, window_len, axis=0)
    ts = stream.timestamps_ns
    return [SnapshotWindow(views[start], timestamp_ns=int(ts[start + window_len - 1]))
            for start in range(0, n - window_len + 1, stride)]


def estimate_source_count(eigenvalues: np.ndarray, *, method: str = "threshold",
                          n_snapshots: int | None = None) -> int:
    """Estimate the number of sources from descending covariance eigenvalues.

    ``threshold`` counts eigenvalues above ten times a noise-floor estimate
    (median of the lower half of the spectrum, guarded by a relative floor so
    noiseless data does not divide by zero).  ``mdl`` is the classic
    minimum-description-length criterion and needs ``n_snapshots``.
    """
    lam = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    lam = np.clip(lam, 0.0, None)
    m = lam.size
    if m < 2:
        return 1
    if method == "threshold":
        floor = max(float(np.median(lam[m // 2:])), lam[0] * _EIGENVALUE_FLOOR_REL,
                    np.finfo(float).tiny)
        count = int(np.sum(lam > _THRESHOLD_FACTOR * floor))
        return min(max(count, 1), m - 1)
    if method == "mdl":
        if n_snapshots is None:
            raise ValueError("mdl source-count estimation requires n_snapshots")
        lam = np.clip(lam, lam[0] * 1e-12 + np.finfo(float).tiny, None)
        n = n_snapshots
        scores = np.empty(m)
        for k in range(m):
            tail = lam[k:]
            log_gm = float(np.mean(np.log(tail)))
            log_am = float(np.log(np.mean(tail)))
            scores[k] = -n * (m - k) * (log_gm - log_am) + 0.5 * k * (2 * m - k) * np.log(n)
        return min(max(int(np.argmin(scores)), 1), m - 1)
    raise ValueError(f"unknown source-count method {method!r}")


class NoiseSubspace:
    """Signal/noise split of a snapshot window.

    Stores the (dim, s_hat) orthonormal signal basis and the descending
    covariance eigenvalues; the noise subspace is its complement, which the
    scan uses only through ``|a|^2 - |E_S^H a|^2``.
    """

    def __init__(self, signal_basis: np.ndarray, s_hat: int,
                 eigenvalues: np.ndarray | None = None):
        signal_basis = np.asarray(signal_basis, dtype=complex)
        if signal_basis.ndim != 2 or signal_basis.shape[1] != s_hat:
            raise ValueError(f"signal basis must be (dim, s_hat={s_hat}), "
                             f"got {signal_basis.shape}")
        self.signal_basis = signal_basis
        self.s_hat = int(s_hat)
        self.eigenvalues = eigenvalues

    @property
    def dim(self) -> int:
        return self.signal_basis.shape[0]


def noise_subspace_from_window(window: SnapshotWindow,
                               s_hat: int | None = None) -> NoiseSubspace:
    """Signal/noise split from the snapshot matrix by the method of snapshots.

    Equivalent to eigendecomposing the sample covariance X X^H / window_len
    but never forms the dim x dim matrix.  The Gram matrix is taken on the
    smaller side of X.  For a short window the eigenvectors V of X^H X are
    lifted to the signal basis X V; a QR factorization normalizes those
    columns (the U = X V Lambda^(-1/2) of the thin SVD, up to phase) and
    completes columns whose eigenvalue is zero or negligible to a finite
    orthonormal basis.  For a window longer than dim, X X^H is
    eigendecomposed directly.  ``s_hat`` defaults to
    :func:`estimate_source_count` of the covariance eigenvalues.
    """
    x = window.matrix
    n = window.window_len
    dim = window.dim
    short = n <= dim
    xh = x.conj().T
    gram_lam, gram_vec = np.linalg.eigh(xh @ x if short else x @ xh)
    gram_lam = gram_lam[::-1]
    gram_vec = gram_vec[:, ::-1]
    lam = np.clip(gram_lam, 0.0, None) / n
    if s_hat is None:
        s_hat = estimate_source_count(lam, n_snapshots=n)
    if s_hat >= dim:
        raise ValueError(f"s_hat={s_hat} leaves no noise subspace (dim {dim})")
    if s_hat < 0:
        raise ValueError(f"s_hat must be >= 0, got {s_hat}")
    if short:
        signal = np.zeros((dim, s_hat), dtype=complex)
        kept = min(s_hat, n)
        np.matmul(x, gram_vec[:, :kept], out=signal[:, :kept])
        signal = np.linalg.qr(signal)[0]
    else:
        signal = gram_vec[:, :s_hat]
    return NoiseSubspace(signal, s_hat, eigenvalues=lam)


@dataclass(frozen=True)
class Spectrum2D:
    """180 x 180 nonnegative power image over (azimuth, elevation).

    ``grid[i, j]`` is the power at azimuth ``i + 1`` degrees and elevation
    ``j + 1`` degrees.  The grid is stored read-only, without a copy.
    """

    grid: np.ndarray
    timestamp_ns: int = 0

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.shape != (N_ANGLE_BINS, N_ANGLE_BINS):
            raise ValueError(f"spectrum grid must be {N_ANGLE_BINS}x{N_ANGLE_BINS}, "
                             f"got {g.shape}")
        if not np.all(np.isfinite(g)) or np.any(g < 0):
            raise ValueError("spectrum values must be finite and >= 0")
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)

    def argmax_angles(self) -> tuple[int, int]:
        """(azimuth_deg, elevation_deg) of the strongest bin."""
        i, j = np.unravel_index(int(np.argmax(self.grid)), self.grid.shape)
        return int(i) + 1, int(j) + 1


def _pair_indices(rx_positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rx element pairs (k, l), one per unordered pair, oriented so x_k >= x_l."""
    order = np.argsort(-rx_positions[:, 0], kind="stable")
    iu, il = np.triu_indices(order.size, 1)
    return order[iu], order[il]


@functools.lru_cache(maxsize=8)
def _lag_tables(carrier_hz: float, speed_of_light: float,
                rx_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Read-only per-row table and pair selector for one carrier and rx layout.

    Every rx element lies in the y == 0 plane, so the pair product of elements
    k and l at (az, el) is exp(-j kappa (dx u + dz cos el)) with
    u = cos(az) sin(el).  The pairs of :func:`_pair_indices` have dx >= 0;
    their x-differences are grouped into distinct lags (equal to within
    ``_LAG_TOL_WAVELENGTHS``), lag 0 first.

    * ``table[el, az]`` is ``[1 | cos(kappa lag u) | sin(kappa lag u)]`` over
      the nonzero lags, shape (180, 180, 2 * n_lags + 1).
    * ``selector[el * (n_lags + 1) + lag, p]`` is exp(-j kappa dz_p cos el)
      where pair p has that lag and 0 elsewhere, so ``selector @ forms`` sums
      each row's pair forms per lag.

    ``speed_of_light`` is fixed by ``ChannelConfig`` and only keys the cache.
    """
    pos = np.frombuffer(rx_bytes).reshape(-1, 3)
    k, l = _pair_indices(pos)
    dx = pos[k, 0] - pos[l, 0]
    dz = pos[k, 2] - pos[l, 2]
    tol = _LAG_TOL_WAVELENGTHS * speed_of_light / carrier_hz
    lags: list[float] = []
    lag_index = np.zeros(dx.size, dtype=int)
    for p in np.argsort(dx, kind="stable"):
        if dx[p] <= tol:
            continue
        if not lags or dx[p] - lags[-1] > tol:
            lags.append(float(dx[p]))
        lag_index[p] = len(lags)

    kappa = 2.0 * np.pi * carrier_hz / speed_of_light
    angles = np.arange(1, N_ANGLE_BINS + 1, dtype=float)
    d = direction_vector(angles[None, :], angles[:, None])    # (el, az, 3)
    phase = (kappa * d[..., 0])[..., None] * np.array(lags)  # (el, az, n_lags)
    table = np.concatenate([np.ones((N_ANGLE_BINS, N_ANGLE_BINS, 1)),
                            np.cos(phase), np.sin(phase)], axis=2)
    selector = np.zeros((N_ANGLE_BINS, len(lags) + 1, dx.size), dtype=complex)
    selector[:, lag_index, np.arange(dx.size)] = np.exp(
        -1j * kappa * d[:, 0, 2, None] * dz)
    selector = selector.reshape(N_ANGLE_BINS * (len(lags) + 1), dx.size)
    table.setflags(write=False)
    selector.setflags(write=False)
    return table, selector


def _basis_pair_forms(basis: np.ndarray, cfg: ChannelConfig, geom: ArrayGeometry,
                      grids: GridSpec):
    """Collapse basis columns into per-(tof, aod) n_rx x n_rx Hermitian forms H.

    The projected power of rx factor vector a at grid point w is
    sum_{k,l} a_k conj(a_l) H_w[k, l].  Returns (diag_sums, forms):
    diag_sums[w] is the trace of H_w (every |a_k| is 1), and forms[p, w] is
    H_w[k, l] for pair p = (k, l) of :func:`_pair_indices`.  A pair read
    below the diagonal is the conjugate of its upper-triangle entry.
    """
    n_rx, n_tx, n_su = geom.n_rx, geom.n_tx, geom.n_subcarriers
    a_tx = tx_factors(cfg, n_tx, grids.aod_grid_deg)          # (n_w, n_tx)
    a_su = subcarrier_factors(cfg, n_su, grids.tof_grid_s)    # (n_t, n_su)
    cols = basis.shape[1]
    e = basis.conj().reshape(n_tx, n_rx, n_su, cols)
    # G[r, s, w, t] = sum_{m, n} conj(E[m, r, n, s]) a_tx[w, m] a_su[t, n]
    e1 = np.tensordot(e, a_su, axes=([2], [1]))               # (tx, rx, cols, n_t)
    g = np.tensordot(e1, a_tx, axes=([0], [1]))               # (rx, cols, n_t, n_w)
    n_t, n_w = grids.tof_grid_s.size, grids.aod_grid_deg.size
    g = g.transpose(2, 3, 0, 1).reshape(n_t * n_w, n_rx, cols)
    h = g @ g.conj().transpose(0, 2, 1)                       # (wt, rx, rx)
    diag_sums = np.einsum("wkk->w", h).real
    k, l = _pair_indices(geom.rx_positions)
    return diag_sums, np.ascontiguousarray(h[:, k, l].T)     # (n_pairs, wt)


def spectrum(subspace: NoiseSubspace, grids: GridSpec | None, cfg: ChannelConfig,
             geom: ArrayGeometry, *, reduce: str = "sum",
             timestamp_ns: int = 0) -> Spectrum2D:
    """Marginalized 2D MUSIC image for one snapshot window.

    For every angle bin the spatial spectrum 1 / (a^H E_N E_N^H a) is evaluated
    on the full (tof, aod) grid via the Kronecker factorization of the steering
    vector and reduced with ``sum`` (default) or ``max``, a chunk of whole
    elevation rows at a time.
    """
    if grids is None:
        grids = GridSpec()
    if reduce not in ("sum", "max"):
        raise ValueError(f"reduce must be 'sum' or 'max', got {reduce!r}")
    dim = geom.dim
    if subspace.dim != dim:
        raise ValueError(f"subspace dimension {subspace.dim} does not match "
                         f"geometry dimension {dim}")

    table, selector = _lag_tables(cfg.carrier_hz, cfg.speed_of_light,
                                  geom.rx_positions.tobytes())
    basis = subspace.signal_basis

    n = N_ANGLE_BINS
    floor = dim * _DENOMINATOR_FLOOR_REL
    image = np.empty((n, n))                                  # [el, az]

    if basis.shape[1] == 0:
        # Every direction counts as noise: a^H E_N E_N^H a = |a|^2 = dim.
        value = 1.0 / dim
        image.fill(value * (grids.tof_grid_s.size * grids.aod_grid_deg.size)
                   if reduce == "sum" else value)
        return Spectrum2D(image, timestamp_ns)

    diag_sums, forms = _basis_pair_forms(basis, cfg, geom, grids)
    n_w = forms.shape[1]
    n_lags = (table.shape[2] - 1) // 2
    # den = dim - power; with C_lag = sum of phased forms per lag and row,
    # power = diag_sums + 2 Re C_0 + 2 sum_lag (cos Re C_lag + sin Im C_lag),
    # so den[el] = table[el] @ coef[el] with coef = [offset | -2 Re C | -2 Im C].
    sums = (selector @ forms).reshape(n, n_lags + 1, n_w)
    coef = np.empty((n, 2 * n_lags + 1, n_w))
    np.multiply(sums.real, -2.0, out=coef[:, :n_lags + 1])
    np.multiply(sums.imag[:, 1:], -2.0, out=coef[:, n_lags + 1:])
    coef[:, 0] += dim - diag_sums
    ones = np.ones(n_w)
    rows = max(1, _CHUNK_DOUBLES // (n * n_w))
    buf = np.empty((rows, n, n_w))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        den = buf[:stop - start]
        np.matmul(table[start:stop], coef[start:stop], out=den)
        # A read-only minimum is cheaper than the clamp it usually skips;
        # NaN fails the test, so the clamp still runs (and leaves it NaN).
        if not den.min() >= floor:
            np.maximum(den, floor, out=den)
        np.reciprocal(den, out=den)
        if reduce == "sum":
            np.matmul(den, ones, out=image[start:stop])
        else:
            np.max(den, axis=2, out=image[start:stop])
    return Spectrum2D(np.ascontiguousarray(image.T), timestamp_ns)


def detect_peaks(spec: Spectrum2D, min_prominence_db: float = 6.0,
                 max_peaks: int = 10) -> list[tuple[int, int, float]]:
    """Local maxima of a spectrum as (azimuth_deg, elevation_deg, power).

    A bin qualifies if it strictly exceeds all 8 neighbors and sits at least
    ``min_prominence_db`` above the spectrum median; results are sorted by
    power, strongest first, truncated to ``max_peaks``.
    """
    g = spec.grid
    padded = np.full((g.shape[0] + 2, g.shape[1] + 2), -np.inf)
    padded[1:-1, 1:-1] = g
    is_peak = np.ones_like(g, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            shifted = padded[1 + di:padded.shape[0] - 1 + di,
                             1 + dj:padded.shape[1] - 1 + dj]
            is_peak &= g > shifted
    med = float(np.median(g))
    if med > 0:
        is_peak &= g >= med * 10.0 ** (min_prominence_db / 10.0)
    else:
        is_peak &= g > 0
    az_idx, el_idx = np.nonzero(is_peak)
    powers = g[az_idx, el_idx]
    order = np.argsort(-powers, kind="stable")[:max_peaks]
    return [(int(az_idx[i]) + 1, int(el_idx[i]) + 1, float(powers[i])) for i in order]
