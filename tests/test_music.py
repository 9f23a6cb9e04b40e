import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from wivision import (
    GridSpec,
    NoiseSubspace,
    PathHypothesis,
    Scene,
    ScenePath,
    SnapshotWindow,
    Spectrum2D,
    detect_peaks,
    noise_subspace_from_window,
    sanitize,
    simulate,
    spectrum,
    windows,
)
from wivision import inject_phase_offsets
from wivision.arraymodel import ArrayGeometry, steering_tensor
from wivision.music import _lag_tables, estimate_source_count, vectorize_frames
from wivision.simulate import six_reflector_scene

from reference import (
    covariance,
    noise_basis,
    noise_subspace,
    projection_deficit,
    virtual_steering_vector,
)


def jittered_paths(specs):
    return tuple(ScenePath(PathHypothesis(az, el, tof, aod), gain=gain,
                           phase_jitter=1.0)
                 for az, el, tof, aod, gain in specs)


def make_stream(cfg, geom, paths, snr_db=math.inf, duration=0.1, seed=0):
    return simulate(Scene(tuple(paths), snr_db=snr_db, duration_s=duration,
                          rng_seed=seed), cfg, geom)


def small_grids():
    return GridSpec(tof_grid_s=np.arange(8) * 10e-9,
                    aod_grid_deg=np.array([45.0, 90.0, 135.0]))


def irregular_geometry(cfg):
    """Five y == 0 elements, four off both axes; some |dx| repeat, some do not."""
    pos = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.3], [1.0, 0.0, -0.2],
                    [0.37, 0.0, 0.8], [1.37, 0.0, 0.45]]) * cfg.wavelength_m
    return ArrayGeometry(pos, n_tx=2, n_subcarriers=3)


def assert_matches_explicit_scan(cfg, geom, rng, reduce, rel):
    """Compare ``spectrum`` with the textbook 1 / |E_N^H a|^2 at random bins."""
    stream = make_stream(cfg, geom,
                         jittered_paths([(70.0, 80.0, 12e-9, 70.0, 1.0),
                                         (120.0, 60.0, 30e-9, 110.0, 0.6)]),
                         snr_db=20.0, duration=0.04)
    w = windows(stream, 40, 40)[0]
    sub, en = noise_subspace(covariance(w), s_hat=2)
    grids = GridSpec(tof_grid_s=np.array([0.0, 15e-9]),
                     aod_grid_deg=np.array([70.0, 110.0]))
    spec = spectrum(sub, grids, cfg, geom, reduce=reduce)
    azs = rng.integers(1, 181, 40)
    els = rng.integers(1, 181, 40)
    for az, el in zip(azs, els):
        values = []
        for tof in grids.tof_grid_s:
            for aod in grids.aod_grid_deg:
                a = steering_tensor(cfg, geom, float(az), float(el), tof,
                                    float(aod)).transpose(1, 0, 2).reshape(-1)
                values.append(1.0 / np.linalg.norm(en.conj().T @ a) ** 2)
        expected = sum(values) if reduce == "sum" else max(values)
        assert spec.grid[az - 1, el - 1] == pytest.approx(expected, rel=rel)


class TestWindows:
    def test_window_count_formula(self, cfg, small_geom):
        stream = make_stream(cfg, small_geom, [ScenePath(PathHypothesis(90, 90))],
                             duration=1.0)
        assert len(stream) == 1000
        assert len(windows(stream, 100, 33)) == 28

    def test_unit_window_per_frame(self, cfg, small_geom):
        stream = make_stream(cfg, small_geom, [ScenePath(PathHypothesis(90, 90))],
                             duration=0.02)
        assert len(windows(stream, 1, 1)) == 20

    def test_single_full_window(self, cfg, small_geom):
        stream = make_stream(cfg, small_geom, [ScenePath(PathHypothesis(90, 90))],
                             duration=0.02)
        ws = windows(stream, 20, 5)
        assert len(ws) == 1
        assert ws[0].matrix.shape == (small_geom.dim, 20)

    def test_short_stream_yields_nothing(self, cfg, small_geom, caplog):
        stream = make_stream(cfg, small_geom, [ScenePath(PathHypothesis(90, 90))],
                             duration=0.01)
        with caplog.at_level("WARNING"):
            assert windows(stream, 100, 33) == []
        assert "shorter" in caplog.text

    def test_columns_are_vectorized_frames(self, cfg, small_geom):
        hyp = PathHypothesis(73, 58, 21e-9, 84)
        stream = make_stream(cfg, small_geom, [ScenePath(hyp)], duration=0.01)
        w = windows(stream, 5, 5)[0]
        expected = virtual_steering_vector(cfg, small_geom, hyp).values
        np.testing.assert_allclose(w.matrix[:, 0], expected, atol=1e-12)

    def test_views_equal_copies_and_are_read_only(self, cfg, small_geom):
        stream = make_stream(cfg, small_geom,
                             jittered_paths([(70.0, 80.0, 12e-9, 70.0, 1.0)]),
                             snr_db=15.0, duration=0.05)
        rows = vectorize_frames(stream.tensors)
        ws = windows(stream, 20, 7)
        assert len(ws) == 5
        for k, w in enumerate(ws):
            copy = np.ascontiguousarray(rows[7 * k:7 * k + 20].T)
            assert np.array_equal(w.matrix, copy)
            assert w.timestamp_ns == int(stream.timestamps_ns[7 * k + 19])
            with pytest.raises(ValueError, match="read-only"):
                w.matrix[0, 0] = 0.0

    def test_window_len_is_column_count(self):
        w = SnapshotWindow(np.ones((4, 3), dtype=complex), timestamp_ns=9)
        assert (w.window_len, w.dim, w.timestamp_ns) == (3, 4, 9)
        assert not hasattr(w, "stride")
        for bad in (np.ones((4, 0), dtype=complex), np.ones(4, dtype=complex)):
            with pytest.raises(ValueError, match="at least one column"):
                SnapshotWindow(bad)


class TestCovariance:
    def test_all_ones_column(self):
        w = SnapshotWindow(np.ones((4, 1), dtype=complex))
        np.testing.assert_array_equal(covariance(w), np.ones((4, 4)))

    def test_single_path_rank_one(self, cfg, small_geom):
        stream = make_stream(cfg, small_geom, [ScenePath(PathHypothesis(64, 49))],
                             duration=0.05)
        r = covariance(windows(stream, 50, 50)[0])
        lam = np.linalg.eigvalsh(r)[::-1]
        assert lam[1] / lam[0] < 1e-8

    def test_hermitian(self, cfg, small_geom, rng):
        m = rng.standard_normal((small_geom.dim, 10)) \
            + 1j * rng.standard_normal((small_geom.dim, 10))
        r = covariance(SnapshotWindow(m))
        assert np.max(np.abs(r - r.conj().T)) < 1e-12


class TestNoiseSubspace:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_auto_source_count(self, cfg, small_geom, k):
        specs = [(40.0, 70.0, 5e-9, 50.0, 1.0),
                 (120.0, 110.0, 25e-9, 120.0, 0.8),
                 (80.0, 50.0, 45e-9, 90.0, 0.6)][:k]
        stream = make_stream(cfg, small_geom, jittered_paths(specs), duration=0.1)
        w = windows(stream, 100, 100)[0]
        assert noise_subspace_from_window(w).s_hat == k
        assert noise_subspace(covariance(w))[0].s_hat == k

    def test_dim_minus_one_leaves_single_vector(self, rng):
        r = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        r = r @ r.conj().T
        _, en = noise_subspace(r, s_hat=5)
        assert en.shape == (6, 1)
        assert abs(np.linalg.norm(en) - 1.0) < 1e-8

    def test_basis_orthonormal(self, rng):
        r = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        r = r @ r.conj().T
        for s_hat in (0, 2, 5):
            b = noise_subspace(r, s_hat=s_hat)[1]
            np.testing.assert_allclose(b.conj().T @ b, np.eye(8 - s_hat), atol=1e-8)

    def test_no_noise_subspace_left(self, rng):
        w = SnapshotWindow(np.eye(4, dtype=complex))
        with pytest.raises(ValueError, match="noise subspace"):
            noise_subspace_from_window(w, s_hat=4)

    def test_window_and_covariance_paths_agree(self, cfg, small_geom):
        specs = [(40.0, 70.0, 5e-9, 50.0, 1.0), (120.0, 110.0, 25e-9, 120.0, 0.7)]
        stream = make_stream(cfg, small_geom, jittered_paths(specs),
                             snr_db=20.0, duration=0.06)
        w = windows(stream, 60, 60)[0]
        a = noise_subspace_from_window(w, s_hat=2)
        b, _ = noise_subspace(covariance(w), s_hat=2)
        # same projector even if individual eigenvectors differ by phase
        pa = a.signal_basis @ a.signal_basis.conj().T
        pb = b.signal_basis @ b.signal_basis.conj().T
        np.testing.assert_allclose(pa, pb, atol=1e-8)

    def test_lazy_noise_basis_matches_projector(self, cfg, small_geom):
        stream = make_stream(cfg, small_geom,
                             jittered_paths([(60.0, 60.0, 10e-9, 60.0, 1.0)]),
                             duration=0.03)
        sub = noise_subspace_from_window(windows(stream, 30, 30)[0], s_hat=1)
        en = noise_basis(sub)
        assert en.shape == (small_geom.dim, small_geom.dim - 1)
        v = virtual_steering_vector(cfg, small_geom, PathHypothesis(97, 33)).values
        explicit = np.linalg.norm(en.conj().T @ v) ** 2
        assert explicit == pytest.approx(projection_deficit(sub, v), rel=1e-9)

    def test_mdl_source_count(self, rng):
        lam = np.concatenate([np.array([50.0, 30.0]), np.full(20, 1.0)
                              + rng.uniform(-0.05, 0.05, 20)])
        assert estimate_source_count(lam, method="mdl", n_snapshots=200) == 2


def assert_matches_svd(window, sub):
    """Same source count, eigenvalues and signal subspace as a thin SVD of the window."""
    u, sv, _ = np.linalg.svd(window.matrix, full_matrices=False)
    lam = sv ** 2 / window.window_len
    assert sub.s_hat == estimate_source_count(lam, n_snapshots=window.window_len)
    np.testing.assert_allclose(sub.eigenvalues, lam, rtol=1e-10, atol=1e-13 * lam[0])
    angles = scipy.linalg.subspace_angles(sub.signal_basis, u[:, :sub.s_hat])
    assert np.max(angles) <= 1e-8


def assert_orthonormal(basis):
    assert np.all(np.isfinite(basis))
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-12)


class TestGramSubspace:
    @pytest.mark.parametrize("window_len", [20, 48, 90])
    def test_matches_svd_tall_and_wide(self, cfg, small_geom, window_len):
        specs = [(40.0, 70.0, 5e-9, 50.0, 1.0), (120.0, 110.0, 25e-9, 120.0, 0.7),
                 (80.0, 50.0, 45e-9, 90.0, 0.5)]
        stream = make_stream(cfg, small_geom, jittered_paths(specs), snr_db=20.0,
                             duration=0.1)
        w = windows(stream, window_len, window_len)[0]
        sub = noise_subspace_from_window(w)
        assert sub.eigenvalues.shape == (min(small_geom.dim, window_len),)
        assert_matches_svd(w, sub)
        assert_orthonormal(sub.signal_basis)

    def test_matches_svd_on_noiseless_sanitized_six_reflectors(self, cfg, full_geom):
        stream = sanitize(simulate(six_reflector_scene(), cfg, full_geom))
        w = windows(stream, 100, 33)[0]
        sub = noise_subspace_from_window(w)
        assert_matches_svd(w, sub)
        assert_orthonormal(sub.signal_basis)

    @pytest.mark.parametrize("window_len", [20, 60])
    def test_all_zero_window(self, cfg, small_geom, window_len):
        w = SnapshotWindow(np.zeros((small_geom.dim, window_len), dtype=complex))
        for s_hat in (None, 0, 3, small_geom.dim - 1):
            sub = noise_subspace_from_window(w, s_hat=s_hat)
            assert np.all(sub.eigenvalues == 0.0)
            assert_orthonormal(sub.signal_basis)
            assert np.all(np.isfinite(spectrum(sub, small_grids(), cfg, small_geom).grid))

    @pytest.mark.parametrize("s_hat", [5, 30])
    def test_sources_above_rank(self, cfg, small_geom, s_hat):
        # one noiseless path has rank 1; extra columns (even beyond the
        # 20 snapshots) are completed to an orthonormal basis
        hyp = PathHypothesis(64, 49, 18e-9, 85)
        stream = make_stream(cfg, small_geom, [ScenePath(hyp, phase_jitter=1.0)],
                             duration=0.02)
        sub = noise_subspace_from_window(windows(stream, 20, 20)[0], s_hat=s_hat)
        assert_orthonormal(sub.signal_basis)
        a = virtual_steering_vector(cfg, small_geom, hyp).values
        assert projection_deficit(sub, a) < 1e-6 * np.linalg.norm(a) ** 2
        assert np.all(np.isfinite(spectrum(sub, small_grids(), cfg, small_geom).grid))


class TestGridSpec:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("field", ["tof_grid_s", "aod_grid_deg"])
    def test_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GridSpec(**{field: np.array([1.0, 2.0, bad])})


class TestSpectrum2D:
    def test_grid_is_read_only(self):
        grid = np.ones((180, 180))
        spec = Spectrum2D(grid)
        assert spec.grid is grid  # kept without a copy
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.grid = np.zeros((180, 180))
        with pytest.raises(ValueError, match="read-only"):
            spec.grid[0, 0] = 2.0
        assert spec.grid[0, 0] == 1.0

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError, match="must be 180x180, got \\(90, 90\\)"):
            Spectrum2D(np.zeros((90, 90)))


class TestSpectrum:
    def test_single_path_argmax(self, cfg, small_geom):
        stream = make_stream(cfg, small_geom,
                             [ScenePath(PathHypothesis(60, 45, 30e-9, 90))],
                             duration=0.05)
        sub = noise_subspace_from_window(windows(stream, 50, 50)[0])
        spec = spectrum(sub, small_grids(), cfg, small_geom)
        az, el = spec.argmax_angles()
        assert abs(az - 60) <= 1 and abs(el - 45) <= 1

    def test_zero_sources_flat(self, cfg, small_geom):
        sub = NoiseSubspace(np.zeros((small_geom.dim, 0), dtype=complex), 0)
        spec = spectrum(sub, small_grids(), cfg, small_geom)
        assert spec.grid.max() / spec.grid.min() < 1 + 1e-6

    def test_reduce_max_option(self, cfg, small_geom):
        stream = make_stream(cfg, small_geom,
                             [ScenePath(PathHypothesis(60, 45, 30e-9, 90))],
                             duration=0.05)
        sub = noise_subspace_from_window(windows(stream, 50, 50)[0])
        spec = spectrum(sub, small_grids(), cfg, small_geom, reduce="max")
        az, el = spec.argmax_angles()
        assert abs(az - 60) <= 1 and abs(el - 45) <= 1

    def test_matches_explicit_noise_basis(self, cfg, rng):
        # factorized evaluation equals the textbook a^H En En^H a scan
        geom = ArrayGeometry.l_shaped(cfg.wavelength_m / 2.0, arm_x=2, arm_z=2,
                                      n_tx=2, n_subcarriers=4)
        assert_matches_explicit_scan(cfg, geom, rng, "sum", rel=1e-6)

    @pytest.mark.parametrize("reduce", ["sum", "max"])
    @pytest.mark.parametrize("layout", ["l_array", "irregular", "single_rx"])
    def test_matches_explicit_noise_basis_per_layout(self, cfg, rng, layout, reduce):
        if layout == "l_array":
            geom = ArrayGeometry.l_shaped(cfg.wavelength_m / 2.0, n_tx=2,
                                          n_subcarriers=3)
        elif layout == "irregular":
            geom = irregular_geometry(cfg)
        else:  # no element pairs at all
            geom = ArrayGeometry(np.zeros((1, 3)), n_tx=2, n_subcarriers=3)
        assert_matches_explicit_scan(cfg, geom, rng, reduce, rel=1e-9)

    def test_two_separated_paths_peaks(self, cfg, small_geom):
        specs = [(60.0, 60.0, 10e-9, 70.0, 1.0), (110.0, 100.0, 35e-9, 120.0, 0.8)]
        stream = make_stream(cfg, small_geom, jittered_paths(specs), duration=0.1)
        sub = noise_subspace_from_window(windows(stream, 100, 100)[0])
        spec = spectrum(sub, small_grids(), cfg, small_geom)
        peaks = detect_peaks(spec, min_prominence_db=6.0, max_peaks=4)
        assert len(peaks) >= 2
        found = {(az, el) for az, el, _ in peaks[:2]}
        for true_az, true_el in [(60, 60), (110, 100)]:
            assert any(abs(az - true_az) <= 2 and abs(el - true_el) <= 2
                       for az, el in found)

    def test_scale_invariance_of_peaks(self, cfg, small_geom):
        stream = make_stream(cfg, small_geom,
                             [ScenePath(PathHypothesis(75, 120, 20e-9, 60))],
                             snr_db=15.0, duration=0.05)
        w = windows(stream, 50, 50)[0]
        scaled = SnapshotWindow(w.matrix * (3.5 - 1.2j))
        a = spectrum(noise_subspace_from_window(w), small_grids(), cfg, small_geom)
        b = spectrum(noise_subspace_from_window(scaled), small_grids(), cfg,
                     small_geom)
        assert a.argmax_angles() == b.argmax_angles()

    def test_packet_permutation_invariance(self, cfg, small_geom, rng):
        stream = make_stream(cfg, small_geom,
                             jittered_paths([(85.0, 95.0, 15e-9, 100.0, 1.0)]),
                             snr_db=10.0, duration=0.05)
        w = windows(stream, 50, 50)[0]
        perm = rng.permutation(50)
        shuffled = SnapshotWindow(w.matrix[:, perm])
        np.testing.assert_allclose(covariance(w), covariance(shuffled), atol=1e-12)
        a = spectrum(noise_subspace_from_window(w, s_hat=1), small_grids(), cfg,
                     small_geom)
        b = spectrum(noise_subspace_from_window(shuffled, s_hat=1), small_grids(),
                     cfg, small_geom)
        np.testing.assert_allclose(a.grid, b.grid, rtol=1e-6)

    def test_subspace_orthogonal_at_truth(self, cfg, small_geom):
        hyp = PathHypothesis(64, 49, 18e-9, 85)
        stream = make_stream(cfg, small_geom, [ScenePath(hyp)], duration=0.05)
        sub = noise_subspace_from_window(windows(stream, 50, 50)[0], s_hat=1)
        a = virtual_steering_vector(cfg, small_geom, hyp).values
        assert projection_deficit(sub, a) < 1e-6 * np.linalg.norm(a) ** 2

    def test_pair_table_cached_once_per_layout(self, cfg, small_geom):
        _lag_tables.cache_clear()
        sub = NoiseSubspace(np.eye(small_geom.dim, 1, dtype=complex), 1)
        spectrum(sub, small_grids(), cfg, small_geom)
        spectrum(sub, small_grids(), cfg, small_geom, reduce="max")
        info = _lag_tables.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        table, selector = _lag_tables(cfg.carrier_hz, cfg.speed_of_light,
                                      small_geom.rx_positions.tobytes())
        # elements at x = 0, s, 0: one nonzero x-lag
        n_pairs = small_geom.n_rx * (small_geom.n_rx - 1) // 2
        assert table.shape == (180, 180, 3)
        assert selector.shape == (180 * 2, n_pairs)
        assert not table.flags.writeable
        assert not selector.flags.writeable

    def test_default_l_array_has_four_x_lags(self, cfg, full_geom):
        # x-differences of i * spacing differ in their last bits; they still
        # collapse onto the lags 1..4 spacings
        table, selector = _lag_tables(cfg.carrier_hz, cfg.speed_of_light,
                                      full_geom.rx_positions.tobytes())
        assert table.shape == (180, 180, 2 * 4 + 1)
        assert selector.shape == (180 * (4 + 1), 36)

    @pytest.mark.parametrize("xs, n_lags", [
        ((0.0, 0.5, 1.0, 0.37, 1.37), 7),  # 0.37, 0.5, 1.0 twice; 0.13, 0.63, 0.87, 1.37
        ((0.0, 0.25, 0.75, 1.75), 6),      # all six |dx| differ: one lag per pair
        ((0.0, 0.5, 1.0 + 1e-13), 2),      # 0.5 and 0.5 + 1e-13 share a lag
        ((0.0, 0.5, 1.0 + 1e-9), 3),       # 0.5 and 0.5 + 1e-9 do not
        ((0.0, 1e-13, 0.5), 1),            # 1e-13 counts as the zero lag
    ])
    def test_lag_count(self, cfg, xs, n_lags):
        # x positions in wavelengths; lags agree to within 1e-12 wavelengths
        pos = np.array([[x, 0.0, 0.3 * i] for i, x in enumerate(xs)]) * cfg.wavelength_m
        table, selector = _lag_tables(cfg.carrier_hz, cfg.speed_of_light, pos.tobytes())
        n_pairs = len(xs) * (len(xs) - 1) // 2
        assert table.shape == (180, 180, 2 * n_lags + 1)
        assert selector.shape == (180 * (n_lags + 1), n_pairs)

    def test_sanitized_offset_injected_matches_clean(self, cfg, small_geom):
        specs = [(60.0, 80.0, 15e-9, 75.0, 1.0), (130.0, 95.0, 35e-9, 110.0, 0.4)]
        clean = make_stream(cfg, small_geom, jittered_paths(specs),
                            snr_db=25.0, duration=0.06)
        injected = inject_phase_offsets(clean, seed=21)

        def image(stream):
            w = windows(sanitize(stream), 60, 60)[0]
            return spectrum(noise_subspace_from_window(w, s_hat=2), small_grids(),
                            cfg, small_geom)

        a, b = image(clean), image(injected)
        assert a.argmax_angles() == b.argmax_angles()
        rel = np.abs(a.grid - b.grid) / np.maximum(np.abs(a.grid), 1e-300)
        assert np.max(rel) < 0.01


class TestDetectPeaks:
    def test_single_path_single_peak(self, cfg, small_geom):
        stream = make_stream(cfg, small_geom,
                             [ScenePath(PathHypothesis(60, 45, 30e-9, 90))],
                             duration=0.05)
        sub = noise_subspace_from_window(windows(stream, 50, 50)[0])
        spec = spectrum(sub, small_grids(), cfg, small_geom)
        peaks = detect_peaks(spec)
        assert len(peaks) == 1
        az, el, _ = peaks[0]
        assert abs(az - 60) <= 1 and abs(el - 45) <= 1

    def test_constant_spectrum_has_no_peaks(self):
        spec = Spectrum2D(np.full((180, 180), 3.3))
        assert detect_peaks(spec) == []

    def test_max_peaks_truncation(self, rng):
        grid = np.zeros((180, 180))
        for i in range(20):
            grid[5 + 8 * i, 90] = 100.0 + i
        grid += 0.001
        peaks = detect_peaks(Spectrum2D(grid), min_prominence_db=6.0, max_peaks=10)
        assert len(peaks) == 10
        powers = [p for _, _, p in peaks]
        assert powers == sorted(powers, reverse=True)
