import math
import tracemalloc

import numpy as np
import pytest

import reference
from wivision import (
    ArrayGeometry,
    ChannelConfig,
    PathHypothesis,
    Scene,
    ScenePath,
    default_geometry,
    inject_phase_offsets,
    sanitize,
    simulate,
    six_reflector_scene,
    windows,
)
from wivision.sanitize import sanitize_tensors
from wivision.stream import block_len


def make_stream(cfg, geom, paths, snr_db=math.inf, duration=0.05, seed=0):
    return simulate(Scene(tuple(paths), snr_db=snr_db, duration_s=duration,
                          rng_seed=seed), cfg, geom)


class TestSanitize:
    def test_trivial_path_is_untouched(self, cfg, small_geom):
        # exactly all-ones tensors: the fitted line is identically zero
        geom = ArrayGeometry(np.zeros((2, 3)), n_tx=1, n_subcarriers=8)
        stream = make_stream(cfg, geom, [ScenePath(PathHypothesis(42, 137, 0.0, 65))])
        assert np.array_equal(stream.tensors.real, np.ones_like(stream.tensors.real))
        out = sanitize(stream)
        assert np.array_equal(out.tensors, stream.tensors)
        # a zero-ToF path on the real array is preserved to machine precision
        stream = make_stream(cfg, small_geom,
                             [ScenePath(PathHypothesis(90, 90, 0.0, 180.0))])
        out = sanitize(stream)
        np.testing.assert_allclose(out.tensors, stream.tensors, atol=1e-12)

    def test_magnitudes_unchanged(self, cfg, small_geom):
        stream = make_stream(cfg, small_geom,
                             [ScenePath(PathHypothesis(55, 70, 22e-9, 60)),
                              ScenePath(PathHypothesis(120, 100, 40e-9, 120),
                                        gain=0.4)],
                             snr_db=20.0)
        out = sanitize(stream)
        np.testing.assert_allclose(np.abs(out.tensors), np.abs(stream.tensors),
                                   rtol=1e-12)

    def test_roundtrip_matches_clean_sanitized(self, cfg, small_geom):
        paths = [ScenePath(PathHypothesis(60, 80, 15e-9, 75), gain=1.0),
                 ScenePath(PathHypothesis(130, 95, 35e-9, 110), gain=0.3)]
        clean = make_stream(cfg, small_geom, paths, snr_db=25.0, seed=7)
        for inject_seed in (1, 2, 3):
            injected = inject_phase_offsets(clean, seed=inject_seed)
            a = sanitize(injected).tensors
            b = sanitize(clean).tensors
            phase_err = np.angle(a / b)
            assert np.max(np.abs(phase_err)) < 1e-6

    def test_idempotent(self, cfg, small_geom):
        stream = make_stream(cfg, small_geom,
                             [ScenePath(PathHypothesis(60, 80, 15e-9, 75))],
                             snr_db=15.0)
        once = sanitize(stream)
        twice = sanitize(once)
        np.testing.assert_allclose(twice.tensors, once.tensors, atol=1e-9)

    def test_offset_invariance_fixed_offsets(self, cfg, small_geom):
        # a fixed common (offset, slope), not just the random injector
        stream = make_stream(cfg, small_geom,
                             [ScenePath(PathHypothesis(100, 60, 18e-9, 95))],
                             snr_db=30.0)
        n_su = small_geom.n_subcarriers
        for eta0, eta1 in [(1.0, 0.05), (4.5, -np.pi / n_su), (2.0, 0.0)]:
            ramp = np.exp(-1j * (eta0 + eta1 * np.arange(n_su)))
            shifted = stream.tensors * ramp
            a = sanitize_tensors(shifted)
            b = sanitize_tensors(stream.tensors)
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_needs_two_subcarriers(self, cfg):
        geom = ArrayGeometry(np.zeros((2, 3)), n_tx=1, n_subcarriers=1)
        stream = make_stream(cfg, geom, [ScenePath(PathHypothesis(90, 90))])
        with pytest.raises(ValueError, match="subcarrier"):
            sanitize(stream)

    def test_in_place_intercept_matches_out_of_place(self, rng):
        def out_of_place(tensors):
            n_idx = np.arange(tensors.shape[-1], dtype=float)
            centered = n_idx - n_idx.mean()
            phases = np.unwrap(np.angle(tensors), axis=-1)
            n_pairs = tensors.shape[1] * tensors.shape[2]
            slopes = (np.einsum("prmn,n->p", phases, centered)
                      / (n_pairs * (centered @ centered)))
            detrended = tensors * np.exp(-1j * slopes[:, None, None, None] * n_idx)
            intercepts = np.angle(detrended.sum(axis=(1, 2, 3)))
            return detrended * np.exp(-1j * intercepts)[:, None, None, None]

        shape = (3 * block_len(9 * 3 * 30) + 7, 9, 3, 30)
        tensors = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        before = tensors.copy()
        assert np.array_equal(sanitize_tensors(tensors), out_of_place(tensors))
        assert np.array_equal(tensors, before)

    @pytest.mark.parametrize("geom_name", ["full_geom", "small_geom"])
    def test_blocked_matches_whole_capture(self, cfg, request, mixed_scenes, geom_name):
        geom = request.getfixturevalue(geom_name)
        for scene in mixed_scenes(geom.dim, 20.0):
            tensors = inject_phase_offsets(simulate(scene, cfg, geom), seed=5).tensors
            # the bits are those of the whole-capture form on a (packet, rx,
            # tx, subcarrier)-contiguous copy, whatever the input's layout
            contiguous = np.ascontiguousarray(tensors)
            expected = reference.sanitize_tensors(contiguous).tobytes()
            for given in (tensors, contiguous):
                out = sanitize_tensors(given)
                assert out.tobytes() == expected
                # stored in steering order, (packet, tx, rx, subcarrier)
                assert out.transpose(0, 2, 1, 3).flags.c_contiguous


@pytest.fixture(scope="module")
def one_second_capture():
    """1 s of the six-reflector scene at 25 dB, 13 MB of tensors."""
    cfg = ChannelConfig()
    return simulate(six_reflector_scene(snr_db=25.0, duration_s=1.0), cfg,
                    default_geometry(cfg))


class TestMemory:
    def test_extra_peak_is_under_a_quarter_more_than_the_stream(self, one_second_capture):
        tracemalloc.start()
        try:
            sanitize(one_second_capture)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * one_second_capture.tensors.nbytes

    def test_windows_are_views_of_the_stream(self, one_second_capture):
        for stream in (one_second_capture, sanitize(one_second_capture)):
            ws = windows(stream)
            for w in (ws[0], ws[-1]):
                assert np.shares_memory(w.matrix, stream.tensors)
