import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wivision import (
    ArrayGeometry,
    ChannelConfig,
    PathHypothesis,
)
from wivision.arraymodel import (
    SPEED_OF_LIGHT,
    direction_vector,
    rx_factors,
    steering_tensor,
    subcarrier_factors,
    tx_factors,
)

from reference import rx_phase, subcarrier_phase, tx_phase, virtual_steering_vector

C = SPEED_OF_LIGHT


def random_hypotheses(rng, n):
    az = rng.uniform(1.0, 180.0, n)
    el = rng.uniform(1.0, 180.0, n)
    tof = rng.uniform(0.0, 100e-9, n)
    aod = rng.uniform(1.0, 180.0, n)
    return az, el, tof, aod


class TestChannelConfig:
    def test_defaults(self, cfg):
        assert cfg.speed_of_light == 299_792_458.0
        assert cfg.tx_spacing_m == pytest.approx(cfg.wavelength_m / 2.0)

    @pytest.mark.parametrize("kwargs", [
        {"carrier_hz": 0.0},
        {"carrier_hz": -1.0},
        {"subcarrier_spacing_hz": 0.0},
        {"tx_spacing_m": -0.01},
    ])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            ChannelConfig(**kwargs)


class TestArrayGeometry:
    def test_l_shape_counts(self, cfg):
        geom = ArrayGeometry.l_shaped(cfg.wavelength_m / 2.0)
        assert geom.n_rx == 9
        assert geom.dim == 9 * 3 * 30

    def test_rejects_off_plane_positions(self):
        with pytest.raises(ValueError, match="y == 0"):
            ArrayGeometry(np.array([[0.0, 0.1, 0.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ArrayGeometry(np.zeros((0, 3)))


class TestPathHypothesis:
    @given(az=st.floats(-50, 250), el=st.floats(-50, 250))
    @settings(max_examples=50)
    def test_angle_range_enforced(self, az, el):
        valid = 1.0 <= az <= 180.0 and 1.0 <= el <= 180.0
        if valid:
            PathHypothesis(az, el)
        else:
            with pytest.raises(ValueError):
                PathHypothesis(az, el)

    def test_negative_tof_rejected(self):
        with pytest.raises(ValueError):
            PathHypothesis(90, 90, tof_s=-1e-9)


class TestRxPhase:
    def test_zero_position_is_identity(self, cfg):
        geom = ArrayGeometry(np.zeros((1, 3)), n_tx=1, n_subcarriers=1)
        for az, el in [(10, 20), (90, 90), (179, 45)]:
            assert rx_phase(cfg, geom, 0, PathHypothesis(az, el)) == pytest.approx(1 + 0j)

    def test_broadside_direction_orthogonal_to_plane(self, cfg, full_geom):
        # direction (0, 1, 0) is orthogonal to every y == 0 antenna position
        hyp = PathHypothesis(90, 90)
        for k in range(full_geom.n_rx):
            assert rx_phase(cfg, full_geom, k, hyp) == pytest.approx(1 + 0j)

    def test_half_wavelength_endfire(self, cfg):
        lam = cfg.wavelength_m
        geom = ArrayGeometry(np.array([[lam / 2, 0.0, 0.0]]), n_tx=1, n_subcarriers=1)
        # d(180, 90) = (-1, 0, 0): exponent is +j*pi
        value = rx_phase(cfg, geom, 0, PathHypothesis(180, 90))
        assert value == pytest.approx(-1 + 0j, abs=1e-9)

    def test_out_of_range_index(self, cfg, full_geom):
        with pytest.raises(IndexError):
            rx_phase(cfg, full_geom, full_geom.n_rx, PathHypothesis(90, 90))
        with pytest.raises(IndexError):
            rx_phase(cfg, full_geom, -1, PathHypothesis(90, 90))


class TestTxPhase:
    def test_reference_antenna(self, cfg):
        for aod in (5, 90, 170):
            assert tx_phase(cfg, 0, aod) == pytest.approx(1 + 0j)

    def test_zero_path_difference_at_180(self, cfg):
        for m in range(4):
            assert tx_phase(cfg, m, 180.0) == pytest.approx(1 + 0j, abs=1e-9)

    def test_half_wavelength_broadside(self, cfg):
        # d = lambda/2 and aod 90 deg: exponent is -j*pi for m = 1
        assert tx_phase(cfg, 1, 90.0) == pytest.approx(-1 + 0j, abs=1e-9)


class TestSubcarrierPhase:
    def test_zero_delay(self, cfg):
        for n in range(5):
            assert subcarrier_phase(cfg, n, 0.0) == pytest.approx(1 + 0j)

    def test_reference_subcarrier(self, cfg):
        for tof in (0.0, 13e-9, 400e-9):
            assert subcarrier_phase(cfg, 0, tof) == pytest.approx(1 + 0j)

    def test_half_cycle_delay(self):
        cfg = ChannelConfig(subcarrier_spacing_hz=1.25e6)
        # f_delta * tof = 0.5, so the n = 1 factor is exp(-j*pi)
        assert subcarrier_phase(cfg, 1, 400e-9) == pytest.approx(-1 + 0j, abs=1e-9)

    def test_negative_tof_rejected(self, cfg):
        with pytest.raises(ValueError):
            subcarrier_phase(cfg, 1, -1e-9)


class TestVirtualSteeringVector:
    def test_full_array_length(self, cfg, full_geom):
        sv = virtual_steering_vector(cfg, full_geom, PathHypothesis(60, 45, 30e-9, 80))
        assert sv.values.shape == (810,)

    def test_all_factors_collapse_to_one(self, cfg):
        geom = ArrayGeometry(np.zeros((1, 3)), n_tx=3, n_subcarriers=4)
        sv = virtual_steering_vector(cfg, geom, PathHypothesis(37, 101, 0.0, 180.0))
        np.testing.assert_allclose(sv.values, np.ones(12), atol=1e-12)

    def test_matches_triple_loop(self, cfg, rng):
        geom = ArrayGeometry.l_shaped(cfg.wavelength_m / 2.0, arm_x=3, arm_z=2,
                                      n_tx=2, n_subcarriers=3)
        for az, el, tof, aod in zip(*random_hypotheses(rng, 25)):
            hyp = PathHypothesis(az, el, tof, aod)
            sv = virtual_steering_vector(cfg, geom, hyp)
            expected = np.empty(geom.dim, dtype=complex)
            i = 0
            for m in range(geom.n_tx):
                for k in range(geom.n_rx):
                    for n in range(geom.n_subcarriers):
                        expected[i] = (tx_phase(cfg, m, aod)
                                       * rx_phase(cfg, geom, k, hyp)
                                       * subcarrier_phase(cfg, n, tof))
                        i += 1
            np.testing.assert_allclose(sv.values, expected, atol=1e-12)

    def test_frame_tensor_layout(self, cfg, small_geom):
        hyp = PathHypothesis(120, 70, 20e-9, 60)
        sv = virtual_steering_vector(cfg, small_geom, hyp)
        tensor = sv.as_frame_tensor()
        assert tensor.shape == (small_geom.n_rx, small_geom.n_tx,
                                small_geom.n_subcarriers)
        k, m, n = 2, 1, 5
        idx = (m * small_geom.n_rx + k) * small_geom.n_subcarriers + n
        assert tensor[k, m, n] == sv.values[idx]


class TestSteeringProperties:
    N_RANDOM = 10_000

    def test_unit_magnitude_everywhere(self, cfg, full_geom, rng):
        az, el, tof, aod = random_hypotheses(rng, self.N_RANDOM)
        tensors = steering_tensor(cfg, full_geom, az, el, tof, aod)
        assert np.max(np.abs(np.abs(tensors) - 1.0)) < 1e-12

    def test_kronecker_factorization(self, cfg, full_geom, rng):
        az, el, tof, aod = random_hypotheses(rng, self.N_RANDOM)
        fr = rx_factors(cfg, full_geom, az, el)
        fm = tx_factors(cfg, full_geom.n_tx, aod)
        fn = subcarrier_factors(cfg, full_geom.n_subcarriers, tof)
        tensors = steering_tensor(cfg, full_geom, az, el, tof, aod)
        # spot-check the full outer product on a slice, and the whole batch
        # against an independent kron composition of the factor vectors
        batch = rng.integers(0, self.N_RANDOM, 64)
        for b in batch:
            expected = np.kron(fm[b], np.kron(fr[b], fn[b]))
            got = tensors[b].transpose(1, 0, 2).reshape(-1)
            np.testing.assert_allclose(got, expected, atol=1e-12)
        # every entry is the product of its three factors
        recomposed = np.einsum("br,bm,bn->brmn", fr, fm, fn)
        np.testing.assert_allclose(tensors, recomposed, rtol=0, atol=0)

    def test_conjugate_symmetry(self, cfg, full_geom, rng):
        az, el, tof, aod = random_hypotheses(rng, 200)
        base = steering_tensor(cfg, full_geom, az, el, tof, aod)
        # negating every phase term: mirror the look direction, the delay,
        # and the departure sine
        mirrored = steering_tensor(cfg, full_geom, az + 180.0, 180.0 - el,
                                   -tof, -aod)
        np.testing.assert_allclose(mirrored, base.conj(), atol=1e-12)

    def test_continuity_over_one_grid_step(self, cfg, full_geom, rng):
        az, el, tof, aod = random_hypotheses(rng, 500)
        base = steering_tensor(cfg, full_geom, az, el, tof, aod)
        norm = np.sqrt(full_geom.dim)
        wavenumber = 2 * np.pi / cfg.wavelength_m
        deg = np.pi / 180.0
        max_radius = np.max(np.linalg.norm(full_geom.rx_positions, axis=1))
        # per-axis Lipschitz bounds: |exp(j a) - exp(j b)| <= |a - b|
        bounds = {
            "azimuth": wavenumber * max_radius * deg,
            "elevation": wavenumber * max_radius * deg,
            "tof": 2 * np.pi * cfg.subcarrier_spacing_hz * 5e-9
                   * (full_geom.n_subcarriers - 1),
            "aod": wavenumber * cfg.tx_spacing_m * deg * (full_geom.n_tx - 1),
        }
        steps = {
            "azimuth": steering_tensor(cfg, full_geom, az + 1.0, el, tof, aod),
            "elevation": steering_tensor(cfg, full_geom, az, el + 1.0, tof, aod),
            "tof": steering_tensor(cfg, full_geom, az, el, tof + 5e-9, aod),
            "aod": steering_tensor(cfg, full_geom, az, el, tof, aod + 1.0),
        }
        for axis, stepped in steps.items():
            delta = np.linalg.norm((stepped - base).reshape(len(az), -1), axis=1)
            assert np.max(delta) <= bounds[axis] * norm * (1 + 1e-9), axis

    def test_direction_vector_is_unit(self, rng):
        az, el, _, _ = random_hypotheses(rng, 1000)
        d = direction_vector(az, el)
        np.testing.assert_allclose(np.linalg.norm(d, axis=-1), 1.0, atol=1e-12)
