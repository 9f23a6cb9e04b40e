import math

import numpy as np
import pytest

from wivision import (
    ArrayGeometry,
    ChannelConfig,
    CsiStream,
    DegenerateSceneError,
    GainGate,
    PathHypothesis,
    PersonaParams,
    Scene,
    ScenePath,
    degrade_stream,
    human_walk_preset,
    inject_phase_offsets,
    simulate,
)

from reference import virtual_steering_vector


def single_path_scene(hyp, gain=1.0 + 0.0j, snr_db=math.inf, duration=0.05, seed=0):
    return Scene((ScenePath(hyp, gain=gain, tag="los"),), snr_db=snr_db,
                 packet_rate_hz=1000.0, duration_s=duration, rng_seed=seed)


class TestSceneValidation:
    def test_at_most_one_los(self):
        los = ScenePath(PathHypothesis(90, 90), tag="los")
        with pytest.raises(ValueError, match="los"):
            Scene((los, los))

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError, match="gain"):
            ScenePath(PathHypothesis(90, 90), gain=0.0)

    def test_keyframe_times_must_increase(self):
        h = PathHypothesis(90, 90)
        with pytest.raises(ValueError, match="increasing"):
            ScenePath(h, motion=((0.0, h), (0.0, h)))

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="tag"):
            ScenePath(PathHypothesis(90, 90), tag="ghost")

    def test_interpolated_angles_stay_in_range(self):
        a = PathHypothesis(10, 80)
        b = PathHypothesis(170, 100)
        path = ScenePath(a, motion=((0.0, a), (1.0, b)))
        t = np.linspace(0, 1, 101)
        az, el, _, _ = path.hypothesis_at(t)
        assert az.min() >= 1 and az.max() <= 180
        assert el.min() >= 1 and el.max() <= 180


class TestSimulate:
    def test_single_path_equals_steering_vector(self, cfg, full_geom):
        hyp = PathHypothesis(72, 61, 25e-9, 110)
        stream = simulate(single_path_scene(hyp), cfg, full_geom)
        expected = virtual_steering_vector(cfg, full_geom, hyp).as_frame_tensor()
        for tensor in stream.tensors:
            assert np.array_equal(tensor, expected)

    def test_deterministic_given_seed(self, cfg, small_geom):
        hyp = PathHypothesis(50, 120, 10e-9, 70)
        scene = Scene((ScenePath(hyp, phase_jitter=0.7),), snr_db=15.0,
                      duration_s=0.05, rng_seed=99)
        a = simulate(scene, cfg, small_geom)
        b = simulate(scene, cfg, small_geom)
        assert np.array_equal(a.tensors, b.tensors)
        assert np.array_equal(a.timestamps_ns, b.timestamps_ns)

    def test_different_seed_differs(self, cfg, small_geom):
        hyp = PathHypothesis(50, 120, 10e-9, 70)
        base = dict(snr_db=15.0, duration_s=0.05)
        a = simulate(Scene((ScenePath(hyp),), rng_seed=1, **base), cfg, small_geom)
        b = simulate(Scene((ScenePath(hyp),), rng_seed=2, **base), cfg, small_geom)
        assert not np.array_equal(a.tensors, b.tensors)

    def test_empty_scene_raises(self, cfg, small_geom):
        with pytest.raises(DegenerateSceneError):
            simulate(Scene(()), cfg, small_geom)

    def test_linearity_of_superposition(self, cfg, small_geom):
        p1 = ScenePath(PathHypothesis(40, 70, 5e-9, 50), gain=1.0)
        p2 = ScenePath(PathHypothesis(140, 110, 25e-9, 130), gain=0.5j)
        common = dict(snr_db=math.inf, duration_s=0.03, rng_seed=3)
        both = simulate(Scene((p1, p2), **common), cfg, small_geom)
        only1 = simulate(Scene((p1,), **common), cfg, small_geom)
        only2 = simulate(Scene((p2,), **common), cfg, small_geom)
        np.testing.assert_allclose(both.tensors, only1.tensors + only2.tensors,
                                   rtol=0, atol=1e-12)

    def test_noise_statistics_match_snr(self, cfg):
        geom = ArrayGeometry(np.zeros((1, 3)), n_tx=1, n_subcarriers=2)
        hyp = PathHypothesis(90, 90)
        for snr_db in (0.0, 10.0, 23.0):
            scene = single_path_scene(hyp, snr_db=snr_db, duration=12.0, seed=11)
            stream = simulate(scene, cfg, geom)
            clean = simulate(single_path_scene(hyp, duration=12.0, seed=11), cfg, geom)
            noise = stream.tensors - clean.tensors
            measured = 10 * np.log10(np.mean(np.abs(clean.tensors) ** 2)
                                     / np.mean(np.abs(noise) ** 2))
            assert measured == pytest.approx(snr_db, abs=0.5)

    def test_timestamps_match_packet_rate(self, cfg, small_geom):
        stream = simulate(single_path_scene(PathHypothesis(90, 90), duration=0.01),
                          cfg, small_geom)
        assert len(stream) == 10
        np.testing.assert_array_equal(np.diff(stream.timestamps_ns), 1_000_000)


class TestGainGate:
    def test_duty_cycle(self):
        gate = GainGate(period_s=1.0, duty=0.5)
        t = np.array([0.0, 0.25, 0.49, 0.5, 0.75, 0.99, 1.0, 1.25])
        np.testing.assert_array_equal(gate.values(t), [1, 1, 1, 0, 0, 0, 1, 1])

    def test_phase_shift(self):
        gate = GainGate(period_s=1.0, duty=0.5, phase_s=0.5)
        assert gate.values(0.0) == 0.0
        assert gate.values(0.5) == 1.0

    def test_bad_period(self):
        with pytest.raises(ValueError):
            GainGate(period_s=0.0)


class TestCsiStreamValidation:
    @pytest.fixture
    def arrays(self, small_geom):
        shape = (5, small_geom.n_rx, small_geom.n_tx, small_geom.n_subcarriers)
        return np.arange(5, dtype=np.int64) * 1000, np.ones(shape, dtype=complex)

    def test_valid_stream(self, cfg, small_geom, arrays):
        stream = CsiStream(cfg, small_geom, *arrays)
        assert len(stream) == 5
        assert stream.timestamps_ns.dtype == np.int64
        assert stream.tensors.dtype == complex

    def test_wrong_tensor_shape(self, cfg, small_geom, arrays):
        ts, tensors = arrays
        with pytest.raises(ValueError, match=r"packet 0: tensor shape .* geometry"):
            CsiStream(cfg, small_geom, ts, tensors[:, :, :1])
        with pytest.raises(ValueError, match="packet 4: 5 timestamps but 4 tensors"):
            CsiStream(cfg, small_geom, ts, tensors[:4])

    @pytest.mark.parametrize("value", [2000, 1500])
    def test_non_increasing_timestamps(self, cfg, small_geom, arrays, value):
        ts, tensors = arrays
        ts[3:] = value  # packets 3 and 4 are both at fault
        with pytest.raises(ValueError, match="packet 3: timestamp"):
            CsiStream(cfg, small_geom, ts, tensors)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_values(self, cfg, small_geom, arrays, value):
        ts, tensors = arrays
        tensors[2, 1, 0, 3] = value
        tensors[4, 0, 0, 0] = value
        with pytest.raises(ValueError, match="packet 2: tensor contains non-finite"):
            CsiStream(cfg, small_geom, ts, tensors)

    def test_arrays_read_only(self, cfg, small_geom, arrays):
        stream = CsiStream(cfg, small_geom, *arrays)
        with pytest.raises(ValueError, match="read-only"):
            stream.tensors[0, 0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            stream.timestamps_ns[0] = 7


class TestInjectPhaseOffsets:
    def test_zero_ranges_are_identity(self, cfg, small_geom):
        stream = simulate(single_path_scene(PathHypothesis(77, 66, 12e-9, 80)),
                          cfg, small_geom)
        out = inject_phase_offsets(stream, seed=5, offset_range=(0.0, 0.0),
                                   slope_range=(0.0, 0.0))
        assert np.array_equal(out.tensors, stream.tensors)

    def test_ratio_constant_across_antenna_pairs(self, cfg, small_geom):
        stream = simulate(single_path_scene(PathHypothesis(77, 66, 12e-9, 80)),
                          cfg, small_geom)
        out = inject_phase_offsets(stream, seed=5)
        ratio = out.tensors / stream.tensors
        # per packet, the ratio tensor must not depend on (rx, tx)
        ref = ratio[:, :1, :1, :]
        np.testing.assert_allclose(ratio, np.broadcast_to(ref, ratio.shape),
                                    rtol=1e-12)

    def test_fixed_slope_rotation(self, cfg, small_geom):
        n_su = small_geom.n_subcarriers
        slope = np.pi / n_su
        stream = simulate(single_path_scene(PathHypothesis(90, 90)), cfg, small_geom)
        out = inject_phase_offsets(stream, seed=5, offset_range=(0.0, 0.0),
                                   slope_range=(slope, slope))
        ratio = out.tensors / stream.tensors
        rel = ratio[..., n_su - 1] / ratio[..., 0]
        expected = np.exp(-1j * slope * (n_su - 1))
        np.testing.assert_allclose(rel, expected, rtol=1e-12)

    def test_magnitudes_preserved(self, cfg, small_geom):
        stream = simulate(single_path_scene(PathHypothesis(45, 135, 8e-9, 60)),
                          cfg, small_geom)
        out = inject_phase_offsets(stream, seed=17)
        np.testing.assert_allclose(np.abs(out.tensors), np.abs(stream.tensors),
                                   rtol=1e-12)


class TestDegradeStream:
    def test_collapses_tx_and_subcarriers(self, cfg, full_geom):
        stream = simulate(single_path_scene(PathHypothesis(60, 45), duration=0.01),
                          cfg, full_geom)
        degraded = degrade_stream(stream)
        assert degraded.geometry.n_tx == 1
        assert degraded.geometry.n_subcarriers == 1
        assert degraded.tensors.shape == (10, full_geom.n_rx, 1, 1)
        np.testing.assert_array_equal(degraded.tensors[:, :, 0, 0],
                                      stream.tensors[:, :, 0, 0])


class TestHumanWalkPreset:
    def test_elevation_span_pass_through(self):
        persona = PersonaParams(elevation_span_deg=30, azimuth_span_deg=10,
                                gait_period_s=1.0)
        scene = human_walk_preset(persona)
        elevations = {p.hypothesis.elevation_deg for p in scene.paths}
        assert max(elevations) - min(elevations) == pytest.approx(30.0)

    def test_gait_gain_autocorrelation(self):
        persona = PersonaParams(elevation_span_deg=30, azimuth_span_deg=10,
                                gait_period_s=1.0)
        scene = human_walk_preset(persona, duration_s=4.0)
        legs = [p for p in scene.paths if p.gate is not None]
        assert len(legs) == 1
        frame_rate = 30.0
        t = np.arange(int(4.0 * frame_rate)) / frame_rate
        series = np.abs(legs[0].gains_at(t))
        q = series - series.mean()
        ac = np.correlate(q, q, mode="full")[len(q) - 1:]
        # strongest local maximum away from the zero-lag ramp
        peaks = [lag for lag in range(2, len(q) // 2)
                 if ac[lag] > ac[lag - 1] and ac[lag] >= ac[lag + 1]]
        best = max(peaks, key=lambda lag: ac[lag])
        assert best == 30

    def test_nonpositive_gait_rejected(self):
        with pytest.raises(ValueError, match="gait"):
            PersonaParams(elevation_span_deg=30, azimuth_span_deg=10,
                          gait_period_s=0.0)

    def test_walk_leaving_range_rejected(self):
        persona = PersonaParams(elevation_span_deg=30, azimuth_span_deg=10,
                                gait_period_s=1.0, walk_speed_deg_per_s=100.0,
                                start_azimuth_deg=150.0)
        with pytest.raises(ValueError, match="1, 180"):
            human_walk_preset(persona, duration_s=2.0)
