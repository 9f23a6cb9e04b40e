import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wivision import (
    CmcCurve,
    FeatureVector,
    RankingResult,
    SpectrumTrack,
    cmc,
    extract_features,
    rank,
)


def feature(e=20.0, a=10.0, p=5.0, c=90.0, g=1.0, m=0.5):
    return FeatureVector(e, a, p, c, g, m)


def blob_grid(az, el, power):
    grid = np.zeros((180, 180))
    grid[az - 1, el - 1] = power
    return grid


class TestExtractFeatures:
    def test_static_blob_has_no_gait(self):
        fv = extract_features(SpectrumTrack([blob_grid(90, 100, 10.0)] * 60))
        assert fv.gait_period_s == 0.0
        assert fv.power_modulation_depth < 0.05
        assert fv.elevation_extent_deg == 0.0
        assert fv.centroid_elevation_deg == pytest.approx(100.0)

    def test_extents_from_aggregate(self):
        grid = np.zeros((180, 180))
        grid[59, 74] = 10.0   # az 60, el 75
        grid[69, 104] = 8.0   # az 70, el 105
        fv = extract_features(SpectrumTrack([grid] * 60))
        assert fv.elevation_extent_deg == pytest.approx(30.0)
        assert fv.azimuth_extent_deg == pytest.approx(10.0)

    def test_gait_period_from_modulated_power(self):
        grids = []
        for i in range(120):
            on = (i % 30) < 15   # 1.0 s square wave at 30 fps
            power = 10.0 + (5.0 if on else 0.0)
            grids.append(blob_grid(90, 100, power))
        fv = extract_features(SpectrumTrack(grids, frame_rate_hz=30.0))
        assert fv.gait_period_s == pytest.approx(1.0, abs=1 / 30.0)
        assert fv.power_modulation_depth > 0.1

    def test_rejects_short_track(self):
        with pytest.raises(ValueError, match="50"):
            extract_features(SpectrumTrack([blob_grid(90, 100, 10.0)] * 10))

    def test_rejects_all_zero_track(self):
        with pytest.raises(ValueError, match="all-zero"):
            extract_features(SpectrumTrack(np.zeros((60, 180, 180))))


class TestRank:
    def test_identical_entry_wins_with_zero_distance(self):
        probe = feature()
        gallery = [("other", feature(e=40.0)), ("same", probe), ("third", feature(a=2.0))]
        result = rank(probe, gallery)
        assert result.gallery_ids[0] == "same"
        assert result.distances[0] == pytest.approx(0.0, abs=1e-12)

    def test_metric_monotonicity(self):
        # gallery std of the elevation extent defines sigma; A sits 1 sigma
        # from the probe, B two sigmas
        probe = feature(e=20.0)
        gallery = [("A", feature(e=30.0)), ("B", feature(e=40.0))]
        result = rank(probe, gallery)
        assert list(result.gallery_ids) == ["A", "B"]

    def test_uniform_random_mean_rank(self, rng):
        n_trials, n_gallery = 1000, 14
        ranks = []
        for _ in range(n_trials):
            feats = rng.standard_normal((n_gallery, 6))
            gallery = [(f"id{i}", FeatureVector(*np.abs(f[:2]), f[2], f[3],
                                                abs(f[4]), 0.5))
                       for i, f in enumerate(feats)]
            probe_raw = rng.standard_normal(6)
            probe = FeatureVector(*np.abs(probe_raw[:2]), probe_raw[2],
                                  probe_raw[3], abs(probe_raw[4]), 0.5)
            result = rank(probe, gallery)
            ranks.append(result.rank_of("id0"))
        assert np.mean(ranks) == pytest.approx(7.5, abs=0.5)

    def test_single_entry_gallery(self):
        result = rank(feature(), [("only", feature(e=50.0))])
        assert result.gallery_ids == ("only",)

    def test_empty_gallery_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            rank(feature(), [])

    def test_duplicate_gallery_ids_rejected(self):
        with pytest.raises(ValueError, match="^gallery ids must be unique$"):
            rank(feature(), [("a", feature()), ("a", feature(e=30.0))])

    def test_affine_rescaling_invariance(self, rng):
        feats = rng.uniform(1, 10, (6, 6))
        probe_raw = rng.uniform(1, 10, 6)

        def build(scale, shift):
            vals = feats.copy()
            vals[:, 2] = vals[:, 2] * scale + shift
            gallery = [(f"id{i}", FeatureVector(v[0], v[1], v[2], v[3], v[4],
                                                min(v[5] / 10, 1.0)))
                       for i, v in enumerate(vals)]
            pr = probe_raw.copy()
            pr[2] = pr[2] * scale + shift
            probe = FeatureVector(pr[0], pr[1], pr[2], pr[3], pr[4],
                                  min(pr[5] / 10, 1.0))
            return rank(probe, gallery)

        assert build(1.0, 0.0).gallery_ids == build(7.0, 123.0).gallery_ids

    def test_stable_tie_break(self):
        probe = feature()
        gallery = [("first", feature(e=30.0)), ("second", feature(e=30.0))]
        result = rank(probe, gallery)
        assert list(result.gallery_ids) == ["first", "second"]


class TestCmc:
    def test_perfect_matcher(self):
        results = [RankingResult(f"p{i}", (f"id{i}", "idx", "idy"),
                                 np.array([0.0, 1.0, 2.0])) for i in range(5)]
        truth = {f"p{i}": f"id{i}" for i in range(5)}
        curve = cmc(results, truth)
        np.testing.assert_array_equal(curve.values, np.ones(3))

    def test_uniform_random_rankings_match_k_over_n(self, rng):
        n_trials, n = 10_000, 14
        ids = [f"id{i}" for i in range(n)]
        results = []
        for t in range(n_trials):
            order = rng.permutation(n)
            results.append(RankingResult(f"p{t}", tuple(ids[i] for i in order),
                                         np.arange(n, dtype=float)))
        truth = {f"p{t}": "id0" for t in range(n_trials)}
        curve = cmc(results, truth)
        expected = np.arange(1, n + 1) / n
        assert np.max(np.abs(curve.values - expected)) < 0.02

    def test_terminates_at_one(self, rng):
        ids = ("a", "b", "c", "d")
        results = [RankingResult(f"p{i}", ids, np.arange(4.0)) for i in range(6)]
        truth = {f"p{i}": rng.choice(ids) for i in range(6)}
        curve = cmc(results, truth)
        assert curve.values[-1] == 1.0
        assert np.all(np.diff(curve.values) >= 0)

    def test_missing_truth_entry(self):
        results = [RankingResult("p0", ("a", "b"), np.array([0.0, 1.0]))]
        with pytest.raises(ValueError, match="missing"):
            cmc(results, {})

    @pytest.mark.parametrize("k", [0, -1, 3])
    def test_rank_outside_curve_rejected(self, k):
        curve = CmcCurve(np.array([0.5, 1.0]))
        assert (curve.rank_accuracy(1), curve.rank_accuracy(2)) == (0.5, 1.0)
        with pytest.raises(ValueError, match=f"rank must be in \\[1, 2\\], got {k}"):
            curve.rank_accuracy(k)

    def test_csv_export(self, tmp_path):
        curve = CmcCurve(np.array([0.5, 0.75, 1.0]))
        out = tmp_path / "cmc.csv"
        curve.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "k,accuracy"
        assert lines[1] == "1,0.5"
        assert len(lines) == 4

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=20))
    @settings(max_examples=60)
    def test_curve_validation(self, values):
        values = sorted(values)
        curve = CmcCurve(np.array(values))
        assert np.all(np.diff(curve.values) >= -1e-12)

    def test_nonmonotone_rejected(self):
        with pytest.raises(ValueError):
            CmcCurve(np.array([0.5, 0.4]))
