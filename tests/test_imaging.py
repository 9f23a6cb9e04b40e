import numpy as np
import pytest

from wivision import Spectrum2D, SpectrumTrack, aggregate, enhance, static_estimate
from wivision.imaging import enhance_track


def blob(az, el, power=10.0, ts=0):
    grid = np.zeros((180, 180))
    grid[az - 1, el - 1] = power
    return Spectrum2D(grid, timestamp_ns=ts)


def track_of(frames):
    return SpectrumTrack(list(frames))


class TestStaticEstimate:
    def test_identical_frames(self):
        frames = [blob(60, 45, ts=i) for i in range(10)]
        est = static_estimate(track_of(frames), window=10)
        np.testing.assert_array_equal(est.grid, frames[0].grid)

    def test_window_of_one_is_last_frame(self):
        frames = [blob(60, 45, ts=0), blob(90, 90, ts=1)]
        est = static_estimate(track_of(frames), window=1)
        np.testing.assert_array_equal(est.grid, frames[-1].grid)

    def test_median_rejects_transient_blob(self, rng):
        base = rng.uniform(1.0, 2.0, (180, 180))
        frames = []
        for i in range(20):
            g = base.copy()
            if i < 8:  # blob occupies the bin under half the window
                g[100, 100] += 50.0
            frames.append(Spectrum2D(g, timestamp_ns=i))
        est = static_estimate(track_of(frames), window=20)
        assert abs(est.grid[100, 100] - base[100, 100]) / base[100, 100] < 0.05
        np.testing.assert_allclose(est.grid, base, rtol=0.05)

    def test_insufficient_frames_names_window(self):
        with pytest.raises(ValueError, match="90"):
            static_estimate(track_of([blob(60, 45)]), window=90)


class TestEnhance:
    def test_perfect_subtraction(self):
        x = blob(60, 45)
        out = enhance(x, x, floor_db=20.0)
        np.testing.assert_array_equal(out.grid, np.zeros((180, 180)))

    def test_zero_static_infinite_floor_is_identity(self, rng):
        x = Spectrum2D(rng.uniform(0.0, 5.0, (180, 180)))
        zero = Spectrum2D(np.zeros((180, 180)))
        out = enhance(x, zero, floor_db=np.inf)
        np.testing.assert_array_equal(out.grid, x.grid)

    def test_floor_removes_weak_residuals(self):
        grid = np.zeros((180, 180))
        grid[10, 10] = 100.0   # strong subject
        grid[50, 50] = 0.5     # weak secondary reflection, > 20 dB down
        out = enhance(Spectrum2D(grid), Spectrum2D(np.zeros((180, 180))),
                      floor_db=20.0)
        assert out.grid[10, 10] == 100.0
        assert out.grid[50, 50] == 0.0

    def test_output_bounded_by_input(self, rng):
        x = Spectrum2D(rng.uniform(0.0, 5.0, (180, 180)))
        s = Spectrum2D(rng.uniform(0.0, 5.0, (180, 180)))
        out = enhance(x, s, floor_db=20.0)
        assert np.all(out.grid <= x.grid + 1e-12)
        assert np.all(out.grid >= 0.0)

    def test_dimension_mismatch(self):
        x = blob(60, 45)
        bad = Spectrum2D(np.zeros((180, 180)))
        bad.grid = np.zeros((90, 90))
        with pytest.raises(ValueError, match="match"):
            enhance(x, bad)


class TestAggregate:
    def test_k_one_is_identity(self):
        frames = [blob(60, 45, ts=0), blob(90, 90, ts=1)]
        out = aggregate(track_of(frames), k=1)
        np.testing.assert_array_equal(out.grid, frames[-1].grid)

    def test_upper_and_lower_blobs_combined(self):
        upper = blob(80, 110, power=7.0, ts=0)
        lower = blob(80, 70, power=5.0, ts=1)
        out = aggregate(track_of([upper, lower]), k=2)
        assert out.grid[79, 109] == 7.0
        assert out.grid[79, 69] == 5.0

    def test_identical_frames(self):
        frames = [blob(60, 45, ts=i) for i in range(15)]
        out = aggregate(track_of(frames), k=15)
        np.testing.assert_array_equal(out.grid, frames[0].grid)

    def test_monotone_in_frames(self, rng):
        frames = [Spectrum2D(rng.uniform(0, 5, (180, 180)), timestamp_ns=i)
                  for i in range(6)]
        small = aggregate(track_of(frames[:5]), k=5)
        # appending one more frame never decreases any bin of the trailing max
        grown = aggregate(track_of(frames), k=6)
        assert np.all(grown.grid >= small.grid - 1e-15)

    def test_order_invariance_within_window(self, rng):
        frames = [Spectrum2D(rng.uniform(0, 5, (180, 180)), timestamp_ns=i)
                  for i in range(5)]
        a = aggregate(track_of(frames), k=5)
        b = aggregate(track_of(frames[::-1]), k=5)
        np.testing.assert_array_equal(a.grid, b.grid)

    def test_insufficient_frames(self):
        with pytest.raises(ValueError, match="15"):
            aggregate(track_of([blob(60, 45)]), k=15)


class TestEnhanceTrack:
    def test_rolling_drops_warmup(self, rng):
        frames = [Spectrum2D(rng.uniform(1, 2, (180, 180)), timestamp_ns=i)
                  for i in range(12)]
        out = enhance_track(track_of(frames), static_window=5, floor_db=20.0)
        assert len(out) == 8

    def test_global_keeps_all_frames(self, rng):
        frames = [Spectrum2D(rng.uniform(1, 2, (180, 180)), timestamp_ns=i)
                  for i in range(12)]
        out = enhance_track(track_of(frames), static_window=5, floor_db=20.0,
                            mode="global")
        assert len(out) == 12

    def test_global_ignores_static_window(self, rng):
        # global mode takes its median over the whole track, however short
        frames = [Spectrum2D(rng.uniform(1, 2, (180, 180)), timestamp_ns=i)
                  for i in range(10)]
        out = enhance_track(track_of(frames), mode="global")
        expected = enhance_track(track_of(frames), static_window=10, mode="global")
        assert len(out) == 10
        for a, b in zip(out.frames, expected.frames):
            assert np.array_equal(a.grid, b.grid)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["rolling", "global"])
    @pytest.mark.parametrize("window", [0, -2])
    def test_static_window_below_one_rejected(self, mode, window):
        frames = [blob(60, 45, ts=i) for i in range(4)]
        with pytest.raises(ValueError, match="static window must be >= 1"):
            enhance_track(track_of(frames), static_window=window, mode=mode)

    def test_static_scene_goes_dark(self):
        frames = [blob(60, 45, ts=i) for i in range(10)]
        out = enhance_track(track_of(frames), static_window=5, floor_db=20.0)
        for f in out.frames:
            assert f.grid.max() == 0.0
