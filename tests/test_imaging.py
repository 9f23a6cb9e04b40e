import numpy as np
import pytest

from wivision import Spectrum2D, SpectrumTrack, aggregate
from wivision.imaging import enhance_track

import reference


def blob(az, el, power=10.0, ts=0):
    grid = np.zeros((180, 180))
    grid[az - 1, el - 1] = power
    return Spectrum2D(grid, timestamp_ns=ts)


def track_of(frames):
    return SpectrumTrack(list(frames))


class TestStaticEstimate:
    """The per-bin median background, seen through ``enhance_track``."""

    def test_identical_frames(self):
        frames = [blob(60, 45, ts=i) for i in range(10)]
        for mode in ("rolling", "global"):
            out = enhance_track(track_of(frames), static_window=10, floor_db=20.0,
                                mode=mode)
            assert len(out) == (1 if mode == "rolling" else 10)
            for f in out.frames:
                assert f.grid.max() == 0.0

    def test_window_of_one_is_last_frame(self, rng):
        # each frame is its own background, so every frame is kept and goes dark
        frames = [Spectrum2D(rng.uniform(0, 5, (180, 180)), timestamp_ns=i)
                  for i in range(4)]
        out = enhance_track(track_of(frames), static_window=1, floor_db=np.inf)
        assert [f.timestamp_ns for f in out.frames] == [0, 1, 2, 3]
        for f in out.frames:
            assert f.grid.max() == 0.0

    def test_median_rejects_transient_blob(self, rng):
        # the blob occupies bin (100, 100) in 8 of 20 frames, under half the
        # track, so the median is the background and the blob survives whole
        base = rng.uniform(1.0, 2.0, (180, 180))
        frames = []
        for i in range(20):
            g = base.copy()
            if i < 8:
                g[100, 100] += 50.0
            frames.append(Spectrum2D(g, timestamp_ns=i))
        for mode in ("rolling", "global"):
            out = enhance_track(track_of(frames), static_window=20, floor_db=np.inf,
                                mode=mode)
            for f in out.frames:
                if f.timestamp_ns < 8:
                    assert f.grid[100, 100] == pytest.approx(50.0, rel=1e-12)
                    assert np.count_nonzero(f.grid) == 1
                else:
                    assert f.grid.max() == 0.0

    def test_insufficient_frames_names_window(self):
        with pytest.raises(ValueError, match="needs at least 90 frames, track has 1"):
            enhance_track(track_of([blob(60, 45)]), static_window=90)


class TestEnhance:
    """Subtract, clamp and floor, seen through ``enhance_track``."""

    def test_perfect_subtraction(self):
        # two of three frames are the background; the third adds a blob and
        # loses the background peak to the clamp at zero
        frames = [blob(60, 45, ts=0), blob(60, 45, ts=1), blob(90, 90, ts=2)]
        out = enhance_track(track_of(frames), floor_db=20.0, mode="global")
        np.testing.assert_array_equal(out.frames[0].grid, np.zeros((180, 180)))
        np.testing.assert_array_equal(out.frames[1].grid, np.zeros((180, 180)))
        np.testing.assert_array_equal(out.frames[2].grid, frames[2].grid)

    def test_zero_static_infinite_floor_is_identity(self, rng):
        x = Spectrum2D(rng.uniform(0.0, 5.0, (180, 180)))
        zero = Spectrum2D(np.zeros((180, 180)))
        out = enhance_track(track_of([x, zero, zero]), floor_db=np.inf, mode="global")
        np.testing.assert_array_equal(out.frames[0].grid, x.grid)

    def test_floor_removes_weak_residuals(self):
        grid = np.zeros((180, 180))
        grid[10, 10] = 100.0   # strong subject
        grid[50, 50] = 0.5     # weak secondary reflection, > 20 dB down
        zero = Spectrum2D(np.zeros((180, 180)))
        out = enhance_track(track_of([Spectrum2D(grid), zero, zero]), floor_db=20.0,
                            mode="global")
        assert out.frames[0].grid[10, 10] == 100.0
        assert out.frames[0].grid[50, 50] == 0.0

    def test_output_bounded_by_input(self, rng):
        frames = [Spectrum2D(rng.uniform(0.0, 5.0, (180, 180)), timestamp_ns=i)
                  for i in range(6)]
        for mode in ("rolling", "global"):
            out = enhance_track(track_of(frames), static_window=3, floor_db=20.0,
                                mode=mode)
            for f in out.frames:
                assert np.all(f.grid <= frames[f.timestamp_ns].grid)
                assert np.all(f.grid >= 0.0)


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


def walking_track(rng, n=12):
    """Noisy background, a strong static reflector and a blob moving one bin a frame.

    The blob's power grows tenfold along the track, so each frame's dB floor
    cuts the residual noise at a different level.
    """
    base = rng.uniform(0.0, 2.0, (180, 180))
    base[30, 120] = 80.0
    frames = []
    for i in range(n):
        g = base + rng.uniform(0.0, 0.3, (180, 180))
        g[60 + i, 90] += 5.0 * (1 + 9 * i / (n - 1))
        frames.append(Spectrum2D(g, timestamp_ns=1000 * i))
    return SpectrumTrack(frames, frame_rate_hz=12.5)


class TestEnhanceTrackMatchesPerFrame:
    """The one-pass enhancement against the per-frame oracle, bit for bit."""

    @staticmethod
    def assert_same(out, expected):
        assert len(out) == len(expected)
        for a, b in zip(out.frames, expected):
            assert a.timestamp_ns == b.timestamp_ns
            assert a.grid.tobytes() == b.grid.tobytes()

    @pytest.mark.parametrize("floor_db", [20.0, np.inf, -np.inf])
    @pytest.mark.parametrize("mode, window", [("rolling", 5), ("rolling", 1),
                                              ("global", 5)])
    def test_walking_track(self, rng, mode, window, floor_db):
        track = walking_track(rng)
        out = enhance_track(track, static_window=window, floor_db=floor_db, mode=mode)
        assert out.frame_rate_hz == 12.5
        self.assert_same(out, reference.enhance_track(track, window, floor_db, mode))

    @pytest.mark.parametrize("floor_db", [20.0, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["rolling", "global"])
    def test_all_zero_track(self, mode, floor_db):
        track = track_of(Spectrum2D(np.zeros((180, 180)), timestamp_ns=i) for i in range(6))
        out = enhance_track(track, static_window=3, floor_db=floor_db, mode=mode)
        assert len(out) == (4 if mode == "rolling" else 6)
        self.assert_same(out, reference.enhance_track(track, 3, floor_db, mode))
        assert all(f.grid.max() == 0.0 for f in out.frames)


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
