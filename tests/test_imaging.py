import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wivision import Spectrum2D, SpectrumTrack, aggregate
from wivision.imaging import enhance_track

import reference


def blob(az, el, power=10.0, ts=0):
    grid = np.zeros((180, 180))
    grid[az - 1, el - 1] = power
    return Spectrum2D(grid, timestamp_ns=ts)


def track_of(frames, frame_rate_hz=30.0):
    frames = list(frames)
    return SpectrumTrack(np.stack([f.grid for f in frames]),
                         [f.timestamp_ns for f in frames], frame_rate_hz)


class TestStaticEstimate:
    """The per-bin median background, seen through ``enhance_track``."""

    def test_identical_frames(self):
        frames = [blob(60, 45, ts=i) for i in range(10)]
        for mode in ("rolling", "global"):
            out = enhance_track(track_of(frames), static_window=10, floor_db=20.0,
                                mode=mode)
            assert len(out) == (1 if mode == "rolling" else 10)
            assert out.grids.max() == 0.0

    def test_window_of_one_is_last_frame(self, rng):
        # each frame is its own background, so every frame is kept and goes dark
        frames = [Spectrum2D(rng.uniform(0, 5, (180, 180)), timestamp_ns=i)
                  for i in range(4)]
        out = enhance_track(track_of(frames), static_window=1, floor_db=np.inf)
        assert out.timestamps_ns.tolist() == [0, 1, 2, 3]
        assert out.grids.max() == 0.0

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
            for grid, t in zip(out.grids, out.timestamps_ns):
                if t < 8:
                    assert grid[100, 100] == pytest.approx(50.0, rel=1e-12)
                    assert np.count_nonzero(grid) == 1
                else:
                    assert grid.max() == 0.0

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
        np.testing.assert_array_equal(out.grids[0], np.zeros((180, 180)))
        np.testing.assert_array_equal(out.grids[1], np.zeros((180, 180)))
        np.testing.assert_array_equal(out.grids[2], frames[2].grid)

    def test_zero_static_infinite_floor_is_identity(self, rng):
        x = Spectrum2D(rng.uniform(0.0, 5.0, (180, 180)))
        zero = Spectrum2D(np.zeros((180, 180)))
        out = enhance_track(track_of([x, zero, zero]), floor_db=np.inf, mode="global")
        np.testing.assert_array_equal(out.grids[0], x.grid)

    def test_floor_removes_weak_residuals(self):
        grid = np.zeros((180, 180))
        grid[10, 10] = 100.0   # strong subject
        grid[50, 50] = 0.5     # weak secondary reflection, > 20 dB down
        zero = Spectrum2D(np.zeros((180, 180)))
        out = enhance_track(track_of([Spectrum2D(grid), zero, zero]), floor_db=20.0,
                            mode="global")
        assert out.grids[0][10, 10] == 100.0
        assert out.grids[0][50, 50] == 0.0

    def test_output_bounded_by_input(self, rng):
        frames = [Spectrum2D(rng.uniform(0.0, 5.0, (180, 180)), timestamp_ns=i)
                  for i in range(6)]
        for mode in ("rolling", "global"):
            out = enhance_track(track_of(frames), static_window=3, floor_db=20.0,
                                mode=mode)
            for grid, t in zip(out.grids, out.timestamps_ns):
                assert np.all(grid <= frames[t].grid)
                assert np.all(grid >= 0.0)


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
    return track_of(frames, frame_rate_hz=12.5)


class TestEnhanceTrackMatchesPerFrame:
    """The one-pass enhancement against the per-frame oracle, bit for bit."""

    @staticmethod
    def assert_same(out, expected):
        assert len(out) == len(expected)
        for grid, t, (t_ref, grid_ref) in zip(out.grids, out.timestamps_ns, expected):
            assert t == t_ref
            assert grid.tobytes() == grid_ref.tobytes()

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
        assert out.grids.max() == 0.0


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
        assert np.array_equal(out.grids, expected.grids)

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
        assert out.grids.max() == 0.0


class TestSpectrumTrack:
    @pytest.mark.parametrize("grids, timestamps, rate, match", [
        (np.zeros((2, 180, 90)), None, 30.0, r"got grids \(2, 180, 90\)"),
        (np.zeros((180, 180)), None, 30.0, r"got grids \(180, 180\)"),
        (np.zeros((2, 180, 180)), [0, 1, 2], 30.0, r"timestamps \(3,\)"),
        (np.full((2, 180, 180), -1.0), None, 30.0, "finite and >= 0"),
        (np.full((2, 180, 180), np.nan), None, 30.0, "finite and >= 0"),
        (np.full((2, 180, 180), np.inf), None, 30.0, "finite and >= 0"),
        (np.zeros((2, 180, 180)), None, 0.0, "frame_rate_hz"),
        (np.zeros((2, 180, 180)), None, np.nan, "frame_rate_hz"),
        (np.zeros((2, 180, 180)), None, np.inf, "frame_rate_hz"),
    ])
    def test_validated_when_built(self, grids, timestamps, rate, match):
        with pytest.raises(ValueError, match=match):
            SpectrumTrack(grids, timestamps, rate)

    def test_one_read_only_array_without_a_copy(self, rng):
        grids = rng.uniform(0, 5, (3, 180, 180))
        track = SpectrumTrack(grids, [5, 6, 7])
        assert np.shares_memory(track.grids, grids)
        assert track.timestamps_ns.dtype == np.int64 and len(track) == 3
        for a in (track.grids, track.timestamps_ns):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(1, 70), window=st.integers(1, 6), ties=st.booleans(),
           floor_db=st.sampled_from([20.0, np.inf]), seed=st.integers(0, 2**32 - 1))
    def test_appended_track_equals_array_track(self, n, window, ties, floor_db, seed):
        # appends cross the growth boundaries 1, 2, 4, ..., 64 of the spare rows
        rng = np.random.default_rng(seed)
        grids = rng.uniform(0, 5, (n, 180, 180))
        if ties:
            grids = np.floor(grids)
        timestamps = np.cumsum(rng.integers(1, 10**9, n))
        appended = SpectrumTrack(frame_rate_hz=12.5)
        for grid, t in zip(grids, timestamps):
            appended.append(Spectrum2D(grid, int(t)))
        built = SpectrumTrack(grids, timestamps, 12.5)
        assert len(appended) == n and appended.frame_rate_hz == 12.5
        assert appended.grids.tobytes() == built.grids.tobytes()
        assert appended.timestamps_ns.tolist() == timestamps.tolist()
        assert not appended.grids.flags.writeable
        window = min(window, n)
        for mode in ("rolling", "global"):
            out = enhance_track(appended, static_window=window, floor_db=floor_db,
                                mode=mode)
            TestEnhanceTrackMatchesPerFrame.assert_same(
                out, reference.enhance_track(built, window, floor_db, mode))

    def test_enhance_copies_no_whole_track(self, rng):
        # the pipeline_walk shape: 43 raw frames, static window 30, 14 enhanced
        track = SpectrumTrack(rng.uniform(0, 5, (43, 180, 180)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = enhance_track(track, static_window=30)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(out) == 14
        # the output (14 frames) and one median's sort of 30 frames fit; a
        # copy of the 43-frame input on top of them does not
        assert peak < 1.5 * track.grids.nbytes

    def test_global_enhance_copies_no_whole_track(self, rng):
        track = SpectrumTrack(rng.uniform(0, 5, (60, 180, 180)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = enhance_track(track, mode="global")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(out) == 60
        # the output, in which the median partitions the frames, fits; the
        # median's own copy of the input on top of it does not
        assert peak < 1.25 * track.grids.nbytes
