"""The benchmark's three workloads, their seeded inputs and their oracle checks.

Every workload is a batch job on inputs made from the seed alone:

* ``pipeline_walk`` runs ``wivision pipeline`` through ``cli.main`` on the
  reference scene (line of sight plus the README ``alice`` persona, 25 dB).
  It is the headline real-time factor and the only workload that writes
  files and runs the rolling-median enhancement.
* ``spectrum_multipath`` reads a CSIF capture of the six-reflector scene with
  injected phase offsets, sanitizes it and images every window on the full
  (tof, aod) grid, then detects peaks.  The scan dominates; export is
  bypassed, so an export change must leave it unchanged.
* ``reid_gallery`` images the eight-persona gallery and probes of the Re-ID
  harness on a 4-point (tof, aod) grid and ranks them.  Many short tracks and
  a tiny grid make the subspace dominate and expose per-call overhead.

Checks compare outputs with the simulator's ground truth within tolerances,
so numerically different but correct outputs still pass.
"""

from __future__ import annotations

import importlib
import math
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wivision import arraymodel, cli, csif, export, imaging, music, reid, scenefile

# The package re-exports functions named like these modules, so fetch the
# modules themselves; tracing replaces attributes on them.
simulate_mod = importlib.import_module("wivision.simulate")
sanitize_mod = importlib.import_module("wivision.sanitize")

REFERENCE_SCENE = """\
[simulation]
snr_db = 25
packet_rate_hz = 1000
duration_s = {duration_s}
seed = {seed}

[path:los]
tag = los
azimuth_deg = 90
elevation_deg = 90
tof_ns = 10
aod_deg = 90
gain_db = 6
phase_jitter = 1.0

[persona:alice]
elevation_span_deg = 30
azimuth_span_deg = 12
gait_period_s = 1.0
walk_speed_deg_per_s = 6
"""

WINDOW = music.DEFAULT_WINDOW_LEN
STRIDE = music.DEFAULT_STRIDE
PEAK_TOLERANCE_BINS = 3      # aggregate peak against a body-part path
MATCH_TOLERANCE_BINS = 2     # detected peak against a reflector
RESOLVED_FLOOR = 4.0         # mean reflectors matched per window, of 6
RANK1_FLOOR = 0.75           # CMC rank-1 accuracy of the persona probes
REID_GRIDS = music.GridSpec(tof_grid_s=np.array([30e-9, 32e-9, 34e-9, 36e-9]),
                            aod_grid_deg=np.array([90.0]))


@dataclass(frozen=True)
class Size:
    """Input size of one iteration; ``tiny`` exists for the self-test."""

    walk_s: float             # pipeline_walk capture
    static_window: int        # rolling-median frames of pipeline_walk
    aggregate_frames: int
    multipath_s: float        # spectrum_multipath capture
    personas: int             # reid_gallery identities (gallery and probes)
    track_frames: int         # windows per reid_gallery track


# pipeline_walk runs a 1.5 s capture, not the 4 s reference capture: on a
# shared 2-core machine one 20 s iteration per run spread by about 20 % from
# run to run, while several short iterations per run average out more of the
# host's drifting speed.
SIZES = {
    "full": Size(walk_s=1.5, static_window=30, aggregate_frames=10, multipath_s=4.0,
                 personas=8, track_frames=60),
    "tiny": Size(walk_s=0.5, static_window=8, aggregate_frames=4, multipath_s=0.5,
                 personas=4, track_frames=50),
}


class Checks:
    """Oracle checks: how many were attempted and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Context:
    """What set-up leaves behind for the workload of one process."""

    workdir: Path
    seed: int
    size: Size
    scene_path: Path
    bundle: scenefile.SceneBundle
    scene_load_s: float


def setup(workdir: Path, seed: int, size: Size) -> Context:
    """Load the reference scene and fill the rx pair-table cache."""
    scene_path = workdir / "reference.ini"
    scene_path.write_text(REFERENCE_SCENE.format(duration_s=size.walk_s, seed=seed),
                          encoding="ascii")
    start = time.perf_counter()
    bundle = scenefile.load_scene(scene_path)
    load_s = time.perf_counter() - start
    cfg, geom = bundle.config, bundle.geometry
    tensor = arraymodel.steering_tensor(cfg, geom, np.array([90.0]), np.array([90.0]),
                                        np.array([0.0]), np.array([90.0]))
    basis = music.vectorize_frames(tensor).T / math.sqrt(geom.dim)
    music.spectrum(music.NoiseSubspace(basis, 1), None, cfg, geom)
    return Context(workdir, seed, size, scene_path, bundle, load_s)


def n_windows(n_packets: int) -> int:
    return (n_packets - WINDOW) // STRIDE + 1


def matched_components(peaks, truth, tol: int = MATCH_TOLERANCE_BINS) -> int:
    """Truth components with a distinct detected peak within ``tol`` bins."""
    used: set[int] = set()
    hits = 0
    for t_az, t_el in truth:
        for i, (az, el, _) in enumerate(peaks):
            if i not in used and abs(az - t_az) <= tol and abs(el - t_el) <= tol:
                used.add(i)
                hits += 1
                break
    return hits


def _tree_bytes(root: Path) -> int:
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file())


class PipelineWalk:
    name = "pipeline_walk"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        scene = ctx.bundle.scene
        self.capture_s = scene.duration_s
        self.grid_points = music.DEFAULT_TOF_GRID_S.size * music.DEFAULT_AOD_GRID_DEG.size
        self.out = ctx.workdir / "pipeline_out"
        self.argv = ["pipeline", "--scene", str(ctx.scene_path), "--out", str(self.out),
                     "--static-window", str(ctx.size.static_window),
                     "--frames", str(ctx.size.aggregate_frames)]
        self.windows = n_windows(scene.n_packets)
        last_end = (self.windows - 1) * STRIDE + WINDOW - 1
        t_final = last_end / scene.packet_rate_hz
        self.body_parts = [tuple(float(v) for v in p.hypothesis_at(t_final)[:2])
                           for p in scene.paths if p.tag == "human"]

    def prepare(self) -> None:
        pass

    def run(self):
        return cli.main(self.argv)

    def check(self, exit_code, checks: Checks) -> dict:
        checks.expect(exit_code == cli.EXIT_OK, f"pipeline exit code {exit_code}")
        written = _tree_bytes(self.out)
        if exit_code == cli.EXIT_OK:
            self._check_outputs(checks)
        shutil.rmtree(self.out, ignore_errors=True)
        return {"bytes_written_mb": written / 1e6}

    def _check_outputs(self, checks: Checks) -> None:
        spectra = self.out / "spectra"
        n_csv = len(list(spectra.glob("*.csv")))
        n_pgm = len(list(spectra.glob("*.pgm")))
        checks.expect(n_csv == self.windows and n_pgm == self.windows,
                      f"{n_csv} spectrum CSVs and {n_pgm} PGMs, expected {self.windows}")
        n_enhanced = len(list((self.out / "enhanced").glob("*.csv")))
        want = self.windows - self.ctx.size.static_window + 1
        checks.expect(n_enhanced == want, f"{n_enhanced} enhanced frames, expected {want}")
        aggregate = self.out / "aggregate.csv"
        if not aggregate.is_file():
            checks.expect(False, "no aggregate.csv written")
            return
        az, el = export.read_spectrum_csv(aggregate).argmax_angles()
        tol = PEAK_TOLERANCE_BINS
        near = any(abs(az - p_az) <= tol and abs(el - p_el) <= tol
                   for p_az, p_el in self.body_parts)
        checks.expect(near, f"aggregate peak ({az}, {el}) is not within {tol} bins "
                            f"of a body part {self.body_parts}")


class SpectrumMultipath:
    name = "spectrum_multipath"

    def __init__(self, ctx: Context, truth=None):
        self.ctx = ctx
        self.capture_s = ctx.size.multipath_s
        self.grids = music.GridSpec()
        self.grid_points = self.grids.tof_grid_s.size * self.grids.aod_grid_deg.size
        self.truth = simulate_mod.six_reflector_truth() if truth is None else truth
        self.path = ctx.workdir / "six_reflector.csif"
        self.scene = simulate_mod.six_reflector_scene(snr_db=20, duration_s=self.capture_s,
                                                      rng_seed=ctx.seed)
        self.n_packets = self.scene.n_packets

    def prepare(self) -> None:
        """Write the capture; untimed, the timed part starts by reading it."""
        bundle = self.ctx.bundle
        stream = simulate_mod.simulate(self.scene, bundle.config, bundle.geometry)
        csif.write_csif(simulate_mod.inject_phase_offsets(stream, self.ctx.seed + 1), self.path)

    def run(self):
        stream = sanitize_mod.sanitize(csif.read_csif(self.path))
        spectra, peaks = [], []
        for w in music.windows(stream):
            sub = music.noise_subspace_from_window(w)
            spec = music.spectrum(sub, self.grids, stream.config, stream.geometry,
                                  timestamp_ns=w.timestamp_ns)
            peaks.append(music.detect_peaks(spec))
            spectra.append(spec)
        return len(stream), spectra, peaks

    def check(self, output, checks: Checks) -> dict:
        n_packets, spectra, peaks = output
        checks.expect(n_packets == self.n_packets,
                      f"read {n_packets} packets, wrote {self.n_packets}")
        checks.expect(len(spectra) == n_windows(self.n_packets),
                      f"{len(spectra)} spectra, expected {n_windows(self.n_packets)}")
        for i, spec in enumerate(spectra):
            g = spec.grid
            checks.expect(bool(np.all(np.isfinite(g)) and np.all(g >= 0)),
                          f"window {i}: spectrum not finite and nonnegative")
        resolved = float(np.mean([matched_components(p, self.truth) for p in peaks]))
        checks.expect(resolved >= RESOLVED_FLOOR,
                      f"{resolved:.2f} of {len(self.truth)} reflectors resolved per window, "
                      f"floor {RESOLVED_FLOOR}")
        return {"reflectors_resolved": resolved}


def persona_design(count: int) -> dict[str, dict]:
    """The eight personas of the Re-ID acceptance harness (the first ``count``).

    Five binary traits with unbalanced splits, so every pair differs in at
    least one trait by more than two gallery standard deviations.
    """
    patterns = [0b00000, 0b00001, 0b00010, 0b00100, 0b01000, 0b10000,
                0b00101, 0b10110][:count]
    return {
        f"persona{i}": dict(
            elevation_span_deg=24.0 if bits & 1 else 40.0,
            gait_period_s=(2 / 3) if bits & 2 else 1.0,
            azimuth_span_deg=8.0 if bits & 4 else 20.0,
            leg_duty=0.3 if bits & 8 else 0.7,
            head_gated=bool(bits & 16),
            walk_speed_deg_per_s=6.0,
            tof_ns=30.0,
        )
        for i, bits in enumerate(patterns)
    }


class ReidGallery:
    name = "reid_gallery"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.personas = persona_design(ctx.size.personas)
        self.track_s = (WINDOW + (ctx.size.track_frames - 1) * STRIDE + 1) / 1000.0
        self.capture_s = 2 * len(self.personas) * self.track_s
        self.grid_points = REID_GRIDS.tof_grid_s.size * REID_GRIDS.aod_grid_deg.size

    def prepare(self) -> None:
        pass

    def _features(self, params: dict, seed: int, start_az: float):
        cfg, geom = self.ctx.bundle.config, self.ctx.bundle.geometry
        persona = simulate_mod.PersonaParams(**params, start_azimuth_deg=start_az)
        scene = simulate_mod.human_walk_preset(persona, duration_s=self.track_s,
                                               snr_db=math.inf, rng_seed=seed)
        stream = simulate_mod.simulate(scene, cfg, geom)
        track = imaging.SpectrumTrack(frame_rate_hz=1000 / STRIDE)
        for w in music.windows(stream, WINDOW, STRIDE):
            sub = music.noise_subspace_from_window(w)
            track.append(music.spectrum(sub, REID_GRIDS, cfg, geom,
                                        timestamp_ns=w.timestamp_ns))
        enhanced = imaging.enhance_track(track, floor_db=20.0, mode="global",
                                         static_window=len(track))
        return reid.extract_features(enhanced)

    def run(self):
        base = 1000 * self.ctx.seed
        gallery = [(name, self._features(params, base + 100 + i, 58 + i))
                   for i, (name, params) in enumerate(self.personas.items())]
        results, truth = [], {}
        for i, (name, params) in enumerate(self.personas.items()):
            probe_id = f"{name}__probe"
            truth[probe_id] = name
            probe = self._features(params, base + 200 + i, 62 + i)
            results.append(reid.rank(probe, gallery, probe_id=probe_id))
        return reid.cmc(results, truth)

    def check(self, curve, checks: Checks) -> dict:
        v = curve.values
        checks.expect(bool(np.all(np.diff(v) >= 0)) and v[-1] == 1.0,
                      f"CMC {v.tolist()} is not nondecreasing to 1")
        rank1 = curve.rank_accuracy(1)
        checks.expect(rank1 >= RANK1_FLOOR, f"rank-1 {rank1:.3f} below {RANK1_FLOOR}")
        return {"rank1": rank1}


WORKLOADS = {w.name: w for w in (PipelineWalk, SpectrumMultipath, ReidGallery)}


def _record_file(key):
    def observe(tracer, result, args):
        tracer.record(key, os.path.getsize(args[1]))
    return observe


def _record_read(tracer, result, args):
    tracer.record("csif.bytes", os.path.getsize(args[0]))


def _record_windows(tracer, result, args):
    tracer.record("windows_bytes", sum(w.matrix.nbytes for w in result))


def _record_s_hat(tracer, result, args):
    tracer.record("s_hat", result.s_hat)


def _record_frames(tracer, result, args):
    tracer.record("enhance_frames", len(result))


# The two calls that make one image, and the call that starts a stream of
# them; timed in every run for frame latency.
FRAME_TARGETS = [
    (music, "windows", "music.windows", None),
    (music, "noise_subspace_from_window", "music.subspace", None),
    (music, "spectrum", "music.scan", None),
]

# Every public call the workloads make, and the names ``cli`` imported.
TRACE_TARGETS = [
    (music, "noise_subspace_from_window", "music.subspace", _record_s_hat),
    (music, "spectrum", "music.scan", None),
    (music, "windows", "music.windows", _record_windows),
    (music, "detect_peaks", "music.peaks", None),
    (cli, "main", "cli.main", None),
    (scenefile, "load_scene", "scenefile.load_scene", None),
    (simulate_mod, "simulate", "simulate.simulate", None),
    (cli, "run_simulation", "simulate.simulate", None),
    (simulate_mod, "human_walk_preset", "simulate.human_walk_preset", None),
    (csif, "write_csif", "csif.write", _record_file("csif.bytes")),
    (csif, "read_csif", "csif.read", _record_read),
    (sanitize_mod, "sanitize", "sanitize.sanitize", None),
    (cli, "sanitize_stream", "sanitize.sanitize", None),
    (imaging, "enhance_track", "imaging.enhance_track", _record_frames),
    (imaging, "aggregate", "imaging.aggregate", None),
    (export, "write_spectrum_csv", "export.csv", _record_file("export.bytes")),
    (export, "write_pgm", "export.pgm", _record_file("export.bytes")),
    (reid, "extract_features", "reid.features", None),
    (reid, "rank", "reid.rank", None),
    (reid, "cmc", "reid.cmc", None),
]
