"""Command-line surface tying the pipeline together.

Subcommands: ``simulate``, ``spectrum``, ``enhance``, ``aggregate``, ``reid``,
and ``pipeline`` (all stages in one run).  Exit codes: 0 success, 1 usage,
2 input error, 3 numerical failure.  For the same inputs, seed and flags, the
number of writer processes never changes the output bytes; the number of BLAS
threads, which OpenBLAS takes from the usable CPUs unless
``OPENBLAS_NUM_THREADS`` is set, can change the last digits of a spectrum CSV.

Each command computes all its images first, then writes every frame's CSV
and PGM in one pass, on one forked worker process per usable CPU (in this
process when only one CPU is usable, there is a single frame, or ``fork`` is
unavailable).
"""

from __future__ import annotations

import argparse
import logging
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import csif, export, imaging, music, reid, scenefile
from .sanitize import sanitize as sanitize_stream
from .simulate import (
    CsiStream,
    DegenerateSceneError,
    degrade_stream,
    inject_phase_offsets,
    simulate as run_simulation,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

logger = logging.getLogger("wivision")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wivision",
                     description="WiFi CSI angle-of-arrival imaging pipeline")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scene seed / offset-injection seed")
    parser.add_argument("--config", type=Path, default=None,
                        help="scene-format file supplying channel/geometry overrides")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a scene file to a CSIF stream")
    p.add_argument("--scene", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--inject-offsets", action="store_true",
                   help="apply per-packet STO/PDD phase errors")

    p = sub.add_parser("spectrum", help="CSIF stream to per-window angle images")
    p.add_argument("--in", dest="infile", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--window", type=int, default=music.DEFAULT_WINDOW_LEN)
    p.add_argument("--stride", type=int, default=music.DEFAULT_STRIDE)
    p.add_argument("--no-sanitize", action="store_true")
    p.add_argument("--degraded", action="store_true",
                   help="1 packet / 1 tx / 1 subcarrier configuration")
    p.add_argument("--sources", type=int, default=None,
                   help="fix the source count instead of estimating it")
    p.add_argument("--tau-grid-ns", type=_grid_type("tof_grid_s", 1e-9),
                   help="comma list or start:stop:step, nanoseconds")
    p.add_argument("--aod-grid-deg", type=_grid_type("aod_grid_deg", 1.0),
                   help="comma list or start:stop:step, degrees")
    p.add_argument("--reduce", choices=("sum", "max"), default="sum")

    p = sub.add_parser("enhance", help="subtract static background from spectra")
    p.add_argument("--in", dest="indir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--static-window", type=int, default=imaging.DEFAULT_STATIC_WINDOW)
    p.add_argument("--floor-db", type=float, default=imaging.DEFAULT_FLOOR_DB)
    p.add_argument("--static-mode", choices=("rolling", "global"), default="rolling")

    p = sub.add_parser("aggregate", help="max-combine the most recent enhanced frames")
    p.add_argument("--in", dest="indir", type=Path, required=True)
    p.add_argument("--frames", type=int, default=imaging.DEFAULT_AGGREGATE_FRAMES)
    p.add_argument("--out", type=Path, required=True,
                   help="output file (.pgm for an image, otherwise CSV)")

    p = sub.add_parser("reid", help="rank probe tracks against a gallery")
    p.add_argument("--gallery", type=Path, required=True,
                   help="directory with one enhanced-track subdirectory per identity")
    p.add_argument("--probes", type=Path, required=True,
                   help="directory of probe tracks named <id> or <id>__<variant>")
    p.add_argument("--cmc", type=Path, required=True, help="output CMC CSV")
    p.add_argument("--frame-rate", type=float, default=imaging.DEFAULT_FRAME_RATE_HZ)

    p = sub.add_parser("pipeline", help="scene file through every stage")
    p.add_argument("--scene", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--inject-offsets", action="store_true")
    p.add_argument("--no-sanitize", action="store_true")
    p.add_argument("--window", type=int, default=music.DEFAULT_WINDOW_LEN)
    p.add_argument("--stride", type=int, default=music.DEFAULT_STRIDE)
    p.add_argument("--static-window", type=int, default=imaging.DEFAULT_STATIC_WINDOW)
    p.add_argument("--floor-db", type=float, default=imaging.DEFAULT_FLOOR_DB)
    p.add_argument("--frames", type=int, default=imaging.DEFAULT_AGGREGATE_FRAMES)
    p.add_argument("--static-mode", choices=("rolling", "global"), default="rolling")
    p.add_argument("--tau-grid-ns", type=_grid_type("tof_grid_s", 1e-9))
    p.add_argument("--aod-grid-deg", type=_grid_type("aod_grid_deg", 1.0))
    return parser


_MAX_GRID_POINTS = 4096


def _grid_type(field: str, scale: float):
    """argparse type of a grid flag: a comma list or start:stop:step.

    Values are scaled by ``scale`` to the unit of the :class:`music.GridSpec`
    ``field`` and checked by it, so a malformed flag is a usage error naming it.
    """
    def parse(text: str) -> np.ndarray:
        try:
            if ":" in text:
                bounds = [float(p) for p in text.split(":")]
                if len(bounds) != 3:
                    raise ValueError("expected start:stop:step")
                start, stop, step = bounds
                if not step > 0:
                    raise ValueError(f"step must be positive, got {step:g}")
                if not (stop - start) / step < _MAX_GRID_POINTS:
                    raise ValueError(f"range must hold at most {_MAX_GRID_POINTS} "
                                     "finite points")
                values = np.arange(start, stop + step / 2, step)
            else:
                values = np.array([float(p) for p in text.split(",")])
            return getattr(music.GridSpec(**{field: values * scale}), field)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return parse


def _grids_from_args(args) -> music.GridSpec:
    given = {"tof_grid_s": args.tau_grid_ns, "aod_grid_deg": args.aod_grid_deg}
    return music.GridSpec(**{k: v for k, v in given.items() if v is not None})


def _load_bundle(args) -> scenefile.SceneBundle:
    bundle = scenefile.load_scene(args.scene)
    if args.seed is not None:
        bundle = replace(bundle, scene=replace(bundle.scene, rng_seed=args.seed))
    return bundle


def _override_geometry(args):
    if args.config is None:
        return None
    return scenefile.load_scene(args.config, require_paths=False).geometry


def _simulate_stream(args, bundle: scenefile.SceneBundle) -> CsiStream:
    stream = run_simulation(bundle.scene, bundle.config, bundle.geometry)
    if args.inject_offsets:
        seed = args.seed if args.seed is not None else bundle.scene.rng_seed + 1
        stream = inject_phase_offsets(stream, seed)
    return stream


def _write_frame(spec: music.Spectrum2D, stem: Path) -> None:
    """Write one frame as ``<stem>.csv`` and ``<stem>.pgm``."""
    export.write_spectrum_csv(spec, stem.parent / f"{stem.name}.csv")
    export.write_pgm(spec, stem.parent / f"{stem.name}.pgm")


def _writer_processes(n_frames: int) -> int:
    """Worker processes for writing ``n_frames`` frames; 0 means this process.

    One per usable CPU, at most one per frame.  Workers are forked so that they
    inherit the loaded program and the CSV tables instead of importing and
    rebuilding them; without ``fork``, or with nothing to run alongside, frames
    are written in this process.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return 0
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    n = min(usable, n_frames)
    return n if n > 1 else 0


def _numbered(frames: list[music.Spectrum2D], outdir: Path,
              prefix: str) -> list[tuple[music.Spectrum2D, Path]]:
    return [(spec, outdir / f"{prefix}_{i:05d}") for i, spec in enumerate(frames)]


def _write_frames(frames: list[tuple[music.Spectrum2D, Path]]) -> None:
    """Write each ``(frame, stem)`` with :func:`_write_frame` and log the time taken.

    The frames are shared among :func:`_writer_processes` forked workers.  Call
    this once, after the last image is computed: writer processes running
    beside the scan's BLAS threads oversubscribe the cores and slow both.  The
    pool forks before any of its own threads start, and the workers call no
    BLAS.  Results are read in order, so the first worker exception (an
    ``OSError`` naming the file) is raised here.
    """
    started = time.perf_counter()
    for outdir in dict.fromkeys(stem.parent for _, stem in frames):
        outdir.mkdir(parents=True, exist_ok=True)
    processes = _writer_processes(len(frames))
    if processes:
        export._csv_tables()  # built before the fork, so every worker inherits them
        with ProcessPoolExecutor(
                processes, mp_context=multiprocessing.get_context("fork")) as pool:
            for _ in pool.map(_write_frame, *zip(*frames)):
                pass
    else:
        for spec, stem in frames:
            _write_frame(spec, stem)
    logger.info("wrote %d frames %s in %.3f s", len(frames),
                f"with {processes} worker processes" if processes else "in-process",
                time.perf_counter() - started)


def _read_track(indir: Path, frame_rate_hz: float) -> imaging.SpectrumTrack:
    files = sorted(indir.glob("*.csv"))
    if not files:
        raise FileNotFoundError(f"no spectrum CSV files in {indir}")
    frames = [export.read_spectrum_csv(f, timestamp_ns=i) for i, f in enumerate(files)]
    return imaging.SpectrumTrack(frames, frame_rate_hz=frame_rate_hz)


def _compute_spectra(stream: CsiStream, args,
                     grids: music.GridSpec) -> list[music.Spectrum2D]:
    if getattr(args, "degraded", False):
        stream = degrade_stream(stream)
        window_len = 1
    else:
        window_len = args.window
    if not getattr(args, "no_sanitize", False) and stream.geometry.n_subcarriers >= 2:
        stream = sanitize_stream(stream)
    wins = music.windows(stream, window_len=window_len, stride=args.stride)
    if not wins:
        raise ValueError(f"stream of {len(stream)} packets is shorter than one "
                         f"{window_len}-packet window")
    sources = getattr(args, "sources", None)
    reduce = getattr(args, "reduce", "sum")
    track = []
    for w in wins:
        sub = music.noise_subspace_from_window(w, s_hat=sources)
        track.append(music.spectrum(sub, grids, stream.config, stream.geometry,
                                    reduce=reduce, timestamp_ns=w.timestamp_ns))
    return track


def _cmd_simulate(args) -> int:
    bundle = _load_bundle(args)
    stream = _simulate_stream(args, bundle)
    csif.write_csif(stream, args.out)
    logger.info("wrote %d packets to %s", len(stream), args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    stream = csif.read_csif(args.infile, geometry=_override_geometry(args))
    track = _compute_spectra(stream, args, _grids_from_args(args))
    _write_frames(_numbered(track, args.out, "spectrum"))
    logger.info("wrote %d spectrum frames to %s", len(track), args.out)
    return EXIT_OK


def _cmd_enhance(args) -> int:
    track = _read_track(args.indir, imaging.DEFAULT_FRAME_RATE_HZ)
    enhanced = imaging.enhance_track(track, static_window=args.static_window,
                                     floor_db=args.floor_db, mode=args.static_mode)
    _write_frames(_numbered(enhanced.frames, args.out, "enhanced"))
    logger.info("wrote %d enhanced frames to %s", len(enhanced), args.out)
    return EXIT_OK


def _cmd_aggregate(args) -> int:
    track = _read_track(args.indir, imaging.DEFAULT_FRAME_RATE_HZ)
    agg = imaging.aggregate(track, k=args.frames)
    if args.out.suffix == ".pgm":
        export.write_pgm(agg, args.out)
    else:
        export.write_spectrum_csv(agg, args.out)
    logger.info("wrote aggregate of %d frames to %s", args.frames, args.out)
    return EXIT_OK


def _track_dirs(root: Path) -> list[Path]:
    dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not dirs:
        raise FileNotFoundError(f"no track subdirectories in {root}")
    return dirs


def _cmd_reid(args) -> int:
    gallery = []
    for d in _track_dirs(args.gallery):
        track = _read_track(d, args.frame_rate)
        gallery.append((d.name, reid.extract_features(track)))
    results, truth = [], {}
    for d in _track_dirs(args.probes):
        probe_id = d.name
        truth[probe_id] = probe_id.split("__")[0]
        features = reid.extract_features(_read_track(d, args.frame_rate))
        results.append(reid.rank(features, gallery, probe_id=probe_id))
    curve = reid.cmc(results, truth)
    curve.to_csv(args.cmc)
    top = ", ".join(f"rank-{k}: {curve.rank_accuracy(k):.3f}"
                    for k in range(1, min(5, len(curve.values)) + 1))
    print(top)
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    outdir = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    bundle = _load_bundle(args)
    stream = _simulate_stream(args, bundle)
    csif.write_csif(stream, outdir / "stream.csif")

    track = _compute_spectra(stream, args, _grids_from_args(args))
    frame_rate = bundle.scene.packet_rate_hz / args.stride
    raw = imaging.SpectrumTrack(track, frame_rate_hz=frame_rate)
    enhanced = imaging.enhance_track(raw, static_window=args.static_window,
                                     floor_db=args.floor_db, mode=args.static_mode)
    agg = imaging.aggregate(enhanced, k=min(args.frames, len(enhanced)))
    _write_frames(_numbered(track, outdir / "spectra", "spectrum")
                  + _numbered(enhanced.frames, outdir / "enhanced", "enhanced")
                  + [(agg, outdir / "aggregate")])
    logger.info("pipeline complete: %d spectra, %d enhanced frames", len(track),
                len(enhanced))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "spectrum": _cmd_spectrum,
    "enhance": _cmd_enhance,
    "aggregate": _cmd_aggregate,
    "reid": _cmd_reid,
    "pipeline": _cmd_pipeline,
}

_INPUT_ERRORS = (FileNotFoundError, IsADirectoryError, PermissionError,
                 csif.CsifFormatError, scenefile.SceneFileError,
                 DegenerateSceneError, ValueError, KeyError, OSError)


def _fail(code: int, kind: str, exc: Exception) -> int:
    """Report ``exc`` in one stderr line; with -v, also log its traceback."""
    print(f"wivision: {kind}: {exc}", file=sys.stderr)
    logger.info("%s traceback", kind, exc_info=exc)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"wivision: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        return _fail(EXIT_NUMERIC, "numerical failure", exc)
    except _INPUT_ERRORS as exc:
        return _fail(EXIT_INPUT, "input error", exc)


if __name__ == "__main__":
    sys.exit(main())
