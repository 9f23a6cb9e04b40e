"""Command-line surface tying the pipeline together.

Subcommands: ``simulate``, ``spectrum``, ``enhance``, ``aggregate``, ``reid``,
and ``pipeline`` (all stages in one run).  Exit codes: 0 success, 1 usage,
2 input error, 3 numerical failure.  Every command pins numpy's OpenBLAS to one
thread, so for the same inputs, seed and flags the output bytes depend on
neither the number of usable CPUs nor the number of BLAS threads.

``spectrum`` and ``pipeline`` compute the image of every snapshot window on
every usable CPU, this process and one forked worker per further CPU (in this
process alone when OpenBLAS cannot be pinned, only one CPU is usable, or
``fork`` is unavailable).  Each command computes all its images first, then
writes every frame's CSV and PGM in one pass, shared the same way among the
usable CPUs.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import os
import pickle
import signal
import sys
import time
import traceback
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


def _processes(n_items: int) -> int:
    """Processes to share ``n_items`` items among: one per usable CPU, at most
    one per item, and 1 (this process alone) without ``fork``."""
    if not hasattr(os, "fork"):
        return 1
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    return max(1, min(usable, n_items))


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a worker process."""


def _run_share(fn, share: list) -> tuple[list, Exception | None]:
    """``fn`` of each item in order, up to the first exception, which is returned."""
    results = []
    try:
        for item in share:
            results.append(fn(item))
    except Exception as exc:
        return results, exc
    return results, None


def _receive(pipe):
    """A worker's ``(results, exception, traceback)``; None if it sent none."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        return None


def _fork_map(fn, items: list, processes: int) -> list:
    """``[fn(item) for item in items]``, shared among ``processes`` processes.

    This process takes ``items[0::processes]`` and forked worker ``k`` takes
    ``items[k::processes]``.  Workers inherit ``fn`` and the items, so only
    their results are pickled, back through a pipe.  A share stops at its first
    exception; the one raised is that of the lowest-numbered item that failed,
    as in a serial loop, with a worker's traceback as its cause.  A worker is
    a copy of this process without its other threads, so call this only while
    no other thread computes.
    """
    pids, pipes, received, statuses = [], [], [], []
    try:
        for k in range(1, processes):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker: never returns into the caller
                status = 1
                try:
                    results, exc = _run_share(fn, items[k::processes])
                    tb = "".join(traceback.format_exception(exc)) if exc else None
                    with open(write_fd, "wb") as pipe:
                        pickle.dump((results, exc, tb), pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            pids.append(pid)
            pipes.append(open(read_fd, "rb"))
        outcomes = [(*_run_share(fn, items[0::processes]), None)]
        received = [_receive(pipe) for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if len(received) < len(pids):  # interrupted before every worker sent
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for pid, outcome, status in zip(pids, received, statuses):
        if outcome is None or status != 0:
            raise ChildProcessError(f"worker process {pid} exited with status {status}")
        outcomes.append(outcome)
    failed = [(k + processes * len(results), exc, tb)
              for k, (results, exc, tb) in enumerate(outcomes) if exc is not None]
    if failed:
        _, exc, tb = min(failed, key=lambda f: f[0])
        if tb:
            raise exc from _WorkerTraceback(tb)
        raise exc
    out = [None] * len(items)
    for k, (results, _, _) in enumerate(outcomes):
        out[k::processes] = results
    return out


def _numbered(frames: list[music.Spectrum2D], outdir: Path,
              prefix: str) -> list[tuple[music.Spectrum2D, Path]]:
    return [(spec, outdir / f"{prefix}_{i:05d}") for i, spec in enumerate(frames)]


def _write_frames(frames: list[tuple[music.Spectrum2D, Path]]) -> None:
    """Write each ``(frame, stem)`` with :func:`_write_frame` and log the time taken.

    The frames are shared by :func:`_fork_map` among :func:`_processes`
    processes, which call no BLAS.  Call this once, after the last image is
    computed, so that no command writes part of its frames and then fails.
    The first exception (an ``OSError`` naming the file) is raised here.
    """
    started = time.perf_counter()
    for outdir in dict.fromkeys(stem.parent for _, stem in frames):
        outdir.mkdir(parents=True, exist_ok=True)
    processes = _processes(len(frames))
    export._csv_tables()  # built before the fork, so every worker inherits them
    _fork_map(lambda frame: _write_frame(*frame), frames, processes)
    logger.info("wrote %d frames in %.3f s, processes: %d", len(frames),
                time.perf_counter() - started, processes)


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

    def image(w: music.SnapshotWindow) -> np.ndarray:
        sub = music.noise_subspace_from_window(w, s_hat=sources)
        return music.spectrum(sub, grids, stream.config, stream.geometry,
                              reduce=reduce).grid

    started = time.perf_counter()
    processes = _processes(len(wins)) if args.one_blas_thread else 1
    images = _fork_map(image, wins, processes)
    logger.info("imaged %d windows in %.3f s, processes: %d", len(wins),
                time.perf_counter() - started, processes)
    return [music.Spectrum2D(g, w.timestamp_ns) for g, w in zip(images, wins)]


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


def _pin_blas_to_one_thread() -> bool:
    """Set the OpenBLAS libraries in this process, numpy's among them, to one
    thread; False if none exposes the call.

    OpenBLAS splits a product differently for each thread count, which changes
    the last bits of an image, and its threads would compete with the imaging
    workers for the same CPUs.
    """
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.rsplit("/", 1)[-1]}
        libraries = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:  # no /proc, or a library that cannot be opened again
        return False
    pinned = False
    for lib in libraries:
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            set_threads = getattr(lib, name, None)
            if set_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
                pinned = True
                break
    return pinned


def main(argv=None) -> int:
    """Run one command; BLAS stays pinned to one thread for the rest of the process."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"wivision: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    args.one_blas_thread = _pin_blas_to_one_thread()
    if not args.one_blas_thread:
        logger.info("found no OpenBLAS to pin to one thread; images are computed "
                    "in this process")
    try:
        return _COMMANDS[args.command](args)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        return _fail(EXIT_NUMERIC, "numerical failure", exc)
    except _INPUT_ERRORS as exc:
        return _fail(EXIT_INPUT, "input error", exc)


if __name__ == "__main__":
    sys.exit(main())
