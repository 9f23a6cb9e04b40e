"""Command-line surface tying the pipeline together.

Subcommands: ``simulate``, ``spectrum``, ``enhance``, ``aggregate``, ``reid``,
and ``pipeline`` (all stages in one run).  Exit codes: 0 success, 1 usage,
2 input error or worker failure, 3 numerical failure.  Every command pins
numpy's OpenBLAS to one thread, so for the same inputs, seed and flags the
output bytes depend on neither the number of usable CPUs nor of BLAS threads.

``pipeline`` images the ``stream.csif`` it writes as ``spectrum`` images its
input (copied once into steering order under ``--no-sanitize``), so its frames
are those of the stage commands.  Both compute the image of every snapshot
window on every usable CPU, this process and one forked worker per further CPU
(in this process alone when OpenBLAS cannot be pinned, only one CPU is usable,
or ``fork`` is unavailable), each writing its images into rows of one shared
track array.  Each command computes all its images first, then writes every
frame's CSV and PGM in one pass, shared the same way among the usable CPUs.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import mmap
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
from .arraymodel import N_ANGLE_BINS
from .sanitize import sanitize as sanitize_stream
from .simulate import (
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
                        help="override the scene seed; injected offsets are drawn "
                             "from that seed + 1")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    # flags that ``pipeline`` shares with a stage command, declared once each
    offsets = argparse.ArgumentParser(add_help=False)
    offsets.add_argument("--inject-offsets", action="store_true",
                         help="apply per-packet STO/PDD phase errors")
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--window", type=_count, default=music.DEFAULT_WINDOW_LEN)
    scan.add_argument("--stride", type=_count, default=music.DEFAULT_STRIDE)
    scan.add_argument("--no-sanitize", action="store_true")
    scan.add_argument("--tau-grid-ns", type=_grid_type("tof_grid_s", 1e-9),
                      help="comma list or start:stop:step, nanoseconds")
    scan.add_argument("--aod-grid-deg", type=_grid_type("aod_grid_deg", 1.0),
                      help="comma list or start:stop:step, degrees")
    enhance = argparse.ArgumentParser(add_help=False)
    enhance.add_argument("--static-window", type=_count,
                         default=imaging.DEFAULT_STATIC_WINDOW)
    enhance.add_argument("--floor-db", type=float, default=imaging.DEFAULT_FLOOR_DB)
    enhance.add_argument("--static-mode", choices=("rolling", "global"),
                         default="rolling")
    aggregate = argparse.ArgumentParser(add_help=False)
    aggregate.add_argument("--frames", type=_count,
                           default=imaging.DEFAULT_AGGREGATE_FRAMES)

    p = sub.add_parser("simulate", parents=[offsets],
                       help="render a scene file to a CSIF stream")
    p.add_argument("--scene", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("spectrum", parents=[scan],
                       help="CSIF stream to per-window angle images")
    p.add_argument("--in", dest="infile", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--degraded", action="store_true",
                   help="1 packet / 1 tx / 1 subcarrier configuration")
    p.add_argument("--sources", type=int, default=None,
                   help="fix the source count instead of estimating it")
    p.add_argument("--config", type=Path, default=None,
                   help="geometry file: a [geometry] section giving the capture's "
                        "antenna layout")

    p = sub.add_parser("enhance", parents=[enhance],
                       help="subtract static background from spectra")
    p.add_argument("--in", dest="indir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("aggregate", parents=[aggregate],
                       help="max-combine the most recent enhanced frames")
    p.add_argument("--in", dest="indir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True,
                   help="output file (.pgm for an image, otherwise CSV)")

    p = sub.add_parser("reid", help="rank probe tracks against a gallery")
    p.add_argument("--gallery", type=Path, required=True,
                   help="directory with one enhanced-track subdirectory per identity")
    p.add_argument("--probes", type=Path, required=True,
                   help="directory of probe tracks named <id> or <id>__<variant>")
    p.add_argument("--cmc", type=Path, required=True, help="output CMC CSV")
    p.add_argument("--frame-rate", type=_rate, default=imaging.DEFAULT_FRAME_RATE_HZ)

    p = sub.add_parser("pipeline", parents=[offsets, scan, enhance, aggregate],
                       help="scene file through every stage")
    p.add_argument("--scene", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    return parser


def _count(text: str) -> int:
    """argparse type of a count flag: an integer >= 1, so that a bad value is a
    usage error naming the flag, raised before any work."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r}: expected an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r}: must be >= 1")
    return value


def _rate(text: str) -> float:
    """argparse type of a rate flag: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r}: expected a number") from None
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r}: must be finite and > 0")
    return value


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


def _simulate_capture(args, path: Path) -> scenefile.SceneBundle:
    """Render the ``--scene`` file to the CSIF capture at ``path``, with the
    ``--seed`` and ``--inject-offsets`` of ``args``; return the scene."""
    bundle = scenefile.load_scene(args.scene)
    if args.seed is not None:
        bundle = replace(bundle, scene=replace(bundle.scene, rng_seed=args.seed))
    stream = run_simulation(bundle.scene, bundle.config, bundle.geometry)
    if args.inject_offsets:
        stream = inject_phase_offsets(stream, bundle.scene.rng_seed + 1)
    csif.write_csif(stream, path)
    logger.info("wrote %d packets to %s", len(stream), path)
    return bundle


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


def _first_failure(fn, items, k: int, processes: int) -> tuple[int, Exception, str] | None:
    """Call ``fn`` on ``items[k::processes]`` in order; for the first call that
    raises, the item's index, the exception and its formatted traceback."""
    for i in range(k, len(items), processes):
        try:
            fn(items[i])
        except Exception as exc:
            return i, exc, "".join(traceback.format_exception(exc))
    return None


def _fork_map(fn, items, processes: int) -> None:
    """``for item in items: fn(item)``, shared among ``processes`` processes.

    This process takes ``items[0::processes]`` and forked worker ``k`` takes
    ``items[k::processes]``.  Workers inherit ``fn`` and the items; ``fn``
    leaves its results in files or shared memory, and only failures are pickled
    back.  A share stops at its first exception; the one raised is that of the
    lowest-numbered item that failed, as in a serial loop, with a worker's
    traceback as its cause, or ``ChildProcessError`` for a worker that died.  A
    worker is this process without its other threads: call this while none computes.
    """
    pids, pipes, received, statuses = [], [], [], []
    try:
        for k in range(1, processes):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker: never returns into the caller
                status = 1
                try:
                    failure = _first_failure(fn, items, k, processes)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(failure, pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            pids.append(pid)
            pipes.append(open(read_fd, "rb"))
        own = _first_failure(fn, items, 0, processes)
        received = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if len(received) < len(pids):  # interrupted before every worker sent
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for pid, status in zip(pids, statuses):
        if status != 0:
            raise ChildProcessError(f"worker process {pid} exited with status {status}")
    failed = [f for f in [own, *map(pickle.loads, received)] if f is not None]
    if failed:
        i, exc, tb = min(failed, key=lambda f: f[0])
        if i % processes:  # a worker's item
            raise exc from _WorkerTraceback(tb)
        raise exc


def _numbered(track: imaging.SpectrumTrack, outdir: Path,
              prefix: str) -> list[tuple[music.Spectrum2D, Path]]:
    """Each row of ``track`` as a :class:`music.Spectrum2D` view, with its stem."""
    return [(music.Spectrum2D(g), outdir / f"{prefix}_{i:05d}")
            for i, g in enumerate(track.grids)]


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
    grids = np.stack([export.read_spectrum_csv(f).grid for f in files])
    return imaging.SpectrumTrack(grids, frame_rate_hz=frame_rate_hz)


def _image_capture(path: Path, args,
                   bundle: scenefile.SceneBundle | None) -> imaging.SpectrumTrack:
    """The track of the images of every window of the CSIF capture at ``path``,
    laid out by ``bundle`` (the scene that wrote it) or else by the ``--config``
    geometry file, if given, then degraded with ``--degraded`` and sanitized
    unless ``--no-sanitize`` or under 2 subcarriers.  Each step rebinds the one
    stream, so the capture is held once, and only until its windows are imaged.
    The processes write the images into rows of one shared anonymous ``mmap``."""
    stream = csif.read_csif(path)
    if bundle is not None:
        stream = replace(stream, config=bundle.config, geometry=bundle.geometry)
    elif getattr(args, "config", None) is not None:
        geometry = scenefile.load_geometry(args.config, stream.config)
        shape = (geometry.n_rx, geometry.n_tx, geometry.n_subcarriers)
        if shape != stream.tensors.shape[1:]:
            raise scenefile.SceneFileError(
                f"{args.config}: geometry (rx, tx, subcarriers) {shape} does not "
                f"match the capture's {stream.tensors.shape[1:]}")
        stream = replace(stream, geometry=geometry)
    degraded = getattr(args, "degraded", False)
    if degraded:
        stream = degrade_stream(stream)
    if not args.no_sanitize and stream.geometry.n_subcarriers >= 2:
        stream = sanitize_stream(stream)
    wins = music.windows(stream, window_len=1 if degraded else args.window,
                         stride=args.stride)
    sources = getattr(args, "sources", None)
    given = {"tof_grid_s": args.tau_grid_ns, "aod_grid_deg": args.aod_grid_deg}
    grids = music.GridSpec(**{k: v for k, v in given.items() if v is not None})
    images = np.frombuffer(mmap.mmap(-1, len(wins) * N_ANGLE_BINS ** 2 * 8)).reshape(
        len(wins), N_ANGLE_BINS, N_ANGLE_BINS)

    def image(i: int) -> None:
        sub = music.noise_subspace_from_window(wins[i], s_hat=sources)
        images[i] = music.spectrum(sub, grids, stream.config, stream.geometry).grid

    started = time.perf_counter()
    processes = _processes(len(wins)) if args.one_blas_thread else 1
    _fork_map(image, range(len(wins)), processes)
    logger.info("imaged %d windows in %.3f s, processes: %d", len(wins),
                time.perf_counter() - started, processes)
    return imaging.SpectrumTrack(images, [w.timestamp_ns for w in wins])


def _aggregate(track: imaging.SpectrumTrack, frames: int) -> music.Spectrum2D:
    """The aggregate of the ``frames`` most recent frames of ``track``, or of
    every frame when it holds fewer."""
    k = min(frames, len(track))
    logger.info("aggregated the last %d of %d frames", k, len(track))
    return imaging.aggregate(track, k=k)


def _cmd_simulate(args) -> int:
    _simulate_capture(args, args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    track = _image_capture(args.infile, args, None)
    _write_frames(_numbered(track, args.out, "spectrum"))
    logger.info("wrote %d spectrum frames to %s", len(track), args.out)
    return EXIT_OK


def _cmd_enhance(args) -> int:
    track = _read_track(args.indir, imaging.DEFAULT_FRAME_RATE_HZ)
    enhanced = imaging.enhance_track(track, static_window=args.static_window,
                                     floor_db=args.floor_db, mode=args.static_mode)
    _write_frames(_numbered(enhanced, args.out, "enhanced"))
    logger.info("wrote %d enhanced frames to %s", len(enhanced), args.out)
    return EXIT_OK


def _cmd_aggregate(args) -> int:
    track = _read_track(args.indir, imaging.DEFAULT_FRAME_RATE_HZ)
    agg = _aggregate(track, args.frames)
    if args.out.suffix == ".pgm":
        export.write_pgm(agg, args.out)
    else:
        export.write_spectrum_csv(agg, args.out)
    logger.info("wrote the aggregate to %s", args.out)
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
    capture = outdir / "stream.csif"
    bundle = _simulate_capture(args, capture)
    track = _image_capture(capture, args, bundle)
    enhanced = imaging.enhance_track(track, static_window=args.static_window,
                                     floor_db=args.floor_db, mode=args.static_mode)
    agg = _aggregate(enhanced, args.frames)
    _write_frames(_numbered(track, outdir / "spectra", "spectrum")
                  + _numbered(enhanced, outdir / "enhanced", "enhanced")
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
    except ChildProcessError as exc:  # an OSError, but no fault of the input
        return _fail(EXIT_INPUT, "worker failure", exc)
    except _INPUT_ERRORS as exc:
        return _fail(EXIT_INPUT, "input error", exc)


if __name__ == "__main__":
    sys.exit(main())
