"""Command-line surface tying the pipeline together.

Subcommands: ``simulate``, ``spectrum``, ``enhance``, ``aggregate``, ``reid``,
and ``pipeline`` (all stages in one run).  Exit codes: 0 success, 1 usage,
2 input error or worker failure, 3 numerical failure.  Every command pins
numpy's OpenBLAS to one thread, so for the same inputs, seed and flags the
output bytes depend on neither the number of usable CPUs nor of BLAS threads.

``pipeline`` images the ``stream.csif`` it writes as ``spectrum`` images its
input (copied once into steering order under ``--no-sanitize``), on the antenna
layout the capture carries, so its frames are those of the stage commands.
Both compute every image first, into one shared track array, then every
frame's CSV and PGM in one pass; :mod:`wivision.parallel` shares each pass
among the usable CPUs.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import csif, export, imaging, music, parallel, reid, scenefile
from .arraymodel import N_ANGLE_BINS
from .sanitize import sanitize as sanitize_stream
from .simulate import inject_phase_offsets, simulate as run_simulation
from .stream import degrade_stream

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
    p.add_argument("--sources", type=_count, default=None,
                   help="fix the source count instead of estimating it")

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


def _simulate_capture(args, path: Path) -> None:
    """Render the ``--scene`` file to the CSIF capture at ``path``, with the
    ``--seed`` and ``--inject-offsets`` of ``args``; the capture carries the
    scene's channel and antenna layout."""
    bundle = scenefile.load_scene(args.scene)
    if args.seed is not None:
        bundle = replace(bundle, scene=replace(bundle.scene, rng_seed=args.seed))
    stream = run_simulation(bundle.scene, bundle.config, bundle.geometry)
    if args.inject_offsets:
        stream = inject_phase_offsets(stream, bundle.scene.rng_seed + 1)
    csif.write_csif(stream, path)
    logger.info("wrote %d packets to %s", len(stream), path)


def _write_frame(grid: np.ndarray, stem: Path) -> None:
    """Write one frame's grid as ``<stem>.csv`` and ``<stem>.pgm``."""
    export.write_spectrum_csv(grid, stem.parent / f"{stem.name}.csv")
    export.write_pgm(grid, stem.parent / f"{stem.name}.pgm")


def _numbered(track: imaging.SpectrumTrack, outdir: Path,
              prefix: str) -> list[tuple[np.ndarray, Path]]:
    """Each row of ``track``, checked when the track was built, with its stem."""
    return [(g, outdir / f"{prefix}_{i:05d}") for i, g in enumerate(track.grids)]


def _write_frames(frames: list[tuple[np.ndarray, Path]]) -> None:
    """Write each ``(grid, stem)`` with :func:`_write_frame` and log the time taken.

    The frames are shared among processes by :func:`parallel.fork_map`, and
    the writers call no BLAS.  Call this once, after the last image is
    computed, so that no command writes part of its frames and then fails.
    The first exception (an ``OSError`` naming the file) is raised here.
    """
    started = time.perf_counter()
    for outdir in dict.fromkeys(stem.parent for _, stem in frames):
        outdir.mkdir(parents=True, exist_ok=True)
    export._csv_tables()  # built before the fork, so every worker inherits them
    processes = parallel.fork_map(lambda frame: _write_frame(*frame), frames, blas=False)
    logger.info("wrote %d frames in %.3f s, processes: %d", len(frames),
                time.perf_counter() - started, processes)


def _read_track(indir: Path, frame_rate_hz: float) -> imaging.SpectrumTrack:
    files = sorted(indir.glob("*.csv"))
    if not files:
        raise FileNotFoundError(f"no spectrum CSV files in {indir}")
    grids = np.stack([export.read_spectrum_csv(f).grid for f in files])
    return imaging.SpectrumTrack(grids, frame_rate_hz=frame_rate_hz)


def _image_capture(path: Path, args) -> imaging.SpectrumTrack:
    """The track of the images of every window of the CSIF capture at ``path``,
    on the layout it carries, degraded with ``--degraded`` and sanitized unless
    ``--no-sanitize`` or under 2 subcarriers.  Each step rebinds the one stream,
    so the capture is held once, and only until its windows are imaged.  The
    processes write the images into rows of one shared array."""
    stream = csif.read_csif(path)
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
    images = parallel.shared_zeros((len(wins), N_ANGLE_BINS, N_ANGLE_BINS))

    def image(i: int) -> None:
        sub = music.noise_subspace_from_window(wins[i], s_hat=sources)
        images[i] = music.spectrum(sub, grids, stream.config, stream.geometry).grid

    started = time.perf_counter()
    processes = parallel.fork_map(image, range(len(wins)), blas=True)
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
    track = _image_capture(args.infile, args)
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
        export.write_pgm(agg.grid, args.out)
    else:
        export.write_spectrum_csv(agg.grid, args.out)
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
    _simulate_capture(args, capture)
    track = _image_capture(capture, args)
    enhanced = imaging.enhance_track(track, static_window=args.static_window,
                                     floor_db=args.floor_db, mode=args.static_mode)
    agg = _aggregate(enhanced, args.frames)
    _write_frames(_numbered(track, outdir / "spectra", "spectrum")
                  + _numbered(enhanced, outdir / "enhanced", "enhanced")
                  + [(agg.grid, outdir / "aggregate")])
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


def _fail(code: int, kind: str, exc: Exception) -> int:
    """Report ``exc`` in one stderr line; with -v, also log its traceback."""
    print(f"wivision: {kind}: {exc}", file=sys.stderr)
    logger.info("%s traceback", kind, exc_info=exc)
    return code


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
    if not parallel.pin_blas_to_one_thread():
        logger.info("found no OpenBLAS to pin to one thread; images are computed "
                    "in this process")
    try:
        return _COMMANDS[args.command](args)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        return _fail(EXIT_NUMERIC, "numerical failure", exc)
    except ChildProcessError as exc:  # an OSError, but no fault of the input
        return _fail(EXIT_INPUT, "worker failure", exc)
    except (ValueError, OSError) as exc:
        return _fail(EXIT_INPUT, "input error", exc)


if __name__ == "__main__":
    sys.exit(main())
