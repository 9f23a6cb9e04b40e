"""One benchmark process: set-up, warm-up, then timed or traced iterations.

``run.py`` starts this script in a fresh interpreter for every run so that
set-up time and peak memory belong to the run alone.  Set-up is timed from
the first line of this file: importing numpy and wivision, parsing the scene
and filling the rx pair-table cache with one ``music.spectrum`` call.  The
result goes to ``--result`` as JSON.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _fits(start: float, took: float, seconds: float) -> bool:
    """Whether another iteration of ``took`` seconds should start.

    Whole iterations run until the measured time is nearest ``seconds``: the
    next one starts if at least half of it fits, so a workload with long
    iterations, such as ``reid_gallery``, still measures about ``seconds``.
    """
    return time.perf_counter() - start + took / 2 <= seconds


def _timed(wl, checks, seconds: float) -> dict:
    """Untraced iterations; only the calls that make images are timed."""
    from workloads import FRAME_TARGETS

    iterations, streams, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        clock = spans.Tracer()
        with clock.patched(FRAME_TARGETS):
            t = time.perf_counter()
            output = wl.run()
            took = time.perf_counter() - t
        iterations.append(took)
        streams += metrics.frame_streams_ms(clock)
        outcomes.append(wl.check(output, checks))
        del output  # so the next iteration's peak memory is its own
        if not _fits(start, took, seconds):
            break
    return {"iterations_s": iterations, "frame_ms": streams, "outcomes": outcomes}


def _traced(wl, checks, seconds: float, ctx, spans_path: Path) -> dict:
    """Pairs of one untraced and one traced iteration, for per-layer numbers."""
    from workloads import TRACE_TARGETS

    untraced, tracers, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        output = wl.run()
        untraced.append(time.perf_counter() - t)
        outcomes.append(wl.check(output, checks))
        del output
        tracer = spans.Tracer()
        with tracer.patched(TRACE_TARGETS), tracer.span(spans.ROOT):
            output = wl.run()
        tracers.append(tracer)
        outcomes.append(wl.check(output, checks))
        del output
        if not _fits(start, untraced[-1] + tracer.durations(spans.ROOT)[0], seconds):
            break
    spans.dump(spans_path, tracers)
    layer = metrics.per_layer(tracers, untraced, scene_load_s=ctx.scene_load_s,
                              grid_points=wl.grid_points, n_rx=ctx.bundle.geometry.n_rx)
    return {"iterations_s": untraced,
            "traced_iterations_s": [t.durations(spans.ROOT)[0] for t in tracers],
            "per_layer": layer, "outcomes": outcomes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import workloads  # numpy, scipy and wivision load here, inside set-up

    package = Path(workloads.music.__file__).resolve()
    if src.resolve() not in package.parents:
        print(f"wivision was imported from {package}, not from {src}", file=sys.stderr)
        return 2
    ctx = workloads.setup(args.workdir, args.seed, workloads.SIZES[args.size])
    result = {"setup_s": time.perf_counter() - START, "scene_load_s": ctx.scene_load_s}

    if not args.setup_only:
        import environment

        wl = workloads.WORKLOADS[args.workload](ctx)
        wl.prepare()
        checks = workloads.Checks()
        if args.trace:
            result.update(_traced(wl, checks, args.seconds, ctx, args.spans))
        else:
            result.update(_timed(wl, checks, args.seconds))
        result.update(
            capture_s=wl.capture_s,
            attempted=checks.attempted,
            failures=checks.failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            environment=environment.collect(),
        )
        keys = {k for o in result["outcomes"] for k in o}
        result["outcomes"] = {k: statistics.fmean(o[k] for o in result["outcomes"])
                              for k in sorted(keys)}
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
