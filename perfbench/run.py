"""wivision benchmark.

    python3 perfbench/run.py --workload pipeline_walk --seed 1 --seconds 34 --trace 0

Workloads: pipeline_walk, spectrum_multipath, reid_gallery (see workloads.py).
Run from the root of a wivision source tree; the program is imported from its
``src/``.  Each run is one batch job in a fresh child process with the CLI
default of one scan thread and the default BLAS threads: set-up and warm-up
first, then whole iterations of the workload until the measured time is
nearest ``--seconds`` (at least one).  A few more fresh processes only set
up, and ``setup_s`` is the median over all of them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced and
traced iterations in pairs and reports per-layer metrics, writing the spans
to ``.perfbench_run/``.  The last line of stdout is the result object; the
line before it holds the report with the environment, sample counts and
the workload's outcomes.  The exit code is 0 when the run completed, even if
an oracle check failed (``correct`` is then false).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import environment
import metrics
from spans import percentile

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_run"
WORKLOADS = ("pipeline_walk", "spectrum_multipath", "reid_gallery")
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150


def _child(args, workdir: Path, tag: str, setup_only: bool = False) -> dict:
    result = workdir / f"{tag}.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", str(workdir), "--result", str(result),
           "--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.json")]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark process exited with {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wivision" / "__init__.py").is_file():
        print(f"perfbench: no wivision source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = _child(args, workdir, "run")
        setups = [run["setup_s"]] + [_child(args, workdir, f"setup{i}", setup_only=True)["setup_s"]
                                     for i in range(1, SETUP_RUNS)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run["failures"])
    if args.trace:
        values = run["per_layer"]
        units = metrics.PER_LAYER
    else:
        streams = run["frame_ms"]
        frames = [ms for stream in streams for ms in stream]
        values = {
            # a ratio of totals: the host's speed drifts within a run, and the
            # whole run's time averages that drift where a median of a few
            # iterations lands on whichever state held the most of them
            "rtf": sum(run["iterations_s"]) / (len(run["iterations_s"]) * run["capture_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "frame_ms_p50": percentile(frames, 50),
            # the typical stream's tail: a slow spell of the host that hits a
            # few streams of a run moves the pooled p90 far more than this
            "frame_ms_p90": statistics.median(percentile(s, 90) for s in streams),
        }
        units = metrics.END_TO_END
    outcomes = {"error_rate": failed / run["attempted"], **run["outcomes"]}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "commit": environment.git_commit(ROOT),
        "environment": run["environment"],
        "iterations_s": run["iterations_s"],
        "traced_iterations_s": run.get("traced_iterations_s", []),
        "capture_s": run["capture_s"],
        "setup_s": setups,
        "frame_samples": sum(len(s) for s in run.get("frame_ms", [])),
        "frame_streams": len(run.get("frame_ms", [])),
        "outcomes": {k: _metric(v, metrics.OUTCOMES[k]) for k, v in outcomes.items()},
        "computed": sorted(k for k in values if k in metrics.COMPUTED),
        "failures": run["failures"][:20],
    }
    _print_table(values, units, outcomes, report)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {k: _metric(values[k], unit) for k, unit in units.items()},
    }))
    return 0


def _print_table(values, units, outcomes, report) -> None:
    env = report["environment"]
    print(f"# {report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{len(report['iterations_s'])} iteration(s) of {report['capture_s']:.2f} s capture, "
          f"{report['frame_samples']} frame samples in {report['frame_streams']} streams; "
          f"nproc {env['nproc']}, "
          f"BLAS {env['blas']} x{env['blas_threads']}, commit {report['commit'][:12]}")
    for key, unit in units.items():
        note = " (computed)" if key in metrics.COMPUTED else ""
        print(f"  {key:28s} {values[key]:14.6g} {unit}{note}")
    for key, value in outcomes.items():
        print(f"  {key:28s} {value:14.6g} {metrics.OUTCOMES[key]}")
    if report["trace"]:
        print("  shares of traced wall time: export {:.1f}%, scan {:.1f}%, subspace {:.1f}%"
              .format(values["export.share_pct"], values["music.scan_share_pct"],
                      values["music.subspace_share_pct"]))
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


if __name__ == "__main__":
    sys.exit(main())
