"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Every workload runs once at the tiny size, untraced and traced.  The
   result line must carry every metric that BENCHMARK.json names, with the
   same unit, the report line every outcome of that workload, and all oracle
   checks must pass.
2. A deliberately wrong truth list must be counted as a failed check.
3. In a directory holding only BENCHMARK.json and the benchmark, without the
   wivision sources, the benchmark must exit non-zero and print no result.

Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTCOMES = {
    "pipeline_walk": {"error_rate", "bytes_written_mb"},
    "spectrum_multipath": {"error_rate", "reflectors_resolved"},
    "reid_gallery": {"error_rate", "rank1"},
}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(problems: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in OUTCOMES:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            where = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: checks failed: {report['failures']}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float))]
            if bad:
                problems.append(f"{where}: non-numeric values {bad}")
            if set(report["outcomes"]) != OUTCOMES[workload]:
                problems.append(f"{where}: outcomes {sorted(report['outcomes'])}")
            print(f"ok: {where}, {len(got)} metrics")


def check_wrong_truth(problems: list[str]) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=_workspace()))
    try:
        ctx = workloads.setup(workdir, 3, workloads.SIZES["tiny"])
        shifted = [(az + 30.0, el) for az, el in workloads.simulate_mod.six_reflector_truth()]
        multipath = workloads.SpectrumMultipath(ctx, truth=shifted)
        pipeline = workloads.PipelineWalk(ctx)
        pipeline.body_parts = [(az + 30.0, el) for az, el in pipeline.body_parts]
        for wl in (multipath, pipeline):
            checks = workloads.Checks()
            wl.prepare()
            wl.check(wl.run(), checks)
            if not checks.failures:
                problems.append(f"{wl.name}: a wrong truth list passed every check")
            else:
                print(f"ok: {wl.name} wrong truth counted: {checks.failures[0]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_no_sources(problems: list[str]) -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=_workspace()))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "pipeline_walk", 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("without sources the benchmark did not fail")
        else:
            print(f"ok: without sources exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def _workspace() -> Path:
    out = ROOT / ".perfbench_run"
    out.mkdir(exist_ok=True)
    return out


def main() -> int:
    problems: list[str] = []
    check_no_sources(problems)
    check_wrong_truth(problems)
    check_metrics(problems)
    for p in problems:
        print(f"FAIL: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
