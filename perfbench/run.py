"""Measure smonkit on one workload and print every metric, then a JSON result line.

    python3 perfbench/run.py --workload nakayama-f2 --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory holding ``src/smonkit`` and
this directory).  Every pass runs in a fresh child process (``child.py``),
one after another, with one thread, no pool and ``SMONKIT_THREADS``
removed from its environment.

--trace 0  passes, one process each, for about --seconds, then set-up-only
           processes until there are five set-up samples: prints the
           end-to-end metrics wall_s, ops_per_s, op_p50_ms, op_p95_ms,
           setup_s and peak_rss_mb, plus failed_frac.
--trace 1  pass 0 untraced and then traced: prints the per-layer metrics,
           line counts and trace.overhead_frac, and requires both passes'
           outputs to be byte-identical.

The last line is {"correct", "attempted", "failed", "metrics"}; the exit
code is 0 when a result was printed and nonzero when no measurement could
be made.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("nakayama-f2", "suites-f2", "queries-f3")
LAYER_FILES = ("exactla", "quiver", "bqa", "layered", "formats", "harness", "cli")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SMONKIT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, mode: str, deadline: float, *extra: str) -> dict:
    """Run one child process to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode, "--workload", args.workload]
    cmd += ["--seed", str(args.seed), *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=deadline - started
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process did not finish within the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def line_counts() -> dict[str, int]:
    pkg = SRC / "smonkit"
    counts = {f"{name}.lines": len((pkg / f"{name}.py").read_text().splitlines()) for name in LAYER_FILES}
    counts["src.lines"] = sum(len(p.read_text().splitlines()) for p in sorted(pkg.rglob("*.py")))
    return counts


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile, interpolating linearly between order statistics."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    passes = []
    start = time.monotonic()
    while True:
        passes.append(spawn(args, "pass", deadline, "--pass", str(len(passes))))
        elapsed = time.monotonic() - start
        # start another pass only if it should end within half a pass of the time asked for
        if elapsed + 0.5 * elapsed / len(passes) > args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, "setup", deadline)["setup_s"])
    walls = [p["wall"] for p in passes]
    latencies = [t for p in passes for t in p["latencies_ms"]]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (sum(p["attempted"] for p in passes) / sum(walls), "1/s"),
        "op_p50_ms": (percentile(latencies, 50), "ms"),
        "op_p95_ms": (percentile(latencies, 95), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }
    notes = {"passes": len(passes), "op_samples": len(latencies), "setup_samples": len(setups)}
    return metrics, {"runs": passes, "notes": notes}


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    untraced = spawn(args, "pass", deadline)
    HERE.joinpath("out").mkdir(exist_ok=True)
    spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    traced = spawn(args, "trace", deadline, "--spans", str(spans))
    metrics = {}
    for name, value in traced["layers"].items():
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_share") else "count"
        metrics[name] = (value, unit)
    metrics.update({name: (value, "lines") for name, value in line_counts().items()})
    metrics["trace.overhead_frac"] = (traced["wall"] / untraced["wall"] - 1, "ratio")
    identical = traced["digest"] == untraced["digest"]
    notes = {"identical_outputs": identical, "spans_kept": traced["spans"], "spans_file": str(spans.relative_to(ROOT))}
    return metrics, {"runs": [untraced, traced], "notes": notes, "identical": identical}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "smonkit" / "__init__.py").is_file():
        print(f"error: no smonkit sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            metrics, info = per_layer(args, deadline)
        else:
            metrics, info = end_to_end(args, deadline)
    except (BenchError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = info["runs"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": runs[0]["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "lines": line_counts(),
    }
    print("context: " + json.dumps(context))
    print("notes: " + json.dumps(info["notes"]))
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:.6g} {unit}")
    print(f"{'failed_frac':<28} {failed / attempted:.6g} ({failed} of {attempted} {runs[0]['unit']} units)")
    result = {
        "correct": failed == 0 and info.get("identical", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
