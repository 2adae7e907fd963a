#!/usr/bin/env python3
"""Run the benchmark on every workload and write the next BENCH_<n>.json.

    python3 scripts/bench.py

Run from anywhere inside a checkout; it takes no options.  For each
workload that BENCHMARK.json declares, it runs ``perfbench/run.py`` twice,
on seed 1 for BENCHMARK.json's ``run_seconds``, one run after the other:
with ``--trace 0`` for the end-to-end metrics (wall time, throughput,
latency, set-up time, memory) and with ``--trace 1`` for the per-layer
self-times and work counts.  The file records both, the
``src/smonkit`` line counts, and the commit, Python, numpy and CPU count
of the run.  It is written at the checkout root as BENCH_<n>.json, n one
more than the highest such file already there.

Seed and duration are fixed, so every BENCH file is taken the same way.
Wall times are comparable only within one file or between files taken on
the same machine; work counts do not depend on the machine.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def run_workload(workload: str, seconds: int, trace: int) -> tuple[dict, dict]:
    """One perfbench run: its context line and its metrics by name."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    cmd += ["--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    context = next(json.loads(line[len("context: ") :]) for line in lines if line.startswith("context: "))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {workload} (trace {trace}) reported failed output checks")
    return context, {name: m["value"] for name, m in result["metrics"].items()}


def next_path() -> Path:
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json") if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def main() -> int:
    if sys.argv[1:]:
        raise SystemExit("usage: python3 scripts/bench.py (it takes no options)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    out: dict = {"seed": SEED, "seconds": seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        print(f"{name}: end to end", file=sys.stderr)
        context, end_to_end = run_workload(name, seconds, 0)
        print(f"{name}: traced", file=sys.stderr)
        _, traced = run_workload(name, seconds, 1)
        out["workloads"][name] = {
            "end_to_end": end_to_end,
            "self_s": {k: v for k, v in traced.items() if k.endswith(".self_s")},
            "counts": {k: v for k, v in traced.items() if not k.endswith((".self_s", ".lines"))},
        }
        for key in ("commit", "python", "numpy", "nproc", "lines"):
            out[key] = context[key]
    path = next_path()
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
