"""Self-tests of the benchmark itself: determinism of the traced counts and the seed.

    python3 -m pytest -q perfbench

Each traced run is a fresh child process, as in a measurement; the
nakayama runs make this take about two minutes on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from layertrace import COUNTS  # noqa: E402


def traced(workload: str, seed: int) -> tuple[dict, str]:
    """The count metrics and output digest of one traced pass."""
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1)
    result = run.spawn(args, "trace", time.monotonic() + run.TIME_LIMIT_S)
    assert result["failed"] == 0
    return {name: result["layers"][name] for name in COUNTS}, result["digest"]


@pytest.mark.parametrize("workload", ["suites-f2", "queries-f3"])
def test_counts_repeat_at_a_fixed_seed(workload):
    assert traced(workload, 7) == traced(workload, 7)


def test_nakayama_counts_do_not_depend_on_the_seed():
    first, second = traced("nakayama-f2", 1), traced("nakayama-f2", 2)
    assert first == second
    counts = first[0]
    assert counts["exactla.matrices_built"] > 0
    assert all(counts[name] == 0 for name in COUNTS if name.startswith("layered."))


def test_query_inputs_come_from_the_seed():
    from workloads import Queries

    assert Queries(1).pass_ops(0) == Queries(1).pass_ops(0)
    assert Queries(1).pass_ops(0) != Queries(2).pass_ops(0)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_declared_metrics(trace, section):
    """Both modes pass their checks (trace 1: traced and untraced outputs are
    byte-identical) and print exactly the metrics BENCHMARK.json declares."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "queries-f3", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[section]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
