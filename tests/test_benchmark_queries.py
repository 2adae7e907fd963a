"""One in-process pass of the benchmark's query workload.

The benchmark under ``perfbench/`` calls the package by name (parsers,
certificates, layered checks and the aliases it reads Ext through).  This
runs its queries-f3 pass 0 here, each operation through the workload's own
``run`` and ``check``, so a renamed or deleted name it uses fails tier-1
rather than the benchmark.
"""

import importlib.util
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_query_pass_runs_clean():
    queries = _workloads().Queries(1)
    attempted = failed = 0
    for op in queries.pass_ops(0):
        units, bad = queries.check(op, queries.run(op))
        attempted += units
        failed += bad
    assert (attempted, failed) == (450, 0)
