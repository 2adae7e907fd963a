"""One benchmark process: set up a workload, run one pass, check its outputs.

run.py starts this script once per pass, one process at a time, and reads
the JSON object it prints as its last line.  Modes:

  setup  import, build the workload and the pass's inputs, report when the
         first operation could start, and exit;
  pass   then run the pass, timing each operation, and check the outputs
         after the pass;
  trace  the same under the per-layer tracer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="index", type=int, default=0, help="which pass of the seed's sequence")
    parser.add_argument("--spans", default=None, help="file for the traced pass's spans")
    args = parser.parse_args()

    from workloads import WORKLOADS

    tracer = None
    if args.mode == "trace":
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    workload = WORKLOADS[args.workload](args.seed)
    ops = workload.pass_ops(args.index)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    clock = time.perf_counter
    outputs, latencies = [], []
    pass_start = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        t0 = clock()
        out = workload.run(op)
        latencies.append(clock() - t0)
        if tracer is not None:
            tracer.end_op()
        outputs.append(out)
    wall = clock() - pass_start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted = failed = 0
    digest = hashlib.sha256()
    for op, out in zip(ops, outputs):
        units, bad = workload.check(op, out)
        attempted += units
        failed += bad
        digest.update(workload.text(out).encode())

    import numpy as np

    result = {
        "ready": ready,
        "unit": workload.unit,
        "wall": wall,
        "latencies_ms": [t * 1e3 for t in latencies],
        "attempted": attempted,
        "failed": failed,
        "digest": digest.hexdigest(),
        "peak_rss_kb": peak_rss_kb,
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
