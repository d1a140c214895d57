"""One round of one workload, in the fresh interpreter that run.py starts.

Usage: python3 perfbench/worker.py WORKLOAD SEED SPAWN_NS REF_BEFORE TRACE

SPAWN_NS is the parent's time.monotonic_ns() just before it started this
process, so set-up time includes interpreter start and imports. REF_BEFORE
is the parent's timing of ``hostspeed.reference()`` just before that, which
scales the time up to this process's first timing of it. Prints one JSON
object: set-up and op times, wall and scaled (hostspeed.py), peak RSS, the op
records and, when TRACE is 1, the tracer's aggregates. A traced round times
the reference only outside the tracer's spans.
"""

import importlib
import json
import resource
import sys
import time
import traceback

from hostspeed import ScaledClock, scale
from tracer import MODULES, Tracer
from workloads import WORKLOADS


def run_ops(ops):
    """Run the ``(op_id, thunk)`` pairs; a thunk that raises is a failed op."""
    records, attempted, failed = [], 0, 0
    for op_id, thunk in ops:
        try:
            rec = thunk()
        except Exception as exc:  # a failed op is counted, and the run goes on
            traceback.print_exc()
            rec = {"error": f"{type(exc).__name__}: {exc}"}
            failed += 1
        attempted += rec.get("ops", 1)
        records.append({"op": op_id, **rec})
    return records, attempted, failed


def main(argv):
    workload, seed, spawn_ns, ref_before, trace = argv
    seed, trace = int(seed), trace == "1"
    start_s = (time.monotonic_ns() - int(spawn_ns)) / 1e9
    clock = ScaledClock(sampling=not trace)
    for name in MODULES:
        importlib.import_module(f"cmfields.{name}")
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    imported_wall, _ = clock.read()
    setup, ops = WORKLOADS[workload]
    state = setup(seed)
    setup_wall, setup_scaled = clock.read()
    records, attempted, failed = run_ops(ops(state))
    wall, scaled = clock.read()
    clock.stop()
    out = {
        "setup_s": start_s + setup_wall,
        "setup_scaled_s": scale(start_s, float(ref_before), clock.first_ref) + setup_scaled,
        "ops_s": wall - setup_wall,
        "ops_scaled_s": scaled - setup_scaled,
        "work_s": wall - imported_wall,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "records": records,
    }
    if tracer:
        out["trace"] = tracer.report()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
