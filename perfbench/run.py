"""Benchmark of the exact CM pipelines, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round is a fresh interpreter (worker.py) that imports the library from
``src/``, sets up the workload's inputs and runs its ops once. Rounds follow
one another, never in parallel, until ``--seconds`` have passed. Every
round's records are checked (checks.py) and must be identical. With
``--trace 0`` the last line of stdout gives the end-to-end metrics, medians
over the rounds; with ``--trace 1`` it gives the per-layer metrics of one
traced round, run between two untraced rounds of the same inputs. Details go
to stderr. Set-up and op times are scaled to a fixed host speed
(hostspeed.py); the wall-clock figures are in the details.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import CHECKS  # noqa: E402
from hostspeed import time_reference  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A run must end within 180 s; a round that would run past this is stopped.
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


def run_round(workload, seed, trace=False, timeout=RUN_DEADLINE_S):
    """One round in a fresh interpreter; returns the worker's JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    ref_before = time_reference(3)
    spawn_ns = time.monotonic_ns()
    cmd += [str(spawn_ns), repr(ref_before), "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"round of {workload} ran past the {RUN_DEADLINE_S} s deadline") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"round of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def digest(records):
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def check_failures(records, problems):
    """Ops of ``records`` that ran but failed their check, counted as ``attempted`` is."""
    flagged = {op for op, _ in problems if op is not None}
    return sum(r.get("ops", 1) for r in records if r["op"] in flagged and "error" not in r)


def measure(workload, seed, seconds, trace=False):
    """Run the rounds and checks; return the result line and the details."""
    start = time.monotonic()

    def round_(traced=False):
        left = RUN_DEADLINE_S - (time.monotonic() - start)
        return run_round(workload, seed, traced, timeout=left)

    rounds, traced = [], None
    if trace:  # untraced, traced, untraced: the overhead is against both neighbours
        rounds.append(round_())
        traced = round_(traced=True)
        rounds.append(round_())
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(round_())
    digests = [digest(r["records"]) for r in rounds + ([traced] if traced else [])]
    # the rounds' records are identical (or this is a problem), so the ops that
    # fail their check in the first round fail it in every round
    problems = CHECKS[workload](rounds[0]["records"], seed)
    if len(set(digests)) != 1:
        problems.append((None, "rounds on the same inputs gave different records"))
    check_failed = check_failures(rounds[0]["records"], problems)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] + check_failed for r in rounds)
    passed = [r["attempted"] - r["failed"] - check_failed for r in rounds]
    series = {  # times in scaled seconds (hostspeed.py)
        "ops_per_s": ([n / r["ops_scaled_s"] for n, r in zip(passed, rounds)], "1/s"),
        "setup_s": ([r["setup_scaled_s"] for r in rounds], "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in rounds], "MB"),
    }
    wall = {  # the same in wall seconds, for the details only
        "ops_per_s": [n / r["ops_s"] for n, r in zip(passed, rounds)],
        "setup_s": [r["setup_s"] for r in rounds],
    }
    if trace:
        metrics = {k: {"value": v, "unit": "count" if k.endswith(".calls") else "s"}
                   for k, v in layer_metrics(traced["trace"]).items()}
        plain = statistics.mean(r["work_s"] for r in rounds[:2])
        metrics["trace.overhead"] = {"value": traced["work_s"] / plain, "unit": "ratio"}
        metrics["trace.coverage"] = {"value": traced["trace"]["top_s"] / traced["work_s"],
                                     "unit": "ratio"}
    else:
        metrics = {k: {"value": statistics.median(v), "unit": u} for k, (v, u) in series.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {
        "workload": workload, "seed": seed, "rounds": len(rounds),
        "ops_per_round": rounds[0]["attempted"], "digest": digests[0],
        "quartiles": {k: quartiles(v) for k, (v, _) in series.items()},
        "per_round": {k: v for k, (v, _) in series.items()},
        "wall_per_round": wall,
        "wall_medians": {k: statistics.median(v) for k, v in wall.items()},
        "problems": [f"{op}: {msg}" if op else msg for op, msg in problems[:20]],
        "errors": [r for r in rounds[0]["records"] if "error" in r],
    }
    if traced:
        functions = traced["trace"]["functions"].items()
        details["top_self_s"] = sorted(((v["self_s"], v["calls"], k) for k, v in functions),
                                       reverse=True)[:15]
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cmfields" / "__init__.py").is_file():
        print(f"no cmfields sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, details = measure(args.workload, args.seed, args.seconds,
                                  trace=bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(details, sort_keys=True), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
