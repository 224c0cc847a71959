"""coisocap benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --report [--label L]
    python3 perfbench/run.py --self-test

The first form runs one workload and prints, as the last line of stdout,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics untraced (``--trace 0``), the
per-layer metrics traced (``--trace 1``).  Lines before it, each starting
with ``#``, name the pinned child environment, the workload's metrics
under their layer names, and every failed operation.  ``--all`` runs every
workload untraced and traced, one after the other, from this one process.
``--report`` regenerates the baseline table in perfbench/BASELINE.md and
``--self-test`` checks the harness itself.

Workloads (see workloads.py and BENCHMARK.json for why each exists):
cli-mix, kfun-cold, verify-sweep, table-K.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from harness import RESULTS_DIR, BenchError, environment, require_checkout
from workloads import END_TO_END, PER_LAYER, WORKLOADS, load_golden, run_traced, run_untraced

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20


def run_one(workload: str, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    env = environment()
    t0 = time.perf_counter()
    if trace:
        result = run_traced(workload, seed, golden)
        wanted = PER_LAYER
    else:
        result = run_untraced(workload, seed, seconds, golden)
        wanted = END_TO_END
    outcome = result["outcome"]
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit, *_ in wanted}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "elapsed_s": time.perf_counter() - t0, "environment": env,
        "named": result["named"], "samples": result["samples"],
        "deadline_misses": outcome.misses, "incorrect": outcome.incorrect,
        "summary": {"correct": outcome.correct, "attempted": outcome.attempted,
                    "failed": outcome.failed, "metrics": metrics},
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_record(record: dict) -> None:
    env = record["environment"]
    print(f"# workload {record['workload']} seed {record['seed']} trace {record['trace']}"
          f" ({record['samples']} samples, {record['elapsed_s']:.1f} s)")
    print("# environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in record["named"].items():
        print(f"# {name} = {value:.6g}")
    for label in record["deadline_misses"]:
        print(f"# deadline miss: {label}")
    for error in record["incorrect"][:50]:
        print(f"# incorrect: {error}")
    print(json.dumps(record["summary"]))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="coisocap benchmark")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    mode.add_argument("--report", action="store_true", help="regenerate BASELINE.md")
    mode.add_argument("--self-test", action="store_true", help="check the harness")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="current", help="column label for --report")
    args = parser.parse_args(argv)
    try:
        require_checkout()
        if args.self_test:
            import selftest
            return selftest.main()
        if args.report:
            import report
            report.main(args.label)
            return 0
        golden = load_golden()
        runs = ([(w, t) for w in WORKLOADS for t in (False, True)] if args.all
                else [(args.workload, bool(args.trace))])
        correct = True
        for workload, trace in runs:
            record = run_one(workload, args.seed, args.seconds, trace, golden)
            print_record(record)
            correct &= record["summary"]["correct"]
        return 0 if correct else 1
    except (BenchError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
