"""groupintent benchmark.

    python3 perfbench/run.py --workload sweep_clean --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke            # every workload and check, small

Run from the repository root.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics; --trace 1 runs the same workload with spans recorded
around the program's public functions and reports the per-layer metrics.
Each run also writes its record (and, traced, its spans) under
.perfbench_out/ in the repository root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("sweep_clean", "sweep_noisy", "track_infer")


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes; without --workload, run every "
                             "workload untraced and traced")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    import spans
    import workloads
    from groupintent import harness
    from reference import CheckFailed

    sizes = workloads.SMOKE if smoke else workloads.FULL
    tracer = spans.Tracer() if trace else None
    started = time.perf_counter()
    try:
        state = workloads.run(workload, seed, seconds, sizes, tracer)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    wall = time.perf_counter() - started
    if state.failed == state.ops:
        print("perfbench: every operation failed", file=sys.stderr)
        return {"correct": False, "attempted": state.ops, "failed": state.failed,
                "metrics": {}}
    if trace:
        classes = harness.default_config().classes
        named = workloads.layer_metrics(state, tracer, classes)
    else:
        named = workloads.end_to_end_metrics(state)
    metrics = {name: {"value": float(value), "unit": unit}
               for name, (value, unit) in named.items()}
    result = {"correct": True, "attempted": state.ops, "failed": state.failed,
              "metrics": metrics}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}"
                                 + ("-smoke" if smoke else ""))
    with open(stem + ".json", "w") as fh:
        json.dump({"result": result, "wall_s": wall, "times_s": state.times}, fh)
    if trace:
        tracer.dump(stem + "-spans.json")
        table = sorted(tracer.self_time_table().items(), key=lambda kv: -kv[1])
        print("self time per operation (s):", file=sys.stderr)
        for name, total in table:
            print(f"  {name:32s} {total / max(state.ops, 1):10.4f}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "groupintent", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/groupintent is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.workload is not None:
        result = run_one(args.workload, args.seed, args.seconds, args.trace,
                         args.smoke)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_one(workload, args.seed, min(args.seconds, 1.0), trace,
                             smoke=True)
            ok &= result["correct"]
            print(f"{workload} trace={trace}: {json.dumps(result)}")
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
