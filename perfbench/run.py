#!/usr/bin/env python3
"""Run ptde benchmark workloads and print their metrics.

    python3 perfbench/run.py --workload train-118 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from anywhere; the benchmark finds the repository as the parent of its
own directory and imports ptde from its `src/`. It prints machine facts,
output digests and a metric table, then as the last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones from traced cycles. `--workload all` runs every workload in turn and
prefixes each metric with its workload's name.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train-118", "train-4150", "eval-frames")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _print_table(title, rows):
    print(title)
    for name, value, unit, better in rows:
        print(f"  {name:<28} {value!s:>24} {unit:<8} {better}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "ptde" / "__init__.py").is_file():
        print(f"perfbench: no ptde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread (at most nproc): steadier figures on a shared machine,
    # and the condition the ROADMAP baselines were taken under. It must be
    # set before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        facts = bench.machine_facts(ROOT, name, args.seed)
        result = bench.run(WORKLOADS[name], args.seed, args.seconds,
                           bool(args.trace), ROOT / ".perfbench_work")
        print("facts " + json.dumps(facts))
        print("digests " + json.dumps(result["digests"]))
        print("samples " + json.dumps(result["samples"]))
        if result["failures"]:
            print("failed checks " + json.dumps(result["failures"]))
        rows = [(k, m["value"], m["unit"], bench.END_TO_END.get(k, ("", ""))[1])
                for k, m in result["metrics"].items()]
        # failed_ops_frac is 0 when all is well, so the result line carries it
        # as `failed` / `attempted` rather than as a metric
        rows.append(("failed_ops_frac", result["failed"] / result["attempted"],
                     "ratio", "lower"))
        _print_table(f"{name} " + ("per-layer (traced cycles)" if args.trace
                                   else "end-to-end (times at the reference speed)"),
                     rows)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        combined["metrics"].update(
            {prefix + k: v for k, v in result["metrics"].items()}
        )
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
