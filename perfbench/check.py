#!/usr/bin/env python3
"""Checks on the benchmark itself; run from the repository root.

  python3 perfbench/check.py spread WORKLOAD [--runs N] [--seconds S]
      Run WORKLOAD with seeds 1..N (default 10) and print, per end-to-end
      metric, the median and the interquartile range as a share of it
      (statistics.quantiles(values, n=4)), against a third of its bound.

  python3 perfbench/check.py repeat WORKLOAD [--seed N] [--seconds S]
      Run WORKLOAD twice with one seed, untraced and traced, and check that
      every count metric (round trips, virtual times, every per-layer count)
      is exactly equal across the two runs.

Every run must report correct = true with no failed op.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
COUNTS_E2E = ["round_trips_per_op", "virtual_ms_p50", "virtual_ms_p99"]


def run(workload, seed, seconds, trace):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(args):
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    runs = [run(args.workload, s, args.seconds, 0) for s in range(1, args.runs + 1)]
    all_ok = True
    for name, bound in bounds.items():
        values = [r[name] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / q2
        ok = share < bound / 3
        all_ok &= ok
        print(f"{name:22s} median {q2:14.4f}  iqr/median {share:7.4f}  "
              f"bound/3 {bound / 3:.4f}  {'ok' if ok else 'WIDE'}  "
              f"[{' '.join(f'{v:.4g}' for v in values)}]")
    return 0 if all_ok else 1


def repeat(args):
    count_layers = [m["name"] for m in BENCH["per_layer"]
                    if m["unit"] in ("count", "B")]
    bad = 0
    for trace, names in ((0, COUNTS_E2E), (1, count_layers)):
        a = run(args.workload, args.seed, args.seconds, trace)
        b = run(args.workload, args.seed, args.seconds, trace)
        for n in names:
            if a[n] != b[n]:
                bad += 1
                print(f"{n}: {a[n]!r} != {b[n]!r}")
    print(f"{args.workload}: {'all counts repeat' if bad == 0 else f'{bad} counts differ'}")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", choices=["spread", "repeat"])
    p.add_argument("workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    args = p.parse_args()
    return {"spread": spread, "repeat": repeat}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
