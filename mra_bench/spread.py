#!/usr/bin/env python3
"""Measures the benchmark's noise band: runs every workload once per seed
(seeds S..S+N-1, workloads round-robin inside each seed, one fresh benchmark
process per run) and prints, for each end-to-end metric, the median of the
runs and the distance between their first and third quartiles as a share of
that median (statistics.quantiles(values, n=4)).

    python3 mra_bench/spread.py [--runs 10] [--first-seed 1] [--seconds 15]
                                [--workload NAME ...]

A metric whose spread exceeds its BENCHMARK.json bound cannot resolve a
change of that size; README.md records the bands measured this way.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"] or result["failed"]:
                failures += 1
                print(f"{w} seed {seed}: FAILED (exit {proc.returncode})", file=sys.stderr)
                continue
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{m}={result['metrics'][m]['value']:.6g}" for m in bounds), file=sys.stderr)

    print(f"{'workload':15} {'metric':12} {'median':>12} {'IQR/median':>11} {'bound':>7}  runs")
    for w in workloads:
        for m, bound in bounds.items():
            v = values[w][m]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / med
            flag = "" if share <= bound / 3 else ("  > bound/3" if share <= bound else "  > BOUND")
            print(f"{w:15} {m:12} {med:12.6g} {share:10.2%} {bound:7.0%}  {len(v)}{flag}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
