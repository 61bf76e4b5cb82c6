"""Run the benchmark once per seed and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload wide_fleet_inproc --runs 10 --first-seed 101

For every metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the interquartile distance as
a share of the median, next to the bound in BENCHMARK.json.  Runs use
tracing off and BENCHMARK.json's run length; seeds count up from
--first-seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list] = {}
    failed_share = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.monotonic()
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stderr, file=sys.stderr)
        failed_share.add(result["failed"] / result["attempted"])
        print(f"seed {seed} ({time.monotonic() - start:.0f} s): "
              f"attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}, " + ", ".join(
                  f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"failed share across runs: {sorted(failed_share)}")
    for k, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{k:32s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
              f"iqr/median {share:8.4f}  bound {bounds.get(k)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
