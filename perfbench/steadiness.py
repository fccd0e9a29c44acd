#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 perfbench/steadiness.py --workload cell_white --seeds 1-10

The spread is (Q3 - Q1) / median over the runs, quartiles as
statistics.quantiles(n=4) gives them, and is compared with the metric's
bound in BENCHMARK.json.  Runs are sequential, each in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spans import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    """"1-5,9" -> [1, 2, 3, 4, 5, 9]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False, cwd=ROOT)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"] or result["failed"]:
            print(f"seed {seed}: exit {proc.returncode}, result {result}")
            return 1
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        spread = quartile_spread(vals) if len(vals) > 1 else float("nan")
        print(f"{args.workload} {metric['name']}: median {statistics.median(vals):.6g} "
              f"{metric['unit']}, spread {spread:.4f}, bound {metric['bound']} "
              f"({spread / metric['bound']:.2f} of it)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
