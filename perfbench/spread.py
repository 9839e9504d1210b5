#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workload score --seeds 1-10

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between its first and
third quartile as a share of the median, next to the metric's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    all_correct = True
    for seed in args.seeds:
        done = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        all_correct &= done.returncode == 0 and result["correct"]
        row = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: exit {done.returncode} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.4g}" for k, v in row.items() if k in bounds), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    if len(args.seeds) >= 2:
        for name, series in values.items():
            if name not in bounds:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            print(f"{name:<14} median {median:.4g}  IQR/median {(q3 - q1) / median:.3f}  "
                  f"bound {bounds[name]}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
