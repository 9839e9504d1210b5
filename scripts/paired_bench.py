#!/usr/bin/env python3
"""Paired benchmark runs of a git ref against the working tree.

    python3 scripts/paired_bench.py --ref HEAD --seeds 41-50 --seconds 50

Run from the root of the repository. The files of ``--ref`` (``git
archive``) and the working tree's files (tracked, and untracked but not
ignored) are copied into two sibling directories whose paths have the
same length, so that neither side gets a longer path to read. Then, for
each seed and each workload of ``BENCHMARK.json``, the benchmark command
runs once in each copy with ``--trace 0``; which side runs first
alternates from one seed to the next. Each run must report ``correct``
with no failed operation, or the script stops.

For each workload and each end-to-end metric it prints every pair
(ref/change), the medians and quartiles of both sides, the change of the
median, the ref's interquartile range, the median of the per-pair gaps
and in how many pairs the change was better. Raw results go to
``results.json`` in the work directory. Only the standard library is
used.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    """``41-50``, ``41,43,45`` or a mix of both, as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, dash, last = part.partition("-")
        seeds.extend(range(int(first), int(last) + 1) if dash else [int(first)])
    return seeds


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles (inclusive method); one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list[tuple[float, float]], better: str = "lower") -> dict[str, float]:
    """The figures of one metric over (ref, change) pairs. ``gap`` is the
    median of the per-pair differences, signed so that a positive gap is
    a change for the better; ``won`` counts the pairs the change won."""
    ref, change = [p[0] for p in pairs], [p[1] for p in pairs]
    sign = 1 if better == "lower" else -1
    ref_q1, ref_q3 = quartiles(ref)
    change_q1, change_q3 = quartiles(change)
    ref_median, change_median = statistics.median(ref), statistics.median(change)
    return {
        "ref_median": ref_median, "ref_q1": ref_q1, "ref_q3": ref_q3, "ref_iqr": ref_q3 - ref_q1,
        "change_median": change_median, "change_q1": change_q1, "change_q3": change_q3,
        "change_pct": 100 * (change_median - ref_median) / ref_median if ref_median else 0.0,
        "gap": statistics.median(sign * (r - c) for r, c in pairs),
        "won": sum(sign * (r - c) > 0 for r, c in pairs),
        "pairs": len(pairs),
    }


def summary_line(name: str, s: dict[str, float]) -> str:
    return (f"{name}: median {s['ref_median']:.4f} [{s['ref_q1']:.4f}-{s['ref_q3']:.4f}] -> "
            f"{s['change_median']:.4f} [{s['change_q1']:.4f}-{s['change_q3']:.4f}] "
            f"({s['change_pct']:+.1f}%), better in {s['won']} of {s['pairs']}, "
            f"median gap {s['gap']:.4f} against a ref IQR of {s['ref_iqr']:.4f}")


def copy_ref(ref: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as handle:
        # the "data" filter where this Python has it (3.11.4 and later)
        handle.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def copy_tree(dest: Path) -> None:
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        check=True, capture_output=True).stdout
    for name in filter(None, listed.decode("utf-8").split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if done.returncode or result is None or not result["correct"] or result["failed"]:
        sys.exit(f"error: {checkout.name} {workload} seed {seed} did not run clean "
                 f"(exit {done.returncode}):\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", default="HEAD", help="the git ref to compare against")
    parser.add_argument("--seeds", type=seeds_of, default=seeds_of("41-50"))
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="default: every workload of BENCHMARK.json")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for the two copies and results.json (default: a new temporary one)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    work = args.work or Path(tempfile.mkdtemp(prefix="paired-bench-"))
    sides = {"ref": work / "ref", "new": work / "new"}  # names of one length
    for path in sides.values():
        if path.exists():
            sys.exit(f"error: {path} exists")
        path.mkdir(parents=True)
    copy_ref(args.ref, sides["ref"])
    copy_tree(sides["new"])

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for index, seed in enumerate(args.seeds):
        order = ("ref", "new") if index % 2 == 0 else ("new", "ref")
        for workload in workloads:
            runs = {side: run_once(sides[side], bench["command"], workload, seed, args.seconds)
                    for side in order}
            pair = {"seed": seed, "first": order[0],
                    **{side: {m: runs[side]["metrics"][m]["value"] for m in metrics} for side in runs}}
            results[workload].append(pair)
            print(f"{workload} seed {seed} ({order[0]} first): " + ", ".join(
                f"{m} {pair['ref'][m]:.4f}/{pair['new'][m]:.4f}" for m in metrics), flush=True)
    (work / "results.json").write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")

    print(f"\n{args.ref} against the working tree, seeds {args.seeds}, {args.seconds:g} s per run")
    for workload, pairs in results.items():
        for metric, better in metrics.items():
            summary = summarize([(p["ref"][metric], p["new"][metric]) for p in pairs], better)
            print(summary_line(f"{workload} {metric}", summary))
    print(f"results: {work / 'results.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
