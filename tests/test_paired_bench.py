"""The summary arithmetic and the results file of scripts/paired_bench.py; the benchmark itself is not run."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "paired_bench.py"
spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)


def test_seeds_are_read_as_ranges_and_lists():
    assert paired_bench.seeds_of("41-45") == [41, 42, 43, 44, 45]
    assert paired_bench.seeds_of("7,9,11-12") == [7, 9, 11, 12]


def test_quartiles_are_inclusive_and_one_value_is_both():
    assert paired_bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)
    assert paired_bench.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 3.25)
    assert paired_bench.quartiles([3.0]) == (3.0, 3.0)


def test_a_lower_is_better_summary():
    pairs = [(2.0, 1.8), (2.1, 1.9), (1.9, 2.0), (2.2, 1.9), (2.0, 1.9)]
    s = paired_bench.summarize(pairs, "lower")
    assert s["ref_median"] == 2.0 and s["change_median"] == 1.9
    assert (s["ref_q1"], s["ref_q3"]) == (2.0, 2.1)
    assert s["ref_iqr"] == pytest.approx(0.1)
    assert (s["change_q1"], s["change_q3"]) == (1.9, 1.9)
    assert s["change_pct"] == pytest.approx(-5.0)
    # per-pair gaps 0.2, 0.2, -0.1, 0.3, 0.1: the change won four pairs
    assert s["gap"] == pytest.approx(0.2)
    assert (s["won"], s["pairs"]) == (4, 5)


def test_a_higher_is_better_summary_signs_the_gap_the_other_way():
    pairs = [(10.0, 12.0), (10.0, 9.0), (10.0, 10.0)]
    s = paired_bench.summarize(pairs, "higher")
    assert s["gap"] == statistics.median([2.0, -1.0, 0.0]) == 0.0
    assert s["won"] == 1  # a tie is not a win
    assert s["change_pct"] == pytest.approx(0.0)


def test_the_summary_line_shows_every_figure():
    s = paired_bench.summarize([(2.0, 1.8), (2.2, 2.0)])
    assert paired_bench.summary_line("score wall_s", s) == (
        "score wall_s: median 2.1000 [2.0500-2.1500] -> 1.9000 [1.8500-1.9500] (-9.5%), "
        "better in 2 of 2, median gap 0.2000 against a ref IQR of 0.1000")


def test_the_pairs_before_a_failed_run_are_kept(tmp_path, monkeypatch):
    # the copies are left empty, and the second pair's first run fails as
    # run_once fails: by sys.exit, before the summary is printed
    monkeypatch.setattr(paired_bench, "copy_ref", lambda ref, dest: None)
    monkeypatch.setattr(paired_bench, "copy_tree", lambda dest: None)
    calls = []

    def run_once(checkout, command, workload, seed, seconds):
        calls.append((checkout.name, seed))
        if len(calls) == 3:
            raise SystemExit(f"error: {checkout.name} {workload} seed {seed} did not run clean")
        value = 1.0 if checkout.name == "ref" else 0.9
        return {"correct": True, "failed": 0,
                "metrics": {m: {"value": value} for m in ("wall_s", "setup_s", "peak_rss_mb")}}

    monkeypatch.setattr(paired_bench, "run_once", run_once)
    work = tmp_path / "work"
    with pytest.raises(SystemExit, match="seed 8 did not run clean"):
        paired_bench.main(["--seeds", "7-9", "--workloads", "score", "--work", str(work)])
    assert calls == [("ref", 7), ("new", 7), ("new", 8)]
    kept = json.loads((work / "results.json").read_text(encoding="utf-8"))
    metrics = {"wall_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0}
    assert kept == {"score": [{"seed": 7, "first": "ref", "ref": metrics,
                               "new": {m: 0.9 for m in metrics}}]}
