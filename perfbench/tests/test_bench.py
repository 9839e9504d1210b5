"""Tests of the benchmark itself: deterministic inputs, metric names,
the digest check and span self time.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def generate_in_subprocess(workload: str, seed: int, out: Path, hash_seed: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    subprocess.run([sys.executable, str(BENCH / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(out)], check=True, env=env)
    return checks.digests(out)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first = generate_in_subprocess(workload, 3, tmp_path / "a", "1")
    second = generate_in_subprocess(workload, 3, tmp_path / "b", "2")
    assert first and first == second
    gen.generate(workload, 4, tmp_path / "c")
    assert checks.digests(tmp_path / "c") != first


def test_metric_names_are_plain():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]] + list(layers.PER_LAYER)
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names) - set(layers.PER_LAYER)) == len(spec["end_to_end"]) + len(spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_committed_digests_match_default_seed_inputs(tmp_path):
    gen.generate("prep", run.DEFAULT_SEED, tmp_path / "in")
    actual = {f"in/{k}": v for k, v in checks.digests(tmp_path / "in").items()}
    expected = {k: v for k, v in run.committed_digests("prep").items() if k.startswith("in/")}
    assert checks.compare_digests(actual, expected) == []


def test_corrupted_artifact_trips_digest_check(tmp_path):
    gen.generate("prep", run.DEFAULT_SEED, tmp_path / "in")
    expected = checks.digests(tmp_path / "in")
    target = tmp_path / "in" / "ud" / "cl_alpha.conllu"
    target.write_text(target.read_text(encoding="utf-8").replace("Nom", "Gen", 1), encoding="utf-8")
    failures = checks.compare_digests(checks.digests(tmp_path / "in"), expected)
    assert len(failures) == 1 and failures[0].startswith("ud/cl_alpha.conllu: sha256")

    # in a pass, the failure is charged to the step that wrote the artifact
    steps = run.workload_steps("prep", tmp_path / "in", tmp_path / "out")
    good = run.PassResult(1.0, {}, 0, len(steps), digests={"out/dups.tsv": "0" * 64})
    bad = run.PassResult(1.0, {}, 0, len(steps), digests={"out/dups.tsv": "1" * 64})
    run.check_digests("prep", run.DEFAULT_SEED + 1, {}, [good, bad], steps)
    assert list(bad.failures) == [2] and steps[2].argv[0] == "dedup"
    assert not good.failures


def test_wall_time_is_scaled_by_the_reference_process():
    # five steps, each after a reference process that took twice REFERENCE_S:
    # the host ran at half speed, so the pass counts half its wall time
    slow = run.PassResult(10.0, {}, 0, 5, reference_s=5 * 2 * run.REFERENCE_S)
    assert slow.scaled_wall_s() == pytest.approx(5.0)
    nominal = run.PassResult(10.0, {}, 0, 5, reference_s=5 * run.REFERENCE_S)
    assert nominal.scaled_wall_s() == pytest.approx(10.0)


def test_self_time_is_span_minus_covered_children():
    tracer = layers.Tracer()
    with tracer.span("outer"):
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            pass
    outer, first, second = tracer.spans
    # overlapping children are covered once
    first.start, first.end = outer.start + 1.0, outer.start + 3.0
    second.start, second.end = outer.start + 2.0, outer.start + 4.0
    outer.end = outer.start + 10.0
    times = tracer.self_times(0)
    assert times["outer"] == pytest.approx(7.0)
    assert times["child"] == pytest.approx(4.0)
    assert tracer.root_total(0) == pytest.approx(10.0)


def test_oracles_agree_with_a_hand_count(tmp_path):
    gold = tmp_path / "gold.conllu"
    gold.write_text(
        "# sent_id = s1\n"
        "1\tA\t_\tNOUN\t_\tCase=Nom|Number=Sing\t_\t_\t_\t_\n"
        "2-3\tbc\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "2\tb\t_\tVERB\t_\tMood=Sub\t_\t_\t_\t_\n"
        "3\tc\t_\tPUNCT\t_\t_\t_\t_\t_\t_\n",
        encoding="utf-8",
    )
    pred = tmp_path / "pred.conllu"
    pred.write_text(gold.read_text(encoding="utf-8").replace("Mood=Sub", "Mood=Ind"),
                    encoding="utf-8")
    assert checks.accuracy(gold, pred) == (2, 3)
