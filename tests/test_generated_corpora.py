"""The CLI pipeline on corpora from the benchmark's generator, checked
by the benchmark's oracles, which share no code with latintb."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from latintb.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import gen  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pipeline_on_a_generated_corpus_passes_the_oracles(tmp_path, seed):
    inp, out = tmp_path / "in", tmp_path / "out"
    gen.make_prep(inp, seed, 1)
    dups = out / "dups.tsv"
    for argv in (
        ["convert", "--in", inp / "ud", "--flavor", "ud", "--out", out / "std" / "ud"],
        ["convert", "--in", inp / "lasla", "--flavor", "lasla", "--out", out / "std" / "lasla"],
        ["dedup", "--a", inp / "ud", "--b", inp / "lasla", "--out", dups],
        ["agree", "--a", inp / "ud", "--b", inp / "lasla", "--dups", dups,
         "--out", out / "agreement.tsv"],
        ["split", "--ud", out / "std" / "ud", "--lasla", out / "std" / "lasla",
         "--metadata", inp / "metadata.tsv", "--dups", dups, "--out", out / "splits",
         "--config", inp / "config.json", "--no-published", "--seed", "7"],
    ):
        assert main([str(arg) for arg in argv]) == 0, argv
    assert [
        *checks.convert_kept_tokens(inp / "ud", out / "std" / "ud"),
        *checks.convert_kept_tokens(inp / "lasla", out / "std" / "lasla"),
        *checks.dedup_equals_planted(dups, inp / "planted.tsv"),
        *checks.agreement_totals(out / "agreement.tsv", dups),
        *checks.split_audits_pass(out / "splits"),
    ] == []
