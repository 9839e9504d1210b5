"""The CLI pipeline on corpora from the benchmark's generator, checked
by the benchmark's oracles, which share no code with latintb."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from latintb.cli import main
from latintb.reports import read_table

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


def _assert_convert_is_a_fixed_point(source, flavor, out):
    """Converting a corpus, then its output again as UD, gives the same
    CoNLL-U files, byte for byte, and the second pass rewrites nothing."""
    once, twice = out / "once", out / "twice"
    assert main(["convert", "--in", str(source), "--flavor", flavor, "--out", str(once)]) == 0
    assert main(["convert", "--in", str(once), "--flavor", "ud", "--out", str(twice)]) == 0
    files = sorted(p.name for p in once.glob("*.conllu"))
    assert files and sorted(p.name for p in twice.glob("*.conllu")) == files
    for name in files:
        assert (twice / name).read_bytes() == (once / name).read_bytes(), name
    audit = ("corpus", "rule_id", "tokens_affected")
    assert read_table(twice / "harmonization_audit.tsv", audit, list) == []


@pytest.mark.parametrize("flavor", ["ud", "lasla"])
def test_convert_is_a_fixed_point_on_the_fixtures(fixtures_dir, tmp_path, flavor):
    _assert_convert_is_a_fixed_point(fixtures_dir / flavor, flavor, tmp_path)


@pytest.mark.parametrize("flavor", ["ud", "lasla"])
def test_convert_is_a_fixed_point_on_a_generated_corpus(tmp_path, flavor):
    gen.make_prep(tmp_path / "in", 2, 1)
    _assert_convert_is_a_fixed_point(tmp_path / "in" / flavor, flavor, tmp_path)
