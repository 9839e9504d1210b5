import codecs
import contextlib
import errno
import gc
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import latintb
from latintb.baseline import predict_corpus
from latintb import evaluation
from latintb.cli import Output, _aligned_records, main
from latintb.config import ToolConfig
from latintb.conllu import Token, parse_conllu_file, serialize_conllu
from latintb.harmonize import RULE_PRON_PERSON
from latintb.pipeline import convert_corpus, load_corpus, sentence_with_records
from latintb.reports import read_table, tsv_text
from latintb.standardize import StandardRecord, record_from_standard_feats


AUDIT_HEADER = ("corpus", "rule_id", "tokens_affected")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, fixtures_dir):
    """One CLI pipeline run shared by the checks below."""
    root = tmp_path_factory.mktemp("cli")
    ud_in = str(fixtures_dir / "ud")
    lasla_in = str(fixtures_dir / "lasla")
    config = str(fixtures_dir / "config.json")
    meta = str(fixtures_dir / "metadata.tsv")

    assert main(["convert", "--in", ud_in, "--flavor", "ud",
                 "--out", str(root / "std" / "ud")]) == 0
    assert main(["convert", "--in", lasla_in, "--flavor", "lasla",
                 "--out", str(root / "std" / "lasla")]) == 0
    assert main(["dedup", "--a", ud_in, "--b", lasla_in,
                 "--out", str(root / "dups.tsv"),
                 "--report", str(root / "dup_report.tsv"),
                 "--metadata", meta]) == 0
    assert main(["agree", "--a", ud_in, "--b", lasla_in,
                 "--dups", str(root / "dups.tsv"),
                 "--out", str(root / "agreement.tsv")]) == 0
    assert main(["split", "--ud", str(root / "std" / "ud"),
                 "--lasla", str(root / "std" / "lasla"),
                 "--metadata", meta, "--dups", str(root / "dups.tsv"),
                 "--out", str(root / "splits"), "--config", config,
                 "--no-published", "--seed", "7"]) == 0
    return root


def test_convert_outputs_standard_feats(workdir, fixtures_dir):
    converted = parse_conllu_file(workdir / "std" / "ud" / "cl_alpha.conllu")
    allowed = {"Case", "Degree", "Gender", "Mood", "Number", "Person", "Tense", "Voice"}
    for sentence in converted:
        for token in sentence.tokens:
            assert set(token.feats.names()) <= allowed
            assert token.misc_get("TraditionalTense") is None
            assert token.misc_get("TraditionalMood") is None
    audit = read_table(workdir / "std" / "ud" / "harmonization_audit.tsv", AUDIT_HEADER, list)
    assert any(row[1] == "intj-to-part" for row in audit)


def test_convert_reads_a_multi_valued_mood_in_either_order_alike(tmp_path):
    line = "{}\tsit\tsum\tVERB\t_\t{}\t_\t_\t_\t_\n"
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "a.conllu").write_text("# sent_id = s1\n" + "".join(
        line.format(k, feats) for k, feats in enumerate(
            ["Mood=Sub,Ind|Number=Sing|Person=3|VerbForm=Fin",
             "Mood=Ind,Sub|Number=Sing|Person=3|VerbForm=Fin",
             "Number=Plur|Person=3,1|VerbForm=Fin"], start=1)) + "\n")
    out = tmp_path / "out"
    assert main(["convert", "--in", str(tmp_path / "in"), "--flavor", "ud", "--out", str(out)]) == 0
    lines = (out / "a.conllu").read_text().splitlines()[1:4]
    first, second, third = (row.split("\t", 1)[1] for row in lines)
    assert first == second == "sit\tsum\tVERB\t_\tNumber=Sing|Person=3\t_\t_\t_\t_"
    assert third == "sit\tsum\tVERB\t_\tNumber=Plur\t_\t_\t_\t_"
    rows = read_table(out / "anomalies.tsv", ("sent_id", "token_id", "code"), list)
    assert rows == [["s1", str(k), "MULTI_VALUE_FEATURE"] for k in (1, 2, 3)]


def test_convert_is_byte_deterministic(workdir, fixtures_dir, tmp_path):
    again = tmp_path / "again"
    assert main(["convert", "--in", str(fixtures_dir / "ud"), "--flavor", "ud",
                 "--out", str(again)]) == 0
    for file in sorted((workdir / "std" / "ud").glob("*")):
        assert (again / file.name).read_bytes() == file.read_bytes()


def test_dedup_manifest_and_report(workdir, planted_duplicates):
    rows = read_table(workdir / "dups.tsv", ("sent_a", "sent_b", "basis", "align_length"), list)
    assert {(r[0], r[1]) for r in rows} == {(a, b) for a, b, _ in planted_duplicates}
    report = {r[1]: r for r in read_table(workdir / "dup_report.tsv",
                                          ("author", "work", "duplicates"), list)}
    assert report["cl_alpha"][0] == "Cicero"


def test_agreement_report_shape(workdir):
    rows = read_table(workdir / "agreement.tsv", ("feature", "before_pct", "before_same",
                      "before_total", "after_pct", "after_same", "after_total"), list)
    features = {r[0] for r in rows}
    assert {"UPOS", "Case", "Gender", "Gender (loose)", "Mood", "Tense"} <= features
    for row in rows:
        assert len(row) == 7


def test_split_outputs(workdir):
    audit = read_table(workdir / "splits" / "split_audit.tsv",
                       ("period", "check", "result", "details"), list)
    checks = [r for r in audit if r[2] in ("pass", "FAIL")]
    assert checks and all(r[2] == "pass" for r in checks)
    manifest = json.loads((workdir / "splits" / "Classical-UD.manifest.json").read_text())
    assert set(manifest["train_works"]) & {"cl_alpha", "cl_beta"} == {"cl_alpha", "cl_beta"}
    test_file = workdir / "splits" / "Classical-UD" / "test.conllu"
    assert test_file.exists()
    assert len(parse_conllu_file(test_file)) >= 30


def test_metadata_validate_ok(fixtures_dir, capsys):
    assert main(["metadata-validate", "--file", str(fixtures_dir / "metadata.tsv"),
                 "--corpus", str(fixtures_dir / "ud")]) == 0
    assert "metadata ok" in capsys.readouterr().out


def test_metadata_validate_failure(tmp_path, fixtures_dir):
    bad = tmp_path / "bad.tsv"
    text = (fixtures_dir / "metadata.tsv").read_text().replace(
        "Perseus\tcl_alpha\tCicero\t-1", "Perseus\tcl_alpha\tCicero\t0"
    )
    bad.write_text(text)
    assert main(["metadata-validate", "--file", str(bad)]) == 1


def _write_predictions(gold_path, out_a, out_b):
    gold = parse_conllu_file(gold_path)
    records = predict_corpus(gold)
    out_a.write_text(serialize_conllu(sentence_with_records(s, r) for s, r in zip(gold, records)),
                     encoding="utf-8")
    degraded = [
        [StandardRecord(upos="NOUN") for _ in recs] if i % 3 == 0 else list(recs)
        for i, recs in enumerate(records)
    ]
    out_b.write_text(serialize_conllu(sentence_with_records(s, r) for s, r in zip(gold, degraded)),
                     encoding="utf-8")


def test_eval_and_perm_test(workdir, tmp_path, capsys):
    gold = workdir / "splits" / "Classical-UD" / "test.conllu"
    pred_a = tmp_path / "pred_a.conllu"
    pred_b = tmp_path / "pred_b.conllu"
    _write_predictions(gold, pred_a, pred_b)

    assert main(["eval", "--gold", str(gold), "--pred", str(pred_a),
                 "--out", str(tmp_path / "report.json")]) == 0
    out = capsys.readouterr().out
    assert "whole-string acc" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert 0.0 <= report["whole_string_accuracy"] <= 1.0
    assert "macro_f1" in report

    assert main(["perm-test", "--gold", str(gold), "--a", str(pred_a),
                 "--b", str(pred_b), "--metric", "morph-acc",
                 "--n", "500", "--seed", "7"]) == 0
    line = capsys.readouterr().out
    assert "p=" in line and "seed=7" in line


def test_perm_test_jobs_deterministic(workdir, tmp_path, capsys):
    gold = workdir / "splits" / "Classical-UD" / "test.conllu"
    pred_a = tmp_path / "a.conllu"
    pred_b = tmp_path / "b.conllu"
    _write_predictions(gold, pred_a, pred_b)
    outputs = []
    for jobs in ("1", "8"):
        assert main(["perm-test", "--gold", str(gold), "--a", str(pred_a),
                     "--b", str(pred_b), "--n", "3000", "--seed", "11",
                     "--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out.splitlines()[0])
    assert outputs[0] == outputs[1]


def test_eval_misaligned_is_validation_failure(workdir, tmp_path):
    gold = workdir / "splits" / "Classical-UD" / "test.conllu"
    other = workdir / "splits" / "Classical-UD" / "dev.conllu"
    assert main(["eval", "--gold", str(gold), "--pred", str(other)]) == 1


@pytest.mark.parametrize("command", ["eval", "perm-test"])
@pytest.mark.parametrize("feats, message", [
    ("Case=Foo", "case value 'Foo' outside inventory"),
    ("VerbForm=Fin", "non-standard feature 'VerbForm' in 'x'"),
])
def test_a_non_standard_label_is_named_with_its_file_and_sentence(
    tmp_path, capsys, command, feats, message
):
    gold, pred = tmp_path / "gold.conllu", tmp_path / "pred.conllu"
    sentence = "# sent_id = s1\n1\tx\tx\tNOUN\t_\t{}\t0\troot\t_\t_\n\n"
    gold.write_text(sentence.format("Case=Nom"))
    pred.write_text(sentence.format(feats))
    inputs = ["--pred", pred] if command == "eval" else ["--a", gold, "--b", pred]
    assert main([command, "--gold", str(gold), *map(str, inputs)]) == 1
    assert capsys.readouterr().err == f"error: {pred}: sentence 's1': {message}\n"


SENTENCE = "# sent_id = {}\n1\tx\tx\tNOUN\t_\t{}\t0\troot\t_\t_\n\n"


@pytest.mark.parametrize("command, flag", [("eval", "--pred"), ("perm-test", "--a"),
                                           ("perm-test", "--b")])
def test_a_misaligned_prediction_file_is_named(tmp_path, capsys, command, flag):
    gold, pred = tmp_path / "gold.conllu", tmp_path / "pred.conllu"
    gold.write_text(SENTENCE.format("s1", "Case=Nom"))
    pred.write_text(SENTENCE.format("s1", "Case=Nom") + SENTENCE.format("s2", "Case=Nom"))
    inputs = {"--pred": ["--pred", pred], "--a": ["--a", pred, "--b", gold],
              "--b": ["--a", gold, "--b", pred]}[flag]
    assert main([command, "--gold", str(gold), *map(str, inputs)]) == 1
    assert capsys.readouterr().err == (
        f"error: {pred}: sentence count mismatch: gold 1, predictions 2\n"
    )


def test_gold_and_predictions_share_records_and_sentence_ids(tmp_path, capsys, monkeypatch):
    gold, pred = tmp_path / "gold.conllu", tmp_path / "pred.conllu"
    gold.write_text(SENTENCE.format("s1", "Case=Nom") + SENTENCE.format("s2", "Case=Acc"))
    pred.write_text(SENTENCE.format("s1", "Case=Nom") + SENTENCE.format("s2", "Case=Gen"))
    corpora, read = [], []

    class RecordedCodes(evaluation._Codes):
        def __init__(self, *given):
            corpora.extend(given)
            super().__init__(*given)

    def recorded_read(token):
        read.append(token.feats.to_string())
        return record_from_standard_feats(token)

    monkeypatch.setattr(evaluation, "_Codes", RecordedCodes)
    monkeypatch.setattr(evaluation, "record_from_standard_feats", recorded_read)
    output = Output(ToolConfig(), 0, [])
    codes = _aligned_records(output, gold, pred)
    (gold_s1, gold_s2), (pred_s1, pred_s2) = codes.tokens
    assert codes.sentence_lengths == [1, 1]
    assert pred_s1 == gold_s1
    assert pred_s2 != gold_s2
    # an identical token line is one token in both files, read as a record once
    [(gold_t1,), (gold_t2,)], [(pred_t1,), (pred_t2,)] = corpora
    assert pred_t1 is gold_t1
    assert pred_t2 is not gold_t2
    assert read == ["Case=Nom", "Case=Acc", "Case=Gen"]
    assert [r.case for r in codes.records] == ["Nom", "Acc", "Gen"]
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 0
    assert "tokens scored        2" in capsys.readouterr().out


def _sibling(path: Path) -> Path:
    return path.with_name(f".{path.name}.{os.getpid()}.new")


def _tree(root: Path) -> dict[Path, bytes | None]:
    return {path: None if path.is_dir() else path.read_bytes() for path in root.rglob("*")}


def test_an_output_is_staged_as_it_is_made_and_kept_only_as_paths(tmp_path):
    # each text goes to its sibling at once; the run record keeps no reference to it
    output = Output(ToolConfig(), 0, [])
    corpus, report = tmp_path / "new" / "sub" / "a.conllu", tmp_path / "r.tsv"
    text = "".join(f"# sent_id = s{i}\n" for i in range(100))
    references = sys.getrefcount(text)
    output.file(corpus, text)
    assert sys.getrefcount(text) == references
    assert _sibling(corpus).read_text(encoding="utf-8") == text and not corpus.exists()
    output.tsv(report, ("a", "b"), [(1, 2)])
    table = tsv_text(("a", "b"), [(1, 2)], seed=0, config_hash=ToolConfig().config_hash)
    assert _sibling(report).read_text(encoding="utf-8") == table and not report.exists()
    output.commit()
    assert corpus.read_text(encoding="utf-8") == text and report.read_text(encoding="utf-8") == table
    assert set(_tree(tmp_path)) == {tmp_path / "new", corpus.parent, corpus, report}


def test_a_discard_removes_each_sibling_and_each_directory_the_staging_made(tmp_path):
    held = tmp_path / "held.tsv"
    held.write_bytes(b"earlier\n")
    (tmp_path / "kept").mkdir()
    before = _tree(tmp_path)
    output = Output(ToolConfig(), 0, [])
    for path in (held, tmp_path / "new" / "sub" / "a.conllu", tmp_path / "new" / "b.conllu",
                 tmp_path / "kept" / "deep" / "c.tsv", tmp_path / "up" / ".." / "d.tsv"):
        output.file(path, "text\n")
        assert _sibling(path).is_file()
    assert (tmp_path / "up").is_dir()
    output.discard()
    assert _tree(tmp_path) == before


def test_a_raw_lasla_read_warns_once_with_its_unknown_value_count(fixtures_dir, tmp_path, capsys):
    # Case=Erg lies outside LASLA's inventory, on a line read twice
    lasla, dups = tmp_path / "w.conllu", tmp_path / "dups.tsv"
    line = "1\tpuer\tpuer\tNOUN\t_\tCase=Erg|Number=Sing\t_\t_\t_\t_\n"
    lasla.write_text(f"# sent_id = w-1\n{line}\n# sent_id = w-2\n{line}")
    ud = fixtures_dir / "ud" / "cl_alpha.conllu"
    warning = "warning: 2 feature values outside the LASLA inventory kept as read\n"
    for argv in (
        ["convert", "--in", lasla, "--flavor", "lasla", "--out", tmp_path / "std"],
        ["lint", "--in", lasla, "--flavor", "lasla", "--out", tmp_path / "lint.tsv"],
        ["dedup", "--a", ud, "--b", lasla, "--out", dups],
        ["agree", "--a", ud, "--b", lasla, "--dups", dups, "--out", tmp_path / "agree.tsv"],
        ["metadata-validate", "--file", fixtures_dir / "metadata.tsv", "--corpus", lasla,
         "--flavor", "lasla"],
    ):
        assert main([str(arg) for arg in argv]) == 0
        assert capsys.readouterr().err == warning
    # a UD read has no inventory, and a failing run writes its one line only
    assert main(["lint", "--in", str(ud), "--flavor", "ud", "--out", str(tmp_path / "lint.tsv")]) == 0
    assert capsys.readouterr().err == ""
    assert main(["lint", "--in", str(lasla), "--flavor", "lasla", "--out", str(tmp_path)]) == 1
    error = capsys.readouterr().err
    assert error.startswith("error: ") and error.count("\n") == 1


def test_the_unknown_values_of_two_raw_lasla_reads_are_counted_together(tmp_path, capsys):
    # each corpus has one Case=Erg, a value outside LASLA's inventory
    line = "1\tpuer\tpuer\tNOUN\t_\tCase={}|Number=Sing\t_\t_\t_\t_\n"
    a, b = tmp_path / "a.conllu", tmp_path / "b.conllu"
    a.write_text(f"# sent_id = a-1\n{line.format('Erg')}\n# sent_id = a-2\n{line.format('Nom')}")
    b.write_text(f"# sent_id = b-1\n{line.format('Erg')}")
    assert main(["dedup", "--a", str(a), "--b", str(b), "--a-flavor", "lasla", "--b-flavor", "lasla",
                 "--out", str(tmp_path / "dups.tsv")]) == 0
    assert capsys.readouterr().err == (
        "warning: 2 feature values outside the LASLA inventory kept as read\n")
    assert main(["convert", "--in", str(a), "--flavor", "lasla", "--out", str(tmp_path / "std")]) == 0
    assert capsys.readouterr().err == (
        "warning: 1 feature value outside the LASLA inventory kept as read\n")


def test_a_gold_directory_with_a_repeated_sentence_id_fails_in_one_line(tmp_path, capsys):
    corpus, pred = tmp_path / "gold", tmp_path / "pred.conllu"
    corpus.mkdir()
    for name in ("a", "b"):
        (corpus / f"{name}.conllu").write_text(SENTENCE.format("s1", "Case=Nom"))
    pred.write_text(SENTENCE.format("s1", "Case=Nom") + SENTENCE.format("s2", "Case=Nom"))
    assert main(["eval", "--gold", str(corpus), "--pred", str(pred)]) == 1
    assert capsys.readouterr().err == (
        f"error: sentence id 's1' appears in {corpus / 'a.conllu'} and in {corpus / 'b.conllu'}\n"
    )


def test_lint_flags_esse_as_noun(fixtures_dir, tmp_path):
    out = tmp_path / "lint.tsv"
    assert main(["lint", "--in", str(fixtures_dir / "ud"), "--flavor", "ud",
                 "--out", str(out)]) == 0
    codes = {row[2] for row in read_table(out, ("sent_id", "token_id", "code"), list)}
    assert "ESSE_AS_NOUN" in codes


# lint.tsv of the UD and of the LASLA fixtures, pinned byte for byte
LINT_SHA256 = {
    "ud": "e16f0397ef1d6fe3059313fcf2979d3276514824eb21481b6452766942f5d293",
    "lasla": "b68c87da796ce742ff297794092bda1287f660802700904689e39f594d2228fc",
}


@pytest.mark.parametrize("flavor", sorted(LINT_SHA256))
def test_lint_outputs_are_pinned(fixtures_dir, tmp_path, flavor):
    out = tmp_path / "lint.tsv"
    assert main(["lint", "--in", str(fixtures_dir / flavor), "--flavor", flavor,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LINT_SHA256[flavor]


@pytest.mark.parametrize("command", ["dedup", "lint"])
def test_a_file_stem_holding_a_tab_is_refused_by_the_reader(tmp_path, capsys, command):
    # every sentence has a "# sent_id", but the stem still names their work, and a
    # work id reaches the cells of dedup's report; the file is refused as it is read,
    # before any output, where the TSV writer used to refuse a row
    words = "gallia est omnis divisa in partes tres quarum unam incolunt belgae".split()
    tokens = "".join(f"{i}\t{w}\tsum\tNOUN\t_\t_\t_\t_\t_\t_\n" for i, w in enumerate(words, 1))
    corpus = tmp_path / "s\t1.conllu"
    corpus.write_text(f"# sent_id = s1\n{tokens}\n")
    other = tmp_path / "other.conllu"
    other.write_text(f"# sent_id = o1\n{tokens}\n")
    out = tmp_path / "out.tsv"
    argv = {
        "dedup": ["dedup", "--a", other, "--b", corpus, "--b-flavor", "ud", "--out", out],
        "lint": ["lint", "--in", corpus, "--out", out],
    }[command]
    assert main(list(map(str, argv))) == 1
    assert capsys.readouterr().err == f"error: {corpus}: stem 's\\t1' holds a tab or a line break\n"
    assert not out.exists()


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_unknown_metric_is_usage_error(workdir, tmp_path):
    gold = workdir / "splits" / "Classical-UD" / "test.conllu"
    assert main(["perm-test", "--gold", str(gold), "--a", str(gold),
                 "--b", str(gold), "--metric", "nonsense"]) == 2


def test_an_unknown_feature_in_a_value_metric_is_a_usage_error(tmp_path, capsys):
    # rejected before any file is read: the inputs do not exist
    missing = str(tmp_path / "missing.conllu")
    assert main(["perm-test", "--gold", missing, "--a", missing, "--b", missing,
                 "--metric", "value-f1:Bogus=X"]) == 2
    assert capsys.readouterr().err == "usage error: unknown feature in metric 'value-f1:Bogus=X'\n"


def test_perm_test_needs_positive_iterations(tmp_path, capsys):
    # rejected before any file is read: the inputs do not exist
    missing = str(tmp_path / "missing.conllu")
    for flags, message in (
        (["--n", "0"], "--n must be >= 1, got 0"),
        # iteration i is one 32-bit spawn word of the seed sequence
        (["--n", str(2**32 + 1)], f"--n must be <= {2**32}, got {2**32 + 1}"),
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
    ):
        assert main(["perm-test", "--gold", missing, "--a", missing, "--b", missing,
                     *flags]) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize("metric", ["value-f1:Mood=Sbu", "value-f1:Gender=Masc,Fem"])
def test_perm_test_rejects_a_value_no_record_carries(tmp_path, capsys, metric):
    # rejected before any file is read: the inputs do not exist
    missing = str(tmp_path / "missing.conllu")
    assert main(["perm-test", "--gold", missing, "--a", missing, "--b", missing,
                 "--metric", metric]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "is not None or " in err


def test_perm_test_without_tokens_is_validation_failure(tmp_path, capsys):
    empty = tmp_path / "empty.conllu"
    empty.write_text("")
    assert main(["perm-test", "--gold", str(empty), "--a", str(empty),
                 "--b", str(empty), "--n", "10"]) == 1
    assert capsys.readouterr().err == "error: no tokens to score\n"


def test_perm_test_notes_when_no_simulated_difference_reaches_the_observed_one(tmp_path, capsys):
    # b is wrong on every one of 200 sentences: no relabelling comes near
    paths = {}
    for name, case in (("gold", "Nom"), ("a", "Nom"), ("b", "Acc")):
        paths[name] = tmp_path / f"{name}.conllu"
        paths[name].write_text("".join(f"# sent_id = s{i}\n1\tx\tx\tNOUN\t_\tCase={case}\t_\t_\t_\t_\n\n"
                                       for i in range(200)))
    assert main(["perm-test", "--gold", str(paths["gold"]), "--a", str(paths["a"]),
                 "--b", str(paths["b"]), "--n", "1000"]) == 0
    assert capsys.readouterr().out == (
        "metric=morph-acc observed_diff=1.000000 p=0.0000 iterations=1000 seed=0\n"
        "note: no simulated difference reached the observed one; p < 0.003 (rule of three)\n"
    )


def test_perm_test_holds_no_input_token_when_numpy_loads(tmp_path, monkeypatch, capsys):
    # Only the codes reach the draw: a token list kept alive through it
    # would stay in the process's peak memory beside numpy's.
    from latintb import permutation

    form = "quisquiliarum"  # a form no other test reads
    paths = {}
    for name, case in (("gold", "Nom"), ("a", "Nom"), ("b", "Acc")):
        paths[name] = tmp_path / f"{name}.conllu"
        paths[name].write_text("".join(
            f"# sent_id = s{i}\n1\t{form}\tx\tNOUN\t_\tCase={case if i % 2 else 'Nom'}\t_\t_\t_\t_\n"
            f"2\t{form}\tx\tVERB\t_\t_\t_\t_\t_\t_\n\n" for i in range(40)), encoding="utf-8")

    def live_tokens():
        return sum(isinstance(o, Token) and o.form == form for o in gc.get_objects())

    held = parse_conllu_file(paths["gold"])
    # the count sees tokens that are held: one per distinct line
    assert live_tokens() == 2
    del held
    counts, observed_and_hits = [], permutation.observed_and_hits

    def counted(*args):
        counts.append(live_tokens())
        return observed_and_hits(*args)

    monkeypatch.setattr(permutation, "observed_and_hits", counted)
    assert main(["perm-test", "--gold", str(paths["gold"]), "--a", str(paths["a"]),
                 "--b", str(paths["b"]), "--n", "100"]) == 0
    assert capsys.readouterr().out.startswith("metric=morph-acc observed_diff=")
    assert counts == [0]


def _src_path() -> str:
    return str(Path(latintb.__file__).parents[1])


def _run_cli(*argv):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_src_path(), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "latintb.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _probe(tmp_path, code: str, *argv, **env: str) -> str:
    """What a fresh interpreter that runs ``code`` writes to the file
    ``sys.argv[1]``; ``argv`` follows it, and ``env`` is added to its
    environment. OpenBLAS's thread variables are left out unless ``env``
    sets them: an in-process perm-test sets one in this process."""
    listing = tmp_path / "probe.txt"
    listing.unlink(missing_ok=True)
    base = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_src_path(), os.environ.get("PYTHONPATH")])))
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        base.pop(name, None)
    subprocess.run([sys.executable, "-c", code, listing, *map(str, argv)],
                   env={**base, **env}, capture_output=True, timeout=120, check=False)
    return listing.read_text()


def _modules_loaded(tmp_path, code: str, *argv) -> set[str]:
    """The names in ``sys.modules`` after a fresh interpreter runs ``code``."""
    return set(_probe(tmp_path, code, *argv).split())


def _run_main_then(report: str) -> str:
    """Code that runs ``main`` on ``sys.argv[2:]`` and, whatever its end,
    then writes ``report`` to the file ``sys.argv[1]``."""
    return ("import os, sys\nfrom latintb.cli import main\ntry:\n    main(sys.argv[2:])\n"
            f"finally:\n    open(sys.argv[1], 'w').write({report})")


_MODULES = "' '.join(sys.modules)"
_BARE = f"import sys\nopen(sys.argv[1], 'w').write({_MODULES})"
_RUN_MAIN = _run_main_then(_MODULES)
# modules that a run without --config or numbers to permute has no use for,
# and that cost a fresh process milliseconds to import
_NOT_AT_START = {"dataclasses", "inspect", "hashlib", "json", "numpy"}


@pytest.mark.parametrize(
    "command", ["--version", "convert", "lint", "dedup", "agree", "metadata-validate", "eval"]
)
def test_a_run_without_config_imports_no_module_it_does_not_use(
    workdir, fixtures_dir, tmp_path, command
):
    ud, lasla = fixtures_dir / "ud", fixtures_dir / "lasla"
    std = workdir / "std" / "ud"
    argv = {
        "--version": ["--version"],
        "convert": ["convert", "--in", ud, "--flavor", "ud", "--out", tmp_path / "std"],
        "lint": ["lint", "--in", ud, "--out", tmp_path / "lint.tsv"],
        "dedup": ["dedup", "--a", ud, "--b", lasla, "--out", tmp_path / "d.tsv"],
        "agree": ["agree", "--a", ud, "--b", lasla, "--dups", workdir / "dups.tsv",
                  "--out", tmp_path / "a.tsv"],
        "metadata-validate": ["metadata-validate", "--file", fixtures_dir / "metadata.tsv",
                              "--corpus", ud],
        # without --out, eval writes no JSON
        "eval": ["eval", "--gold", std, "--pred", std],
    }[command]
    bare = _modules_loaded(tmp_path, _BARE)
    loaded = _modules_loaded(tmp_path, _RUN_MAIN, *argv)
    assert "latintb" in loaded
    assert {name.partition(".")[0] for name in loaded - bare} & _NOT_AT_START == set()


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["eval", "--gold"]],
                         ids=["version", "help", "usage-error"])
def test_the_version_the_help_and_a_usage_error_load_no_other_latintb_module(tmp_path, argv):
    loaded = _modules_loaded(tmp_path, _RUN_MAIN, *argv)
    assert {name for name in loaded if name.partition(".")[0] == "latintb"} == {"latintb", "latintb.cli"}


@pytest.mark.parametrize("command", ["eval", "perm-test"])
def test_scoring_loads_no_conversion_code(workdir, tmp_path, command):
    gold = workdir / "splits" / "Classical-UD" / "test.conllu"
    argv = {"eval": ["eval", "--gold", gold, "--pred", gold],
            "perm-test": ["perm-test", "--gold", gold, "--a", gold, "--b", gold, "--n", "10"]}[command]
    bare = _modules_loaded(tmp_path, _BARE)
    loaded = _modules_loaded(tmp_path, _RUN_MAIN, *argv)
    assert "latintb.evaluation" in loaded  # the probe sees the scoring
    assert {"latintb.harmonize", "latintb.normalize", "unicodedata"} & (loaded - bare) == set()


def test_dedup_loads_metadata_only_for_a_report_with_metadata(fixtures_dir, tmp_path):
    ud, lasla = fixtures_dir / "ud", fixtures_dir / "lasla"
    dedup = ["dedup", "--a", ud, "--b", lasla, "--out", tmp_path / "d.tsv"]
    assert "latintb.metadata" not in _modules_loaded(tmp_path, _RUN_MAIN, *dedup)
    # the probe does see it where it is used
    assert "latintb.metadata" in _modules_loaded(
        tmp_path, _RUN_MAIN, *dedup, "--report", tmp_path / "r.tsv",
        "--metadata", fixtures_dir / "metadata.tsv")


def _repeated_with_flipped_feats(gold, out, copies):
    """``copies`` copies of the gold file, each sentence id suffixed with
    its copy, as gold, a perfect prediction file and one whose every
    token has other features: then every sentence moves under morph-acc."""
    same, flipped = [], []
    text = gold.read_text(encoding="utf-8").strip("\n") + "\n\n"
    for copy in range(copies):
        for line in text.split("\n")[:-1]:  # each copy ends with a blank line
            cols = line.split("\t")
            if line.startswith("# sent_id"):
                line = f"{line}-{copy}"
            same.append(line)
            if cols[0].isdigit():
                cols[5] = "Case=Nom" if cols[5] == "_" else "_"
                line = "\t".join(cols)
            flipped.append(line)
    paths = out / "gold.conllu", out / "a.conllu", out / "b.conllu"
    for path, lines in zip(paths, (same, same, flipped)):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


def test_a_perm_test_loads_numpy_random_only_when_many_sentences_move(workdir, tmp_path):
    # The bit-only draw replays PCG64 in numpy arithmetic; only the per-row
    # draw, which pays off when many 64-bit outputs hold a moving sentence,
    # loads numpy.random (about 10 ms and 6 MB of peak memory).
    gold = workdir / "splits" / "Classical-UD" / "test.conllu"
    pred_a, pred_b = tmp_path / "a.conllu", tmp_path / "b.conllu"
    _write_predictions(gold, pred_a, pred_b)  # b differs on every third sentence
    few = ["perm-test", "--gold", gold, "--a", pred_a, "--b", pred_b, "--n", "3000"]
    loaded = _modules_loaded(tmp_path, _RUN_MAIN, *few)
    assert "numpy" in loaded and "numpy.random" not in loaded
    # the probe does see it where it is used
    many = tmp_path / "many"
    many.mkdir()
    copies = -(-1000 // len(parse_conllu_file(gold)))
    gold, pred_a, pred_b = _repeated_with_flipped_feats(gold, many, copies)
    every = ["perm-test", "--gold", gold, "--a", pred_a, "--b", pred_b, "--n", "300"]
    assert "numpy.random" in _modules_loaded(tmp_path, _RUN_MAIN, *every)


@pytest.mark.parametrize("draw", ["bit-only", "per-row"])
def test_a_perm_test_loads_no_numpy_ma(workdir, tmp_path, draw):
    # np.unique would load numpy.ma (about 7 ms) to count the words that hold
    # a moving sentence; the inputs are those of the numpy.random test above
    gold = workdir / "splits" / "Classical-UD" / "test.conllu"
    pred_a, pred_b = tmp_path / "a.conllu", tmp_path / "b.conllu"
    _write_predictions(gold, pred_a, pred_b)
    if draw == "per-row":
        (tmp_path / "many").mkdir()
        copies = -(-1000 // len(parse_conllu_file(gold)))
        gold, pred_a, pred_b = _repeated_with_flipped_feats(gold, tmp_path / "many", copies)
    argv = ["perm-test", "--gold", gold, "--a", pred_a, "--b", pred_b, "--n", "300",
            "--out", tmp_path / "perm.tsv"]
    loaded = _modules_loaded(tmp_path, _RUN_MAIN, *argv)
    assert (tmp_path / "perm.tsv").is_file()
    assert ("numpy.random" in loaded) == (draw == "per-row")
    assert "numpy.ma" not in loaded


@pytest.mark.parametrize("caller_collects", [True, False])
def test_main_pauses_the_cyclic_collector_and_restores_the_callers_state(
        workdir, tmp_path, monkeypatch, caller_collects):
    from latintb import cli

    gold = workdir / "splits" / "Classical-UD" / "test.conllu"
    runs = {
        0: ["eval", "--gold", gold, "--pred", gold],
        1: ["eval", "--gold", tmp_path / "missing.conllu", "--pred", gold],
        2: ["perm-test", "--gold", gold, "--a", gold, "--b", gold, "--n", "0"],
    }
    seen = []

    def lint_that_sees_the_collector(args, output):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setattr(cli, "cmd_lint", lint_that_sees_the_collector)
    was = gc.isenabled()
    (gc.enable if caller_collects else gc.disable)()
    try:
        for code, argv in runs.items():
            assert main([str(arg) for arg in argv]) == code, argv
            assert gc.isenabled() == caller_collects, argv
        for argv in (["--version"], ["lint", "--no-such-flag"]):
            with pytest.raises(SystemExit):
                main(argv)
            assert gc.isenabled() == caller_collects, argv
        assert main(["lint", "--in", str(gold), "--out", str(tmp_path / "lint.tsv")]) == 0
        assert gc.isenabled() == caller_collects
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


_HAS_PROC = Path("/proc/self/task").is_dir()
# After the run, the process's OS threads (where /proc lists them) and its
# OPENBLAS_NUM_THREADS.
_RUN_MAIN_THREADS = _run_main_then(
    "f\"{len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else '-'} "
    "{os.environ.get('OPENBLAS_NUM_THREADS')}\"")


def _eight_commands(workdir, fixtures_dir, out: Path) -> dict[str, list]:
    """A run of each subcommand that succeeds on the fixtures, writing under ``out``."""
    ud, lasla = fixtures_dir / "ud", fixtures_dir / "lasla"
    gold = workdir / "splits" / "Classical-UD" / "test.conllu"
    pred_a, pred_b = out / "a.conllu", out / "b.conllu"
    _write_predictions(gold, pred_a, pred_b)
    return {
        "convert": ["convert", "--in", ud, "--flavor", "ud", "--out", out / "std"],
        "dedup": ["dedup", "--a", ud, "--b", lasla, "--out", out / "d.tsv"],
        "agree": ["agree", "--a", ud, "--b", lasla, "--dups", workdir / "dups.tsv",
                  "--out", out / "agree.tsv"],
        "metadata-validate": ["metadata-validate", "--file", fixtures_dir / "metadata.tsv",
                              "--corpus", ud],
        "split": ["split", "--ud", workdir / "std" / "ud", "--lasla", workdir / "std" / "lasla",
                  "--metadata", fixtures_dir / "metadata.tsv", "--dups", workdir / "dups.tsv",
                  "--out", out / "splits", "--config", fixtures_dir / "config.json",
                  "--no-published", "--seed", "7"],
        "eval": ["eval", "--gold", gold, "--pred", pred_a, "--out", out / "eval.json"],
        "perm-test": ["perm-test", "--gold", gold, "--a", pred_a, "--b", pred_b,
                      "--n", "2000", "--out", out / "perm.tsv"],
        "lint": ["lint", "--in", ud, "--out", out / "lint.tsv"],
    }


@pytest.mark.skipif(not _HAS_PROC, reason="no /proc/self/task")
@pytest.mark.parametrize("command", ["convert", "dedup", "agree", "metadata-validate", "split",
                                     "eval", "perm-test", "lint"])
def test_every_subcommand_ends_with_one_os_thread(workdir, fixtures_dir, tmp_path, command):
    # with numpy, OpenBLAS would start a worker thread per core that perm-test never needs
    argv = _eight_commands(workdir, fixtures_dir, tmp_path)[command]
    assert _probe(tmp_path, _RUN_MAIN_THREADS, *argv).split()[0] == "1"


@pytest.mark.parametrize("metric", ["morph-acc", "upos-macro-f1", "macro-f1:Case",
                                    "value-f1:Mood=Sub"])
def test_perm_test_results_do_not_depend_on_blas_threads(workdir, fixtures_dir, tmp_path, metric):
    argv = _eight_commands(workdir, fixtures_dir, tmp_path)["perm-test"]
    argv = [*argv[:-2], "--metric", metric, "--out"]
    outputs, reports = [], []
    for env in ({}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}):
        outputs.append(tmp_path / f"perm-{len(outputs)}.tsv")
        reports.append(_probe(tmp_path, _RUN_MAIN_THREADS, *argv, outputs[-1], **env).split())
    assert outputs[0].read_bytes() == outputs[1].read_bytes() == outputs[2].read_bytes()
    assert outputs[0].read_text(encoding="utf-8").startswith("metric\tobserved_diff\t")
    # unset, perm-test sets one thread; the caller's 2, in either variable, is
    # kept (OPENBLAS_NUM_THREADS stays unset beside OMP_NUM_THREADS), and OpenBLAS uses it
    assert [report[1] for report in reports] == ["1", "2", "None"]
    if _HAS_PROC:
        assert reports[0][0] == "1"
        if len(os.sched_getaffinity(0)) >= 2:
            assert reports[1][0] == reports[2][0] == "2"


def test_agree_with_unknown_manifest_sentence_fails_in_one_line(fixtures_dir, tmp_path):
    manifest = tmp_path / "dups.tsv"
    manifest.write_text("sent_a\tsent_b\tbasis\talign_length\nnope\tnada\tchar-prefix\t3\n")
    done = _run_cli("agree", "--a", fixtures_dir / "ud", "--b", fixtures_dir / "lasla",
                    "--dups", manifest, "--out", tmp_path / "agreement.tsv")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr == "error: manifest pair ('nope', 'nada') not found in corpora\n"


def _with_extra_file(corpus, out, text):
    """A copy of a corpus directory with one more file."""
    out.mkdir()
    for file in corpus.glob("*.conllu"):
        (out / file.name).write_bytes(file.read_bytes())
    (out / "zz_extra.conllu").write_text(text)
    return out


# Sentences no manifest names, each with a conversion anomaly: a
# Traditional* key on a noun, and a two-valued Case.
EXTRA_UD = (
    "# sent_id = extra-ud-s1\n"
    "1\tamicus\tamicus\tNOUN\t_\tCase=Nom|Gender=Masc|Number=Sing\t_\t_\t_\tTraditionalMood=Ind\n"
    "2\tvenit\tvenio\tVERB\t_\tMood=Ind|Number=Sing|Person=3|Tense=Pres|Voice=Act\t_\t_\t_\t_\n"
)
EXTRA_LASLA = (
    "# sent_id = extra-lasla-s1\n"
    "1\tamici\tamicus\tNOUN\t_\tCase=Nom,Gen|Gender=Masc|Number=Plural\t_\t_\t_\t_\n"
    "2\tveniunt\tvenio\tVERB\t_\tMood=Ind|Number=Plural|Person=3|Tense=Pres|Voice=Act\t_\t_\t_\t_\n"
)


@pytest.mark.parametrize("exclude", [False, True])
def test_agree_ignores_sentences_the_manifest_does_not_name(workdir, fixtures_dir, tmp_path, exclude):
    ud = _with_extra_file(fixtures_dir / "ud", tmp_path / "ud", EXTRA_UD)
    lasla = _with_extra_file(fixtures_dir / "lasla", tmp_path / "lasla", EXTRA_LASLA)
    for corpus, flavor in ((ud, "ud"), (lasla, "lasla")):
        extra, _ = load_corpus(corpus / "zz_extra.conllu", flavor)
        assert convert_corpus(extra, flavor).anomalies
    flag = ["--exclude-anomalous"] if exclude else []
    for a, b, out in ((fixtures_dir / "ud", fixtures_dir / "lasla", "clean.tsv"), (ud, lasla, "extra.tsv")):
        assert main(["agree", "--a", str(a), "--b", str(b), "--dups", str(workdir / "dups.tsv"),
                     "--out", str(tmp_path / out), *flag]) == 0
    assert (tmp_path / "extra.tsv").read_bytes() == (tmp_path / "clean.tsv").read_bytes()
    if not exclude:
        assert (tmp_path / "clean.tsv").read_bytes() == (workdir / "agreement.tsv").read_bytes()


@pytest.mark.parametrize("missing", ["a", "b", "both", "swapped"])
def test_agree_names_the_first_manifest_pair_it_cannot_find(workdir, fixtures_dir, tmp_path,
                                                            capsys, missing):
    header, *rows = (workdir / "dups.tsv").read_text().splitlines(keepends=True)
    sent_a, sent_b, *rest = rows[1].split("\t")
    # each column names a sentence of its own corpus, so a swapped pair is absent too
    bad = {
        "a": ("nope", sent_b),
        "b": (sent_a, "nada"),
        "both": ("nope", "nada"),
        "swapped": (sent_b, sent_a),
    }[missing]
    manifest = tmp_path / "dups.tsv"
    manifest.write_text(header + rows[0] + "\t".join([*bad, *rest]) + "".join(rows[2:]))
    assert main(["agree", "--a", str(fixtures_dir / "ud"), "--b", str(fixtures_dir / "lasla"),
                 "--dups", str(manifest), "--out", str(tmp_path / "agreement.tsv")]) == 1
    assert capsys.readouterr().err == f"error: manifest pair {bad!r} not found in corpora\n"
    assert not (tmp_path / "agreement.tsv").exists()


def test_agree_with_an_align_length_the_corpora_do_not_give_fails_in_one_line(
        workdir, fixtures_dir, tmp_path):
    header, first, *rows = (workdir / "dups.tsv").read_text().splitlines(keepends=True)
    sent_a, sent_b, basis, length = first.rstrip("\n").split("\t")
    manifest = tmp_path / "dups.tsv"
    manifest.write_text(header + f"{sent_a}\t{sent_b}\t{basis}\t{int(length) + 1}\n" + "".join(rows))
    done = _run_cli("agree", "--a", fixtures_dir / "ud", "--b", fixtures_dir / "lasla",
                    "--dups", manifest, "--out", tmp_path / "agreement.tsv")
    assert done.returncode == 1
    assert done.stderr == (
        f"error: manifest pair ({sent_a!r}, {sent_b!r}) has align_length {int(length) + 1}, "
        f"but the corpora align {length} tokens\n"
    )
    assert not (tmp_path / "agreement.tsv").exists()


def test_split_keeps_the_ids_of_sentences_without_a_sent_id_comment(workdir, fixtures_dir, tmp_path):
    # the converted UD corpus with every "# sent_id" line removed: each
    # sentence keeps its "# text" comment and is read as <stem>-<n>
    ud = tmp_path / "ud"
    ud.mkdir()
    for file in sorted((workdir / "std" / "ud").glob("*.conllu")):
        lines = file.read_text().splitlines(keepends=True)
        (ud / file.name).write_text("".join(line for line in lines if not line.startswith("# sent_id")))
    ids = {s.sent_id for s in load_corpus(ud, "ud")[0]}
    assert "cl_alpha-1" in ids
    dups = tmp_path / "dups.tsv"
    dups.write_text("sent_a\tsent_b\tbasis\talign_length\n")
    assert main(["split", "--ud", str(ud), "--metadata", str(fixtures_dir / "metadata.tsv"),
                 "--dups", str(dups), "--out", str(tmp_path / "splits"),
                 "--config", str(fixtures_dir / "config.json"), "--no-published", "--seed", "7"]) == 0
    periods = sorted(tmp_path.joinpath("splits").glob("*.manifest.json"))
    assert periods
    for path in periods:
        manifest = json.loads(path.read_text())
        period_dir = tmp_path / "splits" / manifest["period"]
        dev = [s.sent_id for s in parse_conllu_file(period_dir / "dev.conllu")]
        assert dev and sorted(dev) == manifest["dev_sentences"]
        for name in ("train", "test"):
            assert {s.sent_id for s in parse_conllu_file(period_dir / f"{name}.conllu")} <= ids


@pytest.mark.parametrize("command", ["convert", "lint", "eval"])
def test_convert_and_lint_load_no_split_dedup_or_numpy_code(workdir, fixtures_dir, tmp_path, command):
    probe = ("import sys\n"
             "from latintb.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(sorted(m for m in ('latintb.splits', 'latintb.dedup', 'numpy') if m in sys.modules),\n"
             "      file=sys.stderr)\n"
             "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_src_path(), os.environ.get("PYTHONPATH")])))
    if command == "eval":
        converted = str(workdir / "std" / "ud")
        args = ["--gold", converted, "--pred", converted, "--out", str(tmp_path / "eval.json")]
    else:
        args = ["--in", str(fixtures_dir / "ud"), "--flavor", "ud", "--out", str(tmp_path / "out")]
    done = subprocess.run(
        [sys.executable, "-c", probe, command, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    # eval prints its table to stdout, so the probe reports on stderr
    assert (done.returncode, done.stderr) == (0, "[]\n")
    assert done.stdout.startswith("tokens scored") if command == "eval" else done.stdout == ""


def test_split_with_work_missing_from_metadata_fails_in_one_line(workdir, fixtures_dir, tmp_path):
    metadata = tmp_path / "metadata.tsv"
    lines = (fixtures_dir / "metadata.tsv").read_text().splitlines(keepends=True)
    metadata.write_text("".join(l for l in lines if "\tcl_alpha\t" not in l))
    done = _run_cli("split", "--ud", workdir / "std" / "ud", "--metadata", metadata,
                    "--dups", workdir / "dups.tsv", "--out", tmp_path / "splits",
                    "--no-published")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr == "error: work 'cl_alpha' has no metadata row\n"


def test_convert_reads_a_single_file_whatever_its_suffix(workdir, fixtures_dir, tmp_path):
    source = tmp_path / "x.txt"
    source.write_bytes((fixtures_dir / "ud" / "cl_alpha.conllu").read_bytes())
    assert main(["convert", "--in", str(source), "--flavor", "ud",
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "x.txt").read_bytes() == (
        workdir / "std" / "ud" / "cl_alpha.conllu"
    ).read_bytes()
    assert read_table(tmp_path / "out" / "harmonization_audit.tsv", AUDIT_HEADER, list)


def test_reports_carry_provenance_footer(workdir):
    text = (workdir / "dups.tsv").read_text()
    assert text.rstrip().splitlines()[-1].startswith("# latintb=")


# Outputs of eval and perm-test on the fixture split, pinned byte for
# byte: a change to the scoring core must not move a single digit.
EVAL_REPORT_SHA256 = "56de8d2c9ef2b636d3bfacdaba3cd6e1d829ec6b7e0378c501e491599453a904"
PERM_TEST_ROWS = {
    "morph-acc": "morph-acc\t0.064815\t0.0026\t5000\t7",
    "upos-macro-f1": "upos-macro-f1\t0.091987\t0.0004\t5000\t7",
    "macro-f1:Case": "macro-f1:Case\t0.102774\t0.0002\t5000\t7",
    "value-f1:Mood=Sub": "value-f1:Mood=Sub\t0.000000\t1.0000\t5000\t7",
    # the two systems differ on Case=Acc; no record of the three files carries Case=Voc
    "value-f1:Case=Acc": "value-f1:Case=Acc\t0.173012\t0.0032\t5000\t7",
    "value-f1:Case=Voc": "value-f1:Case=Voc\t0.000000\t1.0000\t5000\t7",
}


def test_eval_and_perm_test_outputs_are_pinned(workdir, tmp_path):
    gold = workdir / "splits" / "Classical-UD" / "test.conllu"
    pred_a = tmp_path / "a.conllu"
    pred_b = tmp_path / "b.conllu"
    _write_predictions(gold, pred_a, pred_b)
    report = tmp_path / "eval.json"
    assert main(["eval", "--gold", str(gold), "--pred", str(pred_a),
                 "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == EVAL_REPORT_SHA256
    for metric, row in PERM_TEST_ROWS.items():
        out = tmp_path / "perm.tsv"
        assert main(["perm-test", "--gold", str(gold), "--a", str(pred_a),
                     "--b", str(pred_b), "--metric", metric, "--n", "5000",
                     "--seed", "7", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == (
            "metric\tobserved_diff\tp_value\titerations\tseed\n"
            f"{row}\n"
            "# latintb=0.1.0 seed=7 config=default\n"
        )


# The convert outputs of both fixture corpora, pinned byte for byte:
# the sha256 of `sha256sum *` run in each output directory.
CONVERT_TREE_SHA256 = {
    "ud": "25f33661e43e67016c822a91bec60ab5add4ef22cce6fdbfb82b0d42339839fb",
    "lasla": "e65c882dc007f1393fe761077779f3ee29a766bd7237d73a72367da02ca44a2e",
}


def _tree_sha256(root: Path) -> str:
    """The sha256 of `sha256sum` over every file under root, by relative path."""
    files = sorted(p for p in root.rglob("*") if p.is_file())
    listing = "".join(
        f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.relative_to(root).as_posix()}\n"
        for f in files
    )
    return hashlib.sha256(listing.encode()).hexdigest()


@pytest.mark.parametrize("flavor", sorted(CONVERT_TREE_SHA256))
def test_convert_outputs_are_pinned(workdir, flavor):
    assert _tree_sha256(workdir / "std" / flavor) == CONVERT_TREE_SHA256[flavor]


# The dedup, agree and split outputs of the fixture pipeline, pinned byte
# for byte; "splits" is the whole tree: manifests, split files and audit.
PIPELINE_SHA256 = {
    "agreement.tsv": "2c03054e24a886d8d34e4f8355546e1bfccad13e66f9008e50a250556e8c34ff",
    "dup_report.tsv": "fd0b2c5eff99adfe3ef9f91b388a6f73ba981cac2e9e923ee95c32f935f7e77f",
    "dups.tsv": "0f2e19d791b595b84d883776f4d321c665b15ed4bee171eca181d59fffda844e",
    "splits": "c7eca0384a925f5f3cbe1904d2d37ef33a02f65b7f2d72f8ac10c05daafc8a4e",
}


@pytest.mark.parametrize("name", sorted(PIPELINE_SHA256))
def test_pipeline_outputs_are_pinned(workdir, name):
    path = workdir / name
    digest = _tree_sha256(path) if path.is_dir() else hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PIPELINE_SHA256[name]


# The whole output tree of scripts/run_fixture_pipeline.sh (every
# subcommand and scripts/predict_baseline.py), pinned byte for byte.
DEMO_TREE_FILES = 44
DEMO_TREE_SHA256 = "d62aca38d6c01dc65b60f677b0a5c91ad78d09140bee06abe0ce4e90ac2133ec"


def test_the_fixture_pipeline_script_output_is_pinned(tmp_path):
    script = Path(__file__).parents[1] / "scripts" / "run_fixture_pipeline.sh"
    # the script runs python3: make that this interpreter
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "python3").symlink_to(sys.executable)
    env = dict(os.environ, PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]))
    out = tmp_path / "demo"
    done = subprocess.run(["bash", str(script), str(out)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert sum(p.is_file() for p in out.rglob("*")) == DEMO_TREE_FILES
    assert _tree_sha256(out) == DEMO_TREE_SHA256


def test_a_sentence_id_shared_by_two_files_fails_in_one_line(fixtures_dir, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("a", "b"):
        (corpus / f"{name}.conllu").write_text(f"# sent_id = s1\n1\t{name}\t{name}\tNOUN\t_\t_\t_\t_\t_\t_\n")
    for command, out in (("lint", tmp_path / "lint.tsv"), ("convert", tmp_path / "std")):
        done = _run_cli(command, "--in", corpus, "--flavor", "ud", "--out", out)
        assert done.returncode == 1
        assert done.stderr == (
            f"error: sentence id 's1' appears in {corpus / 'a.conllu'} and in {corpus / 'b.conllu'}\n"
        )
        assert not out.exists()


def test_lasla_mapping_column_outside_the_row_is_a_config_error(fixtures_dir, tmp_path):
    config = tmp_path / "config.json"
    columns = {"id": 0, "form": 1, "lemma": 2, "upos": 3, "feats": 5}
    for mapping, message in (
        ({"columns": {**columns, "feats": 12}}, "column 12 of field 'feats' is outside 0..9"),
        # a misspelled field would otherwise be read by nothing
        ({"columns": {**columns, "lemmas": 7}},
         "'lemmas' is not a CoNLL-U field; fields are id, form, lemma, upos, "
         "xpos, feats, head, deprel, deps, misc"),
        ({"columns": [1, 2]}, "lasla_mapping.columns must be a JSON object of integers, got [1, 2]"),
        # true would otherwise be read as column 1
        ({"columns": {**columns, "feats": True}},
         "lasla_mapping.columns must be a JSON object of integers, got "
         + json.dumps({**columns, "feats": True})),
    ):
        config.write_text(json.dumps({"lasla_mapping": mapping}))
        done = _run_cli("lint", "--in", fixtures_dir / "lasla", "--flavor", "lasla",
                        "--config", config, "--out", tmp_path / "lint.tsv")
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr == f"config error: {message}\n"


@pytest.mark.parametrize("table, shown", [(["Fut,Imp"], '["Fut,Imp"]'), ("x", '"x"')],
                         ids=["array", "string"])
def test_tense_table_of_the_wrong_shape_is_a_config_error(fixtures_dir, tmp_path, table, shown):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tense_table": table}))
    done = _run_cli("lint", "--in", fixtures_dir / "ud", "--config", config,
                    "--out", tmp_path / "lint.tsv")
    assert done.returncode == 2
    assert done.stderr == (
        f"config error: tense_table must be a JSON object of strings or nulls, got {shown}\n"
    )
    assert not (tmp_path / "lint.tsv").exists()


def test_split_rejects_a_sentence_id_in_both_corpora(fixtures_dir, tmp_path):
    ud, lasla = tmp_path / "ud", tmp_path / "lasla"
    for corpus, stem, ids in ((ud, "cl_alpha", ("s1", "s2")), (lasla, "lasla_alpha", ("s2",))):
        corpus.mkdir()
        (corpus / f"{stem}.conllu").write_text("\n".join(
            f"# sent_id = {sent_id}\n1\tverba\tuerbum\tNOUN\t_\tCase=Nom\t_\t_\t_\t_\n"
            for sent_id in ids
        ))
    dups = tmp_path / "dups.tsv"
    dups.write_text("sent_a\tsent_b\tbasis\talign_length\n")
    done = _run_cli("split", "--ud", ud, "--lasla", lasla, "--metadata",
                    fixtures_dir / "metadata.tsv", "--dups", dups,
                    "--out", tmp_path / "splits", "--no-published")
    assert done.returncode == 1
    assert done.stderr == "error: sentence id 's2' is in both the UD and the LASLA corpus\n"
    assert not (tmp_path / "splits").exists()


def test_split_that_cannot_reach_the_test_floor_is_infeasible(workdir, fixtures_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"min_test_sentences": 100000}')
    done = _run_cli("split", "--ud", workdir / "std" / "ud", "--lasla", workdir / "std" / "lasla",
                    "--metadata", fixtures_dir / "metadata.tsv", "--dups", workdir / "dups.tsv",
                    "--out", tmp_path / "splits", "--config", config, "--no-published")
    assert done.returncode == 1
    assert done.stderr.startswith("infeasible: [test-min-size] period ")
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")
    assert not (tmp_path / "splits").exists()


def test_split_reads_converted_lasla_whatever_its_raw_mapping(fixtures_dir, tmp_path):
    # convert writes ten-column CoNLL-U, so a six-column raw LASLA mapping
    # must not be applied to what split reads
    lasla = tmp_path / "lasla"
    lasla.mkdir()
    rows = (fixtures_dir / "lasla" / "lasla_alpha.conllu").read_text().splitlines()
    (lasla / "lasla_alpha.conllu").write_text("".join(
        ("\t".join(row.split("\t")[:6]) if row and not row.startswith("#") else row) + "\n"
        for row in rows
    ))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"min_test_sentences": 30, "lasla_mapping": {"n_columns": 6}}))
    ud, std = fixtures_dir / "ud", tmp_path / "std"
    for argv in (
        ("convert", "--in", ud, "--flavor", "ud", "--out", std / "ud"),
        ("convert", "--in", lasla, "--flavor", "lasla", "--out", std / "lasla"),
        ("dedup", "--a", ud, "--b", lasla, "--out", tmp_path / "dups.tsv"),
        ("split", "--ud", std / "ud", "--lasla", std / "lasla",
         "--metadata", fixtures_dir / "metadata.tsv", "--dups", tmp_path / "dups.tsv",
         "--out", tmp_path / "splits", "--no-published", "--seed", "7"),
    ):
        done = _run_cli(*argv, "--config", config)
        assert "Traceback" not in done.stderr
        assert (done.returncode, done.stderr) == (0, ""), argv[0]
    assert (tmp_path / "splits" / "split_audit.tsv").is_file()


def test_importing_the_cli_does_not_import_numpy():
    done = subprocess.run(
        [sys.executable, "-c", 'import latintb.cli, sys; print("numpy" in sys.modules)'],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=_src_path()),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_version_runs_without_numpy(tmp_path):
    (tmp_path / "numpy.py").write_text('raise ImportError("numpy is not available")\n')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), _src_path()]))
    done = subprocess.run([sys.executable, "-m", "latintb.cli", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"latintb {latintb.__version__}\n"


def test_eval_runs_without_numpy(workdir, tmp_path):
    gold = workdir / "splits" / "Classical-UD" / "test.conllu"
    pred_a, pred_b = tmp_path / "a.conllu", tmp_path / "b.conllu"
    _write_predictions(gold, pred_a, pred_b)
    (tmp_path / "numpy.py").write_text('raise ImportError("numpy is not available")\n')
    reports = []
    for name, pythonpath in (("plain", [_src_path()]), ("no-numpy", [str(tmp_path), _src_path()])):
        reports.append(tmp_path / f"{name}.json")
        done = subprocess.run(
            [sys.executable, "-m", "latintb.cli", "eval", "--gold", str(gold), "--pred", str(pred_a),
             "--out", str(reports[-1])],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath)),
        )
        assert (done.returncode, done.stderr) == (0, ""), name
    assert reports[0].read_bytes() == reports[1].read_bytes()
    assert hashlib.sha256(reports[1].read_bytes()).hexdigest() == EVAL_REPORT_SHA256


def test_cli_runs_without_importlib_resources_abc():
    # Python 3.10, which pyproject.toml allows, has no importlib.resources.abc.
    code = (
        "import importlib.abc, sys\n"
        "class Block(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path, target=None):\n"
        "        if name == 'importlib.resources.abc':\n"
        "            raise ModuleNotFoundError(name)\n"
        "sys.modules.pop('importlib.resources.abc', None)\n"
        "sys.meta_path.insert(0, Block())\n"
        "import latintb.cli, latintb.splits\n"
        "print(len(latintb.splits.load_published_assignment()) > 0)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=_src_path()))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


def test_config_value_of_the_wrong_type_fails_in_one_line(fixtures_dir, tmp_path):
    config = tmp_path / "config.json"
    for document, message in (
        ('{"pronoun_person_repair": "false"}', 'pronoun_person_repair must be true or false, got "false"'),
        ('{"dev_fraction": 2}', "dev_fraction must be a JSON number in [0, 1], got 2"),
        ('{"tense_table": {"Pres,Imp": "Xyz"}}', "tense/aspect table maps ('Pres', 'Imp') to unknown 'Xyz'"),
    ):
        config.write_text(document)
        done = _run_cli("convert", "--in", fixtures_dir / "lasla", "--flavor", "lasla",
                        "--config", config, "--out", tmp_path / "out")
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr == f"config error: {message}\n"


def test_harmonization_audit_lists_the_pronoun_person_repair(fixtures_dir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"pronoun_person_repair": true}')
    assert main(["convert", "--in", str(fixtures_dir / "lasla"), "--flavor", "lasla",
                 "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    rows = read_table(tmp_path / "out" / "harmonization_audit.tsv", AUDIT_HEADER, list)
    listed = sum(int(count) for _, rule, count in rows if rule == RULE_PRON_PERSON)
    sentences, _ = load_corpus(fixtures_dir / "lasla", "lasla")
    converted = convert_corpus(sentences, "lasla", ToolConfig(pronoun_person_repair=True))
    assert listed == converted.audit[RULE_PRON_PERSON] > 0


# Malformed and unusual inputs, each run in a fresh interpreter: every
# case has its exit code, and none may end in a traceback.


def _convert_ud(source, out):
    done = _run_cli("convert", "--in", source, "--flavor", "ud", "--out", out)
    assert "Traceback" not in done.stderr
    return done


# a directory without a .conllu file is an error: see test_exit_codes.py
@pytest.mark.parametrize("kind", ["file"])
def test_convert_of_empty_input_writes_reports_without_rows(tmp_path, kind):
    source = tmp_path / "empty.conllu"
    source.write_text("")
    done = _convert_ud(source, tmp_path / "out")
    assert done.returncode == 0
    footer = f"# latintb={latintb.__version__} seed=0 config=default\n"
    assert (tmp_path / "out" / "harmonization_audit.tsv").read_text() == (
        "corpus\trule_id\ttokens_affected\n" + footer
    )
    assert (tmp_path / "out" / "anomalies.tsv").read_text() == "sent_id\ttoken_id\tcode\n" + footer


@pytest.mark.parametrize("variant", ["crlf", "no-final-newline", "bom"])
def test_convert_output_ignores_line_endings_and_byte_order_mark(fixtures_dir, tmp_path, variant):
    clean = (fixtures_dir / "ud" / "cl_alpha.conllu").read_bytes()
    altered = {
        "crlf": clean.replace(b"\n", b"\r\n"),
        "no-final-newline": clean.rstrip(b"\n"),
        "bom": codecs.BOM_UTF8 + clean,
    }[variant]
    for name, data in (("clean", clean), (variant, altered)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "cl_alpha.conllu").write_bytes(data)
        assert _convert_ud(tmp_path / name, tmp_path / f"{name}-out").returncode == 0
    for output in ("cl_alpha.conllu", "harmonization_audit.tsv", "anomalies.tsv"):
        assert (tmp_path / f"{variant}-out" / output).read_bytes() == (
            tmp_path / "clean-out" / output
        ).read_bytes()


def test_truncated_token_line_fails_in_one_line_naming_it(fixtures_dir, tmp_path):
    lines = (fixtures_dir / "ud" / "cl_alpha.conllu").read_text().splitlines(keepends=True)
    # line 4 is the second token line of the first sentence
    lines[3] = "\t".join(lines[3].split("\t")[:3]) + "\n"
    source = tmp_path / "cl_alpha.conllu"
    source.write_text("".join(lines))
    done = _convert_ud(source, tmp_path / "out")
    assert done.returncode == 1
    assert done.stderr == (
        f"error: {source}: line 4 (sentence 'cl_alpha-s1'): expected 10 columns, got 3\n"
    )


@pytest.mark.parametrize("command", ["eval", "dedup", "convert"])
def test_a_malformed_line_is_named_with_its_file(tmp_path, capsys, command):
    # good files on both sides of the bad one in a directory of several
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("a", "b", "c"):
        (corpus / f"{name}.conllu").write_text(SENTENCE.format(f"{name}1", "Case=Nom"))
    bad = corpus / "b.conllu"
    bad.write_text(SENTENCE.format("b1", "Case=Nom") + "# sent_id = b2\n1\tx\n")
    good = corpus / "a.conllu"
    argv = {
        "eval": ["eval", "--gold", good, "--pred", bad],
        "dedup": ["dedup", "--a", good, "--b", corpus, "--b-flavor", "ud",
                  "--out", tmp_path / "dups.tsv"],
        "convert": ["convert", "--in", corpus, "--flavor", "ud", "--out", tmp_path / "std"],
    }[command]
    assert main(list(map(str, argv))) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: line 5 (sentence 'b2'): expected 10 columns, got 2\n"
    )


def test_a_feature_name_holding_a_comma_fails_in_one_line(tmp_path, capsys):
    gold, pred = tmp_path / "gold.conllu", tmp_path / "pred.conllu"
    gold.write_text(SENTENCE.format("s1", "Case=Nom"))
    pred.write_text(SENTENCE.format("s1", "Ca,se=Nom"))
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
    assert capsys.readouterr().err == (
        f"error: {pred}: line 2 (sentence 's1'): feature name 'Ca,se' contains structural characters\n"
    )


def test_bad_manifest_row_fails_in_one_line_naming_file_and_line(fixtures_dir, tmp_path):
    manifest = tmp_path / "dups.tsv"
    manifest.write_text("sent_a\tsent_b\tbasis\talign_length\ncl_alpha-s1\tlasla_alpha-s1\tchar-prefix\n")
    done = _run_cli("agree", "--a", fixtures_dir / "ud", "--b", fixtures_dir / "lasla",
                    "--dups", manifest, "--out", tmp_path / "agreement.tsv")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr == (
        f"error: {manifest} line 2: expected sent_a, sent_b, basis and an integer length, "
        "tab-separated, got 'cl_alpha-s1\\tlasla_alpha-s1\\tchar-prefix'\n"
    )


# The three hand-kept tables, each through the subcommand that reads it.
TABLES = ("metadata", "manifest", "published")


def _clean_table(table, fixtures_dir, workdir) -> bytes:
    if table == "metadata":
        return (fixtures_dir / "metadata.tsv").read_bytes()
    if table == "manifest":
        return (workdir / "dups.tsv").read_bytes()
    return (Path(latintb.__file__).parent / "data" / "published_split_assignment.tsv").read_bytes()


def _read_table_through_cli(table, path, out, fixtures_dir, workdir):
    if table == "metadata":
        done = _run_cli("metadata-validate", "--file", path)
    elif table == "manifest":
        done = _run_cli("agree", "--a", fixtures_dir / "ud", "--b", fixtures_dir / "lasla",
                        "--dups", path, "--out", out / "agreement.tsv")
    else:
        done = _run_cli("split", "--ud", workdir / "std" / "ud", "--lasla", workdir / "std" / "lasla",
                        "--metadata", fixtures_dir / "metadata.tsv", "--dups", workdir / "dups.tsv",
                        "--config", fixtures_dir / "config.json", "--published-assignment", path,
                        "--out", out)
    assert "Traceback" not in done.stderr
    return done


@pytest.mark.parametrize("table", TABLES)
def test_table_input_ignores_line_endings_and_byte_order_mark(workdir, fixtures_dir, tmp_path, table):
    clean = _clean_table(table, fixtures_dir, workdir)
    results = {}
    for variant, data in (("clean", clean), ("crlf", clean.replace(b"\n", b"\r\n")),
                          ("bom", codecs.BOM_UTF8 + clean)):
        (tmp_path / variant).mkdir()
        (tmp_path / variant / "table.tsv").write_bytes(data)
        out = tmp_path / variant / "out"
        out.mkdir()
        done = _read_table_through_cli(table, tmp_path / variant / "table.tsv", out,
                                       fixtures_dir, workdir)
        artifacts = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        results[variant] = (done.returncode, done.stdout, done.stderr, artifacts)
    assert results["clean"][0] == 0
    assert results["crlf"] == results["clean"]
    assert results["bom"] == results["clean"]


def _malformed(lines: list[str], fault: str) -> tuple[list[str], int]:
    """The table with one fault, and the file line that holds it."""
    cells = lines[1].split("\t")
    if fault == "wrong-header":
        return [lines[0].upper(), *lines[1:]], 1
    if fault == "short-row":
        return [lines[0], "\t".join(cells[:-1]), *lines[2:]], 2
    if fault == "repeated-work":
        # the first work again, on the other side of the split
        cells[2] = {"train": "test", "test": "train"}[cells[2]]
        return [*lines[:3], "\t".join(cells), *lines[3:]], 4
    return [lines[0], "\t".join([*cells[:-1], "many"]), *lines[2:]], 2


MALFORMED_TABLES = [
    *((table, fault) for table in TABLES for fault in ("short-row", "bad-integer", "wrong-header")),
    ("published", "repeated-work"),
]


@pytest.mark.parametrize("table, fault", MALFORMED_TABLES, ids=[f"{t}-{f}" for t, f in MALFORMED_TABLES])
def test_malformed_table_fails_in_one_line_naming_file_and_line(
    workdir, fixtures_dir, tmp_path, table, fault
):
    lines = _clean_table(table, fixtures_dir, workdir).decode("utf-8").splitlines()
    lines, number = _malformed(lines, fault)
    path = tmp_path / "table.tsv"
    path.write_text("\n".join(lines) + "\n")
    done = _read_table_through_cli(table, path, tmp_path, fixtures_dir, workdir)
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: {path} line {number}: ")
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")


# Paths that cannot be read or written as asked: each fails in one
# stderr line naming the path, exit 1 for a command's path and exit 2
# for the config's.


@pytest.mark.parametrize("command", ["dedup-out", "metadata-validate-file", "split-dups", "convert-out"])
def test_a_path_that_cannot_be_used_fails_in_one_line_naming_it(workdir, fixtures_dir, tmp_path, command):
    ud, lasla, meta = fixtures_dir / "ud", fixtures_dir / "lasla", fixtures_dir / "metadata.tsv"
    a_directory = tmp_path / "a-directory"
    a_directory.mkdir()
    a_file = tmp_path / "a-file"
    a_file.write_text("x\n")
    argv, path = {
        "dedup-out": (["dedup", "--a", ud, "--b", lasla, "--out", a_directory], a_directory),
        "metadata-validate-file": (["metadata-validate", "--file", a_directory], a_directory),
        "split-dups": (["split", "--ud", workdir / "std" / "ud", "--metadata", meta,
                        "--dups", a_directory, "--out", tmp_path / "splits", "--no-published"],
                       a_directory),
        "convert-out": (["convert", "--in", ud, "--flavor", "ud", "--out", a_file], a_file),
    }[command]
    done = _run_cli(*argv)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and f"'{path}'" in done.stderr
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")


@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_a_config_that_cannot_be_read_is_a_config_error(fixtures_dir, tmp_path, kind):
    config = tmp_path / "config.json"
    if kind == "directory":
        config.mkdir()
    else:
        config.write_bytes(b'{"min_test_sentences": 30}\xff\n')
    done = _run_cli("lint", "--in", fixtures_dir / "ud", "--config", config,
                    "--out", tmp_path / "lint.tsv")
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("config error: ") and str(config) in done.stderr
    assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n")
    assert not (tmp_path / "lint.tsv").exists()


def _token(i, form, lemma, upos, feats="_", misc="_"):
    return f"{i}\t{form}\t{lemma}\t{upos}\t_\t{feats}\t_\t_\t_\t{misc}\n"


# Sentences whose conversion keys repeat: supines with and without an iri,
# INTJ, and verbs whose MISC holds the traditional keys and other keys.
_REPEATING_KEYS = [
    [("amatum", "amo", "VERB", "VerbForm=Sup"), ("iri", "eo", "AUX", "VerbForm=Inf|Voice=Pass")],
    [("amatum", "amo", "VERB", "VerbForm=Sup"), ("it", "eo", "VERB", "Mood=Ind|Tense=Pres")],
    [("o", "o", "INTJ"), ("ego", "ego", "PRON", "Case=Nom|Number=Sing"),
     ("amabat", "amo", "VERB", "Aspect=Imp|Mood=Ind|Tense=Past",
      "SpaceAfter=No|TraditionalMood=Ind|TraditionalTense=Imp")],
    [("amabat", "amo", "VERB", "Aspect=Imp|Mood=Ind|Tense=Past", "TraditionalTense=Perf|Ref=1"),
     ("amandi", "amo", "VERB", "VerbForm=Ger|Voice=Pass", "TraditionalMood=Ger"), ("o", "o", "INTJ")],
]


def test_outputs_do_not_depend_on_the_hash_seed(fixtures_dir, tmp_path):
    ud, lasla, meta = fixtures_dir / "ud", fixtures_dir / "lasla", fixtures_dir / "metadata.tsv"
    repeating = tmp_path / "repeating"
    repeating.mkdir()
    for name in ("a", "b"):
        (repeating / f"{name}.conllu").write_text("".join(
            f"# sent_id = {name}-{n}\n" + "".join(_token(i, *t) for i, t in enumerate(tokens, 1)) + "\n"
            for n, tokens in enumerate(_REPEATING_KEYS * 3)
        ))
    # relative output paths, each interpreter run in its own directory
    runs = [
        ["convert", "--in", ud, "--flavor", "ud", "--out", "std/ud"],
        ["convert", "--in", lasla, "--flavor", "lasla", "--out", "std/lasla"],
        ["dedup", "--a", ud, "--b", lasla, "--out", "dups.tsv", "--report", "dup_report.tsv",
         "--metadata", meta],
        ["agree", "--a", ud, "--b", lasla, "--dups", "dups.tsv", "--out", "agreement.tsv"],
        ["split", "--ud", "std/ud", "--lasla", "std/lasla", "--metadata", meta, "--dups", "dups.tsv",
         "--out", "splits", "--config", fixtures_dir / "config.json", "--no-published", "--seed", "7"],
        ["convert", "--in", repeating, "--flavor", "ud", "--out", "repeating/ud"],
        ["convert", "--in", repeating, "--flavor", "lasla", "--out", "repeating/lasla"],
        ["lint", "--in", repeating, "--flavor", "ud", "--out", "repeating/lint.tsv"],
    ]
    code = (
        "import json, sys\n"
        "from latintb.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
    )
    trees = {}
    for hash_seed in ("0", "12345"):
        out = tmp_path / f"seed-{hash_seed}"
        out.mkdir()
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps([[str(a) for a in argv] for argv in runs])],
            cwd=out, capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=_src_path()),
        )
        assert done.returncode == 0, done.stderr
        trees[hash_seed] = {
            p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()
        }
    assert len(trees["0"]) > 30
    audit = trees["0"]["repeating/ud/harmonization_audit.tsv"]
    assert b"\tsup-voice\t" in audit and b"\tintj-to-part\t" in audit
    assert trees["0"] == trees["12345"]


def _script_entry() -> str:
    """The ``module:function`` that ``[project.scripts]`` installs as ``latintb``."""
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    [target] = re.findall(r'^latintb = "([\w.]+:\w+)"$', pyproject, re.MULTILINE)
    return target


def _launcher(kind: str) -> list[str]:
    """A fresh interpreter that runs the CLI as ``python -m`` does, or as the installed script."""
    if kind == "module":
        return [sys.executable, "-m", "latintb.cli"]
    module, function = _script_entry().split(":")
    return [sys.executable, "-c", f"import sys\nfrom {module} import {function}\nsys.exit({function}())"]


def _spawn(argv, stdout, unbuffered: bool, launcher: str = "module", **kwargs) -> subprocess.CompletedProcess:
    """A fresh CLI process with stdout sent to ``stdout``; block-buffered unless ``unbuffered``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_src_path(), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([*_launcher(launcher), *map(str, argv)],
                          stdout=stdout, env=env, timeout=120, check=False, **kwargs)


def _in_process(argv) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(arg) for arg in argv])
        except SystemExit as exc:  # argparse's --version, --help and usage errors
            code = exc.code
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


@pytest.mark.parametrize("launcher", ["module", "script"])
@pytest.mark.parametrize("case", ["eval", "perm-test", "metadata-violations", "lasla-warning",
                                  "version", "help", "usage-error", "config-error"])
def test_a_process_prints_every_byte_that_main_prints(workdir, tmp_path, monkeypatch, launcher, case):
    # stdout and stderr go to files with PYTHONUNBUFFERED unset, so stdout is block-buffered and
    # whatever the process printed is still in its buffer when main returns
    monkeypatch.setenv("COLUMNS", "80")  # argparse's --help width, here and in the child
    gold = workdir / "splits" / "Classical-UD" / "test.conllu"
    if case == "eval":
        _write_predictions(gold, tmp_path / "a.conllu", tmp_path / "b.conllu")
        argv = ["eval", "--gold", gold, "--pred", tmp_path / "a.conllu"]
    elif case == "perm-test":  # b is wrong everywhere, so the result line has a note
        for name, value in (("gold", "Nom"), ("a", "Nom"), ("b", "Acc")):
            (tmp_path / f"{name}.conllu").write_text("".join(
                f"# sent_id = s{i}\n1\tx\tx\tNOUN\t_\tCase={value}\t_\t_\t_\t_\n\n" for i in range(200)))
        argv = ["perm-test", "--gold", tmp_path / "gold.conllu", "--a", tmp_path / "a.conllu",
                "--b", tmp_path / "b.conllu", "--n", "1000", "--out", tmp_path / "perm.tsv"]
    elif case == "metadata-violations":
        (tmp_path / "meta.tsv").write_text(
            "treebank\twork_id\tauthor\tcentury\tis_bible\tgenres\ttrain_sents\tdev_sents\ttest_sents\n"
            "Other\tw\tA\t-1\tfalse\tspeech\t1\t0\t0\n")
        argv = ["metadata-validate", "--file", tmp_path / "meta.tsv"]
    elif case == "lasla-warning":  # Case=Erg lies outside LASLA's inventory
        (tmp_path / "w.conllu").write_text("# sent_id = w-1\n1\tpuer\tpuer\tNOUN\t_\tCase=Erg\t_\t_\t_\t_\n")
        argv = ["convert", "--in", tmp_path / "w.conllu", "--flavor", "lasla", "--out", tmp_path / "std"]
    else:
        argv = {"version": ["--version"], "help": ["--help"], "usage-error": ["eval", "--gold"],
                "config-error": ["lint", "--in", gold, "--config", tmp_path / "missing.json",
                                 "--out", tmp_path / "lint.tsv"]}[case]
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        done = _spawn(argv, stdout, unbuffered=False, stderr=stderr, launcher=launcher)
    code, printed, warned = _in_process(argv)
    assert (done.returncode, out.read_bytes(), err.read_bytes()) == (code, printed, warned)
    assert printed or warned
    assert code == {"metadata-violations": 1, "usage-error": 2, "config-error": 2}.get(case, 0)


@pytest.mark.parametrize("sink", ["full", "closed-pipe"])
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_failed_write_to_stdout_fails_in_one_line_and_keeps_the_outputs(workdir, tmp_path, sink, unbuffered):
    # unbuffered, main's print fails; buffered, the table waits in the buffer and the flush fails
    if sink == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    gold = workdir / "splits" / "Classical-UD" / "test.conllu"
    _write_predictions(gold, tmp_path / "a.conllu", tmp_path / "b.conllu")
    argv = ["eval", "--gold", gold, "--pred", tmp_path / "a.conllu"]
    assert main([*map(str, argv), "--out", str(tmp_path / "expected.json")]) == 0
    if sink == "full":
        stdout, error = os.open("/dev/full", os.O_WRONLY), errno.ENOSPC
    else:
        read, stdout = os.pipe()
        os.close(read)
        error = errno.EPIPE
    try:
        done = _spawn([*argv, "--out", tmp_path / "eval.json"], stdout, unbuffered, stderr=subprocess.PIPE)
    finally:
        os.close(stdout)
    assert (done.returncode, done.stderr.decode()) == (1, f"error: [Errno {error}] {os.strerror(error)}: 'stdout'\n")
    assert (tmp_path / "eval.json").read_bytes() == (tmp_path / "expected.json").read_bytes()


@pytest.mark.parametrize("sink", ["full", "closed-pipe"])
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_a_failed_write_of_the_version_or_the_help_fails_in_one_line(sink, unbuffered, flag):
    # argparse ignores a failed write; unbuffered, nothing is left for the flush to fail on
    if sink == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    if sink == "full":
        stdout, error = os.open("/dev/full", os.O_WRONLY), errno.ENOSPC
    else:
        read, stdout = os.pipe()
        os.close(read)
        error = errno.EPIPE
    try:
        done = _spawn([flag], stdout, unbuffered, stderr=subprocess.PIPE)
    finally:
        os.close(stdout)
    assert (done.returncode, done.stderr.decode()) == (1, f"error: [Errno {error}] {os.strerror(error)}: 'stdout'\n")


@pytest.mark.parametrize("case, code", [
    ("lasla-warning", 0), ("command-line", 1), ("usage-error", 2), ("validation-error", 1),
])
def test_a_failed_write_to_stderr_keeps_the_exit_code_and_the_outputs(tmp_path, case, code):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    erg = "# sent_id = w-1\n1\tpuer\tpuer\tNOUN\t_\tCase=Erg\t_\t_\t_\t_\n"  # outside LASLA's inventory
    (tmp_path / "w.conllu").write_text(erg)
    (tmp_path / "bad.conllu").write_text(erg.replace("NOUN", "NOPE"))
    (tmp_path / "meta.tsv").write_text(
        "treebank\twork_id\tauthor\tcentury\tis_bible\tgenres\ttrain_sents\tdev_sents\ttest_sents\n"
        "Other\tw\tA\t-1\tfalse\tspeech\t1\t0\t0\n")
    w = tmp_path / "w.conllu"
    argv = {
        "lasla-warning": ["convert", "--in", w, "--flavor", "lasla", "--out", tmp_path / "std"],
        "command-line": ["metadata-validate", "--file", tmp_path / "meta.tsv"],
        "usage-error": ["perm-test", "--gold", w, "--a", w, "--b", w, "--n", "0", "--out", tmp_path / "perm.tsv"],
        "validation-error": ["convert", "--in", tmp_path / "bad.conllu", "--flavor", "lasla",
                             "--out", tmp_path / "std"],
    }[case]
    stderr = os.open("/dev/full", os.O_WRONLY)
    try:
        done = _spawn(argv, subprocess.PIPE, unbuffered=False, stderr=stderr)
    finally:
        os.close(stderr)
    assert done.returncode == code
    if case == "lasla-warning":
        assert main([str(arg) for arg in argv[:-1]] + [str(tmp_path / "expected")]) == 0
        written = {p.name: p.read_bytes() for p in (tmp_path / "std").iterdir()}
        assert written == {p.name: p.read_bytes() for p in (tmp_path / "expected").iterdir()}
    else:
        assert not (tmp_path / "std").exists() and not (tmp_path / "perm.tsv").exists()


@pytest.mark.parametrize("closed", [1, 2], ids=["stdout", "stderr"])
def test_a_process_started_with_stdout_or_stderr_closed_exits_with_mains_code(workdir, tmp_path, closed):
    # Python then holds None for the stream, and print drops what it is given
    gold = workdir / "splits" / "Classical-UD" / "test.conllu"
    argv = ["eval", "--gold", gold, "--pred", gold, "--out", tmp_path / "eval.json"]
    done = _spawn(argv, subprocess.PIPE, unbuffered=False, stderr=subprocess.PIPE,
                  preexec_fn=lambda: os.close(closed))
    assert (done.returncode, (tmp_path / "eval.json").is_file()) == (0, True)
    assert done.stderr == b""
    assert done.stdout.startswith(b"tokens scored") if closed == 2 else done.stdout == b""


@pytest.mark.parametrize("main_body, code, stdout, in_stderr", [
    ("return 3", 3, "", ""),  # ended by os._exit: the atexit callback does not run
    ("raise ZeroDivisionError('boom')", 1, "atexit ran\n", "ZeroDivisionError: boom"),
    ("raise KeyboardInterrupt", -signal.SIGINT, "atexit ran\n", "KeyboardInterrupt"),
], ids=["code", "exception", "interrupt"])
def test_entry_ends_the_process_on_mains_code_and_lets_any_other_exception_exit_normally(
        main_body, code, stdout, in_stderr):
    probe = ("import atexit\n"
             "import latintb.cli as cli\n"
             "atexit.register(print, 'atexit ran')\n"
             f"def main():\n    {main_body}\n"
             "cli.main = main\n"
             "cli.entry()\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=_src_path()))
    assert (done.returncode, done.stdout) == (code, stdout)
    assert in_stderr in done.stderr and ("Traceback" in done.stderr) == bool(in_stderr)
