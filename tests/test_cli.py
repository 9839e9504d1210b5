import codecs
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latintb
from latintb.baseline import predict_corpus
from latintb import evaluation
from latintb.cli import _aligned_records, main
from latintb.config import ToolConfig
from latintb.conllu import parse_conllu_file, write_conllu_file
from latintb.harmonize import RULE_PRON_PERSON
from latintb.pipeline import convert_corpus, load_corpus, sentence_with_records
from latintb.evaluation import records_of
from latintb.reports import read_table
from latintb.standardize import StandardRecord


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
    write_conllu_file(out_a, [sentence_with_records(s, r) for s, r in zip(gold, records)])
    degraded = [
        [StandardRecord(upos="NOUN") for _ in recs] if i % 3 == 0 else list(recs)
        for i, recs in enumerate(records)
    ]
    write_conllu_file(out_b, [sentence_with_records(s, r) for s, r in zip(gold, degraded)])


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
    corpora = []

    def recorded_records_of(sentences, memo=None):
        corpora.append(sentences)
        return records_of(sentences, memo)

    monkeypatch.setattr(evaluation, "records_of", recorded_records_of)
    (gold_s1, gold_s2), (pred_s1, pred_s2) = _aligned_records(ToolConfig(), gold, pred)
    assert pred_s1[0] is gold_s1[0]
    assert pred_s2[0] is not gold_s2[0]
    # an identical token line is one token in both files
    [(gold_t1,), (gold_t2,)], [(pred_t1,), (pred_t2,)] = ([s.tokens for s in c] for c in corpora)
    assert pred_t1 is gold_t1
    assert pred_t2 is not gold_t2
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 0
    assert "tokens scored        2" in capsys.readouterr().out


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
def test_a_sentence_id_holding_a_tab_is_refused_by_the_tsv_writer(tmp_path, capsys, command):
    # the id reaches a manifest row and a lint row, where it would shift a column
    words = "gallia est omnis divisa in partes tres quarum unam incolunt belgae".split()
    tokens = "".join(f"{i}\t{w}\tsum\tNOUN\t_\t_\t_\t_\t_\t_\n" for i, w in enumerate(words, 1))
    corpus = tmp_path / "ud.conllu"
    corpus.write_text(f"# sent_id = s\t1\n{tokens}\n")
    other = tmp_path / "other.conllu"
    other.write_text(f"# sent_id = o1\n{tokens}\n")
    out = tmp_path / "out.tsv"
    argv = {
        "dedup": ["dedup", "--a", corpus, "--b", other, "--b-flavor", "ud", "--out", out],
        "lint": ["lint", "--in", corpus, "--out", out],
    }[command]
    assert main(list(map(str, argv))) == 1
    assert capsys.readouterr().err == f"error: {out}: cell 's\\t1' holds a tab or a line break\n"
    assert not out.exists()


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_unknown_metric_is_usage_error(workdir, tmp_path):
    gold = workdir / "splits" / "Classical-UD" / "test.conllu"
    assert main(["perm-test", "--gold", str(gold), "--a", str(gold),
                 "--b", str(gold), "--metric", "nonsense"]) == 2


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


def test_agree_with_unknown_manifest_sentence_fails_in_one_line(fixtures_dir, tmp_path):
    manifest = tmp_path / "dups.tsv"
    manifest.write_text("sent_a\tsent_b\tbasis\talign_length\nnope\tnada\tprefix\t3\n")
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


@pytest.mark.parametrize("kind", ["file", "directory"])
def test_convert_of_empty_input_writes_reports_without_rows(tmp_path, kind):
    source = tmp_path / "empty.conllu"
    if kind == "file":
        source.write_text("")
    else:
        source.mkdir()
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


def test_outputs_do_not_depend_on_the_hash_seed(fixtures_dir, tmp_path):
    ud, lasla, meta = fixtures_dir / "ud", fixtures_dir / "lasla", fixtures_dir / "metadata.tsv"
    # relative output paths, each interpreter run in its own directory
    runs = [
        ["convert", "--in", ud, "--flavor", "ud", "--out", "std/ud"],
        ["convert", "--in", lasla, "--flavor", "lasla", "--out", "std/lasla"],
        ["dedup", "--a", ud, "--b", lasla, "--out", "dups.tsv", "--report", "dup_report.tsv",
         "--metadata", meta],
        ["agree", "--a", ud, "--b", lasla, "--dups", "dups.tsv", "--out", "agreement.tsv"],
        ["split", "--ud", "std/ud", "--lasla", "std/lasla", "--metadata", meta, "--dups", "dups.tsv",
         "--out", "splits", "--config", fixtures_dir / "config.json", "--no-published", "--seed", "7"],
    ]
    code = (
        "import json, sys\n"
        "from latintb.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
    )
    trees = {}
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
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
    assert trees["0"] == trees["12345"]
