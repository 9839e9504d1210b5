"""The CLI's one-pass coding of gold and prediction files against the path
it replaced: each file's records through ``records_of`` with one memo, a
form-by-form ``check_alignment`` of each prediction file, and ``_Codes``
over the record lists. That path is kept here, as it was, as the oracle."""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from latintb.cli import Output, _naming, main
from latintb.config import ToolConfig
from latintb.conllu import CorpusReader
from latintb.evaluation import (
    AlignmentError,
    _Codes,
    evaluate,
    permutation_test,
    records_of,
)


def reference_check_alignment(gold, pred) -> None:
    if len(gold) != len(pred):
        raise AlignmentError(
            f"sentence count mismatch: gold {len(gold)}, predictions {len(pred)}"
        )
    for g, p in zip(gold, pred):
        if len(g.tokens) != len(p.tokens):
            raise AlignmentError(
                f"sentence {g.sent_id!r}: token count mismatch "
                f"({len(g.tokens)} vs {len(p.tokens)})"
            )
        for tg, tp in zip(g.tokens, p.tokens):
            if tg.form != tp.form:
                raise AlignmentError(
                    f"sentence {g.sent_id!r} token {tg.id}: form mismatch "
                    f"({tg.form!r} vs {tp.form!r})"
                )


class ReferenceCodes:
    """``_Codes`` as it was: aligned corpora of records only."""

    def __init__(self, *corpora):
        self.sentence_lengths = [len(s) for s in corpora[0]]
        if any([len(s) for s in c] != self.sentence_lengths for c in corpora[1:]):
            raise AlignmentError("gold and prediction records are not aligned")
        objects = {id(r): r for c in corpora for s in c for r in s}
        index = {}
        code = {key: index.setdefault(r, len(index)) for key, r in objects.items()}
        self.tokens = [[code[id(r)] for s in c for r in s] for c in corpora]
        self.records = list(index)


def reference_aligned_records(output, gold_path, *pred_paths):
    gold, *preds = corpora = output.read("ud", gold_path, *pred_paths)
    for path, pred in zip(pred_paths, preds):
        with _naming(path):
            reference_check_alignment(gold, pred)
    memo = {}
    records = []
    for path, corpus in zip((gold_path, *pred_paths), corpora):
        with _naming(path):
            records.append(records_of(corpus, memo))
    return records


FORMS = ("puer", "amat", "et")
UPOS = ("NOUN", "VERB", "ADJ")
FEATS = ("_", "Case=Nom", "Case=Acc|Number=Sing", "Gender=Fem,Masc|Number=Plur",
         "Mood=Ind|Person=3|Tense=Pres|Voice=Act", "Degree=Cmp")
# a feature outside the scheme, a value outside its inventory, a second value
OUT_OF_SCHEME = ("VerbForm=Fin", "Case=Erg", "Case=Acc,Nom")

labels = st.tuples(st.sampled_from(UPOS), st.sampled_from(FEATS))
tokens = st.tuples(st.sampled_from(FORMS), labels)
# gold: 1-4 sentences of 1-3 tokens from small pools, so lines repeat
golds = st.lists(st.lists(tokens, min_size=1, max_size=3), min_size=1, max_size=4)


def conllu(sentences) -> str:
    return "".join(
        "".join(f"{i}\t{form}\t{form}\t{upos}\t_\t{feats}\t_\t_\t_\t_\n"
                for i, (form, (upos, feats)) in enumerate(sentence, start=1)) + "\n"
        for sentence in sentences
    )


@st.composite
def predictions(draw, gold):
    """Gold's forms, each token keeping gold's labels (so the same line) or taking others."""
    return [[(form, label if draw(st.booleans()) else draw(labels)) for form, label in sentence]
            for sentence in gold]


@st.composite
def out_of_scheme(draw, corpus):
    """The corpus, with one token's FEATS, if any, put outside the scheme."""
    if not corpus or not draw(st.booleans()):
        return corpus
    corpus = [list(sentence) for sentence in corpus]
    sentence = draw(st.integers(0, len(corpus) - 1))
    token = draw(st.integers(0, len(corpus[sentence]) - 1))
    form, (upos, _) = corpus[sentence][token]
    corpus[sentence][token] = (form, (upos, draw(st.sampled_from(OUT_OF_SCHEME))))
    return corpus


@st.composite
def misaligned(draw, corpus):
    """The corpus as it is, or with a sentence dropped or added, a token
    added, or a form changed."""
    corpus = [list(sentence) for sentence in corpus]
    fault = draw(st.sampled_from(["none", "drop", "add-sentence", "add-token", "form"]))
    sentence = draw(st.integers(0, len(corpus) - 1))
    if fault == "drop":
        del corpus[sentence]
    elif fault == "add-sentence":
        corpus.insert(sentence, [draw(tokens)])
    elif fault == "add-token":
        corpus[sentence].append(draw(tokens))
    elif fault == "form":
        token = draw(st.integers(0, len(corpus[sentence]) - 1))
        _, label = corpus[sentence][token]
        corpus[sentence][token] = ("aliud", label)
    return corpus


def fields(codes):
    return codes.sentence_lengths, codes.tokens, codes.records


@settings(max_examples=300, deadline=None)
@given(st.data(), golds)
def test_one_pass_codes_equal_the_codes_of_each_files_records(data, gold):
    corpora = [data.draw(out_of_scheme(gold))]
    corpora += [data.draw(out_of_scheme(data.draw(predictions(gold))))
                for _ in range(data.draw(st.integers(1, 2)))]
    reader = CorpusReader()  # one reader, as the CLI reads gold and predictions
    read = [reader.read(conllu(corpus)) for corpus in corpora]
    memo = {}
    try:
        records = [records_of(corpus, memo) for corpus in read]
    except ValueError as exc:
        expected = exc
    else:
        expected = fields(ReferenceCodes(*records))
        # records, shared or not, code alike
        assert fields(_Codes(*records)) == expected
        assert fields(_Codes(*[records_of(corpus) for corpus in read])) == expected
    try:
        got = fields(_Codes(*([s.tokens for s in corpus] for corpus in read)))
    except ValueError as exc:
        # the first token outside the scheme, with its sentence named by records_of
        assert isinstance(expected, ValueError) and str(expected).endswith(f": {exc}")
    else:
        assert got == expected


def outcome(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def reference_outcome(command, paths) -> tuple[int, str, str]:
    """main's outcome through the reference path: its exit code, stdout and stderr."""
    try:
        records = reference_aligned_records(Output(ToolConfig(), 0, []), *paths)
    except ValueError as exc:
        return 1, "", f"error: {exc}\n"
    if command == "eval":
        return 0, evaluate(*records).format_table() + "\n", ""
    result = permutation_test(*records, iterations=20, seed=3)
    line = (f"metric={result.metric} observed_diff={result.observed_diff:.6f} "
            f"p={result.p_value:.4f} iterations={result.iterations} seed={result.seed}\n")
    return 0, line + (f"note: {result.note}\n" if result.note else ""), ""


def check_both_commands(gold, a, b) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("gold.conllu", "a.conllu", "b.conllu")]
        for path, corpus in zip(paths, (gold, a, b)):
            path.write_text(conllu(corpus), encoding="utf-8")
        gold_path, a_path, b_path = paths
        eval_argv = ["eval", "--gold", gold_path, "--pred", a_path]
        assert outcome(eval_argv) == reference_outcome("eval", paths[:2])
        perm_argv = ["perm-test", "--gold", gold_path, "--a", a_path, "--b", b_path,
                     "--n", "20", "--seed", "3"]
        assert outcome(perm_argv) == reference_outcome("perm-test", paths)


@settings(max_examples=150, deadline=None)
@given(st.data(), golds)
def test_a_malformed_input_fails_as_it_did(data, gold):
    gold_corpus = data.draw(out_of_scheme(gold))
    a, b = (data.draw(out_of_scheme(data.draw(misaligned(data.draw(predictions(gold))))))
            for _ in range(2))
    check_both_commands(gold_corpus, a, b)


NOM, ERG = ("puer", ("NOUN", "Case=Nom")), ("puer", ("NOUN", "Case=Erg"))
FIN, OTHER = ("amat", ("VERB", "VerbForm=Fin")), ("aliud", ("NOUN", "Case=Nom"))


@pytest.mark.parametrize("gold, a, b", [
    # b is out of line in its first sentence, a only in its second: a is named
    ([[NOM], [NOM, NOM]], [[NOM], [NOM, OTHER]], [[OTHER], [NOM, NOM]]),
    # a has a sentence too many, b a token out of line: a is named
    ([[NOM], [NOM]], [[NOM], [NOM], [NOM]], [[NOM, NOM], [NOM]]),
    # b is out of line, gold and a hold labels outside the scheme: b is named
    ([[ERG], [NOM]], [[NOM], [FIN]], [[NOM], [NOM, NOM]]),
    # every file aligned, labels outside the scheme in b, then a, then gold
    ([[NOM], [ERG]], [[FIN], [NOM]], [[ERG], [NOM]]),
    ([[NOM], [NOM]], [[NOM], [FIN]], [[ERG], [NOM]]),
], ids=["a-after-b", "count-then-token", "alignment-first", "gold-label-first", "a-label-first"])
def test_several_faults_at_once_fail_as_they_did(gold, a, b):
    check_both_commands(gold, a, b)
