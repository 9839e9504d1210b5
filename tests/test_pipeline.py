from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from latintb import pipeline
from latintb.cli import main
from latintb.config import ToolConfig
from latintb.conllu import parse_conllu, serialize_conllu
from latintb.harmonize import harmonize_sentence
from latintb.pipeline import (
    ConversionResult,
    convert_corpus,
    load_corpus,
    sentence_with_records,
)
from latintb.standardize import standardize_lasla, standardize_ud


def test_unknown_flavor_is_rejected(fixtures_dir, ud_corpus):
    with pytest.raises(ValueError, match="unknown flavor 'bogus'"):
        load_corpus(fixtures_dir / "ud", "bogus")
    with pytest.raises(ValueError, match="unknown flavor 'bogus'"):
        convert_corpus(ud_corpus[:1], "bogus")


def test_lasla_unknown_values_are_summed_over_files(fixtures_dir, tmp_path):
    for name in ("a", "b"):
        (tmp_path / f"{name}.conllu").write_text("1\tx\tx\tNOUN\t_\tCase=Erg\t_\t_\t_\t_\n")
    (tmp_path / "skipped.txt").write_text("not read\n")
    sentences, unknown = load_corpus(tmp_path, "lasla")
    assert [s.work_id for s in sentences] == ["a", "b"]
    assert unknown == {("Case", "Erg"): 2}


def reference_conversion(sentences, flavor, config):
    """convert_corpus without its memos: standardize every token,
    harmonize every sentence, rewrite every token."""
    standardize = {"ud": standardize_ud, "lasla": standardize_lasla}[flavor]
    # the MISC keys each standardizer reads, which conversion drops
    consumed = {"ud": ("TraditionalTense", "TraditionalMood"), "lasla": ()}[flavor]
    result = ConversionResult(sentences=[], records=[], audit=Counter(), anomalies=[])
    for sentence in sentences:
        records = harmonize_sentence(
            sentence,
            [standardize(t, tense_table=config.tense_table) for t in sentence.tokens],
            audit=result.audit,
            iri_window=config.iri_window,
            pronoun_person_repair=config.pronoun_person_repair,
        )
        for token, record in zip(sentence.tokens, records):
            result.anomalies.extend((sentence.sent_id, token.id, a) for a in record.anomalies)
        result.records.append(records)
        result.sentences.append(sentence_with_records(sentence, records, consumed))
    return result


def assert_same_conversion(sentences, flavor, config=None):
    config = config or ToolConfig()
    got = convert_corpus(sentences, flavor, config)
    want = reference_conversion(sentences, flavor, config)
    assert got.records == want.records
    assert got.anomalies == want.anomalies
    assert got.audit == want.audit
    assert got.sentences == want.sentences
    assert serialize_conllu(got.sentences) == serialize_conllu(want.sentences)
    return got


@pytest.mark.parametrize("config", [
    ToolConfig(),
    ToolConfig(iri_window=1, pronoun_person_repair=True),
], ids=["default", "window-1-pronoun-repair"])
@pytest.mark.parametrize("flavor", ["ud", "lasla"])
def test_convert_corpus_matches_the_unmemoized_reference(fixtures_dir, flavor, config):
    sentences, _ = load_corpus(fixtures_dir / flavor, flavor, config)
    assert assert_same_conversion(sentences, flavor, config).audit


def assert_same_conversions(batches, flavor, config):
    """One converter over several calls gives, call by call, what the
    unmemoized reference gives."""
    converter = pipeline.Converter(flavor, config)
    for sentences in batches:
        got = converter.convert(sentences)
        want = reference_conversion(sentences, flavor, config)
        assert got.records == want.records
        assert got.anomalies == want.anomalies
        assert list(got.audit.items()) == list(want.audit.items())
        assert got.sentences == want.sentences
        assert [[type(t) for t in s.tokens] for s in got.sentences] == [
            [type(t) for t in s.tokens] for s in want.sentences]
        assert serialize_conllu(got.sentences) == serialize_conllu(want.sentences)


# (form, lemma, UPOS, FEATS, MISC) of tokens whose conversion keys repeat:
# each harmonization rule, supines and the iri they read, pronouns with
# and without a Person, traditional MISC keys beside others
_KEYED_TOKENS = [
    ("o", "o", "INTJ", "_", "_"),
    ("est", "sum", "AUX", "Mood=Ind|Number=Sing|Person=3|Tense=Pres|Voice=Pass", "_"),
    ("amandi", "amo", "VERB", "Case=Gen|Number=Sing|VerbForm=Ger|Voice=Pass", "_"),
    ("amandus", "amo", "VERB", "Gender=Masc|Number=Sing|Tense=Pres|VerbForm=Gdv|Voice=Act", "_"),
    ("amandus", "amo", "VERB", "Gender=Masc|Number=Sing|VerbForm=Part", "TraditionalMood=Gdv"),
    ("amatum", "amo", "VERB", "Number=Sing|VerbForm=Sup", "_"),
    ("amatum", "amo", "VERB", "Case=Acc|VerbForm=Part|Voice=Act", "TraditionalMood=Sup|SpaceAfter=No"),
    ("iri", "eo", "AUX", "VerbForm=Inf|Voice=Pass", "_"),
    ("Iri", "eo", "VERB", "Tense=Pres|VerbForm=Inf", "_"),
    ("amare", "amo", "VERB", "Aspect=Imp|Number=Sing|VerbForm=Inf", "_"),
    ("ego", "ego", "PRON", "Case=Nom|Number=Sing", "_"),
    ("vos", "uos", "PRON", "Case=Acc|Number=Plur", "_"),
    ("is", "is", "PRON", "Case=Nom|Number=Sing", "_"),
    ("me", "ego", "PRON", "Case=Acc|Number=Sing|Person=1", "_"),
    ("amabat", "amo", "VERB", "Aspect=Imp|Mood=Ind|Tense=Past", "TraditionalTense=Perf|Ref=2"),
    ("amabat", "amo", "VERB", "Aspect=Imp|Mood=Ind|Tense=Past", "Ref=2"),
    ("amabat", "amo", "VERB", "Aspect=Imp|Mood=Ind|Tense=Past", "TraditionalTense"),
    ("amabat", "amo", "VERB", "Mood=Ind|Tense=Imp", "TraditionalTense=Imp|Ref=3"),  # FEATS kept
    ("puer", "puer", "NOUN", "Case=Erg|Gender=Masc,Fem|Number=Sing", "_"),
    ("puer", "puer", "NOUN", "Case=Nom|Gender=Masc|Number=Sing", "Gloss=boy"),
]
_KEYED_SENTENCES = st.lists(st.integers(0, len(_KEYED_TOKENS) - 1), min_size=1, max_size=8)


def _keyed_text(sentences, first):
    return "".join(
        f"# sent_id = s{n}\n" + "".join(
            "\t".join((str(i), *_KEYED_TOKENS[t][:3], "_", _KEYED_TOKENS[t][3], "_", "_", "_",
                       _KEYED_TOKENS[t][4])) + "\n"
            for i, t in enumerate(tokens, 1)
        ) + "\n"
        for n, tokens in enumerate(sentences, first)
    )


@settings(max_examples=150, deadline=None)
@given(
    flavor=st.sampled_from(["ud", "lasla"]),
    batches=st.lists(st.lists(_KEYED_SENTENCES, min_size=1, max_size=4), min_size=1, max_size=3),
    iri_window=st.sampled_from(["sentence", 1, 2]),
    pronoun_person_repair=st.booleans(),
)
def test_a_converter_over_several_calls_matches_the_unmemoized_reference(
        flavor, batches, iri_window, pronoun_person_repair):
    config = ToolConfig(iri_window=iri_window, pronoun_person_repair=pronoun_person_repair)
    reader = pipeline.corpus_reader(flavor, config)
    first, read = 0, []
    for sentences in batches:
        read.append(reader.read(_keyed_text(sentences, first), stem="k"))
        first += len(sentences)
    assert_same_conversions(read, flavor, config)


def _token_line(i, form, upos, feats, misc="_"):
    return f"{i}\t{form}\t{form}\t{upos}\t_\t{feats}\t_\t_\t_\t{misc}\n"


def test_shared_feats_with_different_traditional_misc_get_different_records():
    feats = "Aspect=Imp|Mood=Ind|Number=Sing|Person=3|Tense=Past|VerbForm=Fin|Voice=Act"
    miscs = ["_", "TraditionalTense=Perf", "TraditionalTense=Pqp", "TraditionalMood=Sub",
             "TraditionalTense=Xyz", "TraditionalTense=Perf"]
    sentences = parse_conllu("# sent_id = s\n" + "".join(
        _token_line(i, "amabat", "VERB", feats, misc) for i, misc in enumerate(miscs, start=1)
    ))
    tokens = sentences[0].tokens
    assert all(t.feats is tokens[0].feats for t in tokens)
    result = assert_same_conversion(sentences, "ud")
    records = result.records[0]
    assert len(set(records[:5])) == 5
    assert records[5] == records[1]
    assert [r.tense for r in records] == ["Imp", "Perf", "Pqp", "Imp", None, "Perf"]
    assert records[3].mood == "Sub"
    assert result.anomalies == [("s", 5, "UNKNOWN_FEATURE_VALUE")]


def test_same_supine_input_gets_voice_from_its_own_sentence():
    supine = _token_line(1, "amatum", "VERB", "VerbForm=Sup")
    sentences = parse_conllu(
        "# sent_id = with-iri\n" + supine + _token_line(2, "iri", "AUX", "VerbForm=Inf")
        + "\n# sent_id = without\n" + supine + _token_line(2, "eo", "VERB", "Mood=Ind")
    )
    assert sentences[0].tokens[0].feats is sentences[1].tokens[0].feats
    result = assert_same_conversion(sentences, "ud")
    assert [records[0].voice for records in result.records] == ["Pass", "Act"]


def test_convert_standardizes_each_distinct_input_once_across_files(tmp_path, monkeypatch):
    noun, verb = "Case=Nom|Gender=Fem|Number=Sing", "Mood=Ind|Number=Sing|Person=3|Tense=Pres"
    files = {
        "a": [("puella", "NOUN", noun), ("amat", "VERB", verb)],
        "b": [("rosa", "NOUN", noun), ("amat", "VERB", verb), ("via", "NOUN", "Case=Abl")],
    }
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, tokens in files.items():
        (corpus / f"{name}.conllu").write_text(f"# sent_id = {name}-1\n" + "".join(
            _token_line(i, *token) for i, token in enumerate(tokens, start=1)
        ))
    mapping, standardize, misc_keys = pipeline._FLAVORS["ud"]
    calls = []

    def counted(token, **kwargs):
        calls.append((token.upos, token.feats.to_string()))
        return standardize(token, **kwargs)

    monkeypatch.setitem(pipeline._FLAVORS, "ud", (mapping, counted, misc_keys))
    assert main(["convert", "--in", str(corpus), "--flavor", "ud",
                 "--out", str(tmp_path / "std")]) == 0
    distinct = {(upos, feats) for tokens in files.values() for _, upos, feats in tokens}
    assert sorted(calls) == sorted(distinct)
