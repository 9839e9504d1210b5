from collections import Counter

from hypothesis import given, strategies as st

from latintb.conllu import FeatureBundle, Sentence, Token
from latintb.harmonize import (
    RULE_AUX_VOICE,
    RULE_COLLAPSE_INTJ,
    RULE_GDV_VOICE,
    arbitrary_value_violations,
    collapse_upos,
    detect_iri_construction,
    enforce_arbitrary_values,
    harmonize_sentence,
    repair_pronoun_person,
)
from latintb.standardize import StandardRecord


def tok(i, form, upos="NOUN"):
    return Token(id=i, form=form, lemma=form, upos=upos, feats=FeatureBundle())


def test_gerund_loses_number_tense_gender_and_goes_active():
    record = StandardRecord(
        upos="VERB", mood="Ger", number="Sing", tense="Pres", voice="Pass",
        gender=("Neut",),
    )
    fixed = enforce_arbitrary_values(record)
    assert fixed.number is None
    assert fixed.tense is None
    assert fixed.gender == ()
    assert fixed.voice == "Act"
    assert fixed.mood == "Ger"


def test_aux_forced_active():
    record = StandardRecord(upos="AUX", mood="Ind", tense="Pres", voice="Pass")
    assert enforce_arbitrary_values(record).voice == "Act"


def test_gerundive_goes_passive_but_keeps_agreement():
    record = StandardRecord(
        upos="VERB", mood="Gdv", number="Plur", gender=("Fem",), case="Acc",
        tense="Pres", voice="Act",
    )
    fixed = enforce_arbitrary_values(record)
    assert fixed.voice == "Pass"
    assert fixed.tense is None
    assert fixed.number == "Plur"
    assert fixed.gender == ("Fem",)


def test_supine_voice_depends_on_iri():
    record = StandardRecord(upos="VERB", mood="Sup", voice="Pass")
    assert enforce_arbitrary_values(record).voice == "Act"
    assert enforce_arbitrary_values(record, iri=True).voice == "Pass"


def test_infinitive_keeps_tense_and_voice():
    record = StandardRecord(
        upos="VERB", mood="Inf", tense="Perf", voice="Pass", number="Sing"
    )
    fixed = enforce_arbitrary_values(record)
    assert fixed.tense == "Perf"
    assert fixed.voice == "Pass"
    assert fixed.number is None


def test_conformant_record_unchanged():
    record = StandardRecord(upos="VERB", mood="Ind", tense="Pres", voice="Act")
    assert enforce_arbitrary_values(record) is record


def test_collapse_upos():
    audit = Counter()
    assert collapse_upos(StandardRecord(upos="INTJ"), audit).upos == "PART"
    assert collapse_upos(StandardRecord(upos="PART")).upos == "PART"
    assert collapse_upos(StandardRecord(upos="NOUN")).upos == "NOUN"
    assert audit[RULE_COLLAPSE_INTJ] == 1


def test_detect_iri():
    with_iri = Sentence(
        sent_id="a", tokens=(tok(1, "amatum", "VERB"), tok(2, "iri", "VERB"))
    )
    without = Sentence(
        sent_id="b", tokens=(tok(1, "amatum", "VERB"), tok(2, "domum"))
    )
    assert detect_iri_construction(with_iri, 0) is True
    assert detect_iri_construction(without, 0) is False


def test_detect_iri_respects_window():
    sentence = Sentence(
        sent_id="c",
        tokens=(tok(1, "amatum", "VERB"), tok(2, "a"), tok(3, "b"), tok(4, "iri", "VERB")),
    )
    assert detect_iri_construction(sentence, 0, window="sentence") is True
    assert detect_iri_construction(sentence, 0, window=1) is False
    assert detect_iri_construction(sentence, 0, window=3) is True


def test_audit_counts_rule_applications():
    audit = Counter()
    enforce_arbitrary_values(StandardRecord(upos="AUX", voice="Pass"), audit=audit)
    enforce_arbitrary_values(StandardRecord(upos="AUX", voice="Pass"), audit=audit)
    enforce_arbitrary_values(
        StandardRecord(upos="VERB", mood="Gdv", voice="Act"), audit=audit
    )
    assert audit[RULE_AUX_VOICE] == 2
    assert audit[RULE_GDV_VOICE] == 1


def test_pronoun_person_repair_opt_in():
    record = StandardRecord(upos="PRON", case="Nom", number="Sing")
    repaired = repair_pronoun_person("ego", record)
    assert repaired.person == "1"
    assert repair_pronoun_person("mensa", record).person is None
    # the lemma is normalized (lowercase, v -> u) before the lookup
    assert repair_pronoun_person("Vos", record).person == "2"
    already = StandardRecord(upos="PRON", person="2", case="Nom", number="Sing")
    assert repair_pronoun_person("ego", already).person == "2"


_records = st.builds(
    StandardRecord,
    upos=st.sampled_from(["VERB", "AUX", "NOUN", "INTJ", "PART"]),
    person=st.sampled_from([None, "1", "3"]),
    number=st.sampled_from([None, "Sing", "Plur"]),
    tense=st.sampled_from([None, "Pres", "Perf", "FutP"]),
    mood=st.sampled_from([None, "Ind", "Inf", "Part", "Ger", "Gdv", "Sup"]),
    voice=st.sampled_from([None, "Act", "Pass"]),
    gender=st.sampled_from([(), ("Fem",), ("Fem", "Masc")]),
    case=st.sampled_from([None, "Nom", "Acc"]),
    degree=st.sampled_from([None, "Cmp"]),
)


@given(_records, st.booleans())
def test_enforcement_idempotent_and_scan_clean(record, iri):
    fixed = enforce_arbitrary_values(record, iri=iri)
    assert enforce_arbitrary_values(fixed, iri=iri) == fixed
    assert arbitrary_value_violations(fixed, iri=iri) == []


@given(_records, st.booleans())
def test_scan_matches_transformer_fixed_points(record, iri):
    # a record the scanner accepts is one the transformer leaves alone
    if arbitrary_value_violations(record, iri=iri) == []:
        assert enforce_arbitrary_values(record, iri=iri) == record


def test_harmonize_sentence_handles_supine_iri():
    sentence = Sentence(
        sent_id="s", tokens=(tok(1, "amatum", "VERB"), tok(2, "iri", "VERB"))
    )
    records = [
        StandardRecord(upos="VERB", mood="Sup", voice="Act"),
        StandardRecord(upos="VERB", mood="Inf", voice="Pass"),
    ]
    out = harmonize_sentence(sentence, records)
    assert out[0].voice == "Pass"  # iri construction
    assert out[1].voice == "Pass"


def test_corpus_scan_finds_zero_violations(converted_ud, converted_lasla):
    for converted in (converted_ud, converted_lasla):
        for sentence, records in zip(converted.sentences, converted.records):
            for index, record in enumerate(records):
                iri = record.mood == "Sup" and detect_iri_construction(sentence, index)
                assert arbitrary_value_violations(record, iri=iri) == []
