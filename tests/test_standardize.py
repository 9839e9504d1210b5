import itertools

import pytest
from hypothesis import given, strategies as st

from latintb.conllu import FeatureBundle, Token
from latintb.standardize import (
    ANOMALY_MOOD_CONFLICT,
    ANOMALY_MULTI_VALUE,
    ANOMALY_UNKNOWN_VALUE,
    ANOMALY_TRAD_ON_NONVERB,
    CASES,
    DEGREES,
    GENDERS,
    INFINITIVE_ASPECT_TENSE,
    MOODS,
    NUMBERS,
    PERSONS,
    RULE_PRON_MISSING,
    RULE_SCONJ_NOMINAL,
    RULE_TENSE_NO_MOOD,
    TENSES,
    UD_ASPECTS,
    UD_TENSES,
    VOICES,
    LINT_ESSE_AS_NOUN,
    LINT_INF_WITH_CASE,
    LINT_SUI_WITH_NUMBER,
    StandardRecord,
    TenseAspectTable,
    legality_check,
    lint_token,
    record_from_standard_feats,
    standardize_lasla,
    standardize_ud,
)

TABLE = TenseAspectTable.default()


def make_token(feats=None, upos="VERB", misc=(), form="amat", lemma="amo"):
    return Token(
        id=1,
        form=form,
        lemma=lemma,
        upos=upos,
        feats=FeatureBundle.from_dict(feats or {}),
        misc=tuple(misc),
    )


def test_table_exhaustive_over_cross_product():
    for tense, aspect in itertools.product((None,) + UD_TENSES, (None,) + UD_ASPECTS):
        result = TABLE.lookup(tense, aspect)
        assert result is None or result in TENSES


@pytest.mark.parametrize(
    "tense,aspect,expected",
    [
        ("Fut", "Perf", "FutP"),
        ("Past", "Imp", "Imp"),
        ("Past", "Perf", "Perf"),
        ("Past", None, "Perf"),
        ("Past", "Inch", "Perf"),
        ("Pres", "Perf", "Pres"),
        ("Pres", None, "Pres"),
        ("Pqp", "Imp", "Pqp"),
        ("Fut", "Prosp", "Fut"),
        (None, "Perf", None),
    ],
)
def test_table_values(tense, aspect, expected):
    assert TABLE.lookup(tense, aspect) == expected


def test_table_rejects_incomplete():
    with pytest.raises(ValueError, match="not exhaustive"):
        TenseAspectTable({})


def test_table_override():
    table = TenseAspectTable.from_overrides({"Past,Prosp": "Fut"})
    assert table.lookup("Past", "Prosp") == "Fut"
    assert table.lookup("Past", "Imp") == "Imp"


def test_ud_future_perfect_from_aspect():
    token = make_token(
        {"Tense": "Fut", "Aspect": "Perf", "Mood": "Ind", "Voice": "Act",
         "Person": "3", "Number": "Sing"},
        misc=[("TraditionalTense", "Fut"), ("TraditionalMood", "Ind")],
    )
    record = standardize_ud(token)
    assert record.tense == "FutP"
    assert record.mood == "Ind"
    assert record.voice == "Act"
    assert record.person == "3"
    assert record.number == "Sing"


def test_ud_future_perfect_without_traditional_field():
    token = make_token({"Tense": "Fut", "Aspect": "Perf", "Mood": "Ind"})
    assert standardize_ud(token).tense == "FutP"


def test_ud_infinitive_tense_from_aspect():
    token = make_token({"VerbForm": "Inf", "Aspect": "Perf", "Voice": "Act"})
    record = standardize_ud(token)
    assert record.mood == "Inf"
    assert record.tense == "Perf"

    token = make_token({"VerbForm": "Inf", "Aspect": "Imp", "Voice": "Act"})
    record = standardize_ud(token)
    assert record.tense == "Pres"

    token = make_token({"VerbForm": "Inf", "Aspect": "Prosp"})
    assert standardize_ud(token).tense == "Fut"


def test_ud_noun_copies_nominal_features():
    token = make_token({"Case": "Abl", "Gender": "Fem", "Number": "Sing"}, upos="NOUN")
    record = standardize_ud(token)
    assert record.upos == "NOUN"
    assert record.case == "Abl"
    assert record.gender == ("Fem",)
    assert record.number == "Sing"
    assert record.tense is None and record.mood is None and record.voice is None
    assert record.person is None and record.degree is None


def test_ud_traditional_mood_wins():
    token = make_token(
        {"VerbForm": "Part", "Case": "Nom", "Gender": "Masc", "Number": "Sing"},
        misc=[("TraditionalMood", "Gdv")],
    )
    assert standardize_ud(token).mood == "Gdv"


def test_ud_unknown_traditional_mood_gives_no_mood():
    # the MISC value wins over FEATS Mood=Ind, and it is outside the inventory
    token = make_token({"Mood": "Ind", "VerbForm": "Fin"}, misc=[("TraditionalMood", "Xyz")])
    record = standardize_ud(token)
    assert record.mood is None
    assert record.anomalies == (ANOMALY_UNKNOWN_VALUE,)


def test_traditional_field_on_non_verb_flags_anomaly():
    token = make_token(
        {"Case": "Nom"}, upos="NOUN", misc=[("TraditionalMood", "Ind")]
    )
    record = standardize_ud(token)
    assert ANOMALY_TRAD_ON_NONVERB in record.anomalies
    assert record.mood is None and record.tense is None and record.voice is None
    assert record.case == "Nom"


def test_degree_pos_and_dim_collapse():
    for value in ("Pos", "Dim"):
        token = make_token({"Degree": value}, upos="ADJ")
        assert standardize_ud(token).degree is None
    token = make_token({"Degree": "Cmp"}, upos="ADJ")
    assert standardize_ud(token).degree == "Cmp"


def test_lasla_tense_aspect_lookup():
    token = make_token({"Tense": "Past", "Aspect": "Imp", "Mood": "Ind"})
    record = standardize_lasla(token)
    assert record.tense == "Imp"
    assert record.mood == "Ind"


def test_lasla_gerundive_routing():
    token = make_token({"VerbForm": "Gdv", "Case": "Acc", "Gender": "Neut", "Number": "Plur"})
    record = standardize_lasla(token)
    assert record.mood == "Gdv"
    assert record.case == "Acc"
    assert record.gender == ("Neut",)
    assert record.number == "Plur"


def test_lasla_degree_pos_collapses():
    token = make_token({"Degree": "Pos"}, upos="ADJ")
    assert standardize_lasla(token).degree is None


def test_lasla_multi_value_gender_preserved():
    token = make_token({"Gender": ["Fem", "Masc", "Neut"], "Case": "Nom"}, upos="NOUN")
    assert standardize_lasla(token).gender == ("Fem", "Masc", "Neut")


def test_lasla_mood_conflict_prefers_finite():
    token = make_token({"Mood": "Ind", "VerbForm": "Ger"})
    record = standardize_lasla(token)
    assert record.mood == "Ind"
    assert ANOMALY_MOOD_CONFLICT in record.anomalies


def test_standardize_idempotent_on_reencoded_records(converted_ud):
    for sentence, records in zip(converted_ud.sentences, converted_ud.records):
        for token, record in zip(sentence.tokens, records):
            again_ud = standardize_ud(token)
            again_lasla = standardize_lasla(token)
            for again in (again_ud, again_lasla):
                assert again.upos == record.upos
                assert again.tense == record.tense
                assert again.mood == record.mood
                assert again.voice == record.voice
                assert again.case == record.case
                assert again.gender == record.gender
                assert again.degree == record.degree
                assert again.person == record.person
                assert again.number == record.number


def test_record_from_standard_feats_strict():
    token = make_token({"Tense": "Perf", "Mood": "Ind", "Voice": "Act"})
    record = record_from_standard_feats(token)
    assert record.tense == "Perf"
    with pytest.raises(ValueError, match="non-standard feature"):
        record_from_standard_feats(make_token({"Aspect": "Imp"}))
    with pytest.raises(ValueError):
        record_from_standard_feats(make_token({"Tense": "Past"}))


_any_value = st.sampled_from(
    ["Pres", "Past", "Fut", "Pqp", "Imp", "Perf", "Prosp", "Inch", "Ind", "Sub",
     "Fin", "Inf", "Part", "Ger", "Gdv", "Sup", "Vnoun", "Act", "Pass", "Masc",
     "Fem", "Neut", "Nom", "Acc", "Abl", "Sing", "Plur", "Plural", "1", "3",
     "Pos", "Dim", "Cmp", "Abs", "Junk", "Weird"]
)
_fuzz_feats = st.dictionaries(
    st.sampled_from(
        ["Tense", "Aspect", "Mood", "VerbForm", "Voice", "Gender", "Case",
         "Number", "Person", "Degree", "PronType", "InflClass"]
    ),
    st.lists(_any_value, min_size=1, max_size=2, unique=True),
    max_size=6,
)


@given(_fuzz_feats, st.sampled_from(["VERB", "NOUN", "ADJ", "AUX", "PRON", "SCONJ"]))
def test_outputs_stay_in_inventories_under_fuzz(feats, upos):
    token = make_token(feats, upos=upos)
    for record in (standardize_ud(token), standardize_lasla(token)):
        assert record.tense in (None,) + TENSES
        assert record.mood in (None,) + MOODS
        assert record.voice in (None,) + VOICES
        assert record.case in (None,) + CASES
        assert record.degree in (None,) + DEGREES
        assert record.person in (None,) + PERSONS
        assert record.number in (None,) + NUMBERS
        assert all(g in GENDERS for g in record.gender)


_READ_FEATURES = ["Tense", "Aspect", "Mood", "VerbForm", "TraditionalTense", "TraditionalMood"]
_UPOS = ["VERB", "AUX", "NOUN", "ADJ", "PRON", "SCONJ"]


def _shuffled(draw, items):
    return draw(st.permutations(items)) if items else []


@given(st.dictionaries(st.sampled_from(
           _READ_FEATURES + ["Voice", "Gender", "Case", "Number", "Person", "Degree", "PronType"]),
           st.lists(_any_value | st.sampled_from(["FutP", "Pqp"]), min_size=1, max_size=3, unique=True),
           max_size=7),
       st.sampled_from(_UPOS), st.data())
def test_equal_feats_give_equal_records_in_any_spelling(feats, upos, data):
    token = make_token(feats, upos=upos)
    # every order of the features, and of each feature's values
    names = _shuffled(data.draw, list(feats))
    respelled = make_token({name: _shuffled(data.draw, feats[name]) for name in names}, upos=upos)
    assert respelled.feats == token.feats
    for standardize in (standardize_ud, standardize_lasla):
        assert standardize(respelled) == standardize(token)


@given(st.dictionaries(st.sampled_from(["Tense", "Aspect", "Mood", "VerbForm", "Voice", "Gender",
                                        "Case", "Number", "Person", "Degree", "PronType"]),
                       _any_value, max_size=6),
       st.sampled_from(_READ_FEATURES),
       st.lists(_any_value | st.sampled_from(["FutP", "Pqp"]), min_size=2, max_size=3, unique=True),
       st.sampled_from(_UPOS))
def test_a_multi_valued_feature_is_unset_and_flagged(feats, name, values, upos):
    # the record is the one without the feature, flagged where the feature is read
    multi = make_token({**feats, name: values}, upos=upos)
    absent = make_token({key: value for key, value in feats.items() if key != name}, upos=upos)
    for standardize in (standardize_ud, standardize_lasla):
        record, expected = standardize(multi), standardize(absent)
        assert record._replace(anomalies=()) == expected._replace(anomalies=())
        assert [code for code in record.anomalies if code != ANOMALY_MULTI_VALUE] == list(expected.anomalies)
        if standardize is standardize_lasla:  # reads no Traditional* field
            read = not name.startswith("Traditional")
        else:  # a tense-less infinitive's tense comes from Aspect, not the table
            read = name != "Tense" or not (
                record.mood == "Inf" and feats.get("Aspect") in INFINITIVE_ASPECT_TENSE)
        assert (ANOMALY_MULTI_VALUE in record.anomalies) == read


def test_legality_sconj_with_nominal_feats():
    record = StandardRecord(upos="SCONJ", gender=("Neut",), number="Sing")
    assert legality_check(record) == [RULE_SCONJ_NOMINAL]


def test_legality_pron_missing_feats():
    record = StandardRecord(upos="PRON")
    assert legality_check(record) == [RULE_PRON_MISSING]


def test_legality_clean_particle():
    assert legality_check(StandardRecord(upos="PART")) == []


def test_legality_tense_without_mood():
    record = StandardRecord(upos="VERB", tense="Pres")
    assert legality_check(record) == [RULE_TENSE_NO_MOOD]


def test_legality_unknown_rule_is_config_error():
    with pytest.raises(ValueError, match="unknown legality rule"):
        legality_check(StandardRecord(upos="PART"), rules=("NO_SUCH_RULE",))


def test_lint_flags_esse_as_noun():
    token = make_token({}, upos="NOUN", form="esse", lemma="sum")
    record = StandardRecord(upos="NOUN")
    assert LINT_ESSE_AS_NOUN in lint_token(token, record)


@pytest.mark.parametrize("token, record, code", [
    (make_token(form="amare"),
     StandardRecord(upos="VERB", tense="Pres", mood="Inf", voice="Act", case="Acc"), LINT_INF_WITH_CASE),
    (make_token(upos="PRON", form="se", lemma="sui"),
     StandardRecord(upos="PRON", case="Acc", number="Sing"), LINT_SUI_WITH_NUMBER),
], ids=["infinitive-with-case", "sui-with-number"])
def test_lint_flags_a_divergence_left_untouched(token, record, code):
    assert lint_token(token, record) == [code]


def test_morph_string_sorted_alphabetically():
    record = StandardRecord(
        upos="VERB", person="3", number="Sing", tense="Pres", mood="Ind", voice="Act"
    )
    assert record.morph_string() == (
        "Mood=Ind|Number=Sing|Person=3|Tense=Pres|Voice=Act"
    )
    assert record.morph_string(include_upos=True).startswith("UPOS=VERB|")


def test_replace_checks_a_record_as_its_constructor_does():
    errors = []
    for make in (lambda: StandardRecord("NOUN", case="Foo"),
                 lambda: StandardRecord("NOUN")._replace(case="Foo"),
                 lambda: StandardRecord("NOUN", gender=("Masc",))._replace(gender=("Masc", "X"))):
        with pytest.raises(ValueError) as info:
            make()
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1] == (ValueError, "case value 'Foo' outside inventory")
    assert errors[2] == (ValueError, "gender value 'X' outside inventory")
