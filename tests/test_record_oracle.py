"""StandardRecord's table-driven checks, views and parsing against
hand-written versions that spell every feature out, kept here as the
oracle."""

import pytest
from hypothesis import given, strategies as st

from latintb.agreement import converted_view
from latintb.conllu import UPOS_TAGS, FeatureBundle, Token
from latintb.evaluation import REPORT_FEATURES
from latintb.standardize import (
    CASES,
    DEGREES,
    GENDERS,
    MOODS,
    MORPH_FEATURES,
    NUMBERS,
    PERSONS,
    STANDARD_FEATURES,
    TENSES,
    VOICES,
    StandardRecord,
    record_from_standard_feats,
)

ORACLE_MORPH_FEATURES = ("Case", "Degree", "Gender", "Mood", "Number", "Person", "Tense", "Voice")


def oracle_values_for(record, feature):
    if feature == "UPOS":
        return (record.upos,) if record.upos != "_" else ()
    if feature == "Gender":
        return tuple(sorted(record.gender))
    value = {
        "Person": record.person,
        "Number": record.number,
        "Tense": record.tense,
        "Mood": record.mood,
        "Voice": record.voice,
        "Case": record.case,
        "Degree": record.degree,
    }[feature]
    return (value,) if value is not None else ()


def oracle_label_for(record, feature):
    values = oracle_values_for(record, feature)
    return ",".join(values) if values else "None"


def oracle_morph_string(record, include_upos):
    parts = []
    if include_upos:
        parts.append(f"UPOS={record.upos}")
    for feature in ORACLE_MORPH_FEATURES:
        values = oracle_values_for(record, feature)
        if values:
            parts.append(f"{feature}={','.join(values)}")
    return "|".join(parts)


def oracle_feature_bundle(record):
    entries = []
    for feature in ORACLE_MORPH_FEATURES:
        values = oracle_values_for(record, feature)
        if values:
            entries.append((feature, values))
    return FeatureBundle(entries)


def oracle_converted_view(record):
    view = {}
    for feature in ("UPOS",) + ORACLE_MORPH_FEATURES:
        values = oracle_values_for(record, feature)
        if values:
            view[feature] = values
    return view


def oracle_record_from_standard_feats(token):
    feats = token.feats
    for name in feats.names():
        if name not in ORACLE_MORPH_FEATURES:
            raise ValueError(f"non-standard feature {name!r} in {token.form!r}")

    def one(name):
        values = feats.get(name)
        if values is None:
            return None
        if len(values) != 1:
            raise ValueError(f"feature {name} must be single-valued, got {values}")
        return values[0]

    return StandardRecord(
        upos=token.upos,
        person=one("Person"),
        number=one("Number"),
        tense=one("Tense"),
        mood=one("Mood"),
        voice=one("Voice"),
        gender=tuple(sorted(feats.get("Gender") or ())),
        case=one("Case"),
        degree=one("Degree"),
    )


def _maybe(inventory):
    return st.none() | st.sampled_from(inventory)


records = st.builds(
    StandardRecord,
    upos=st.sampled_from(sorted(UPOS_TAGS) + ["_"]),
    person=_maybe(PERSONS),
    number=_maybe(NUMBERS),
    tense=_maybe(TENSES),
    mood=_maybe(MOODS),
    voice=_maybe(VOICES),
    # multi-valued and in any order, as LASLA's genders come
    gender=st.lists(st.sampled_from(GENDERS), unique=True).map(tuple),
    case=_maybe(CASES),
    degree=_maybe(DEGREES),
    anomalies=st.just(()),  # builds() fills every field of a NamedTuple
)


def test_the_feature_tuples_are_the_scheme():
    assert MORPH_FEATURES == ORACLE_MORPH_FEATURES
    assert STANDARD_FEATURES == ("UPOS",) + ORACLE_MORPH_FEATURES
    assert REPORT_FEATURES is STANDARD_FEATURES


@given(records)
def test_views_match_the_oracle(record):
    for feature in ("UPOS",) + ORACLE_MORPH_FEATURES:
        assert record.values_for(feature) == oracle_values_for(record, feature)
        assert record.label_for(feature) == oracle_label_for(record, feature)
    for include_upos in (False, True):
        assert record.morph_string(include_upos=include_upos) == oracle_morph_string(
            record, include_upos
        )
    bundle = record.to_feature_bundle()
    expected = oracle_feature_bundle(record)
    assert (bundle.items(), bundle.to_string()) == (expected.items(), expected.to_string())
    view = converted_view(record)
    assert list(view.items()) == list(oracle_converted_view(record).items())

    token = Token(id=1, form="x", lemma="x", upos=record.upos, feats=bundle)
    parsed = record_from_standard_feats(token)
    assert parsed == oracle_record_from_standard_feats(token)
    assert parsed == StandardRecord(**{
        **{name: getattr(record, name) for name in record._fields},
        "gender": tuple(sorted(record.gender)),
    })


@pytest.mark.parametrize("feature", ["Lemma", "anomalies", "upos", "gender", ""])
def test_values_for_an_unknown_feature_is_a_key_error(feature):
    with pytest.raises(KeyError):
        StandardRecord(upos="NOUN").values_for(feature)


# Feature bundles a standard-scheme file could hold, right or wrong:
# multi-valued single features, values outside the inventories, and
# features outside the scheme.
_any_value = st.sampled_from(["Nom", "Sing", "Pres", "Ind", "Act", "Cmp", "Masc", "Fem", "3",
                              "Bogus", "Past", "Pos"])
_any_feats = st.dictionaries(
    st.sampled_from(ORACLE_MORPH_FEATURES + ("VerbForm", "Aspect")),
    st.lists(_any_value, min_size=1, max_size=2, unique=True),
    max_size=4,
)


@given(st.sampled_from(["NOUN", "VERB", "_"]), _any_feats)
def test_parsing_raises_the_oracles_first_error(upos, feats):
    token = Token(id=1, form="x", lemma="x", upos=upos, feats=FeatureBundle.from_dict(feats))
    try:
        expected = oracle_record_from_standard_feats(token)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            record_from_standard_feats(token)
        assert str(raised.value) == str(exc)
    else:
        assert record_from_standard_feats(token) == expected


BAD_VALUE = {
    "person": "4",
    "number": "Dual",
    "tense": "Past",
    "mood": "Cnd",
    "voice": "Mid",
    "case": "Ins",
    "degree": "Pos",
}


@pytest.mark.parametrize("name", [*BAD_VALUE, "gender"])
def test_a_value_outside_its_inventory_is_named(name):
    value = ("Masc", "Com") if name == "gender" else BAD_VALUE[name]
    shown = "Com" if name == "gender" else value
    with pytest.raises(ValueError) as raised:
        StandardRecord(upos="NOUN", **{name: value})
    assert str(raised.value) == f"{name} value {shown!r} outside inventory"


def test_the_first_bad_value_in_check_order_is_named():
    with pytest.raises(ValueError) as raised:
        StandardRecord(upos="NOUN", gender=("Com",), **BAD_VALUE)
    assert str(raised.value) == "person value '4' outside inventory"
    with pytest.raises(ValueError) as raised:
        StandardRecord(upos="NOUN", gender=("Com",), case="Ins", degree="Pos")
    assert str(raised.value) == "case value 'Ins' outside inventory"
