import pytest

from latintb.agreement import (
    MODE_LOOSE_GENDER,
    MODE_STRICT,
    STAGE_CONVERTED,
    STAGE_RAW,
    AgreementRow,
    AlignedTokenPair,
    agreement_table,
    converted_view,
    feature_agreement,
    raw_view,
)
from latintb.conllu import FeatureBundle, Token
from latintb.dedup import MANIFEST_HEADER, manifest_rows, read_manifest
from latintb.pipeline import aligned_pairs
from latintb.reports import tsv_text
from latintb.standardize import StandardRecord


def views(*pairs):
    return [({k: tuple(v) for k, v in a.items()}, {k: tuple(v) for k, v in b.items()})
            for a, b in pairs]


def test_loose_gender_counts_membership():
    pairs = views(({"Gender": ["Fem"]}, {"Gender": ["Fem", "Masc"]}))
    strict = feature_agreement(pairs, "Gender", MODE_STRICT)
    loose = feature_agreement(pairs, "Gender", MODE_LOOSE_GENDER)
    assert (strict.same, strict.total) == (0, 1)
    assert (loose.same, loose.total) == (1, 1)


def test_both_none_excluded_from_total():
    pairs = views(({}, {}), ({"Case": ["Nom"]}, {}))
    row = feature_agreement(pairs, "Case")
    assert row.total == 1
    assert row.same == 0


def test_hand_built_ten_pair_fixture():
    # manual tally: 6 same, 9 with at least one side annotated
    pairs = views(
        ({"Case": ["Nom"]}, {"Case": ["Nom"]}),      # same
        ({"Case": ["Acc"]}, {"Case": ["Acc"]}),      # same
        ({"Case": ["Abl"]}, {"Case": ["Acc"]}),      # differ
        ({"Case": ["Gen"]}, {}),                     # one-sided
        ({}, {"Case": ["Dat"]}),                     # one-sided
        ({}, {}),                                    # excluded
        ({"Case": ["Voc"]}, {"Case": ["Voc"]}),      # same
        ({"Case": ["Nom"]}, {"Case": ["Nom"]}),      # same
        ({"Case": ["Abl"]}, {"Case": ["Abl"]}),      # same
        ({"Case": ["Loc"]}, {"Case": ["Loc"]}),      # same
    )
    row = feature_agreement(pairs, "Case")
    assert row.same == 6
    assert row.total == 9
    assert row.percent == pytest.approx(6 / 9)
    assert row.percent_str() == "66.7"


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown agreement mode"):
        feature_agreement([], "Case", "fuzzy")


def test_unknown_stage_rejected():
    with pytest.raises(ValueError, match="^unknown stage 'bogus'$"):
        agreement_table([], stage="bogus")


def test_identical_corpora_agree_everywhere(converted_ud):
    pairs = []
    for sentence, records in zip(converted_ud.sentences, converted_ud.records):
        for token, record in zip(sentence.tokens, records):
            pairs.append(
                AlignedTokenPair(token_a=token, token_b=token, record_a=record, record_b=record)
            )
    for row in agreement_table(pairs, stage=STAGE_CONVERTED):
        if row.total:
            assert row.same == row.total


def test_planted_disagreement_counts_n_minus_one():
    token = Token(id=1, form="x", lemma="x", upos="NOUN",
                  feats=FeatureBundle.from_dict({"Case": "Nom"}))
    record = StandardRecord(upos="NOUN", case="Nom")
    wrong = StandardRecord(upos="NOUN", case="Acc")
    pairs = [AlignedTokenPair(token, token, record, record) for _ in range(9)]
    pairs.append(AlignedTokenPair(token, token, record, wrong))
    (_, row) = agreement_table(pairs, features=("UPOS", "Case"), stage=STAGE_CONVERTED)
    assert row.feature == "Case"
    assert row.total == 10
    assert row.same == 9


def test_converted_stage_merges_mood_and_verbform():
    # UD side: participle via VerbForm; LASLA side: mood from VerbForm
    token_a = Token(id=1, form="amans", lemma="amo", upos="VERB",
                    feats=FeatureBundle.from_dict({"VerbForm": "Part"}))
    token_b = Token(id=1, form="amans", lemma="amo", upos="VERB",
                    feats=FeatureBundle.from_dict({"VerbForm": "Part"}))
    pair = AlignedTokenPair(
        token_a, token_b,
        StandardRecord(upos="VERB", mood="Part"),
        StandardRecord(upos="VERB", mood="Part"),
    )
    raw = agreement_table([pair], features=("Mood", "VerbForm"), stage=STAGE_RAW)
    conv = agreement_table([pair], features=("Mood",), stage=STAGE_CONVERTED)
    assert raw[0].total == 0          # raw Mood absent on both sides
    assert raw[1].total == 1          # raw VerbForm present
    assert conv[0] == AgreementRow(feature="Mood", same=1, total=1)


def test_anomalous_pairs_counted_unless_excluded():
    token = Token(id=1, form="x", lemma="x", upos="NOUN",
                  feats=FeatureBundle.from_dict({"Case": "Nom"}))
    clean = StandardRecord(upos="NOUN", case="Nom")
    flagged = StandardRecord(upos="NOUN", case="Nom", anomalies=("SOMETHING",))
    pairs = [
        AlignedTokenPair(token, token, clean, clean),
        AlignedTokenPair(token, token, flagged, clean),
    ]
    default = agreement_table(pairs, features=("Case",), stage=STAGE_CONVERTED)
    excluded = agreement_table(pairs, features=("Case",), stage=STAGE_CONVERTED,
                               include_anomalous=False)
    assert default[0].total == 2
    assert excluded[0].total == 1


def test_strict_symmetric_and_loose_monotonic(
    ud_corpus, lasla_corpus, converted_ud, converted_lasla, duplicate_pairs, tmp_path
):
    manifest_path = tmp_path / "dups.tsv"
    manifest_path.write_text(tsv_text(MANIFEST_HEADER, manifest_rows(duplicate_pairs)),
                             encoding="utf-8")
    rows = read_manifest(manifest_path)
    pairs = aligned_pairs(rows, ud_corpus, lasla_corpus,
                          converted_ud.records, converted_lasla.records)
    assert pairs, "fixture should produce aligned tokens"

    forward = [(raw_view(p.token_a), raw_view(p.token_b)) for p in pairs]
    backward = [(b, a) for a, b in forward]
    for feature in ("UPOS", "Case", "Number", "Gender"):
        f = feature_agreement(forward, feature, MODE_STRICT)
        b = feature_agreement(backward, feature, MODE_STRICT)
        assert (f.same, f.total) == (b.same, b.total)

    converted = [(converted_view(p.record_a), converted_view(p.record_b)) for p in pairs]
    for feature in ("Gender", "Case", "Mood"):
        strict = feature_agreement(converted, feature, MODE_STRICT)
        loose = feature_agreement(converted, feature, MODE_LOOSE_GENDER)
        assert loose.total == strict.total
        assert loose.same >= strict.same


def test_fixture_agreement_improves_after_conversion(
    ud_corpus, lasla_corpus, converted_ud, converted_lasla, duplicate_pairs
):
    rows = [(p.sent_a, p.sent_b, p.basis, len(p.alignment)) for p in duplicate_pairs]
    pairs = aligned_pairs(rows, ud_corpus, lasla_corpus,
                          converted_ud.records, converted_lasla.records)
    raw_rows = {r.feature: r for r in agreement_table(pairs, stage=STAGE_RAW)}
    conv_rows = {r.feature: r for r in agreement_table(pairs, stage=STAGE_CONVERTED)}

    # LASLA marks Degree=Pos, UD does not: raw agreement is poor, conversion
    # collapses Pos away and the survivors agree
    assert raw_rows["Degree"].percent < 0.5
    assert conv_rows["Degree"].percent > 0.9
    # VerbForm value sets differ (Fin/Vnoun vs bare/Ger); the merged Mood
    # feature restores agreement on the same tokens
    assert raw_rows["VerbForm"].percent < 0.9
    assert conv_rows["Mood"].percent > 0.9
    assert "VerbForm" not in conv_rows
    # loose gender at least as high as strict
    assert conv_rows["Gender (loose)"].percent >= conv_rows["Gender"].percent
    # mood+verbform merge gives a converted Mood total covering non-finites
    assert conv_rows["Mood"].total > raw_rows["Mood"].total
