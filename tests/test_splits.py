import dataclasses
import json
import math
import re

import pytest

from latintb.splits import (
    CONSTRAINT_ATOMICITY,
    CONSTRAINT_SHARED_IN_TRAIN,
    CONSTRAINT_TEST_SIZE,
    CONSTRAINT_TEST_UD_ONLY,
    PERIOD_CLASSICAL_BOTH,
    PERIOD_CLASSICAL_UD,
    InfeasibleSplitError,
    SplitManifest,
    audit_splits,
    build_splits,
    load_published_assignment,
    materialize,
    shared_works,
)
from latintb.reports import write_json

MIN_TEST = 30  # fixture-scale floor; the real default is 1000


@pytest.fixture(scope="module")
def manifests(converted_ud, lasla_corpus, metadata_table, duplicate_pairs):
    return build_splits(
        converted_ud.sentences, lasla_corpus, metadata_table, duplicate_pairs,
        seed=7, min_test=MIN_TEST,
    )


def by_period(manifests):
    return {m.period: m for m in manifests}


def test_four_manifests_built(manifests):
    assert sorted(m.period for m in manifests) == sorted(
        ["Classical-UD", "Classical-UD+LASLA", "Bible", "PostClassical"]
    )


def test_builder_output_passes_audit(
    manifests, converted_ud, lasla_corpus, metadata_table, duplicate_pairs
):
    for manifest in manifests:
        results = audit_splits(
            manifest, converted_ud.sentences, lasla_corpus, metadata_table,
            duplicate_pairs, min_test=MIN_TEST,
        )
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_shared_works_forced_into_train(manifests, duplicate_pairs, converted_ud):
    shared = shared_works(duplicate_pairs, converted_ud.sentences)
    assert shared == {"cl_alpha", "cl_beta"}
    classical = by_period(manifests)[PERIOD_CLASSICAL_UD]
    assert shared <= set(classical.train_works)
    assert not shared & set(classical.test_works)


def test_both_variant_shares_dev_and_test(manifests):
    ud = by_period(manifests)[PERIOD_CLASSICAL_UD]
    both = by_period(manifests)[PERIOD_CLASSICAL_BOTH]
    assert both.test_works == ud.test_works
    assert both.dev_sentences == ud.dev_sentences
    assert set(ud.train_works) < set(both.train_works)
    assert {"lasla_alpha", "lasla_beta", "lasla_solo"} <= set(both.train_works)


def test_dev_never_samples_duplicated_sentences(manifests, duplicate_pairs):
    duplicated = {p.sent_a for p in duplicate_pairs}
    for manifest in manifests:
        assert not set(manifest.dev_sentences) & duplicated


def test_dev_size_follows_floor_rule(manifests, converted_ud, duplicate_pairs):
    duplicated = {p.sent_a for p in duplicate_pairs}
    per_work = {}
    for sentence in converted_ud.sentences:
        per_work.setdefault(sentence.work_id, []).append(sentence.sent_id)
    for manifest in manifests:
        if manifest.period == PERIOD_CLASSICAL_BOTH:
            continue
        dev_by_work = {}
        for sent_id in manifest.dev_sentences:
            work = sent_id.rsplit("-s", 1)[0]
            dev_by_work[work] = dev_by_work.get(work, 0) + 1
        for work in manifest.train_works:
            eligible = [s for s in per_work[work] if s not in duplicated]
            expected = max(1, math.floor(0.03 * len(eligible))) if eligible else 0
            assert dev_by_work.get(work, 0) == expected


def test_deterministic_given_seed(converted_ud, lasla_corpus, metadata_table, duplicate_pairs):
    a = build_splits(converted_ud.sentences, lasla_corpus, metadata_table,
                     duplicate_pairs, seed=7, min_test=MIN_TEST)
    b = build_splits(converted_ud.sentences, lasla_corpus, metadata_table,
                     duplicate_pairs, seed=7, min_test=MIN_TEST)
    assert a == b


def test_seed_changes_only_dev(converted_ud, lasla_corpus, metadata_table, duplicate_pairs):
    a = build_splits(converted_ud.sentences, lasla_corpus, metadata_table,
                     duplicate_pairs, seed=7, min_test=MIN_TEST)
    b = build_splits(converted_ud.sentences, lasla_corpus, metadata_table,
                     duplicate_pairs, seed=8, min_test=MIN_TEST)
    assert any(x.dev_sentences != y.dev_sentences for x, y in zip(a, b))
    for x, y in zip(a, b):
        assert x.train_works == y.train_works
        assert x.test_works == y.test_works


def test_corrupted_manifest_fails_atomicity(
    manifests, converted_ud, lasla_corpus, metadata_table, duplicate_pairs
):
    manifest = by_period(manifests)[PERIOD_CLASSICAL_UD]
    corrupted = SplitManifest(
        period=manifest.period,
        seed=manifest.seed,
        train_works=manifest.train_works + (manifest.test_works[0],),
        test_works=manifest.test_works,
        dev_sentences=manifest.dev_sentences,
    )
    results = audit_splits(corrupted, converted_ud.sentences, lasla_corpus,
                           metadata_table, duplicate_pairs, min_test=MIN_TEST)
    failed = {r.constraint for r in results if not r.passed}
    assert failed == {CONSTRAINT_ATOMICITY}


def test_small_test_fails_size_constraint(
    manifests, converted_ud, lasla_corpus, metadata_table, duplicate_pairs
):
    manifest = by_period(manifests)[PERIOD_CLASSICAL_UD]
    starved = SplitManifest(
        period=manifest.period, seed=manifest.seed,
        train_works=manifest.train_works + manifest.test_works,
        test_works=(),
        dev_sentences=manifest.dev_sentences,
    )
    results = audit_splits(starved, converted_ud.sentences, lasla_corpus,
                           metadata_table, duplicate_pairs, min_test=MIN_TEST)
    failed = {r.constraint for r in results if not r.passed}
    assert CONSTRAINT_TEST_SIZE in failed


def test_lasla_in_test_fails_ud_only(
    manifests, converted_ud, lasla_corpus, metadata_table, duplicate_pairs
):
    manifest = by_period(manifests)[PERIOD_CLASSICAL_BOTH]
    polluted = SplitManifest(
        period=manifest.period, seed=manifest.seed,
        train_works=tuple(w for w in manifest.train_works if w != "lasla_solo"),
        test_works=manifest.test_works + ("lasla_solo",),
        dev_sentences=manifest.dev_sentences,
    )
    results = audit_splits(polluted, converted_ud.sentences, lasla_corpus,
                           metadata_table, duplicate_pairs, min_test=MIN_TEST)
    failed = {r.constraint for r in results if not r.passed}
    assert CONSTRAINT_TEST_UD_ONLY in failed


def test_shared_work_outside_train_fails(
    manifests, converted_ud, lasla_corpus, metadata_table, duplicate_pairs
):
    manifest = by_period(manifests)[PERIOD_CLASSICAL_UD]
    stray = SplitManifest(
        period=manifest.period, seed=manifest.seed,
        train_works=tuple(w for w in manifest.train_works if w != "cl_alpha"),
        test_works=manifest.test_works,
        dev_sentences=manifest.dev_sentences,
    )
    results = audit_splits(stray, converted_ud.sentences, lasla_corpus,
                           metadata_table, duplicate_pairs, min_test=MIN_TEST)
    failed = {r.constraint for r in results if not r.passed}
    assert CONSTRAINT_SHARED_IN_TRAIN in failed


def test_infeasible_when_floor_unreachable(
    converted_ud, lasla_corpus, metadata_table, duplicate_pairs
):
    with pytest.raises(InfeasibleSplitError) as err:
        build_splits(converted_ud.sentences, lasla_corpus, metadata_table,
                     duplicate_pairs, seed=7, min_test=10_000)
    assert err.value.constraint == CONSTRAINT_TEST_SIZE


def test_materialize_partitions_sentences(manifests, converted_ud, lasla_corpus):
    manifest = by_period(manifests)[PERIOD_CLASSICAL_UD]
    parts = materialize(manifest, converted_ud.sentences, lasla_corpus)
    dev_ids = {s.sent_id for s in parts["dev"]}
    train_ids = {s.sent_id for s in parts["train"]}
    test_ids = {s.sent_id for s in parts["test"]}
    assert dev_ids == set(manifest.dev_sentences)
    assert not dev_ids & train_ids and not dev_ids & test_ids and not train_ids & test_ids
    # UD-only variant must not contain LASLA sentences
    lasla_ids = {s.sent_id for s in lasla_corpus}
    assert not (train_ids | dev_ids | test_ids) & lasla_ids

    both = by_period(manifests)[PERIOD_CLASSICAL_BOTH]
    both_parts = materialize(both, converted_ud.sentences, lasla_corpus)
    both_train_ids = {s.sent_id for s in both_parts["train"]}
    assert lasla_ids <= both_train_ids
    assert {s.sent_id for s in both_parts["test"]} == test_ids


def test_atomicity_exception_pattern(
    manifests, converted_ud, lasla_corpus, metadata_table, duplicate_pairs
):
    manifest = by_period(manifests)[PERIOD_CLASSICAL_UD]
    overlapping = SplitManifest(
        period=manifest.period, seed=manifest.seed,
        train_works=manifest.train_works + (manifest.test_works[0],),
        test_works=manifest.test_works,
        dev_sentences=manifest.dev_sentences,
    )
    excused = audit_splits(
        overlapping, converted_ud.sentences, lasla_corpus, metadata_table,
        duplicate_pairs, min_test=MIN_TEST,
        atomicity_exceptions=(manifest.test_works[0],),
    )
    assert all(r.passed for r in excused)


def test_published_assignment_respected(converted_ud, lasla_corpus, metadata_table, duplicate_pairs):
    published = {
        "cl_gamma": ("Classical", "test"),
        "cl_delta": ("Classical", "test"),
    }
    manifests = build_splits(
        converted_ud.sentences, lasla_corpus, metadata_table, duplicate_pairs,
        seed=7, min_test=MIN_TEST, published=published,
    )
    classical = by_period(manifests)[PERIOD_CLASSICAL_UD]
    assert {"cl_gamma", "cl_delta"} <= set(classical.test_works)


def test_published_shared_conflict_is_infeasible(
    converted_ud, lasla_corpus, metadata_table, duplicate_pairs
):
    published = {"cl_alpha": ("Classical", "test")}
    with pytest.raises(InfeasibleSplitError) as err:
        build_splits(converted_ud.sentences, lasla_corpus, metadata_table,
                     duplicate_pairs, seed=7, min_test=MIN_TEST, published=published)
    assert err.value.constraint == CONSTRAINT_SHARED_IN_TRAIN


def test_shipped_assignment_table_loads():
    table = load_published_assignment()
    assert table["BellumGallicum"] == ("Classical", "train")
    assert table["phaedrus_fabulae"] == ("Classical", "test")
    assert table["jerome_vulgata-Romans"] == ("Bible", "test")
    assert table["aquinas_summa-contra-gentiles"] == ("PostClassical", "train")
    assert sum(1 for _, (p, s) in table.items() if p == "Classical" and s == "train") == 14


def test_manifest_json_roundtrip(tmp_path, manifests):
    manifest = manifests[0]
    path = tmp_path / "m.json"
    write_json(path, dataclasses.asdict(manifest))
    assert json.loads(path.read_text(encoding="utf-8")) == {
        "period": manifest.period,
        "seed": manifest.seed,
        "train_works": list(manifest.train_works),
        "test_works": list(manifest.test_works),
        "dev_sentences": list(manifest.dev_sentences),
        "audit": [
            {"constraint": a.constraint, "passed": a.passed, "details": list(a.details)}
            for a in manifest.audit
        ],
    }


@pytest.mark.parametrize(
    "text, error",
    [
        ("Classical\tw\ttrain\t3\n", "line 1: expected header 'period\\\\twork_id\\\\tsplit\\\\tsentences'"),
        ("period\twork_id\tsplit\tsentences\nClassical\tw\ttrain\n", "line 2: expected 4 columns, got 3"),
        ("period\twork_id\tsplit\tsentences\nClassical\tw\ttrain\tmany\n", "line 2: invalid literal for int"),
        ("period\twork_id\tsplit\tsentences\nClassical\tw\tTrain\t3\n",
         "line 2: split must be train or test, got 'Train'"),
        ("period\twork_id\tsplit\tsentences\nClassical\tw\ttset\t3\n",
         "line 2: split must be train or test, got 'tset'"),
        ("period\twork_id\tsplit\tsentences\nClassical\tw\ttrain\t3\nClassical\tv\ttest\t2\n"
         "Classical\tw\ttest\t3\n", "line 4: work 'w' is listed twice$"),
    ],
    ids=["no-header", "short-row", "bad-integer", "capitalized-split", "misspelt-split",
         "repeated-work"],
)
def test_bad_published_table_names_file_and_line(tmp_path, text, error):
    path = tmp_path / "published.tsv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} {error}"):
        load_published_assignment(path)


def test_published_table_keeps_its_first_row(tmp_path):
    path = tmp_path / "published.tsv"
    path.write_text("period\twork_id\tsplit\tsentences\nClassical\tw\ttest\t3\n")
    assert load_published_assignment(path) == {"w": ("Classical", "test")}
