import itertools
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from latintb.conllu import Sentence
from latintb.metadata import TextMetadata

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
from latintb.reports import json_text, plain

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


def _period(sizes, century=-1):
    """One period's UD works ``w0``, ``w1``, ... with ``sizes`` sentences each."""
    corpus = [Sentence(f"w{k}-{i}", (), work_id=f"w{k}")
              for k, size in enumerate(sizes) for i in range(size)]
    metadata = {f"w{k}": TextMetadata("Perseus", f"w{k}", "anon", century)
                for k in range(len(sizes))}
    return corpus, metadata


def test_a_smallest_work_left_in_train_makes_the_period_feasible():
    # smallest-first, both works reach test; the 100-sentence work alone suffices
    corpus, metadata = _period([3, 100])
    [manifest] = build_splits(corpus, None, metadata, [], seed=7, min_test=50)
    assert (manifest.train_works, manifest.test_works) == (("w0",), ("w1",))


def _brute_force_feasible(sizes, mandatory, published, min_test):
    """Whether some train/test assignment of the works meets every constraint."""
    names = [f"w{k}" for k in range(len(sizes))]
    size = dict(zip(names, sizes))
    for sides in itertools.product(("train", "test"), repeat=len(names)):
        side = dict(zip(names, sides))
        if any(side[w] != published[w][1] for w in published):
            continue
        if any(side[w] == "test" for w in mandatory):
            continue
        if "train" in sides and sum(size[w] for w in names if side[w] == "test") >= min_test:
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_split_is_infeasible_exactly_when_no_assignment_exists(data):
    sizes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    names = [f"w{k}" for k in range(len(sizes))]
    classical = data.draw(st.booleans())
    shared = data.draw(st.sets(st.sampled_from(names)))
    published = data.draw(st.dictionaries(
        st.sampled_from(names), st.sampled_from(["train", "test"]).map(lambda s: ("x", s))))
    min_test = data.draw(st.integers(0, sum(sizes) + 2))
    corpus, metadata = _period(sizes, -1 if classical else 5)
    duplicates = [(f"{w}-0", f"lasla-{w}", "prefix", 1) for w in sorted(shared)]
    mandatory = shared if classical else set()
    feasible = _brute_force_feasible(sizes, mandatory, published, min_test)
    try:
        manifests = build_splits(corpus, None, metadata, duplicates, seed=7,
                                 min_test=min_test, published=published)
    except InfeasibleSplitError:
        assert not feasible
        return
    assert feasible
    [manifest] = manifests
    assert manifest.train_works
    for work, (_, side) in published.items():
        assert work in (manifest.test_works if side == "test" else manifest.train_works)
    results = audit_splits(manifest, corpus, None, metadata, duplicates, min_test=min_test)
    assert all(r.passed for r in results), results


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_split_tests_no_work_that_the_audit_calls_non_ud(data):
    sizes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    names = [f"w{k}" for k in range(len(sizes))]
    classical = data.draw(st.booleans())
    shared = data.draw(st.sets(st.sampled_from(names)))
    listed = data.draw(st.sets(st.sampled_from(names)))  # metadata treebank LASLA
    in_lasla = data.draw(st.sets(st.sampled_from(names)))  # work ids the LASLA corpus holds
    published = data.draw(st.dictionaries(
        st.sampled_from(names), st.sampled_from(["train", "test"]).map(lambda s: ("x", s))))
    min_test = data.draw(st.integers(0, sum(sizes) + 2))
    corpus, metadata = _period(sizes, -1 if classical else 5)
    for work in listed:
        metadata[work] = metadata[work]._replace(treebank="LASLA")
    lasla = [Sentence(f"lasla-{w}-{i}", (), work_id=w) for w in sorted(in_lasla) for i in range(2)]
    lasla.append(Sentence("lasla-solo-0", (), work_id="lasla_solo"))
    duplicates = [(f"{w}-0", f"lasla-{w}", "prefix", 1) for w in sorted(shared)]
    held = listed | in_lasla | (shared if classical else set())
    feasible = _brute_force_feasible(sizes, held, published, min_test)
    try:
        manifests = build_splits(corpus, lasla, metadata, duplicates, seed=7,
                                 min_test=min_test, published=published)
    except InfeasibleSplitError:
        assert not feasible
        return
    assert feasible
    assert [m.test_works for m in manifests] == [manifests[0].test_works] * (2 if classical else 1)
    assert not set(manifests[0].test_works) & held
    for manifest in manifests:
        results = audit_splits(manifest, corpus, lasla, metadata, duplicates, min_test=min_test)
        assert all(r.passed for r in results), (manifest, results)


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


def test_published_non_ud_conflict_is_infeasible(
    converted_ud, lasla_corpus, metadata_table, duplicate_pairs
):
    metadata = dict(metadata_table, cl_epsilon=metadata_table["cl_epsilon"]._replace(treebank="LASLA"))
    published = {"cl_epsilon": ("Classical", "test")}
    with pytest.raises(InfeasibleSplitError) as err:
        build_splits(converted_ud.sentences, lasla_corpus, metadata,
                     duplicate_pairs, seed=7, min_test=MIN_TEST, published=published)
    assert err.value.constraint == CONSTRAINT_TEST_UD_ONLY


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
    path.write_text(json_text(plain(manifest)), encoding="utf-8")
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
