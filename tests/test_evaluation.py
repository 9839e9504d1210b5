import ast
import itertools
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latintb.conllu import FeatureBundle, Sentence, Token, parse_conllu
from latintb.evaluation import (
    REPORT_FEATURES,
    AlignmentError,
    MAX_ITERATIONS,
    _accuracy,
    _class_counts,
    _Codes,
    check_alignment,
    evaluate,
    macro_f1,
    parse_metric,
    permutation_test,
    per_value_f1,
    records_of,
    whole_string_accuracy,
)
from latintb import permutation
from latintb.permutation import (
    _bit_masks,
    _build_machine,
    _Draw,
    _jump,
    _pcg64_seeds,
    _raw_masks,
    _seed_pool,
)
from latintb.standardize import StandardRecord

CASES = ["Nom", "Gen", "Dat", "Acc", "Abl", None]
MOODS = ["Ind", "Sub", "Inf", "Ger", "Sup", None]


def random_record(rng):
    return StandardRecord(
        upos=rng.choice(["NOUN", "VERB", "ADJ"]),
        case=rng.choice(CASES),
        mood=rng.choice(MOODS),
        number=rng.choice(["Sing", "Plur", None]),
        gender=rng.choice([(), ("Fem",), ("Masc",), ("Fem", "Masc")]),
    )


def random_corpus(rng, n_sentences, max_tokens=8):
    return [
        [random_record(rng) for _ in range(rng.randint(1, max_tokens))]
        for _ in range(n_sentences)
    ]


def corrupt(records, rng, rate):
    out = []
    for sent in records:
        new = []
        for record in sent:
            if rng.random() < rate:
                new.append(random_record(rng))
            else:
                new.append(record)
        out.append(new)
    return out


def oracle_macro_f1(gold, pred, feature):
    """Confusion-matrix oracle, written independently of the module."""
    gold_labels = [r.label_for(feature) for s in gold for r in s]
    pred_labels = [r.label_for(feature) for s in pred for r in s]
    classes = set(gold_labels) | set(pred_labels) | {"None"}
    matrix = Counter(zip(gold_labels, pred_labels))
    scores = []
    for cls in classes:
        tp = matrix[(cls, cls)]
        fp = sum(v for (g, p), v in matrix.items() if p == cls and g != cls)
        fn = sum(v for (g, p), v in matrix.items() if g == cls and p != cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
        scores.append(f1)
    return sum(scores) / len(scores)


def oracle_value_f1(gold, pred, feature, value):
    gold_labels = [r.label_for(feature) for s in gold for r in s]
    pred_labels = [r.label_for(feature) for s in pred for r in s]
    matrix = Counter(zip(gold_labels, pred_labels))
    tp = matrix[(value, value)]
    fp = sum(v for (g, p), v in matrix.items() if p == value and g != value)
    fn = sum(v for (g, p), v in matrix.items() if g == value and p != value)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    return precision, recall, f1, tp + fn


# builds() fills every field of a NamedTuple, so the unvaried ones are pinned
records = st.builds(
    StandardRecord,
    upos=st.sampled_from(["NOUN", "VERB", "ADJ", "_"]),
    case=st.sampled_from(CASES),
    mood=st.sampled_from(MOODS),
    number=st.sampled_from(["Sing", "Plur", None]),
    gender=st.sampled_from([(), ("Fem",), ("Masc",), ("Fem", "Masc"), ("Masc", "Fem")]),
    **dict.fromkeys(["person", "tense", "voice", "degree"], st.none()),
    anomalies=st.just(()),
)
# aligned (gold, prediction) pairs, one list per sentence
aligned_pairs = st.lists(
    st.lists(st.tuples(records, records), min_size=1, max_size=5), min_size=1, max_size=6
)


@settings(max_examples=150, deadline=None)
@given(aligned_pairs, st.booleans())
def test_evaluate_matches_oracles(pairs, include_upos):
    gold = [[g for g, _ in sent] for sent in pairs]
    pred = [[p for _, p in sent] for sent in pairs]
    report = evaluate(gold, pred, include_upos=include_upos)
    flat = [pair for sent in pairs for pair in sent]
    assert report.token_count == len(flat)
    assert report.whole_string_accuracy == sum(
        g.morph_string(include_upos=include_upos) == p.morph_string(include_upos=include_upos)
        for g, p in flat
    ) / len(flat)
    for feature in REPORT_FEATURES:
        assert report.macro_f1[feature] == pytest.approx(
            oracle_macro_f1(gold, pred, feature), abs=1e-12
        )
        labels = {r.label_for(feature) for pair in flat for r in pair} | {"None"}
        assert list(report.per_value_f1[feature]) == sorted(labels)
        for value, score in report.per_value_f1[feature].items():
            precision, recall, f1, support = oracle_value_f1(gold, pred, feature, value)
            assert score.precision == pytest.approx(precision, abs=1e-12)
            assert score.recall == pytest.approx(recall, abs=1e-12)
            assert score.f1 == pytest.approx(f1, abs=1e-12)
            assert score.support == support


def numpy_class_counts(gold, pred, feature):
    """The numpy scoring that counted per token before the point metrics
    counted (gold, pred) record pairs: a confusion matrix of class codes."""
    index = {}
    tokens = [
        np.array([index.setdefault(r, len(index)) for s in c for r in s], dtype=np.intp)
        for c in (gold, pred)
    ]
    keys = [r.label_for(feature) for r in index]
    classes = sorted(set(keys) | {"None"})
    position = {v: k for k, v in enumerate(classes)}
    lookup = np.array([position[k] for k in keys], dtype=np.intp)
    gold_cls, pred_cls = (lookup[t] for t in tokens)
    n = len(classes)
    confusion = np.bincount(gold_cls * n + pred_cls, minlength=n * n).reshape(n, n)
    tp = confusion.diagonal()
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    return classes, list(zip(tp.tolist(), fp.tolist(), fn.tolist()))


def numpy_accuracy(gold, pred, include_upos):
    strings = [
        np.array([r.morph_string(include_upos=include_upos) for s in c for r in s])
        for c in (gold, pred)
    ]
    if len(strings[0]) == 0:
        raise AlignmentError("no tokens to score")
    return int((strings[0] == strings[1]).sum()) / len(strings[0])


# aligned (gold, prediction) pairs, where a sentence may have no tokens
# and a corpus no sentences
aligned_pairs_or_none = st.lists(st.lists(st.tuples(records, records), max_size=5), max_size=6)


@settings(max_examples=200, deadline=None)
@given(aligned_pairs_or_none, st.booleans())
@example([], False)
@example([[], []], True)
@example([[], [(StandardRecord(upos="NOUN", number="Sing"),) * 2]], False)
def test_pair_counts_equal_the_numpy_confusion_matrix(pairs, include_upos):
    gold = [[g for g, _ in sent] for sent in pairs]
    pred = [[p for _, p in sent] for sent in pairs]
    codes = _Codes(gold, pred)
    counts = codes.pairs()
    for feature in REPORT_FEATURES:
        assert _class_counts(codes, counts, feature) == numpy_class_counts(gold, pred, feature)
    if any(pairs):
        assert _accuracy(codes, counts, include_upos) == numpy_accuracy(gold, pred, include_upos)
    else:
        with pytest.raises(AlignmentError, match="no tokens"):
            _accuracy(codes, counts, include_upos)
        with pytest.raises(AlignmentError, match="no tokens"):
            numpy_accuracy(gold, pred, include_upos)


def test_identity_scores_one():
    rng = random.Random(0)
    gold = random_corpus(rng, 20)
    assert whole_string_accuracy(gold, gold) == 1.0
    assert macro_f1(gold, gold, "Case") == 1.0


def test_an_unknown_feature_is_rejected():
    gold = [[StandardRecord(upos="NOUN", case="Nom")]]
    with pytest.raises(ValueError, match="^unknown feature 'Bogus'$"):
        macro_f1(gold, gold, "Bogus")


def test_one_wrong_case_in_ten_tokens():
    gold = [[StandardRecord(upos="NOUN", case="Nom") for _ in range(10)]]
    pred = [[StandardRecord(upos="NOUN", case="Nom") for _ in range(9)]
            + [StandardRecord(upos="NOUN", case="Acc")]]
    assert whole_string_accuracy(gold, pred) == pytest.approx(0.9)


def test_upos_excluded_from_string_by_default():
    gold = [[StandardRecord(upos="NOUN", case="Nom")]]
    pred = [[StandardRecord(upos="VERB", case="Nom")]]
    assert whole_string_accuracy(gold, pred) == 1.0
    assert whole_string_accuracy(gold, pred, include_upos=True) == 0.0


def test_macro_f1_matches_oracle_on_random_fixtures():
    rng = random.Random(1)
    for _ in range(30):
        gold = random_corpus(rng, rng.randint(1, 12))
        pred = corrupt(gold, rng, rng.random() * 0.8)
        for feature in ("Case", "Mood", "Gender", "UPOS"):
            assert macro_f1(gold, pred, feature) == pytest.approx(
                oracle_macro_f1(gold, pred, feature), abs=1e-12
            )


def test_per_value_f1_matches_oracle():
    rng = random.Random(2)
    gold = random_corpus(rng, 15)
    pred = corrupt(gold, rng, 0.4)
    for value in ("Nom", "Acc", "None", "Fem,Masc"):
        score = per_value_f1(gold, pred, "Case" if value not in ("Fem,Masc",) else "Gender", value)
        feature = "Case" if value != "Fem,Masc" else "Gender"
        precision, recall, f1, support = oracle_value_f1(gold, pred, feature, value)
        assert score.precision == pytest.approx(precision, abs=1e-12)
        assert score.recall == pytest.approx(recall, abs=1e-12)
        assert score.f1 == pytest.approx(f1, abs=1e-12)
        assert score.support == support


def test_per_value_identity_and_absent():
    gold = [[StandardRecord(upos="NOUN", case="Nom")] * 4]
    score = per_value_f1(gold, gold, "Case", "Nom")
    assert (score.precision, score.recall, score.f1, score.support) == (1.0, 1.0, 1.0, 4)
    absent = per_value_f1(gold, gold, "Case", "Voc")
    assert (absent.precision, absent.recall, absent.f1, absent.support) == (0.0, 0.0, 0.0, 0)
    assert absent.observed is False


def test_never_predicted_class_drags_macro_mean():
    gold = [[StandardRecord(upos="VERB", mood="Sup"),
             StandardRecord(upos="VERB", mood="Ind")]]
    pred = [[StandardRecord(upos="VERB", mood="Ind"),
             StandardRecord(upos="VERB", mood="Ind")]]
    # classes: Sup, Ind, None; Sup F1=0, Ind F1=2/3, None F1=1... no None in
    # gold or pred beyond inclusion; None has no tokens so F1=0
    score = macro_f1(gold, pred, "Mood")
    assert score == pytest.approx((0 + 2 / 3 + 0) / 3)


def test_accuracy_invariant_to_feats_insertion_order():
    text_a = "# sent_id = s\n1\tx\tx\tNOUN\t_\tCase=Nom|Number=Sing\t_\t_\t_\t_\n"
    text_b = "# sent_id = s\n1\tx\tx\tNOUN\t_\tNumber=Sing|Case=Nom\t_\t_\t_\t_\n"
    records_a = records_of(parse_conllu(text_a))
    records_b = records_of(parse_conllu(text_b))
    assert whole_string_accuracy(records_a, records_b) == 1.0


def test_alignment_errors():
    token = Token(id=1, form="a", lemma="a", upos="NOUN", feats=FeatureBundle())
    second = Token(id=2, form="b", lemma="b", upos="NOUN", feats=FeatureBundle())
    other = Token(id=1, form="b", lemma="b", upos="NOUN", feats=FeatureBundle())
    gold = [Sentence(sent_id="s", tokens=(token,))]
    with pytest.raises(AlignmentError, match="sentence count"):
        check_alignment(gold, [])
    with pytest.raises(AlignmentError, match="token count"):
        check_alignment(gold, [Sentence(sent_id="s", tokens=(token, second))])
    with pytest.raises(AlignmentError, match="form mismatch"):
        check_alignment(gold, [Sentence(sent_id="s", tokens=(other,))])


@pytest.mark.parametrize("pred", [
    [[StandardRecord(upos="NOUN")]],
    [[StandardRecord(upos="NOUN")], []],
    # as many tokens as gold, but not per sentence
    [[StandardRecord(upos="NOUN"), StandardRecord(upos="VERB")], []],
], ids=["fewer-sentences", "fewer-tokens", "tokens-moved"])
def test_every_scorer_refuses_records_that_do_not_line_up(pred):
    gold = [[StandardRecord(upos="NOUN")], [StandardRecord(upos="VERB")]]
    scorers = [
        lambda: whole_string_accuracy(gold, pred),
        lambda: macro_f1(gold, pred, "Case"),
        lambda: per_value_f1(gold, pred, "Case", "Nom"),
        lambda: evaluate(gold, pred),
        lambda: permutation_test(gold, pred, gold, iterations=1),
        lambda: permutation_test(gold, gold, pred, iterations=1),
    ]
    for scorer in scorers:
        with pytest.raises(AlignmentError, match="^gold and prediction records are not aligned$"):
            scorer()


def test_parse_metric():
    assert parse_metric("morph-acc") == ("acc", None, None)
    assert parse_metric("upos-macro-f1") == ("macro", "UPOS", None)
    assert parse_metric("macro-f1:Tense") == ("macro", "Tense", None)
    assert parse_metric("value-f1:Case=Dat") == ("value", "Case", "Dat")
    for bad in ("macro-f1:Tensey", "nope", "value-f1:Case"):
        with pytest.raises(ValueError):
            parse_metric(bad)


@pytest.mark.parametrize("feature, value", [
    ("Mood", "Sub"), ("Mood", "None"), ("UPOS", "NOUN"), ("UPOS", "None"), ("Person", "1"),
    ("Gender", "Fem"), ("Gender", "Fem,Masc"), ("Gender", "Fem,Masc,Neut"), ("Gender", "None"),
])
def test_parse_metric_accepts_every_label_form(feature, value):
    assert parse_metric(f"value-f1:{feature}={value}") == ("value", feature, value)


@pytest.mark.parametrize("feature, value, form", [
    ("Mood", "Sbu", "one of Ind, Sub, Imp, Inf, Part, Ger, Gdv, Sup"),
    ("Mood", "", "one of Ind, Sub, Imp, Inf, Part, Ger, Gdv, Sup"),
    ("Mood", "Sub,Ind", "one of Ind, Sub, Imp, Inf, Part, Ger, Gdv, Sup"),
    ("Case", "nom", "one of Nom, Gen, Dat, Acc, Abl, Voc, Loc"),
    ("UPOS", "FOO", "a UPOS tag"),
    ("Gender", "Masc,Fem", "distinct values of Fem, Masc, Neut, sorted and joined by ','"),
    ("Gender", "Fem,Fem", "distinct values of Fem, Masc, Neut, sorted and joined by ','"),
    ("Gender", "Fem,", "distinct values of Fem, Masc, Neut, sorted and joined by ','"),
])
def test_parse_metric_rejects_a_value_no_record_carries(feature, value, form):
    message = f"{feature} value {value!r} is not None or {form}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_metric(f"value-f1:{feature}={value}")


def test_a_value_metric_label_is_one_that_evaluate_reports():
    # every class that evaluate reports is a label parse_metric accepts
    rng = random.Random(5)
    gold = random_corpus(rng, 20)
    report = evaluate(gold, corrupt(gold, rng, 0.3))
    for feature, values in report.per_value_f1.items():
        for label in values:
            assert parse_metric(f"value-f1:{feature}={label}") == ("value", feature, label)


def test_evaluate_report_shape():
    rng = random.Random(3)
    gold = random_corpus(rng, 10)
    pred = corrupt(gold, rng, 0.3)
    report = evaluate(gold, pred)
    assert 0.0 <= report.whole_string_accuracy <= 1.0
    assert set(report.macro_f1) == {"UPOS", "Case", "Degree", "Gender", "Mood",
                                    "Number", "Person", "Tense", "Voice"}
    for feature, values in report.per_value_f1.items():
        assert sum(s.support for s in values.values()) == report.token_count
    table = report.format_table()
    assert "whole-string acc" in table


# --- permutation testing ---------------------------------------------------


def test_identical_predictions_give_p_one():
    rng = random.Random(4)
    gold = random_corpus(rng, 12)
    preds = corrupt(gold, rng, 0.3)
    result = permutation_test(gold, preds, preds, "morph-acc", iterations=500, seed=1)
    assert result.observed_diff == 0.0
    assert result.p_value == 1.0


def test_extreme_separation_gives_p_zero():
    gold = [[StandardRecord(upos="NOUN", case="Nom")] * 3 for _ in range(200)]
    perfect = [list(sent) for sent in gold]
    wrong = [[StandardRecord(upos="NOUN", case="Acc")] * 3 for _ in range(200)]
    result = permutation_test(gold, perfect, wrong, "morph-acc",
                              iterations=10_000, seed=2)
    assert result.p_value == 0.0
    assert "rule of three" in result.note


def naive_metric(gold, a, metric):
    kind, feature, value = parse_metric(metric)
    if kind == "acc":
        return whole_string_accuracy(gold, a)
    if kind == "macro":
        return macro_f1(gold, a, feature)
    return per_value_f1(gold, a, feature, value).f1


def exact_enumeration_p(gold, preds_a, preds_b, metric):
    """All 2^n swap patterns, metrics recomputed naively per pattern."""
    n = len(gold)
    observed = abs(naive_metric(gold, preds_a, metric) - naive_metric(gold, preds_b, metric))
    hits = 0
    total = 0
    for pattern in itertools.product((0, 1), repeat=n):
        swapped_a = [preds_b[i] if bit else preds_a[i] for i, bit in enumerate(pattern)]
        swapped_b = [preds_a[i] if bit else preds_b[i] for i, bit in enumerate(pattern)]
        diff = abs(naive_metric(gold, swapped_a, metric) - naive_metric(gold, swapped_b, metric))
        hits += diff >= observed - 1e-12
        total += 1
    return hits / total


@pytest.mark.parametrize("metric", ["morph-acc", "macro-f1:Case"])
def test_monte_carlo_close_to_exact_enumeration(metric):
    rng = random.Random(5)
    gold = random_corpus(rng, 10, max_tokens=6)
    preds_a = corrupt(gold, rng, 0.25)
    preds_b = corrupt(gold, rng, 0.45)
    exact = exact_enumeration_p(gold, preds_a, preds_b, metric)
    result = permutation_test(gold, preds_a, preds_b, metric, iterations=10_000, seed=6)
    assert result.p_value == pytest.approx(exact, abs=0.02)


def test_deterministic_given_seed_and_jobs():
    rng = random.Random(7)
    gold = random_corpus(rng, 30)
    preds_a = corrupt(gold, rng, 0.2)
    preds_b = corrupt(gold, rng, 0.3)
    results = [
        permutation_test(gold, preds_a, preds_b, "morph-acc",
                         iterations=5000, seed=42, jobs=jobs)
        for jobs in (1, 8)
    ]
    assert results[0].p_value == results[1].p_value
    assert results[0].observed_diff == results[1].observed_diff
    again = permutation_test(gold, preds_a, preds_b, "morph-acc",
                             iterations=5000, seed=42, jobs=1)
    assert again.p_value == results[0].p_value


def test_null_p_values_roughly_uniform():
    # A and B drawn from the same error process: p under the null
    rng = random.Random(8)
    gold = random_corpus(rng, 24, max_tokens=6)
    low = 0
    trials = 200
    for trial in range(trials):
        trial_rng = random.Random(1000 + trial)
        preds_a = corrupt(gold, trial_rng, 0.35)
        preds_b = corrupt(gold, trial_rng, 0.35)
        result = permutation_test(gold, preds_a, preds_b, "morph-acc",
                                  iterations=400, seed=trial)
        low += result.p_value < 0.05
    assert 0.01 <= low / trials <= 0.10


@pytest.mark.parametrize(
    "metric", ["morph-acc", "upos-macro-f1", "macro-f1:Gender", "value-f1:Gender=Fem,Masc"]
)
def test_observed_diff_matches_naive_metrics(metric):
    rng = random.Random(9)
    gold = random_corpus(rng, 20)
    preds_a = corrupt(gold, rng, 0.3)
    preds_b = corrupt(gold, rng, 0.5)
    result = permutation_test(gold, preds_a, preds_b, metric, iterations=10, seed=3)
    expected = abs(naive_metric(gold, preds_a, metric) - naive_metric(gold, preds_b, metric))
    assert result.observed_diff == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "metric",
    ["morph-acc", "upos-macro-f1", "macro-f1:Case", "value-f1:Gender=Fem,Masc", "value-f1:Case=Loc"],
)
def test_machine_diffs_match_point_metrics_on_swapped_sets(metric):
    rng = random.Random(10)
    gold = random_corpus(rng, 15)
    preds_a = corrupt(gold, rng, 0.3)
    preds_b = corrupt(gold, rng, 0.5)
    masks = np.random.default_rng(11).integers(0, 2, (25, len(gold))).astype(np.float64)
    machine = _build_machine(_Codes(gold, preds_a, preds_b), metric, False)
    diffs = machine.diffs(masks[:, machine.moving])
    for mask, diff in zip(masks, diffs):
        swapped_a = [b if bit else a for a, b, bit in zip(preds_a, preds_b, mask)]
        swapped_b = [a if bit else b for a, b, bit in zip(preds_a, preds_b, mask)]
        expected = abs(naive_metric(gold, swapped_a, metric) - naive_metric(gold, swapped_b, metric))
        assert diff == pytest.approx(expected, abs=1e-12)


def test_no_tokens_to_test():
    with pytest.raises(AlignmentError, match="no tokens"):
        permutation_test([[]], [[]], [[]], "morph-acc", iterations=10)


def test_iterations_must_be_positive():
    gold = [[StandardRecord(upos="NOUN")]]
    with pytest.raises(ValueError, match="iterations"):
        permutation_test(gold, gold, gold, "morph-acc", iterations=0)


def test_seed_and_iterations_outside_the_spawn_word_are_rejected():
    gold = [[StandardRecord(upos="NOUN")]]
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        permutation_test(gold, gold, gold, "morph-acc", iterations=10, seed=-1)
    with pytest.raises(ValueError, match=f"iterations must be in 1..{2**32}, got {2**32 + 1}"):
        permutation_test(gold, gold, gold, "morph-acc", iterations=MAX_ITERATIONS + 1)


# --- sentences that move ---------------------------------------------------

PERM_METRICS = ["morph-acc", "upos-macro-f1", "macro-f1:Case", "macro-f1:Gender",
                "value-f1:Case=Nom", "value-f1:Gender=Fem,Masc"]
# differs from every record the strategy draws in UPOS, Case and Gender
WRONG = StandardRecord(upos="PROPN", case="Voc", gender=("Neut",))


def machine_and_stats(codes, metric):
    """The machine and the per-sentence statistics it was given."""
    given_stats = []

    class Recording(permutation._Machine):
        def __init__(self, stats_a, stats_b, *args, **kwargs):
            given_stats.append((stats_a, stats_b))
            super().__init__(stats_a, stats_b, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(permutation, "_Machine", Recording)
        machine = _build_machine(codes, metric, False)
    [stats] = given_stats
    return machine, stats


def full_diffs(machine, stats_a, stats_b, masks):
    """The reduction over every sentence, those that move nothing included."""
    moved = masks @ (stats_b - stats_a)
    diff = machine.score(machine.base_a + moved) - machine.score(machine.base_b - moved)
    return np.abs(diff) / machine.scale


@settings(max_examples=200, deadline=None)
@given(
    triples=st.lists(st.lists(st.tuples(records, records, records), max_size=4),
                     min_size=1, max_size=6).filter(any),
    metric=st.sampled_from(PERM_METRICS),
    mode=st.sampled_from(["drawn", "a == b", "b all wrong"]),
    seed=st.integers(0, 2**32),
)
def test_moving_sentences_give_the_full_product_bit_for_bit(triples, metric, mode, seed):
    gold = [[g for g, _, _ in sent] for sent in triples]
    a = [[p for _, p, _ in sent] for sent in triples]
    b = [[p for _, _, p in sent] for sent in triples]
    if mode == "a == b":
        b = a
    elif mode == "b all wrong":
        a, b = gold, [[WRONG] * len(sent) for sent in gold]
    codes = _Codes(gold, a, b)
    machine, (stats_a, stats_b) = machine_and_stats(codes, metric)
    n = len(gold)
    masks = np.random.default_rng(seed).integers(0, 2, (20, n)).astype(np.float64)
    masks = np.vstack([np.zeros(n), np.ones(n), masks])
    assert np.array_equal(machine.diffs(masks[:, machine.moving]),
                          full_diffs(machine, stats_a, stats_b, masks))
    if mode == "a == b":
        assert len(machine.moving) == 0
    elif mode == "b all wrong" and not metric.startswith("value-f1"):
        assert machine.moving.tolist() == [i for i, sent in enumerate(gold) if sent]
    # the p-value's counts, against the full product over the same draw
    iterations = 37
    observed = full_diffs(machine, stats_a, stats_b, np.zeros((1, n)))[0]
    hits = int((full_diffs(machine, stats_a, stats_b, reference_swap_masks(seed, 0, iterations, n))
                >= observed).sum())
    assert permutation.observed_and_hits(codes, metric, False, iterations, seed) == (observed, hits)
    if mode == "a == b":
        assert (observed, hits) == (0.0, iterations)


# --- the swap-mask draw ----------------------------------------------------


def reference_swap_masks(seed, start, stop, n_sentences):
    """One generator per iteration: the definition the fast draw reproduces."""
    masks = np.empty((stop - start, n_sentences), dtype=np.float64)
    for i in range(start, stop):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        masks[i - start] = rng.integers(0, 2, n_sentences)
    return masks


def spawn_words(start, stop):
    return np.arange(start, stop, dtype=np.uint32)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**160),
    start=st.integers(0, 2**32 - 3),
    rows=st.integers(1, 3),
    n_sentences=st.integers(1, 40),
)
@example(seed=0, start=0, rows=3, n_sentences=1)
@example(seed=2**32 - 1, start=7, rows=3, n_sentences=2)
@example(seed=2**32, start=2**32 - 3, rows=3, n_sentences=9)
@example(seed=2**64 + 1, start=2**32 - 3, rows=3, n_sentences=10)
@example(seed=2**128 + 12345, start=2**32 - 3, rows=3, n_sentences=813)
@example(seed=2**128 + 12345, start=0, rows=3, n_sentences=2)
def test_swap_masks_match_one_generator_per_iteration(seed, start, rows, n_sentences):
    stop = start + rows
    assert np.array_equal(
        _Draw(n_sentences, np.arange(n_sentences), 1).masks(seed, start, stop),
        reference_swap_masks(seed, start, stop, n_sentences),
    )


@st.composite
def column_subsets(draw):
    """A sentence count and a sorted, non-empty subset of its indices."""
    n_sentences = draw(st.integers(1, 300))
    columns = draw(st.sets(st.integers(0, n_sentences - 1), min_size=1, max_size=40))
    return n_sentences, np.array(sorted(columns))


# word w holds sentences 2w and 2w + 1
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**160), start=st.integers(0, 2**32 - 3), rows=st.integers(1, 3),
       subset=column_subsets())
@example(seed=3, start=0, rows=3, subset=(12, np.arange(12)))  # adjacent words, both sentences
@example(seed=2**160, start=2**32 - 3, rows=3, subset=(12, np.array([1, 2, 5, 6])))  # one each
@example(seed=5, start=9, rows=2, subset=(20, np.array([0, 4, 9, 15])))  # skip 1 word, then 2
@example(seed=2**64, start=1, rows=3, subset=(300, np.array([0, 1, 150, 299])))  # skip many
@example(seed=7, start=2**31, rows=3, subset=(40, np.arange(0, 40, 2)))  # only even
@example(seed=2**96 + 1, start=4, rows=3, subset=(40, np.arange(1, 40, 2)))  # only odd
@example(seed=11, start=2**32 - 3, rows=3, subset=(9, np.array([8])))  # last of an odd count
@example(seed=12, start=0, rows=1, subset=(299, np.array([3, 298])))
def test_both_draws_match_one_generator_per_iteration_on_any_sentences(seed, start, rows, subset):
    n_sentences, moving = subset
    stop = start + rows
    expected = reference_swap_masks(seed, start, stop, n_sentences)[:, moving]
    seeds = _pcg64_seeds(seed, spawn_words(start, stop))
    assert np.array_equal(_bit_masks(seeds, _Draw(n_sentences, moving, 1)).T, expected)
    assert np.array_equal(_raw_masks(seeds, n_sentences, moving), expected)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**300))
@example(seed=0)
@example(seed=2**32 - 1)
@example(seed=2**32)
@example(seed=2**128 - 1)
@example(seed=2**128)
@example(seed=2**300 - 1)
def test_seed_pool_is_numpys(seed):
    assert np.concatenate(_seed_pool(seed)).tolist() == np.random.SeedSequence(entropy=seed).pool.tolist()


def test_seedsequence_entropy_mixing_is_written_once():
    # the hash and mix constants of SeedSequence's entropy mixing are read in
    # one function, which mixes the seed's words and the spawn word alike
    constants = {"_INIT_A", "_MULT_A", "_MIX_MULT_L", "_MIX_MULT_R"}
    readers: dict[str, set[str]] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) and child.id in constants:
                readers.setdefault(child.id, set()).add(scope or "<module>")
            visit(child, scope)

    with open(permutation.__file__, encoding="utf-8") as source:
        visit(ast.parse(source.read()), "")
    assert readers == dict.fromkeys(constants, {"_seed_pool"})


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**160), start=st.integers(0, 2**32 - 3))
@example(seed=0, start=0)
@example(seed=2**128, start=2**32 - 3)
def test_pcg64_seeds_are_numpys(seed, start):
    hi, lo, inc_hi, inc_lo = (a.tolist() for a in _pcg64_seeds(seed, spawn_words(start, start + 3)))
    for row, i in enumerate(range(start, start + 3)):
        bitgen = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        state = bitgen.state["state"]
        assert (hi[row] << 64 | lo[row], inc_hi[row] << 64 | inc_lo[row]) == (state["state"], state["inc"])


def test_a_jump_is_that_many_steps():
    mult, plus, m = 1, 0, permutation._PCG64_MULT
    for steps in range(1, 200):
        # one more step: s -> m s + inc
        mult, plus = mult * m % 2**128, (plus * m + 1) % 2**128
        assert _jump(steps) == (mult, plus)
    # jumps compose: a + b steps are b steps after a
    (mult_a, plus_a), (mult_b, plus_b) = _jump(2**40 + 3), _jump(12345)
    assert _jump(2**40 + 12348) == (mult_a * mult_b % 2**128, (mult_b * plus_a + plus_b) % 2**128)


def test_the_draw_computes_in_unsigned_integers_only():
    # Every ufunc of the seeding and the bit-only draw must take unsigned or
    # boolean arrays and numpy scalars, never a Python number, whose type
    # numpy < 2 picks from its value, and must make only unsigned or boolean
    # results, except where it writes into a float64 mask through ``out``.
    calls = []

    class Unsigned(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            calls.append(ufunc.__name__)
            for operand in inputs:
                assert isinstance(operand, (np.ndarray, np.generic)), (ufunc, operand)
                assert operand.dtype.kind in "ub", (ufunc, operand.dtype)
            plain = [x.view(np.ndarray) if isinstance(x, Unsigned) else x for x in inputs]
            if out is not None:
                kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, Unsigned) else o for o in out)
            result = getattr(ufunc, method)(*plain, **kwargs)
            if out is not None:
                return out[0] if len(out) == 1 else out
            assert result.dtype.kind in "ub", (ufunc, result.dtype)
            return result.view(Unsigned)

    seed, start, stop = 2**130 + 7, 2**32 - 5, 2**32
    seeds = _pcg64_seeds(seed, spawn_words(start, stop).view(Unsigned))
    assert [(type(a), a.dtype) for a in seeds] == [(Unsigned, np.dtype(np.uint64))] * 4
    moving = np.array([0, 1, 2, 5, 9, 40])
    masks = _bit_masks(seeds, _Draw(41, moving, 1))
    assert {"multiply", "add", "right_shift", "bitwise_and", "less"} <= set(calls)
    assert np.array_equal(masks.T, reference_swap_masks(seed, start, stop, 41)[:, moving])


@pytest.mark.parametrize("iterations", [1, 1023, 1024, 1025, 2049])
@pytest.mark.parametrize("metric", ["morph-acc", "macro-f1:Case"])
def test_p_value_matches_a_row_by_row_loop_over_reference_masks(metric, iterations):
    rng = random.Random(12)
    gold = random_corpus(rng, 9, max_tokens=5)
    preds_a = corrupt(gold, rng, 0.3)
    preds_b = corrupt(gold, rng, 0.4)
    machine = _build_machine(_Codes(gold, preds_a, preds_b), metric, False)
    observed = machine.diffs(np.zeros((1, len(machine.moving))))[0]
    masks = reference_swap_masks(13, 0, iterations, len(gold))[:, machine.moving]
    hits = sum(machine.diffs(mask[None, :])[0] >= observed for mask in masks)
    result = permutation_test(gold, preds_a, preds_b, metric, iterations=iterations, seed=13)
    assert result.p_value == hits / iterations


def draws_taken(monkeypatch) -> list[str]:
    """The names of the draws that the permutation test calls from now on."""
    taken = []
    for name in ("_bit_masks", "_raw_masks"):
        def recorded(*args, draw=getattr(permutation, name), name=name):
            taken.append(name)
            return draw(*args)

        monkeypatch.setattr(permutation, name, recorded)
    return taken


def one_token_apart(rng, gold, every):
    """Predictions a and b equal to gold except on every ``every``-th
    sentence, where one of them, at random, gets its first token wrong:
    those sentences move, for each metric the records differ in."""
    preds_a, preds_b = [list(s) for s in gold], [list(s) for s in gold]
    for i in range(0, len(gold), every):
        wrong = rng.choice((preds_a, preds_b))
        wrong[i][0] = WRONG
    return preds_a, preds_b


@pytest.mark.parametrize("every, draw", [(1, "_raw_masks"), (24, "_bit_masks")])
def test_the_draw_follows_how_many_words_hold_a_moving_sentence(monkeypatch, every, draw):
    rng = random.Random(15)
    gold = random_corpus(rng, 813, max_tokens=4)
    preds_a, preds_b = one_token_apart(rng, gold, every)
    machine = _build_machine(_Codes(gold, preds_a, preds_b), "morph-acc", False)
    assert machine.moving.tolist() == list(range(0, 813, every))
    taken = draws_taken(monkeypatch)
    observed = machine.diffs(np.zeros((1, len(machine.moving))))[0]
    iterations = 300
    masks = reference_swap_masks(16, 0, iterations, len(gold))[:, machine.moving]
    hits = sum(machine.diffs(mask[None, :])[0] >= observed for mask in masks)
    result = permutation_test(gold, preds_a, preds_b, "morph-acc", iterations=iterations, seed=16)
    assert result.p_value == hits / iterations
    assert 0 < hits < iterations
    assert set(taken) == {draw}


# --- blocks of iterations --------------------------------------------------


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("metric", ["morph-acc", "macro-f1:Case"])
def test_p_value_across_block_boundaries(monkeypatch, metric, block):
    rng = random.Random(12)
    gold = random_corpus(rng, 9, max_tokens=5)
    preds_a = corrupt(gold, rng, 0.3)
    preds_b = corrupt(gold, rng, 0.4)
    machine = _build_machine(_Codes(gold, preds_a, preds_b), metric, False)
    moving, width = machine.moving, machine.delta.shape[1]
    # 9 sentences take the bit-only draw, which keeps no 64-bit output
    row_bytes = len(moving) + 8 * (4 * width + permutation._DRAW_ROW_WORDS)
    monkeypatch.setattr(permutation, "BLOCK_BYTES", block * row_bytes)
    assert _Draw(len(gold), moving, width).rows == block
    drawn, masks_of = [], _Draw.masks

    def recorded_masks(draw, seed, start, stop):
        drawn.append((start, stop))
        return masks_of(draw, seed, start, stop)

    monkeypatch.setattr(_Draw, "masks", recorded_masks)
    observed = machine.diffs(np.zeros((1, len(moving))))[0]
    for iterations in sorted({1, max(1, block - 1), block + 1, 2 * block + 1}):
        drawn.clear()
        masks = reference_swap_masks(13, 0, iterations, len(gold))[:, moving]
        hits = sum(machine.diffs(mask[None, :])[0] >= observed for mask in masks)
        result = permutation_test(gold, preds_a, preds_b, metric, iterations=iterations, seed=13)
        assert result.p_value == hits / iterations
        starts = range(0, iterations, block)
        assert drawn == [(start, min(start + block, iterations)) for start in starts]


def test_p_value_across_product_sub_blocks_shorter_than_a_block(monkeypatch):
    # morph-acc's statistics are one column wide, so with many moving sentences
    # the float64 mask of a product row takes more bytes than a drawn row
    rng = random.Random(17)
    gold = random_corpus(rng, 90, max_tokens=5)
    preds_a = corrupt(gold, rng, 0.3)
    preds_b = corrupt(gold, rng, 0.4)
    machine = _build_machine(_Codes(gold, preds_a, preds_b), "morph-acc", False)
    moving = machine.moving
    # the bit-only draw also keeps two uint64 words a row per recurring step count
    kept = _Draw(len(gold), moving, 1).kept
    assert len(kept) > 0
    row_bytes = len(moving) + 8 * (4 + permutation._DRAW_ROW_WORDS) + 16 * len(kept)
    monkeypatch.setattr(permutation, "BLOCK_BYTES", 12 * row_bytes)
    # a sub-block holds its rows of the mask as float64
    draw = _Draw(len(gold), moving, 1)
    block, sub = draw.rows, 12 * row_bytes // (8 * len(moving))
    assert block == 12 and 1 < sub < block - 1 and draw.sub_rows == sub
    diffs, scored = permutation._Machine.diffs, []

    def recorded_diffs(self, masks):
        scored.append(len(masks))
        return diffs(self, masks)

    monkeypatch.setattr(permutation._Machine, "diffs", recorded_diffs)
    observed = machine.diffs(np.zeros((1, len(moving))))[0]
    for iterations in sorted({1, sub - 1, sub, sub + 1, block - 1, block, block + 1, 2 * block + sub}):
        scored.clear()
        masks = reference_swap_masks(13, 0, iterations, len(gold))[:, moving]
        hits = sum(diffs(machine, mask[None, :])[0] >= observed for mask in masks)
        result = permutation_test(gold, preds_a, preds_b, "morph-acc", iterations=iterations, seed=13)
        assert result.p_value == hits / iterations, iterations
        # after the observed difference, each block's rows in sub-blocks
        expected = []
        for start in range(0, iterations, block):
            rows = min(block, iterations - start)
            expected += [min(sub, rows - at) for at in range(0, rows, sub)]
        assert scored == [1, *expected], iterations


def test_block_rows_keep_to_the_budget_and_the_row_cap():
    budget = permutation.BLOCK_BYTES

    def block_rows(n_sentences, moving, width):
        return _Draw(n_sentences, moving, width).rows

    assert block_rows(1, np.arange(1), 1) == permutation.MAX_BLOCK_ROWS == 8192
    assert block_rows(120, np.arange(0, 120, 7), 1) == 8192
    assert block_rows(813, np.arange(0, 813, 9), 1) == 8192
    # 136 moving sentences fall below the cap only through their kept step count, 3
    assert block_rows(813, np.arange(0, 813, 6), 1) == budget // (136 + 8 * (4 + 16) + 16) < 8192
    # bit-only: a byte of mask per moving sentence, and in 8-byte words four
    # times the statistics' width, the draw's working arrays and two words for
    # each step count above 1 that recurs: here every jump after the first
    # takes 25 steps
    assert block_rows(813, np.arange(0, 813, 50), 33) == budget // (17 + 8 * (4 * 33 + 16) + 16)
    moving = np.array([1, 4, 7, 12, 13, 22, 31, 40, 70])  # words 0, 2, 3, 6, 11, 15, 20, 35
    draw = _Draw(813, moving, 33)
    assert [step for step, *_ in draw.jumps] == [1, 2, 1, 3, 5, 4, 5, 15]
    assert list(draw.kept) == [5]  # the one step count above 1 that recurs
    assert block_rows(813, moving, 33) == budget // (9 + 8 * (4 * 33 + 16) + 16)
    # per-row: every 64-bit output of the row and the 32-bit halves kept, too
    assert block_rows(813, np.arange(813), 1) == budget // (813 + 8 * (4 + 16) + 8 * 407 + 4 * 813)
    assert block_rows(1, np.arange(1), 10**12) == 1


def one_block_and_many(codes, metric, many):
    """The traced peak memory of the permutation test over one block of
    iterations and over ``many`` iterations, after an untraced run has
    imported what the draw needs."""
    machine = _build_machine(codes, metric, False)
    block = _Draw(len(codes.sentence_lengths), machine.moving, machine.delta.shape[1]).rows
    permutation.observed_and_hits(codes, metric, False, 1, 1)
    peaks = []
    for iterations in (block, many):
        tracemalloc.start()
        try:
            permutation.observed_and_hits(codes, metric, False, iterations, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_perm_test_memory_does_not_grow_with_iterations(monkeypatch):
    rng = random.Random(14)
    gold = random_corpus(rng, 813, max_tokens=19)
    codes = _Codes(gold, corrupt(gold, rng, 0.1), corrupt(gold, rng, 0.12))
    taken = draws_taken(monkeypatch)
    short, long = one_block_and_many(codes, "upos-macro-f1", 10_000)
    assert long < 5_000_000
    assert long <= short + 100_000
    assert set(taken) == {"_raw_masks"}  # 351 of 407 words hold a moving sentence


def test_perm_test_memory_does_not_grow_with_iterations_on_the_bit_only_draw(monkeypatch):
    rng = random.Random(14)
    gold = random_corpus(rng, 813, max_tokens=19)
    codes = _Codes(gold, *one_token_apart(rng, gold, 6))
    taken = draws_taken(monkeypatch)
    short, long = one_block_and_many(codes, "upos-macro-f1", 40_000)
    assert long < 5_000_000
    assert long <= short + 100_000
    assert set(taken) == {"_bit_masks"}
