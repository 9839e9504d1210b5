"""Score prediction files against gold standardized corpora.

Three metrics: whole-string morphological accuracy (UPOS scored
separately), per-feature macro F1 with None as a first-class value, and
one-vs-rest F1 for single feature values. Each is integer counts over
the distinct (gold, prediction) record pairs, in plain Python. Two
prediction sets are compared by randomized permutation testing with
sentence-level swaps; only that test needs numpy, and it imports
permutation.py on first use.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .conllu import FeatureBundle, Sentence, Token
from .standardize import STANDARD_FEATURES as REPORT_FEATURES
from .standardize import StandardRecord, check_label, record_from_standard_feats

Records = Sequence[Sequence[StandardRecord]]


class AlignmentError(ValueError):
    """Prediction file does not line up with gold; never realigned."""


def check_alignment(gold: Sequence[Sentence], pred: Sequence[Sentence]) -> None:
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


RecordMemo = dict[tuple[str, int], tuple[FeatureBundle, StandardRecord]]


def records_of(
    sentences: Sequence[Sentence], memo: RecordMemo | None = None
) -> list[list[StandardRecord]]:
    # Tokens with one UPOS and one FEATS bundle share one record. A
    # CorpusReader shares a bundle per distinct FEATS string across every
    # file it reads, so corpora read through one reader and passed one
    # ``memo`` share their records too. The memo holds each bundle, so no
    # key outlives the object whose id it holds.
    if memo is None:
        memo = {}

    def record(token: Token) -> StandardRecord:
        key = (token.upos, id(token.feats))
        if key not in memo:
            memo[key] = (token.feats, record_from_standard_feats(token))
        return memo[key][1]

    records = []
    for s in sentences:
        try:
            records.append([record(t) for t in s.tokens])
        except ValueError as exc:  # a label outside the standard scheme
            raise ValueError(f"sentence {s.sent_id!r}: {exc}") from None
    return records


class _Codes:
    """Aligned corpora of records as integer codes, one per distinct
    record, so labels and strings are built once per distinct record
    instead of once per token. Every corpus must have the first one's
    sentence lengths."""

    def __init__(self, *corpora: Records):
        self.sentence_lengths = [len(s) for s in corpora[0]]
        if any([len(s) for s in c] != self.sentence_lengths for c in corpora[1:]):
            raise AlignmentError("gold and prediction records are not aligned")
        # Tokens share record objects (records_of builds one per distinct
        # UPOS and FEATS bundle), and hashing an int id is cheaper than
        # hashing a record, so each object is hashed by value once.
        objects = {id(r): r for c in corpora for s in c for r in s}
        index: dict[StandardRecord, int] = {}
        code = {key: index.setdefault(r, len(index)) for key, r in objects.items()}
        self.tokens = [[code[id(r)] for s in c for r in s] for c in corpora]
        self.records = list(index)

    def _recode(self, keys: list[str]) -> tuple[list[str], list[int]]:
        """The sorted keys (one per record) plus "None", and each record's
        index into that list."""
        values = sorted(set(keys) | {"None"})
        position = {v: k for k, v in enumerate(values)}
        return values, [position[k] for k in keys]

    def classes(self, feature: str) -> tuple[list[str], list[int]]:
        if feature not in REPORT_FEATURES:
            raise ValueError(f"unknown feature {feature!r}")
        return self._recode([r.label_for(feature) for r in self.records])

    def strings(self, include_upos: bool) -> list[int]:
        return self._recode([r.morph_string(include_upos=include_upos) for r in self.records])[1]

    def pairs(self) -> Counter[tuple[int, int]]:
        """How many tokens carry each (first corpus, second corpus) pair of
        record codes: every point metric is a sum over these."""
        return Counter(zip(self.tokens[0], self.tokens[1]))


def _class_counts(
    codes: _Codes, pairs: Counter[tuple[int, int]], feature: str
) -> tuple[list[str], list[tuple[int, int, int]]]:
    """A feature's classes and each one's (tp, fp, fn), with the second
    corpus scored against the first."""
    classes, label = codes.classes(feature)
    tp, fp, fn = [0] * len(classes), [0] * len(classes), [0] * len(classes)
    for (gold, pred), n in pairs.items():
        g, p = label[gold], label[pred]
        if g == p:
            tp[g] += n
        else:
            fp[p] += n
            fn[g] += n
    return classes, list(zip(tp, fp, fn))


def _accuracy(codes: _Codes, pairs: Counter[tuple[int, int]], include_upos: bool) -> float:
    total = sum(pairs.values())
    if total == 0:
        raise AlignmentError("no tokens to score")
    string = codes.strings(include_upos)
    return sum(n for (gold, pred), n in pairs.items() if string[gold] == string[pred]) / total


def whole_string_accuracy(
    gold: Records, pred: Records, *, include_upos: bool = False
) -> float:
    """Fraction of tokens whose sorted feature string matches gold exactly."""
    codes = _Codes(gold, pred)
    return _accuracy(codes, codes.pairs(), include_upos)


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def _macro(counts: list[tuple[int, int, int]]) -> float:
    scores = [_f1(*c) for c in counts]
    return sum(scores) / len(scores)


def macro_f1(gold: Records, pred: Records, feature: str) -> float:
    """Unweighted mean of per-class F1 over the values observed in gold
    or predictions, plus None, which is a value like any other."""
    codes = _Codes(gold, pred)
    return _macro(_class_counts(codes, codes.pairs(), feature)[1])


@dataclass(frozen=True, slots=True)
class ValueScore:
    precision: float
    recall: float
    f1: float
    support: int
    observed: bool = True  # False when the value occurs in neither file


def _value_score(tp: int, fp: int, fn: int) -> ValueScore:
    support = tp + fn
    return ValueScore(
        precision=tp / (tp + fp) if tp + fp else 0.0,
        recall=tp / support if support else 0.0,
        f1=_f1(tp, fp, fn),
        support=support,
        observed=bool(support or tp + fp),
    )


def per_value_f1(gold: Records, pred: Records, feature: str, value: str) -> ValueScore:
    """One-vs-rest precision/recall/F1 for one feature value."""
    codes = _Codes(gold, pred)
    classes, counts = _class_counts(codes, codes.pairs(), feature)
    return _value_score(*dict(zip(classes, counts)).get(value, (0, 0, 0)))


@dataclass(slots=True)
class EvalReport:
    # the field names are the keys of eval's JSON report
    whole_string_accuracy: float
    token_count: int
    macro_f1: dict[str, float]
    per_value_f1: dict[str, dict[str, ValueScore]]

    def format_table(self) -> str:
        lines = [
            f"tokens scored        {self.token_count}",
            f"whole-string acc     {self.whole_string_accuracy:.4f}",
            "",
            "feature      macro-F1",
        ]
        for feature, score in self.macro_f1.items():
            lines.append(f"{feature:<12} {score:.4f}")
        lines.append("")
        lines.append("feature      value        P      R      F1     support")
        for feature, values in self.per_value_f1.items():
            for value, s in values.items():
                lines.append(
                    f"{feature:<12} {value:<12} {s.precision:.3f}  {s.recall:.3f}  "
                    f"{s.f1:.3f}  {s.support}"
                )
        return "\n".join(lines)


def evaluate(gold: Records, pred: Records, *, include_upos: bool = False) -> EvalReport:
    codes = _Codes(gold, pred)
    pairs = codes.pairs()
    macro: dict[str, float] = {}
    per_value: dict[str, dict[str, ValueScore]] = {}
    for feature in REPORT_FEATURES:
        classes, counts = _class_counts(codes, pairs, feature)
        macro[feature] = _macro(counts)
        per_value[feature] = {cls: _value_score(*c) for cls, c in zip(classes, counts)}
    return EvalReport(
        whole_string_accuracy=_accuracy(codes, pairs, include_upos),
        token_count=len(codes.tokens[0]),
        macro_f1=macro,
        per_value_f1=per_value,
    )


# ---------------------------------------------------------------------------
# Permutation testing. The numpy machinery behind it is in permutation.py,
# imported on the first test, so the point metrics above load no numpy.


def parse_metric(name: str) -> tuple[str, str | None, str | None]:
    """Metric spec -> (kind, feature, value).

    Accepted: "morph-acc", "upos-macro-f1", "macro-f1:<Feature>",
    "value-f1:<Feature>=<Value>" with a value ``check_label`` accepts.
    """
    if name == "morph-acc":
        return ("acc", None, None)
    if name == "upos-macro-f1":
        return ("macro", "UPOS", None)
    if name.startswith("macro-f1:"):
        feature = name.split(":", 1)[1]
        if feature not in REPORT_FEATURES:
            raise ValueError(f"unknown feature in metric {name!r}")
        return ("macro", feature, None)
    if name.startswith("value-f1:"):
        spec = name.split(":", 1)[1]
        if "=" not in spec:
            raise ValueError(f"value metric needs Feature=Value, got {name!r}")
        feature, value = spec.split("=", 1)
        if feature not in REPORT_FEATURES:
            raise ValueError(f"unknown feature in metric {name!r}")
        check_label(feature, value)
        return ("value", feature, value)
    raise ValueError(f"unknown metric {name!r}")


@dataclass(frozen=True, slots=True)
class PermutationResult:
    metric: str
    observed_diff: float
    p_value: float
    iterations: int
    seed: int
    note: str | None = None


# Iteration i is one uint32 spawn word.
MAX_ITERATIONS = 1 << 32


def permutation_test(
    gold: Records,
    preds_a: Records,
    preds_b: Records,
    metric: str = "morph-acc",
    *,
    iterations: int = 10_000,
    seed: int = 0,
    jobs: int = 1,
    include_upos: bool = False,
) -> PermutationResult:
    """Paired randomization test over sentence-level swaps.

    Each iteration independently swaps both models' predictions per
    sentence with probability 1/2 and records the absolute metric
    difference over the whole shuffled set; p is the fraction of
    simulated differences at least as large as the observed one.
    Iteration i swaps sentence j when element j of
    ``default_rng(SeedSequence(entropy=seed, spawn_key=(i,))).integers(0, 2, n_sentences)``
    is 1, so a p-value can be recomputed with plain numpy. ``seed`` must
    be >= 0 and ``iterations`` in 1..2**32 (i is one 32-bit spawn word).
    ``jobs`` is accepted for interface symmetry with the other stages
    and ignored: the work runs in this thread, because worker threads
    did not make it faster.
    """
    if not 1 <= iterations <= MAX_ITERATIONS:
        raise ValueError(f"iterations must be in 1..{MAX_ITERATIONS}, got {iterations}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    codes = _Codes(gold, preds_a, preds_b)
    if len(codes.tokens[0]) == 0:
        raise AlignmentError("no tokens to score")
    from . import permutation  # numpy is needed here only

    observed, hits = permutation.observed_and_hits(codes, metric, include_upos, iterations, seed)
    p_value = hits / iterations
    note = None
    if hits == 0:
        note = f"no simulated difference reached the observed one; p < {3 / iterations:.2g} (rule of three)"
    return PermutationResult(
        metric=metric,
        observed_diff=observed,
        p_value=p_value,
        iterations=iterations,
        seed=seed,
        note=note,
    )
