"""Score prediction files against gold standardized corpora.

Three metrics: whole-string morphological accuracy (UPOS scored
separately), per-feature macro F1 with None as a first-class value, and
one-vs-rest F1 for single feature values. Each is integer counts over
the distinct (gold, prediction) record pairs, in plain Python. Corpora
are coded once (_Codes), from records or straight from tokens, with an
integer per distinct record; the CLI codes the tokens of gold and its
prediction files in one pass, and the *_codes functions score the
codes. Two prediction sets are compared by randomized permutation
testing with sentence-level swaps; only that test needs numpy, and it
imports permutation.py on first use.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress
from operator import is_not
from typing import NamedTuple, Sequence

from .conllu import Sentence, Token
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
            if tg is not tp and tg.form != tp.form:
                raise AlignmentError(
                    f"sentence {g.sent_id!r} token {tg.id}: form mismatch "
                    f"({tg.form!r} vs {tp.form!r})"
                )


RecordMemo = dict[tuple[str, str], StandardRecord]


def records_of(
    sentences: Sequence[Sentence], memo: RecordMemo | None = None
) -> list[list[StandardRecord]]:
    # Tokens with one UPOS and one canonical FEATS string share one
    # record, so corpora passed one ``memo`` share their records too.
    if memo is None:
        memo = {}

    def record(token: Token) -> StandardRecord:
        key = (token.upos, token.feats.to_string())
        if key not in memo:
            memo[key] = record_from_standard_feats(token)
        return memo[key]

    records = []
    for s in sentences:
        try:
            records.append([record(t) for t in s.tokens])
        except ValueError as exc:  # a label outside the standard scheme
            raise ValueError(f"sentence {s.sent_id!r}: {exc}") from None
    return records


class _Codes:
    """Aligned corpora as integer codes, one per distinct record, so labels
    and strings are built once per distinct record instead of once per
    token. A corpus is a sequence of sentences, and a sentence a sequence
    of records or of tokens. Every corpus must have the first one's
    sentence lengths, and a token that is not the first corpus's token at
    its place must have its form.

    Each distinct object is coded once: a token, which a reader returns
    once per distinct line, by its UPOS and canonical FEATS string, each
    distinct pair read as a record once, as ``records_of`` reads it (a
    label outside the standard scheme raises ValueError); a record, which
    ``records_of`` returns once per such pair, by its value. The codes
    number the distinct records in the order first seen."""

    def __init__(self, *corpora: Sequence[Sequence[StandardRecord | Token]]):
        self.sentence_lengths = list(map(len, corpora[0]))
        items = [list(chain.from_iterable(c)) for c in corpora]
        first = items[0]
        for corpus, other in zip(corpora[1:], items[1:]):
            if list(map(len, corpus)) != self.sentence_lengths or any(
                isinstance(a, Token) and a.form != b.form
                for a, b in compress(zip(first, other), map(is_not, first, other))
            ):
                raise AlignmentError("gold and prediction records are not aligned")
        # each distinct object by its id, in the order first seen, then its code
        ids = [list(map(id, corpus)) for corpus in items]
        code: dict[int, StandardRecord | Token | int] = {}
        for corpus, keys in zip(items, ids):
            code.update(zip(keys, corpus))
        index: dict[StandardRecord, int] = {}
        keyed: dict[tuple[str, str], int] = {}
        for item in code.values():
            if isinstance(item, Token):
                key = (item.upos, item.feats.to_string())
                number = keyed.get(key)
                if number is None:
                    number = keyed[key] = index.setdefault(record_from_standard_feats(item), len(index))
            else:
                number = index.setdefault(item, len(index))
            code[id(item)] = number
        self.tokens = [list(map(code.__getitem__, keys)) for keys in ids]
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


def _f1(tp, fp, fn):
    """F1 from counts, 0 where there is nothing to score: of ints, or
    elementwise of numpy arrays."""
    denom = 2 * tp + fp + fn
    return 2 * tp / (denom + (denom == 0))


def _macro(counts: list[tuple[int, int, int]]) -> float:
    scores = [_f1(*c) for c in counts]
    return sum(scores) / len(scores)


def macro_f1(gold: Records, pred: Records, feature: str) -> float:
    """Unweighted mean of per-class F1 over the values observed in gold
    or predictions, plus None, which is a value like any other."""
    codes = _Codes(gold, pred)
    return _macro(_class_counts(codes, codes.pairs(), feature)[1])


class ValueScore(NamedTuple):
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


class EvalReport(NamedTuple):
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
    return evaluate_codes(_Codes(gold, pred), include_upos=include_upos)


def evaluate_codes(codes: _Codes, *, include_upos: bool = False) -> EvalReport:
    """The report of the second corpus of ``codes`` scored against the first."""
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


class PermutationResult(NamedTuple):
    metric: str
    observed_diff: float
    p_value: float
    iterations: int
    seed: int
    note: str | None = None


# Iteration i is one uint32 spawn word.
MAX_ITERATIONS = 1 << 32


def _check_draws(iterations: int, seed: int) -> None:
    if not 1 <= iterations <= MAX_ITERATIONS:
        raise ValueError(f"iterations must be in 1..{MAX_ITERATIONS}, got {iterations}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


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
    did not make it faster. numpy's BLAS keeps the threads that the host
    program gave it; the ``perm-test`` subcommand gives it one, unless
    its caller sets ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
    ``OMP_NUM_THREADS``.
    """
    _check_draws(iterations, seed)
    return permutation_test_codes(
        _Codes(gold, preds_a, preds_b), metric, iterations=iterations, seed=seed,
        include_upos=include_upos,
    )


def permutation_test_codes(
    codes: _Codes,
    metric: str = "morph-acc",
    *,
    iterations: int = 10_000,
    seed: int = 0,
    include_upos: bool = False,
) -> PermutationResult:
    """``permutation_test`` of the second and third corpora of ``codes``
    scored against the first."""
    _check_draws(iterations, seed)
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
