"""Score prediction files against gold standardized corpora.

Three metrics: whole-string morphological accuracy (UPOS scored
separately), per-feature macro F1 with None as a first-class value, and
one-vs-rest F1 for single feature values. Two prediction sets are
compared by randomized permutation testing with sentence-level swaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


def records_of(sentences: Sequence[Sentence]) -> list[list[StandardRecord]]:
    # Tokens with one UPOS and one FEATS bundle (parse_conllu shares a
    # bundle per distinct FEATS string) share one record. The memo holds
    # each bundle, so no key outlives the object whose id it holds.
    memo: dict[tuple[str, int], tuple[FeatureBundle, StandardRecord]] = {}

    def record(token: Token) -> StandardRecord:
        key = (token.upos, id(token.feats))
        if key not in memo:
            memo[key] = (token.feats, record_from_standard_feats(token))
        return memo[key][1]

    return [[record(t) for t in s.tokens] for s in sentences]


def _check_shape(gold: Records, pred: Records) -> None:
    if len(gold) != len(pred) or any(len(g) != len(p) for g, p in zip(gold, pred)):
        raise AlignmentError("gold and prediction records are not aligned")


def _tally(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """Count of each (row, col) pair, as an n_rows x n_cols matrix."""
    counts = np.bincount(rows * n_cols + cols, minlength=n_rows * n_cols)
    return counts.reshape(n_rows, n_cols)


class _Codes:
    """Aligned corpora of records as integer codes, one per distinct
    record, so labels and strings are built once per distinct record
    instead of once per token."""

    def __init__(self, *corpora: Records):
        index: dict[StandardRecord, int] = {}
        self.tokens = [
            np.array([index.setdefault(r, len(index)) for s in c for r in s], dtype=np.intp)
            for c in corpora
        ]
        self.records = list(index)
        self.n_sentences = len(corpora[0])
        self.sentence = np.repeat(np.arange(self.n_sentences), [len(s) for s in corpora[0]])

    def _recode(self, keys: list[str]) -> tuple[list[str], list[np.ndarray]]:
        """The sorted keys (one per record) plus "None", and each corpus's
        tokens as indices into that list."""
        values = sorted(set(keys) | {"None"})
        position = {v: k for k, v in enumerate(values)}
        lookup = np.array([position[k] for k in keys], dtype=np.intp)
        return values, [lookup[t] for t in self.tokens]

    def classes(self, feature: str) -> tuple[list[str], list[np.ndarray]]:
        if feature not in REPORT_FEATURES:
            raise ValueError(f"unknown feature {feature!r}")
        return self._recode([r.label_for(feature) for r in self.records])

    def strings(self, include_upos: bool) -> list[np.ndarray]:
        return self._recode([r.morph_string(include_upos=include_upos) for r in self.records])[1]

    def sentence_stats(self, gold: np.ndarray, pred: np.ndarray, n_cls: int) -> np.ndarray:
        """Per sentence, per class: tp, fp, fn and predicted count."""
        hit, miss, n_sent = gold == pred, gold != pred, self.n_sentences
        return np.stack(
            [
                _tally(self.sentence[hit], gold[hit], n_sent, n_cls),
                _tally(self.sentence[miss], pred[miss], n_sent, n_cls),
                _tally(self.sentence[miss], gold[miss], n_sent, n_cls),
                _tally(self.sentence, pred, n_sent, n_cls),
            ],
            axis=-1,
        ).astype(np.float64)


def _class_counts(codes: _Codes, feature: str) -> tuple[list[str], list[tuple[int, int, int]]]:
    """A feature's classes and each one's (tp, fp, fn), from the confusion
    matrix of the second corpus against the first."""
    classes, (gold, pred) = codes.classes(feature)
    confusion = _tally(gold, pred, len(classes), len(classes))
    tp = confusion.diagonal()
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    return classes, list(zip(tp.tolist(), fp.tolist(), fn.tolist()))


def _accuracy(gold: np.ndarray, pred: np.ndarray) -> float:
    if len(gold) == 0:
        raise AlignmentError("no tokens to score")
    return int((gold == pred).sum()) / len(gold)


def whole_string_accuracy(
    gold: Records, pred: Records, *, include_upos: bool = False
) -> float:
    """Fraction of tokens whose sorted feature string matches gold exactly."""
    _check_shape(gold, pred)
    return _accuracy(*_Codes(gold, pred).strings(include_upos))


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def _macro(counts: list[tuple[int, int, int]]) -> float:
    scores = [_f1(*c) for c in counts]
    return sum(scores) / len(scores)


def macro_f1(gold: Records, pred: Records, feature: str) -> float:
    """Unweighted mean of per-class F1 over the values observed in gold
    or predictions, plus None, which is a value like any other."""
    _check_shape(gold, pred)
    return _macro(_class_counts(_Codes(gold, pred), feature)[1])


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
    _check_shape(gold, pred)
    classes, counts = _class_counts(_Codes(gold, pred), feature)
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
    _check_shape(gold, pred)
    codes = _Codes(gold, pred)
    macro: dict[str, float] = {}
    per_value: dict[str, dict[str, ValueScore]] = {}
    for feature in REPORT_FEATURES:
        classes, counts = _class_counts(codes, feature)
        macro[feature] = _macro(counts)
        per_value[feature] = {cls: _value_score(*c) for cls, c in zip(classes, counts)}
    return EvalReport(
        whole_string_accuracy=_accuracy(*codes.strings(include_upos)),
        token_count=len(codes.sentence),
        macro_f1=macro,
        per_value_f1=per_value,
    )


# ---------------------------------------------------------------------------
# Permutation testing. Metrics are reduced to per-sentence sufficient
# statistics once, after which every swap pattern is a matrix product.


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


class _Machine:
    """Swap-pattern reduction of per-sentence statistics.

    A mask row moves each swapped sentence's statistics from one system
    to the other, so both systems' totals under every mask come from one
    matrix product with ``delta``; ``score`` turns totals into metric
    values, one per row.
    """

    def __init__(self, stats_a: np.ndarray, stats_b: np.ndarray, score, scale: float = 1.0):
        self.base_a = stats_a.sum(axis=0)
        self.base_b = stats_b.sum(axis=0)
        self.delta = stats_b - stats_a
        self.score = score
        self.scale = scale

    def diffs(self, masks: np.ndarray) -> np.ndarray:
        moved = masks @ self.delta
        diff = self.score(self.base_a + moved) - self.score(self.base_b - moved)
        return np.abs(diff) / self.scale


def _f1_rows(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray) -> np.ndarray:
    denom = 2 * tp + fp + fn
    return np.divide(2 * tp, denom, out=np.zeros_like(denom), where=denom > 0)


def _build_machine(codes: _Codes, metric: str, include_upos: bool) -> _Machine:
    kind, feature, value = parse_metric(metric)
    n_sent = codes.n_sentences
    if kind == "acc":
        # Correct counts stay integral until the one division by the
        # token count, so tied differences compare equal.
        gold, a, b = codes.strings(include_upos)
        stats_a, stats_b = (
            np.bincount(codes.sentence[gold == pred], minlength=n_sent).astype(np.float64)[:, None]
            for pred in (a, b)
        )
        return _Machine(stats_a, stats_b, lambda t: t[:, 0], scale=float(len(gold)))
    classes, labels = codes.classes(feature)
    if kind == "value":
        target = classes.index(value) if value in classes else -1
        # one-vs-rest: class 1 is the value, class 0 everything else
        gold, a, b = ((c == target).astype(np.intp) for c in labels)
        stats_a, stats_b = (codes.sentence_stats(gold, pred, 2)[:, 1, :3] for pred in (a, b))
        return _Machine(stats_a, stats_b, lambda t: _f1_rows(*t.T))
    gold, a, b = labels
    n_cls = len(classes)
    stats_a, stats_b = (
        codes.sentence_stats(gold, pred, n_cls).reshape(n_sent, n_cls * 4) for pred in (a, b)
    )
    always_active = (np.bincount(gold, minlength=n_cls) > 0) | np.array(
        [c == "None" for c in classes]
    )

    def macro(totals: np.ndarray) -> np.ndarray:
        tp, fp, fn, predicted = np.moveaxis(totals.reshape(len(totals), n_cls, 4), -1, 0)
        active = always_active | (predicted > 0)
        return (_f1_rows(tp, fp, fn) * active).sum(axis=1) / active.sum(axis=1)

    return _Machine(stats_a, stats_b, macro)


@dataclass(frozen=True, slots=True)
class PermutationResult:
    metric: str
    observed_diff: float
    p_value: float
    iterations: int
    seed: int
    note: str | None = None


# Iteration i's swap mask is, bit for bit,
#   default_rng(SeedSequence(entropy=seed, spawn_key=(i,))).integers(0, 2, n)
# but computed for a block of iterations at once: numpy's SeedSequence
# hash and PCG64 seeding are replayed below, vectorized over i, and one
# PCG64 is re-seeded per row. The constants are numpy's.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # SeedSequence.generate_state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1

# Iteration i is one uint32 spawn word.
MAX_ITERATIONS = 1 << 32


def _hashmix(words: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 ``words`` under one hash constant,
    and the constant for the next word."""
    value = words ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    value *= np.uint32(hash_const)
    value ^= value >> np.uint32(16)
    return value, hash_const


def _pcg64_seeds(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of ``default_rng(SeedSequence(entropy=seed,
    spawn_key=(i,)))`` for each i in [start, stop)."""
    # The pool of SeedSequence(entropy=seed) is the spawned sequence's
    # pool before its one spawn word is mixed in (both hash a seed of
    # under four words as if zero-padded to four); by then the hash
    # constant has been stepped 16 times, plus 4 per entropy word past 4.
    pool = np.random.SeedSequence(entropy=seed).pool.tolist()
    extra_words = max(0, (int(seed).bit_length() + 31) // 32 - 4)
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * extra_words, 1 << 32) & _MASK32
    spawn = np.arange(start, stop, dtype=np.uint32)
    mixed = []
    for word in pool:
        value, hash_const = _hashmix(spawn, hash_const, _MULT_A)
        value = np.uint32(_MIX_MULT_L * word & _MASK32) - value * np.uint32(_MIX_MULT_R)
        value ^= value >> np.uint32(16)
        mixed.append(value)
    # generate_state(4, np.uint64): eight uint32 words cycling over the
    # pool, paired little-endian into four uint64 words.
    hash_const = _INIT_B
    state = []
    for k in range(8):
        value, hash_const = _hashmix(mixed[k % 4], hash_const, _MULT_B)
        state.append(value.astype(np.uint64))
    s0, s1, s2, s3 = (
        (state[2 * k] | state[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)
    )
    seeds = []
    for high_state, low_state, high_seq, low_seq in zip(s0, s1, s2, s3):
        # PCG64's srandom: inc from the sequence, two steps around adding
        # the initial state.
        inc = ((high_seq << 64 | low_seq) << 1 | 1) & _MASK128
        initstate = high_state << 64 | low_state
        seeds.append((((inc + initstate) * _PCG64_MULT + inc) & _MASK128, inc))
    return seeds


def _swap_masks(seed: int, start: int, stop: int, n_sentences: int) -> np.ndarray:
    """Swap masks of iterations [start, stop) as float64 0/1 rows."""
    n_words = (n_sentences + 1) // 2
    raw = np.empty((stop - start, n_words), dtype=np.uint64)
    bitgen = np.random.PCG64(0)  # every row sets its own state
    for row, (state, inc) in enumerate(_pcg64_seeds(seed, start, stop)):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        raw[row] = bitgen.random_raw(n_words)
    # integers(0, 2) draws 32 bits at a time, the low half of each 64-bit
    # output first, and keeps the top bit: Lemire's method never rejects
    # with a range of 2.
    halves = raw.astype("<u8", copy=False).view("<u4")[:, :n_sentences]
    masks = np.empty((stop - start, n_sentences), dtype=np.float64)
    np.greater_equal(halves, np.uint32(1 << 31), out=masks, casting="unsafe")
    return masks


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
    _check_shape(gold, preds_a)
    _check_shape(gold, preds_b)
    codes = _Codes(gold, preds_a, preds_b)
    if len(codes.sentence) == 0:
        raise AlignmentError("no tokens to score")
    machine = _build_machine(codes, metric, include_upos)
    n_sentences = len(gold)

    observed = float(machine.diffs(np.zeros((1, n_sentences)))[0])

    chunk = 1024
    sims = np.concatenate([
        machine.diffs(_swap_masks(seed, start, min(start + chunk, iterations), n_sentences))
        for start in range(0, iterations, chunk)
    ])

    hits = int((sims >= observed).sum())
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
