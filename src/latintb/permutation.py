"""The numpy machinery of evaluation.permutation_test.

Each metric is reduced once to per-sentence counts: correct tokens for
morph-acc, and for the F1 metrics the per-class (tp, fp, fn) table that
eval scores too, read whole for macro-F1 and one class's column for a
value's F1, both through evaluation._f1. Every swap pattern is then a
matrix product. Iterations run in blocks whose swap masks fit a fixed
byte budget, and each block's hits are counted before the next is drawn,
so memory grows neither with the iteration count nor, past
MAX_BLOCK_ROWS rows, with the number of sentences. This is the only
module of latintb that imports numpy; permutation_test imports it on
first use, so eval and the other subcommands never load numpy. The
module leaves numpy's BLAS threads as the host program set them;
``perm-test`` sets one unless its caller sets OpenBLAS's thread count
(see cli.cmd_perm_test). Masks are 0/1 and statistics integer counts,
so every thread count gives the same sums.
"""

from __future__ import annotations

import numpy as np

from .evaluation import _Codes, _f1, parse_metric


def _tally(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """Count of each (row, col) pair, as an n_rows x n_cols matrix."""
    counts = np.bincount(rows * n_cols + cols, minlength=n_rows * n_cols)
    return counts.reshape(n_rows, n_cols)


def sentence_stats(
    sentence: np.ndarray, n_sent: int, gold: np.ndarray, pred: np.ndarray, n_cls: int
) -> np.ndarray:
    """Per sentence, the (tp, fp, fn) table of the classes, given each
    token's sentence index and its gold and predicted class: an
    n_sent x n_cls x 3 array. A class's predicted count is tp + fp."""
    hit, miss = gold == pred, gold != pred
    return np.stack(
        [
            _tally(sentence[hit], gold[hit], n_sent, n_cls),
            _tally(sentence[miss], pred[miss], n_sent, n_cls),
            _tally(sentence[miss], gold[miss], n_sent, n_cls),
        ],
        axis=-1,
    ).astype(np.float64)


class _Machine:
    """Swap-pattern reduction of per-sentence statistics.

    A mask row moves each swapped sentence's statistics from one system
    to the other, so both systems' totals under every mask come from one
    matrix product with ``delta``; ``score`` turns totals into metric
    values, one per row. A sentence on which both systems have the same
    statistics moves nothing, so only the ``moving`` sentences enter the
    product. Masks are 0/1 and the statistics integer counts, so every
    sum is exact and the product equals the one over all sentences.
    """

    def __init__(self, stats_a: np.ndarray, stats_b: np.ndarray, score, scale: float = 1.0):
        self.base_a = stats_a.sum(axis=0)
        self.base_b = stats_b.sum(axis=0)
        delta = stats_b - stats_a
        self.moving = np.flatnonzero(delta.any(axis=1))
        self.delta = delta[self.moving]
        self.score = score
        self.scale = scale

    def diffs(self, masks: np.ndarray) -> np.ndarray:
        moved = masks[:, self.moving] @ self.delta
        diff = self.score(self.base_a + moved) - self.score(self.base_b - moved)
        return np.abs(diff) / self.scale


def _build_machine(codes: _Codes, metric: str, include_upos: bool) -> _Machine:
    kind, feature, value = parse_metric(metric)
    n_sent = len(codes.sentence_lengths)
    sentence = np.repeat(np.arange(n_sent), codes.sentence_lengths)
    tokens = [np.array(t, dtype=np.intp) for t in codes.tokens]

    def per_token(lookup: list[int]) -> list[np.ndarray]:
        """Each corpus's tokens mapped through a per-record lookup."""
        lookup = np.array(lookup, dtype=np.intp)
        return [lookup[t] for t in tokens]

    if kind == "acc":
        # Correct counts stay integral until the one division by the
        # token count, so tied differences compare equal.
        gold, a, b = per_token(codes.strings(include_upos))
        stats_a, stats_b = (
            np.bincount(sentence[gold == pred], minlength=n_sent).astype(np.float64)[:, None]
            for pred in (a, b)
        )
        return _Machine(stats_a, stats_b, lambda t: t[:, 0], scale=float(len(gold)))
    classes, lookup = codes.classes(feature)
    gold, a, b = per_token(lookup)
    n_cls = len(classes)
    stats_a, stats_b = (sentence_stats(sentence, n_sent, gold, pred, n_cls) for pred in (a, b))
    if kind == "value":
        # The value's column of the table; when no record carries the
        # value, its counts are all 0.
        stats_a, stats_b = (
            s[:, classes.index(value)] if value in classes else np.zeros((n_sent, 3))
            for s in (stats_a, stats_b)
        )
        return _Machine(stats_a, stats_b, lambda t: _f1(*t.T))
    always_active = (np.bincount(gold, minlength=n_cls) > 0) | np.array(
        [c == "None" for c in classes]
    )

    def macro(totals: np.ndarray) -> np.ndarray:
        tp, fp, fn = np.moveaxis(totals.reshape(len(totals), n_cls, 3), -1, 0)
        active = always_active | (tp + fp > 0)
        return (_f1(tp, fp, fn) * active).sum(axis=1) / active.sum(axis=1)

    stats_a, stats_b = (s.reshape(n_sent, n_cls * 3) for s in (stats_a, stats_b))
    return _Machine(stats_a, stats_b, macro)


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


# One block of iterations holds, per row and sentence, 4 bytes of raw
# PCG64 words (one 64-bit word covers two sentences) and an 8-byte
# float64 mask: BLOCK_BYTES bounds that, for 256 rows at 813 sentences.
# Blocks never exceed MAX_BLOCK_ROWS rows, and fewer rows than a few
# hundred make each row's share of the per-block numpy calls costly.
BLOCK_BYTES = 2_500_000
MAX_BLOCK_ROWS = 1024


def block_rows(n_sentences: int) -> int:
    """Iterations per block for masks over ``n_sentences`` sentences."""
    return max(1, min(MAX_BLOCK_ROWS, BLOCK_BYTES // (12 * n_sentences)))


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


def observed_and_hits(
    codes: _Codes, metric: str, include_upos: bool, iterations: int, seed: int
) -> tuple[float, int]:
    """The absolute metric difference between the second and third
    corpora of ``codes`` scored against the first, and how many of the
    swap masks of iterations [0, iterations) give a difference at least
    as large."""
    machine = _build_machine(codes, metric, include_upos)
    n_sentences = len(codes.sentence_lengths)
    observed = float(machine.diffs(np.zeros((1, n_sentences)))[0])
    rows, hits = block_rows(n_sentences), 0
    for start in range(0, iterations, rows):
        # the block's masks are a temporary, freed before the next is drawn
        diffs = machine.diffs(_swap_masks(seed, start, min(start + rows, iterations), n_sentences))
        hits += int((diffs >= observed).sum())
    return observed, hits
