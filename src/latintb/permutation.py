"""The numpy machinery of evaluation.permutation_test_codes.

Each metric is reduced once to per-sentence counts: correct tokens for
morph-acc, and for the F1 metrics the per-class (tp, fp, fn) table that
eval scores too, read whole for macro-F1 and one class's column for a
value's F1, both through evaluation._f1. Every swap pattern is then a
matrix product over the moving sentences, those on which the two
systems' counts differ; the others change no sum. Iteration i's swap
bits are those of ``default_rng(SeedSequence(entropy=seed,
spawn_key=(i,))).integers(0, 2, n_sentences)``, computed only for the
moving sentences. When few of the 64-bit PCG64 outputs hold a moving
sentence, PCG64 is replayed in uint64 numpy arithmetic, jumping from
one such output to the next, with the increment term of each jump
length that recurs computed once a block; when enough do that drawing
every output costs less, each iteration's generator draws all of them,
and only then is numpy.random loaded; numpy.ma never is. Both draws
write 0/1 into a uint8 mask. Iterations run in blocks that fit a fixed
byte budget, the float64 product of a block in sub-blocks that fit it
too; _Draw plans the draw and both lengths once a run. Each block's
hits are counted before the next is drawn, so memory does not grow
with the iteration count. This is the only module of latintb that
imports numpy; permutation_test_codes imports it on first use, so eval
and the other subcommands never load numpy. The module leaves numpy's
BLAS threads as the host program set them; ``perm-test`` sets one
unless its caller sets OpenBLAS's thread count (see
cli.cmd_perm_test). Masks are 0/1 and statistics integer
counts, so every thread count gives the same sums.
"""

from __future__ import annotations

from collections import Counter

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
        """The absolute metric difference under each row of ``masks``,
        which has a 0/1 column per moving sentence."""
        moved = masks @ self.delta
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


# The swap bits of a block of iterations at once: numpy's SeedSequence
# hash and PCG64 seeding are replayed below, vectorized over the
# iterations, with each 128-bit PCG64 value held as two uint64 arrays,
# its high and its low word. The constants are numpy's. Every array is unsigned and every
# scalar that meets one is an np.uint32 or np.uint64, so neither value-
# based casting (numpy < 2) nor NEP 50 can widen a value to float64.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence entropy mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # SeedSequence.generate_state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_LOW32 = np.uint64(_MASK32)
_ONE, _S31, _S32, _S58, _S63 = (np.uint64(k) for k in (1, 31, 32, 58, 63))


def _hashmix(words: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 ``words`` under one hash constant,
    and the constant for the next word."""
    value = words ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    value *= np.uint32(hash_const)
    value ^= value >> np.uint32(16)
    return value, hash_const


def _seed_pool(seed: int, *spawn: np.ndarray) -> list[np.ndarray]:
    """The pool of ``SeedSequence(entropy=seed, spawn_key=(i,))`` for each
    i of the uint32 array ``spawn``, as four uint32 arrays; with no spawn,
    the pool of ``SeedSequence(entropy=seed)``, as four one-element arrays.
    numpy zero-pads the seed's words to four before a spawn word, and a
    shorter seed mixes as if so padded. Each seed word is a one-element
    array, as numpy warns when a product of scalars overflows."""
    shifts = range(0, max(128, seed.bit_length()), 32)
    words = np.array([seed >> shift & _MASK32 for shift in shifts], dtype=np.uint32)
    mixer, hash_const = [], _INIT_A
    for word in words[:4, None]:
        value, hash_const = _hashmix(word, hash_const, _MULT_A)
        mixer.append(value)
    # The rest of the entropy follows the pool, so one loop mixes each
    # pool word into the others and then each further word into all four.
    mixer += [*words[4:, None], *spawn]
    for src in range(len(mixer)):
        for dst in range(4):
            if src != dst:
                value, hash_const = _hashmix(mixer[src], hash_const, _MULT_A)
                value = mixer[dst] * np.uint32(_MIX_MULT_L) - value * np.uint32(_MIX_MULT_R)
                mixer[dst] = value ^ value >> np.uint32(16)
    return mixer[:4]


def _times(hi: np.ndarray, lo: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit values (hi, lo) times ``c``, mod 2^128. The high word
    of lo times c's low word comes from 32-bit limb products, each of
    which fits in 64 bits."""
    c_hi, c_lo = np.uint64(c >> 64 & _MASK64), np.uint64(c & _MASK64)
    c0, c1 = np.uint64(c & _MASK32), np.uint64(c >> 32 & _MASK32)
    lo0, lo1 = lo & _LOW32, lo >> _S32
    t = lo0 * c0
    u = lo1 * c0 + (t >> _S32)
    w = lo0 * c1 + (u & _LOW32)
    carry = lo1 * c1 + (u >> _S32) + (w >> _S32)
    return carry + hi * c_lo + lo * c_hi, lo * c_lo


def _add(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit sums (a_hi, a_lo) + (b_hi, b_lo), mod 2^128."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _pcg64_seeds(seed: int, spawn: np.ndarray) -> tuple[np.ndarray, ...]:
    """The PCG64 state and increment of ``default_rng(SeedSequence(
    entropy=seed, spawn_key=(i,)))`` for each i of the uint32 array
    ``spawn``, as uint64 arrays (state high, state low, inc high, inc
    low)."""
    pool = _seed_pool(seed, spawn)
    # generate_state(4, np.uint64): eight uint32 words cycling over the
    # pool, paired little-endian into four uint64 words.
    hash_const = _INIT_B
    halves = []
    for k in range(8):
        value, hash_const = _hashmix(pool[k % 4], hash_const, _MULT_B)
        halves.append(value.astype(np.uint64))
    init_hi, init_lo, seq_hi, seq_lo = (halves[2 * k] | halves[2 * k + 1] << _S32 for k in range(4))
    # PCG64's srandom: inc from the sequence, two steps around adding the
    # initial state.
    inc_hi, inc_lo = seq_hi << _ONE | seq_lo >> _S63, seq_lo << _ONE | _ONE
    hi, lo = _add(inc_hi, inc_lo, init_hi, init_lo)
    hi, lo = _add(*_times(hi, lo, _PCG64_MULT), inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _jump(steps: int) -> tuple[int, int]:
    """(M^steps, M^(steps-1) + ... + M + 1) mod 2^128 for PCG64's
    multiplier M: ``steps`` steps take a state s with increment inc to
    M^steps s + (M^(steps-1) + ... + 1) inc (Brown 1994)."""
    # M - 1 divides M^steps - 1, and a power reduced mod (M - 1) 2^128
    # keeps the quotient mod 2^128.
    power = pow(_PCG64_MULT, steps, (_PCG64_MULT - 1) << 128)
    return power & _MASK128, (power - 1) // (_PCG64_MULT - 1)


def _bit_masks(seeds: tuple[np.ndarray, ...], draw: _Draw) -> np.ndarray:
    """The swap bits of ``draw``'s moving sentences under the PCG64
    ``seeds`` of _pcg64_seeds, as a uint8 array with a row per moving
    sentence and a column per iteration. Only the 64-bit outputs that
    hold a moving sentence are computed: the state jumps from one to the
    next."""
    hi, lo, inc_hi, inc_lo = seeds
    masks = np.empty((len(draw.moving), len(hi)), dtype=np.uint8)
    # each step count's increment term: a one-step jump adds the
    # increment itself, and the product of a count that recurs is kept
    # from its first jump on (all made before the loop, they raised a
    # morph-acc perm-test's peak RSS by 0.4 MB, by the heap layout alone)
    terms = {1: (inc_hi, inc_lo)}
    for step, mult, plus, in_word in draw.jumps:
        term = terms.get(step)
        if term is None:
            term = _times(inc_hi, inc_lo, plus)
            if step in draw.kept:
                terms[step] = term
        hi, lo = _add(*_times(hi, lo, mult), *term)
        # XSL-RR outputs hi ^ lo rotated right by hi's top six bits, and
        # integers(0, 2) keeps bit 31 of it for sentence 2 word, bit 63
        # for sentence 2 word + 1 (see _raw_masks).
        folded = hi ^ lo
        shift = ((hi >> _S58) + _S31) & _S63
        for column, odd in in_word:
            np.bitwise_and(folded >> (shift ^ _S32 if odd else shift), _ONE,
                           out=masks[column], casting="unsafe")
    return masks


def _raw_masks(seeds: tuple[np.ndarray, ...], n_sentences: int, moving: np.ndarray) -> np.ndarray:
    """The swap bits of the ``moving`` sentences under the PCG64
    ``seeds``, as uint8 rows, one per iteration: each row's generator
    draws every 64-bit output of the row."""
    from numpy.random import PCG64  # loaded for this draw only

    n_words = (n_sentences + 1) // 2
    hi, lo, inc_hi, inc_lo = (a.tolist() for a in seeds)
    raw = np.empty((len(hi), n_words), dtype=np.uint64)
    bitgen = PCG64(0)  # every row sets its own state
    for row, (high, low, inc_high, inc_low) in enumerate(zip(hi, lo, inc_hi, inc_lo)):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": high << 64 | low, "inc": inc_high << 64 | inc_low},
            "has_uint32": 0,
            "uinteger": 0,
        }
        raw[row] = bitgen.random_raw(n_words)
    # integers(0, 2) draws 32 bits at a time, the low half of each 64-bit
    # output first, and keeps the top bit: Lemire's method never rejects
    # with a range of 2.
    halves = raw.astype("<u8", copy=False).view("<u4")[:, moving]
    masks = np.empty(halves.shape, dtype=np.uint8)
    np.greater_equal(halves, np.uint32(1 << 31), out=masks, casting="unsafe")
    return masks


# What each draw costs per iteration, measured on a 2-core x86-64 VM with
# numpy 2.4.6 at 813 and 4065 sentences, on random moving sentences, each
# draw at the block length it gets: the per-row draw about 2.7 us to seed
# the row's generator plus 3.5 ns per 64-bit output of the row and 1.7 ns
# per moving sentence, the bit-only draw, which keeps the increment
# product of each recurring jump, 15-22 ns per output that holds a moving
# sentence at 813 sentences and 19-30 ns at 4065 (more where an output
# holds two moving sentences, and its blocks shorten as more sentences
# move). They cross near 340-380 of 407 outputs at 813 sentences and
# 520-700 of 2033 at 4065, the lower figure where most outputs hold two
# moving sentences; the constants, which leave out the per-row draw's
# cost per moving sentence, cross at 334 and 605. The per-row draw also
# loads numpy.random, once: about 10 ms and 6 MB of peak memory.
_ROW_NS, _RAW_WORD_NS, _BIT_WORD_NS = 4800, 3, 18


# A block holds, per iteration, the uint8 mask over the moving sentences,
# the product and the scores computed from it (about four times the width
# of the statistics, in float64), the draw's uint64 working arrays, for
# the bit-only draw the increment product of each recurring step count and,
# for the per-row draw, every 64-bit output of the row and a copy of the
# 32-bit halves it keeps: BLOCK_BYTES bounds that. The product casts the
# mask to float64 in sub-blocks, each of which BLOCK_BYTES bounds too.
# Blocks never exceed MAX_BLOCK_ROWS rows. Each numpy call of the bit-only
# draw has a fixed cost of about a microsecond, so it gains from long
# blocks.
BLOCK_BYTES = 2_500_000
MAX_BLOCK_ROWS = 8192
_DRAW_ROW_WORDS = 16


class _Draw:
    """The swap-bit draw of a run, planned once from the ``moving``
    sentences (sorted indices among ``n_sentences``) and the statistics'
    ``width``: per 64-bit output that holds a moving sentence, in order,
    the jump's step count, its (mult, plus) and the (column, odd) pairs
    it fills (``jumps``); the step counts above 1 that more than one
    jump takes, whose increment products a block keeps (``kept``); the
    draw (``every_word``), the block length (``rows``) and the product's
    sub-block length (``sub_rows``)."""

    def __init__(self, n_sentences: int, moving: np.ndarray, width: int):
        self.n_sentences, self.moving = n_sentences, moving
        columns: dict[int, list[tuple[int, int]]] = {}
        for column, sentence in enumerate(moving.tolist()):
            columns.setdefault(sentence >> 1, []).append((column, sentence & 1))
        # output word k is read from the state after k + 1 steps
        steps = [word - before for word, before in zip(columns, [-1, *columns])]
        jump = {step: _jump(step) for step in steps}
        self.jumps = [(step, *jump[step], in_word) for step, in_word in zip(steps, columns.values())]
        self.kept = {step for step, n in Counter(steps).items() if step > 1 and n > 1}
        n_words = (n_sentences + 1) // 2
        self.every_word = _ROW_NS + _RAW_WORD_NS * n_words < _BIT_WORD_NS * len(columns)
        row_bytes = len(moving) + 8 * (4 * width + _DRAW_ROW_WORDS)
        row_bytes += 8 * n_words + 4 * len(moving) if self.every_word else 16 * len(self.kept)
        self.rows = max(1, min(MAX_BLOCK_ROWS, BLOCK_BYTES // row_bytes))
        # the product's sub-blocks, each holding its rows of the mask as float64
        self.sub_rows = max(1, BLOCK_BYTES // (8 * max(1, len(moving))))

    def masks(self, seed: int, start: int, stop: int) -> np.ndarray:
        """The swap bits of iterations [start, stop), as uint8 0/1 rows
        over the moving columns."""
        seeds = _pcg64_seeds(seed, np.arange(start, stop, dtype=np.uint32))
        if self.every_word:
            return _raw_masks(seeds, self.n_sentences, self.moving)
        return _bit_masks(seeds, self).T


def observed_and_hits(
    codes: _Codes, metric: str, include_upos: bool, iterations: int, seed: int
) -> tuple[float, int]:
    """The absolute metric difference between the second and third
    corpora of ``codes`` scored against the first, and how many of the
    swap masks of iterations [0, iterations) give a difference at least
    as large."""
    machine = _build_machine(codes, metric, include_upos)
    moving = machine.moving
    observed = float(machine.diffs(np.zeros((1, len(moving))))[0])
    draw, hits = _Draw(len(codes.sentence_lengths), moving, machine.delta.shape[1]), 0
    for start in range(0, iterations, draw.rows):
        masks = draw.masks(seed, start, min(start + draw.rows, iterations))
        for sub in range(0, len(masks), draw.sub_rows):
            hits += int((machine.diffs(masks[sub : sub + draw.sub_rows]) >= observed).sum())
        del masks  # freed before the next block is drawn
    return observed, hits
