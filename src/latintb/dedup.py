"""Cross-corpus duplicate-sentence detection and token alignment.

Candidates share a normalized character- or token-level prefix or suffix
of at least the configured length; each candidate is confirmed by the
longest-common-substring token alignment, and a greedy pass keeps at
most one partner per sentence.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from difflib import SequenceMatcher
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from . import reports
from .config import DEFAULT_MIN_CHARS, DEFAULT_MIN_TOKENS
from .conllu import Sentence
from .normalize import NormalizedSentence, matching_key

if TYPE_CHECKING:
    from .metadata import TextMetadata

BASIS_CHAR_PREFIX = "char-prefix"
BASIS_CHAR_SUFFIX = "char-suffix"
BASIS_TOKEN_PREFIX = "token-prefix"
BASIS_TOKEN_SUFFIX = "token-suffix"

MANIFEST_HEADER = ("sent_a", "sent_b", "basis", "align_length")


@dataclass(frozen=True, slots=True)
class DuplicatePair:
    """One matched sentence pair with its contiguous token alignment.

    Alignment indices point into the original token lists of each
    sentence (punctuation included), not the normalized views.
    """

    sent_a: str
    sent_b: str
    work_a: str | None
    work_b: str | None
    basis: str
    alignment: tuple[tuple[int, int], ...]


def align_tokens(
    forms_a: Sequence[str], forms_b: Sequence[str]
) -> list[tuple[int, int]]:
    """Longest common contiguous run of exactly equal forms.

    Ties go to the earliest start in ``forms_a``, then in ``forms_b``,
    which is ``find_longest_match``'s own tie rule.
    """
    match = SequenceMatcher(None, forms_a, forms_b, autojunk=False).find_longest_match(
        0, len(forms_a), 0, len(forms_b)
    )
    return [(match.a + k, match.b + k) for k in range(match.size)]


def token_alignment(
    norm_a: NormalizedSentence, norm_b: NormalizedSentence
) -> tuple[tuple[int, int], ...]:
    """``align_tokens`` of two normalized sentences, in original token indices."""
    return tuple(
        (norm_a.token_indices[i], norm_b.token_indices[j])
        for i, j in align_tokens(norm_a.forms, norm_b.forms)
    )


def _candidate_keys(
    norm: NormalizedSentence, min_chars: int, min_tokens: int
) -> list[tuple[str, object]]:
    keys: list[tuple[str, object]] = []
    if len(norm.char_key) >= min_chars:
        keys.append((BASIS_CHAR_PREFIX, norm.char_key[:min_chars]))
        keys.append((BASIS_CHAR_SUFFIX, norm.char_key[-min_chars:]))
    if len(norm.forms) >= min_tokens:
        keys.append((BASIS_TOKEN_PREFIX, norm.forms[:min_tokens]))
        keys.append((BASIS_TOKEN_SUFFIX, norm.forms[-min_tokens:]))
    return keys


def find_duplicates(
    corpus_a: Sequence[Sentence],
    corpus_b: Sequence[Sentence],
    *,
    min_chars: int = DEFAULT_MIN_CHARS,
    min_tokens: int = DEFAULT_MIN_TOKENS,
) -> list[DuplicatePair]:
    """Detect duplicate sentences across two corpora.

    Either threshold admits a candidate. Greedy best-match keeps one
    partner per sentence, preferring longer alignments, then the
    lexicographically smaller id pair, making the result deterministic
    and symmetric in corpus order.
    """
    norms_a = [matching_key(s) for s in corpus_a]
    norms_b = [matching_key(s) for s in corpus_b]

    index: dict[tuple[str, object], list[int]] = defaultdict(list)
    for b_pos, norm in enumerate(norms_b):
        for key in _candidate_keys(norm, min_chars, min_tokens):
            index[key].append(b_pos)

    # a pair's basis is the first of its keys, in _candidate_keys order
    candidates: dict[tuple[int, int], str] = {}
    for a_pos, norm in enumerate(norms_a):
        for key in _candidate_keys(norm, min_chars, min_tokens):
            for b_pos in index.get(key, ()):
                candidates.setdefault((a_pos, b_pos), key[0])

    scored = []
    for (a_pos, b_pos), basis in candidates.items():
        alignment = token_alignment(norms_a[a_pos], norms_b[b_pos])
        if not alignment:
            continue
        id_a, id_b = norms_a[a_pos].sent_id, norms_b[b_pos].sent_id
        tie = tuple(sorted((id_a, id_b))) + (id_a,)
        scored.append((-len(alignment), tie, a_pos, b_pos, basis, alignment))

    scored.sort(key=lambda item: item[:2])
    used_a: set[int] = set()
    used_b: set[int] = set()
    pairs: list[DuplicatePair] = []
    for _neg_len, _tie, a_pos, b_pos, basis, alignment in scored:
        if a_pos in used_a or b_pos in used_b:
            continue
        used_a.add(a_pos)
        used_b.add(b_pos)
        pairs.append(
            DuplicatePair(
                sent_a=norms_a[a_pos].sent_id,
                sent_b=norms_b[b_pos].sent_id,
                work_a=corpus_a[a_pos].work_id,
                work_b=corpus_b[b_pos].work_id,
                basis=basis,
                alignment=alignment,
            )
        )
    pairs.sort(key=lambda p: (p.sent_a, p.sent_b))
    return pairs


def duplicate_report(
    pairs: Sequence[DuplicatePair],
    metadata: Mapping[str, TextMetadata] | None = None,
) -> list[tuple[str, str, int]]:
    """Per-work duplicate counts as (author, work, count) rows."""
    counts = Counter(pair.work_a or pair.work_b or "?" for pair in pairs)
    metadata = metadata or {}
    return sorted(
        (metadata[work].author if work in metadata else "", work, count)
        for work, count in counts.items()
    )


def write_manifest(
    path: str | Path,
    pairs: Sequence[DuplicatePair],
    *,
    seed: int | None = None,
    config_hash: str = "default",
) -> None:
    reports.write_tsv(
        path,
        MANIFEST_HEADER,
        ((p.sent_a, p.sent_b, p.basis, len(p.alignment)) for p in pairs),
        seed=seed,
        config_hash=config_hash,
    )


def read_manifest(path: str | Path) -> list[tuple[str, str, str, int]]:
    return reports.read_table(path, MANIFEST_HEADER, _manifest_row)


def _manifest_row(cells: list[str]) -> tuple[str, str, str, int]:
    try:
        sent_a, sent_b, basis, length = cells
        return sent_a, sent_b, basis, int(length)
    except ValueError:
        line = "\t".join(cells)
        raise ValueError(
            f"expected sent_a, sent_b, basis and an integer length, tab-separated, got {line!r}"
        ) from None
