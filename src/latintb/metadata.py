"""Per-text provenance metadata: treebank, author, century, genres, counts.

The table is a flat TSV, one row per (treebank, work). Time periods
follow the three broad eras used everywhere downstream: Classical
(through the 2nd century CE), Bible (the Vulgata), and PostClassical
(4th century CE onward).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .reports import integer, read_table

TREEBANKS = ("Perseus", "PROIEL", "LLCT", "ITTB", "UDante", "LASLA")

GENRES = frozenset(
    {
        "narrative", "poem", "short poem", "letter", "epic", "history",
        "satire", "speech", "treatise", "Christian", "Bible", "legal",
    }
)
EXCLUSIVE_GENRES = frozenset(
    {"short poem", "epic", "letter", "history", "satire", "speech",
     "legal", "treatise", "Bible"}
)

PERIOD_CLASSICAL = "Classical"
PERIOD_BIBLE = "Bible"
PERIOD_POST_CLASSICAL = "PostClassical"

MIN_CENTURY = -3
MAX_CENTURY = 14

_HEADER = (
    "treebank", "work_id", "author", "century", "is_bible", "genres",
    "train_sents", "dev_sents", "test_sents",
)


class MetadataError(ValueError):
    """Raised by loading when the table violates its invariants."""


class PeriodError(ValueError):
    """Century falls outside every defined time period (3rd century CE)."""


class TextMetadata(NamedTuple):
    treebank: str
    work_id: str
    author: str
    century: int  # negative = BCE; there is no century 0
    is_bible: bool = False
    genres: frozenset[str] = frozenset()
    train_sents: int = 0
    dev_sents: int = 0
    test_sents: int = 0

    def total_sents(self) -> int:
        return self.train_sents + self.dev_sents + self.test_sents


class Violation(NamedTuple):
    work_id: str
    code: str
    message: str


def assign_time_period(meta: TextMetadata) -> str:
    """Classical through the 2nd century CE; the Vulgata is its own
    period; 4th century CE onward is PostClassical. The 3rd century CE
    is deliberately unassigned (no corpus text occupies it)."""
    if meta.is_bible:
        return PERIOD_BIBLE
    if meta.century <= 2:
        return PERIOD_CLASSICAL
    if meta.century >= 4:
        return PERIOD_POST_CLASSICAL
    raise PeriodError(
        f"work {meta.work_id!r}: 3rd-century-CE text matches no defined period"
    )


def _check(meta: TextMetadata) -> list[Violation]:
    out = []

    def bad(code: str, message: str) -> None:
        out.append(Violation(meta.work_id, code, message))

    if meta.treebank not in TREEBANKS:
        bad("unknown-treebank", f"treebank {meta.treebank!r} not recognized")
    unknown = meta.genres - GENRES
    if unknown:
        bad("unknown-genre", f"genres {sorted(unknown)} not in the 12-label set")
    exclusive = meta.genres & EXCLUSIVE_GENRES
    if len(exclusive) > 1:
        bad("multiple-exclusive-genres", f"{sorted(exclusive)} cannot co-occur")
    if {"epic", "short poem"} <= meta.genres:
        bad("epic-and-short-poem", "epic and short poem are mutually exclusive")
    if "Bible" in meta.genres and "Christian" not in meta.genres:
        bad("bible-without-christian", "Bible texts are Christian texts")
    if meta.century == 0 or not MIN_CENTURY <= meta.century <= MAX_CENTURY:
        bad("century-out-of-range", f"century {meta.century} outside 3rd BCE..14th CE")
    if min(meta.train_sents, meta.dev_sents, meta.test_sents) < 0:
        bad("negative-count", "sentence counts must be non-negative")
    return out


def _metadata_row(cells: list[str]) -> TextMetadata:
    if len(cells) != len(_HEADER):
        raise ValueError(f"expected {len(_HEADER)} columns, got {len(cells)}")
    treebank, work_id, author, century, is_bible, genres, train, dev, test = cells
    if is_bible not in ("true", "false"):
        raise ValueError(f"is_bible must be true or false, got {is_bible!r}")
    return TextMetadata(
        treebank, work_id, author, integer(century), is_bible == "true",
        frozenset(g for g in genres.split(",") if g), integer(train), integer(dev), integer(test),
    )


def read_metadata(path: str | Path) -> list[TextMetadata]:
    return read_table(path, _HEADER, _metadata_row)


def validate_metadata(
    rows: Iterable[TextMetadata],
    *,
    corpus_counts: Mapping[str, int] | None = None,
    require_rows: bool = False,
) -> list[Violation]:
    """Check every invariant; optionally cross-check per-work sentence
    counts against an actual corpus (work_id -> sentence count), and with
    ``require_rows`` flag each of its works that has no row, as split does
    for every work of its UD corpus."""
    violations: list[Violation] = []
    seen: set[str] = set()
    for meta in rows:
        if meta.work_id in seen:
            violations.append(
                Violation(meta.work_id, "duplicate-work", "work_id appears twice")
            )
        seen.add(meta.work_id)
        violations.extend(_check(meta))
        if corpus_counts is not None and meta.work_id in corpus_counts:
            declared = meta.total_sents()
            actual = corpus_counts[meta.work_id]
            if declared != actual:
                violations.append(
                    Violation(
                        meta.work_id,
                        "count-mismatch",
                        f"declared {declared} sentences, corpus has {actual}",
                    )
                )
    if require_rows and corpus_counts is not None:
        violations.extend(
            Violation(work, "missing-row", f"corpus has {corpus_counts[work]} sentences, table has no row")
            for work in sorted(set(corpus_counts) - seen)
        )
    return violations


def load_metadata(path: str | Path) -> dict[str, TextMetadata]:
    rows = read_metadata(path)
    violations = validate_metadata(rows)
    if violations:
        summary = "; ".join(f"{v.work_id}: {v.code}" for v in violations[:5])
        count = f"{len(violations)} metadata violation{'' if len(violations) == 1 else 's'}"
        raise MetadataError(f"{count} ({summary} ...)")
    return {meta.work_id: meta for meta in rows}
