"""Read, model, and write CoNLL-U treebank files.

Word tokens become immutable records; multiword-token ranges ("4-5") and
empty nodes ("5.1") are kept as verbatim lines and woven back on output,
so a canonical file survives a parse/serialize cycle byte for byte.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, TextIO

UPOS_TAGS = frozenset(
    {
        "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
        "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
    }
)

_RANGE_ID = re.compile(r"^\d+-\d+$")
_EMPTY_NODE_ID = re.compile(r"^\d+\.\d+$")
_WORD_ID = re.compile(r"^\d+$")


class ConlluError(ValueError):
    """Base class for CoNLL-U reading problems."""


class ParseError(ConlluError):
    """Malformed line: wrong column count, bad FEATS/MISC syntax, bad id."""


class StructureError(ConlluError):
    """Structurally invalid sentence, e.g. non-increasing token ids."""


class FeatureBundle:
    """Multi-valued morphological feature map.

    Insertion order is kept for inspection, but equality, hashing, and
    serialization all use the canonical order: feature names ascending
    case-insensitively, values ascending within a feature.
    """

    __slots__ = ("_entries", "_index")

    def __init__(self, entries: Iterable[tuple[str, Iterable[str]]] = ()):
        normalized = []
        index: dict[str, tuple[str, ...]] = {}
        for name, values in entries:
            values = tuple(values)
            if not name:
                raise ValueError("empty feature name")
            if not values or any(not v for v in values):
                raise ValueError(f"feature {name!r} has an empty value")
            if any(c in name for c in "=|,\t\n"):
                raise ValueError(f"feature name {name!r} contains structural characters")
            if any(c in v for v in values for c in "=|,\t\n"):
                raise ValueError(f"feature {name!r} has a value with structural characters")
            if name in index:
                raise ValueError(f"duplicate feature {name!r}")
            normalized.append((name, values))
            index[name] = values
        self._entries = tuple(normalized)
        self._index = index

    @classmethod
    def from_string(cls, feats: str) -> "FeatureBundle":
        if feats == "_" or feats == "":
            return cls()
        entries = []
        for item in feats.split("|"):
            if "=" not in item:
                raise ValueError(f"feature item without '=': {item!r}")
            name, values = item.split("=", 1)
            entries.append((name, values.split(",")))
        return cls(entries)

    @classmethod
    def from_dict(cls, mapping: dict[str, str | Iterable[str]]) -> "FeatureBundle":
        entries = []
        for name, values in mapping.items():
            if isinstance(values, str):
                values = (values,)
            entries.append((name, values))
        return cls(entries)

    def get(self, name: str) -> tuple[str, ...] | None:
        return self._index.get(name)

    def first(self, name: str) -> str | None:
        values = self._index.get(name)
        return values[0] if values else None

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._entries)

    def items(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        return self._entries

    def canonical_items(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        return tuple(
            (name, tuple(sorted(values)))
            for name, values in sorted(self._entries, key=lambda e: (e[0].lower(), e[0]))
        )

    def to_string(self) -> str:
        if not self._entries:
            return "_"
        return "|".join(
            f"{name}={','.join(values)}" for name, values in self.canonical_items()
        )

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureBundle):
            return NotImplemented
        return self.canonical_items() == other.canonical_items()

    def __hash__(self) -> int:
        return hash(self.canonical_items())

    def __repr__(self) -> str:
        return f"FeatureBundle({self.to_string()!r})"


@dataclass(frozen=True, slots=True)
class Token:
    """One annotated word token (never a multiword range or empty node)."""

    id: int
    form: str
    lemma: str
    upos: str
    feats: FeatureBundle = field(default_factory=FeatureBundle)
    xpos: str | None = None
    head: str | None = None
    deprel: str | None = None
    deps: str | None = None
    misc: tuple[tuple[str, str | None], ...] = ()

    def __post_init__(self) -> None:
        if self.id < 1:
            raise StructureError(f"token id must be >= 1, got {self.id}")
        seen = set()
        for key, _ in self.misc:
            if key in seen:
                raise ParseError(f"duplicate MISC key {key!r}")
            seen.add(key)

    def misc_get(self, key: str) -> str | None:
        for k, v in self.misc:
            if k == key:
                return v
        return None

    def misc_string(self) -> str:
        if not self.misc:
            return "_"
        return "|".join(k if v is None else f"{k}={v}" for k, v in self.misc)


@dataclass(frozen=True, slots=True)
class Sentence:
    """A sentence with its tokens, comments, and pass-through records.

    ``extras`` holds verbatim multiword-token / empty-node lines as
    (insert-before-word-index, raw line) pairs.
    """

    sent_id: str
    tokens: tuple[Token, ...]
    text: str | None = None
    doc_id: str | None = None
    work_id: str | None = None
    comments: tuple[str, ...] = ()
    extras: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        prev = 0
        for token in self.tokens:
            if token.id <= prev:
                raise StructureError(
                    f"sentence {self.sent_id!r}: token ids not strictly increasing "
                    f"({prev} then {token.id})"
                )
            prev = token.id


def _parse_misc(text: str) -> tuple[tuple[str, str | None], ...]:
    if text == "_" or text == "":
        return ()
    entries: list[tuple[str, str | None]] = []
    for item in text.split("|"):
        if "=" in item:
            key, value = item.split("=", 1)
            entries.append((key, value))
        else:
            entries.append((item, None))
    return tuple(entries)


def _opt(col: str) -> str | None:
    return None if col == "_" else col


def read_blocks(
    source: str | TextIO,
    *,
    separator: str = "\t",
    n_columns: int = 10,
) -> Iterator[tuple[tuple[str, ...], dict[str, str], list[tuple[int, list[str]]], int]]:
    """Split CoNLL-U-like text into blank-line-delimited sentence blocks.

    Yields ``(comments, meta, rows, end)`` per block: the verbatim
    comment lines, their ``# key = value`` pairs (the last one of a key
    wins), the ``(line_no, columns)`` rows, and the number of the line
    that closed the block. Raises ParseError for a row without exactly
    ``n_columns`` columns and for a block of comments without rows.
    """
    if isinstance(source, str):
        source = io.StringIO(source)

    comments: list[str] = []
    meta: dict[str, str] = {}
    rows: list[tuple[int, list[str]]] = []

    def block(end: int):
        if not rows:
            raise ParseError(f"line {end}: sentence block without token lines")
        return tuple(comments), meta, rows, end

    line_no = 0
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if line == "":
            if comments or rows:
                yield block(line_no)
                comments, meta, rows = [], {}, []
            continue
        if line.startswith("#"):
            comments.append(line)
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
            continue
        cols = line.split(separator)
        if len(cols) != n_columns:
            raise ParseError(
                f"line {line_no} (sentence {meta.get('sent_id')!r}): expected "
                f"{n_columns} columns, got {len(cols)}"
            )
        rows.append((line_no, cols))

    if comments or rows:
        yield block(line_no)


def parse_conllu(
    source: str | TextIO,
    *,
    default_work_id: str | None = None,
) -> list[Sentence]:
    """Parse CoNLL-U text into sentences.

    Raises ParseError for malformed lines (with line number and current
    sentence id) and StructureError for non-monotonic token ids.
    """
    sentences: list[Sentence] = []
    doc_id: str | None = None
    # One bundle per distinct FEATS string; a string that fails to
    # parse is never stored, so it raises again on every line.
    bundles: dict[str, FeatureBundle] = {}

    for comments, meta, rows, end in read_blocks(source):
        sent_id = meta.get("sent_id")
        # a "# newdoc id" carries over to the blocks that follow it
        doc_id = meta.get("newdoc id", doc_id)
        tokens: list[Token] = []
        extras: list[tuple[int, str]] = []
        for line_no, cols in rows:
            tok_id = cols[0]
            if _RANGE_ID.match(tok_id) or _EMPTY_NODE_ID.match(tok_id):
                extras.append((len(tokens), "\t".join(cols)))
                continue
            if not _WORD_ID.match(tok_id):
                raise ParseError(
                    f"line {line_no} (sentence {sent_id!r}): bad token id {tok_id!r}"
                )
            if cols[3] != "_" and cols[3] not in UPOS_TAGS:
                raise ParseError(
                    f"line {line_no} (sentence {sent_id!r}): unknown UPOS {cols[3]!r}"
                )
            try:
                feats = bundles.get(cols[5])
                if feats is None:
                    feats = bundles[cols[5]] = FeatureBundle.from_string(cols[5])
                misc = _parse_misc(cols[9])
                tokens.append(
                    Token(
                        id=int(tok_id),
                        form=cols[1],
                        lemma=cols[2],
                        upos=cols[3],
                        xpos=_opt(cols[4]),
                        feats=feats,
                        head=_opt(cols[6]),
                        deprel=_opt(cols[7]),
                        deps=_opt(cols[8]),
                        misc=misc,
                    )
                )
            except StructureError:
                raise
            except ValueError as exc:
                raise ParseError(
                    f"line {line_no} (sentence {sent_id!r}): {exc}"
                ) from exc
        if not tokens:
            raise ParseError(f"line {end}: sentence block without token lines")
        sentences.append(
            Sentence(
                sent_id=sent_id if sent_id is not None else f"sent{len(sentences) + 1}",
                tokens=tuple(tokens),
                text=meta.get("text"),
                doc_id=doc_id,
                work_id=meta.get("work_id") or doc_id or default_work_id,
                comments=comments,
                extras=tuple(extras),
            )
        )
    return sentences


def parse_conllu_file(path: str | Path) -> list[Sentence]:
    """Parse one file; sentences without a work id take the file stem.
    A leading UTF-8 byte-order mark is skipped."""
    path = Path(path)
    with open(path, encoding="utf-8-sig") as handle:
        return parse_conllu(handle, default_work_id=path.stem)


def serialize_sentence(sentence: Sentence) -> str:
    lines: list[str] = []
    if sentence.comments:
        lines.extend(sentence.comments)
    else:
        lines.append(f"# sent_id = {sentence.sent_id}")
        if sentence.text is not None:
            lines.append(f"# text = {sentence.text}")
    extras_at: dict[int, list[str]] = {}
    for pos, raw in sentence.extras:
        extras_at.setdefault(pos, []).append(raw)
    for index, token in enumerate(sentence.tokens):
        lines.extend(extras_at.get(index, ()))
        lines.append(
            "\t".join(
                (
                    str(token.id),
                    token.form,
                    token.lemma,
                    token.upos,
                    token.xpos or "_",
                    token.feats.to_string(),
                    token.head or "_",
                    token.deprel or "_",
                    token.deps or "_",
                    token.misc_string(),
                )
            )
        )
    lines.extend(extras_at.get(len(sentence.tokens), ()))
    return "\n".join(lines) + "\n"


def serialize_conllu(sentences: Iterable[Sentence]) -> str:
    return "\n".join(serialize_sentence(s) for s in sentences)


def write_conllu_file(path: str | Path, sentences: Iterable[Sentence]) -> None:
    Path(path).write_text(serialize_conllu(sentences), encoding="utf-8")
