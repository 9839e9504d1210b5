"""Read, model, and write CoNLL-U treebank files.

One reader serves every corpus flavor: a ColumnMapping says where each
CoNLL-U field sits in a row, so plain CoNLL-U and LASLA's export differ
only in their mapping. Word tokens become immutable records;
multiword-token ranges ("4-5") and empty nodes ("5.1") are kept as
verbatim lines and woven back on output, so a canonical file survives a
parse/serialize cycle byte for byte.
"""

from __future__ import annotations

import io
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, TextIO

UPOS_TAGS = frozenset(
    {
        "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
        "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
    }
)

# a multiword-token range ("4-5") or an empty node ("5.1")
_EXTRA_ID = re.compile(r"^\d+[-.]\d+$")
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
    that closed the block; a block of comments has no rows. Raises
    ParseError for a row without exactly ``n_columns`` columns.
    """
    if isinstance(source, str):
        source = io.StringIO(source)

    comments: list[str] = []
    meta: dict[str, str] = {}
    rows: list[tuple[int, list[str]]] = []

    line_no = 0
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\n")
        if line == "":
            if comments or rows:
                yield tuple(comments), meta, rows, line_no
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
        yield tuple(comments), meta, rows, line_no


FIELDS = ("id", "form", "lemma", "upos", "xpos", "feats", "head", "deprel", "deps", "misc")
MANDATORY_FIELDS = ("form", "lemma", "upos", "feats")


class MappingError(ValueError):
    """Invalid or incomplete column mapping."""


@dataclass(frozen=True, slots=True)
class ColumnMapping:
    """Where each CoNLL-U field lives in the source rows.

    ``columns`` maps field names from FIELDS to 0-based columns. A field
    without a column reads as ``_``; without an ``id`` column, tokens are
    numbered by position. ``feature_renames`` maps source feature names
    to internal ones; ``value_renames`` maps, per internal feature name,
    source values to internal values. ``known_values`` (optional) lists
    the expected value inventory per feature; values outside it are
    passed through but counted as warnings.
    """

    columns: dict[str, int] = field(
        default_factory=lambda: {
            "id": 0, "form": 1, "lemma": 2, "upos": 3, "xpos": 4, "feats": 5,
        }
    )
    n_columns: int = 10
    separator: str = "\t"
    feature_renames: dict[str, str] = field(default_factory=dict)
    value_renames: dict[str, dict[str, str]] = field(default_factory=dict)
    known_values: dict[str, frozenset[str]] | None = None

    def __post_init__(self) -> None:
        for name in self.columns:
            if name not in FIELDS:
                raise MappingError(
                    f"{name!r} is not a CoNLL-U field; fields are {', '.join(FIELDS)}"
                )
        for name in MANDATORY_FIELDS:
            if name not in self.columns:
                raise MappingError(f"mandatory field {name!r} has no column assignment")
        tables = {f"value renames for {f!r}": table for f, table in self.value_renames.items()}
        for what, table in {**tables, "feature renames": self.feature_renames}.items():
            if len(set(table.values())) != len(table):
                raise MappingError(f"{what} are not injective")
        for name, index in self.columns.items():
            if not 0 <= index < self.n_columns:
                raise MappingError(
                    f"column {index} of field {name!r} is outside "
                    f"0..{self.n_columns - 1}"
                )

    @classmethod
    def from_dict(cls, data, name: str) -> "ColumnMapping":
        """A mapping from its JSON document; a key of the wrong JSON type
        is a MappingError naming ``name`` and the key."""
        if type(data) is not dict:
            raise MappingError(f"{name} must be a JSON object, got {json.dumps(data)}")
        unknown = set(data) - set(_MAPPING_KEYS)
        if unknown:
            raise MappingError(f"unknown {name} keys: {sorted(unknown)}")
        for key, value in data.items():
            expected, valid = _MAPPING_KEYS[key]
            if not valid(value):
                raise MappingError(f"{name}.{key} must be {expected}, got {json.dumps(value)}")
        kwargs = dict(data)
        if kwargs.get("known_values") is not None:
            kwargs["known_values"] = {
                feature: frozenset(values) for feature, values in kwargs["known_values"].items()
            }
        return cls(**kwargs)


def _object_of(valid):
    return lambda value: type(value) is dict and all(map(valid, value.values()))


def _is_str(value) -> bool:
    return type(value) is str


# ColumnMapping's JSON keys: what each must be, and the check. JSON
# booleans are not integers here, though Python's bool is an int.
_MAPPING_KEYS = {
    "columns": ("a JSON object of integers", _object_of(lambda v: type(v) is int)),
    "n_columns": ("a JSON integer", lambda v: type(v) is int),
    "separator": ("a non-empty string", lambda v: _is_str(v) and v != ""),
    "feature_renames": ("a JSON object of strings", _object_of(_is_str)),
    "value_renames": ("a JSON object of objects of strings", _object_of(_object_of(_is_str))),
    "known_values": (
        "null or a JSON object of string arrays",
        lambda v: v is None or _object_of(lambda a: type(a) is list and all(map(_is_str, a)))(v),
    ),
}


# Plain CoNLL-U: all ten columns, no renames, no inventory.
CONLLU_MAPPING = ColumnMapping(columns={name: i for i, name in enumerate(FIELDS)})


def _mapped_feats(
    raw: str, mapping: ColumnMapping
) -> tuple[FeatureBundle, tuple[tuple[str, str], ...]]:
    """The bundle of one raw FEATS string under the mapping's renames,
    and its (feature, value) pairs outside the declared inventory."""
    if raw in ("", "_"):
        return FeatureBundle(), ()
    entries = []
    unknown = []
    for item in raw.split("|"):
        if "=" not in item:
            raise ValueError(f"feature item without '=': {item!r}")
        name, values = item.split("=", 1)
        name = mapping.feature_renames.get(name, name)
        renames = mapping.value_renames.get(name, {})
        mapped = tuple(renames.get(v, v) for v in values.split(","))
        if mapping.known_values is not None and name in mapping.known_values:
            inventory = mapping.known_values[name]
            unknown.extend((name, value) for value in mapped if value not in inventory)
        entries.append((name, mapped))
    return FeatureBundle(entries), tuple(unknown)


class CorpusReader:
    """Reads the files of one corpus through one ColumnMapping.

    Each distinct raw FEATS string gets one bundle for the life of the
    reader, so the files of a corpus share their bundles. The key is the
    raw string, never bundle equality: ``Mood=Sub,Ind`` and
    ``Mood=Ind,Sub`` are equal bundles that standardize to different
    moods. A string that fails to parse is never stored, so it raises
    again on every line. ``unknown_values`` counts every occurrence of a
    value outside the mapping's inventory.
    """

    def __init__(self, mapping: ColumnMapping = CONLLU_MAPPING):
        self.mapping = mapping
        self.unknown_values: Counter = Counter()
        self._bundles: dict[str, tuple[FeatureBundle, tuple[tuple[str, str], ...]]] = {}
        # the fields after the id, as one tuple per row; a field without a
        # column reads the "_" appended to every row
        self._fields = itemgetter(
            *(mapping.columns.get(name, mapping.n_columns) for name in FIELDS[1:])
        )

    def read(self, source: str | TextIO, *, stem: str | None = None) -> list[Sentence]:
        """Parse CoNLL-U-like text into sentences.

        Sentences without a work id take ``stem``, and those without a
        ``# sent_id`` are numbered ``<stem>-<n>`` (``sent-<n>`` without a
        stem). Raises ParseError for malformed lines (with line number
        and current sentence id) and StructureError for token ids that do
        not increase.
        """
        mapping = self.mapping
        id_column = mapping.columns.get("id")
        fields, bundles = self._fields, self._bundles
        sentences: list[Sentence] = []
        doc_id: str | None = None

        for comments, meta, rows, end in read_blocks(
            source, separator=mapping.separator, n_columns=mapping.n_columns
        ):
            sent_id = meta.get("sent_id")
            # a "# newdoc id" carries over to the blocks that follow it
            doc_id = meta.get("newdoc id", doc_id)
            tokens: list[Token] = []
            extras: list[tuple[int, str]] = []
            for line_no, cols in rows:
                try:
                    if id_column is None:
                        tok_id = len(tokens) + 1
                    else:
                        raw_id = cols[id_column]
                        if _EXTRA_ID.match(raw_id):
                            extras.append((len(tokens), "\t".join(cols)))
                            continue
                        if not _WORD_ID.match(raw_id):
                            raise ValueError(f"bad token id {raw_id!r}")
                        tok_id = int(raw_id)
                    cols.append("_")
                    form, lemma, upos, xpos, feats, head, deprel, deps, misc = fields(cols)
                    if upos != "_" and upos not in UPOS_TAGS:
                        raise ValueError(f"unknown UPOS {upos!r}")
                    hit = bundles.get(feats)
                    if hit is None:
                        hit = bundles[feats] = _mapped_feats(feats, mapping)
                    if hit[1]:
                        self.unknown_values.update(hit[1])
                    tokens.append(
                        Token(
                            id=tok_id,
                            form=form,
                            lemma=lemma,
                            upos=upos,
                            xpos=None if xpos == "_" else xpos,
                            feats=hit[0],
                            head=None if head == "_" else head,
                            deprel=None if deprel == "_" else deprel,
                            deps=None if deps == "_" else deps,
                            misc=_parse_misc(misc),
                        )
                    )
                except ValueError as exc:
                    raise ParseError(
                        f"line {line_no} (sentence {sent_id!r}): {exc}"
                    ) from exc
            if not tokens:
                raise ParseError(f"line {end}: sentence block without token lines")
            if sent_id is None:
                sent_id = f"{stem or 'sent'}-{len(sentences) + 1}"
            sentences.append(
                Sentence(
                    sent_id=sent_id,
                    tokens=tuple(tokens),
                    text=meta.get("text"),
                    doc_id=doc_id,
                    work_id=meta.get("work_id") or doc_id or stem,
                    comments=comments,
                    extras=tuple(extras),
                )
            )
        return sentences

    def read_file(self, path: str | Path) -> list[Sentence]:
        """Read one file with its stem as the ``stem`` of ``read``. A
        leading UTF-8 byte-order mark is skipped."""
        path = Path(path)
        with open(path, encoding="utf-8-sig") as handle:
            return self.read(handle, stem=path.stem)


def parse_conllu(source: str | TextIO) -> list[Sentence]:
    """Plain CoNLL-U text as sentences; see ``CorpusReader.read``."""
    return CorpusReader().read(source)


def parse_conllu_file(path: str | Path) -> list[Sentence]:
    """One plain CoNLL-U file as sentences; see ``CorpusReader.read_file``."""
    return CorpusReader().read_file(path)


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
