"""Read, model, and serialize CoNLL-U treebank files.

One reader serves every corpus flavor: a ColumnMapping says where each
CoNLL-U field sits in a row, so plain CoNLL-U and LASLA's export differ
only in their mapping. Word tokens become immutable records;
multiword-token ranges ("4-5") and empty nodes ("5.1") are kept as
verbatim lines and woven back on output, so a canonical file survives a
parse/serialize cycle byte for byte.
"""

from __future__ import annotations

import io
import re
from collections import Counter
from itertools import chain
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, TextIO

from .reports import breaks_a_cell

UPOS_TAGS = frozenset(
    {
        "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
        "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
    }
)

# a multiword-token range ("4-5") or an empty node ("5.1"); a word id is
# str.isdecimal(), the same Unicode Nd digits that \d matches
_EXTRA_ID = re.compile(r"^\d+[-.]\d+$")


class ConlluError(ValueError):
    """Base class for CoNLL-U reading problems."""


class ParseError(ConlluError):
    """Malformed line: wrong column count, bad FEATS/MISC syntax, bad id."""


class StructureError(ConlluError):
    """Structurally invalid sentence, e.g. non-increasing token ids."""


# a character that would split or shift a FEATS item, a cell or a line
_structural = re.compile(r"[=|,\t\n]").search


class FeatureBundle:
    """Multi-valued morphological feature map.

    Insertion order is kept for inspection, but equality, hashing, and
    serialization all use the canonical string, rendered once: feature
    names ascending case-insensitively, values ascending within a
    feature. Names and values cannot hold "=|,", so two bundles render
    alike exactly when they hold the same features and values.
    """

    __slots__ = ("_index", "_string")

    def __init__(self, entries: Iterable[tuple[str, Iterable[str]]] = ()):
        index: dict[str, tuple[str, ...]] = {}
        for name, values in entries:
            values = tuple(values)
            if not name:
                raise ValueError("empty feature name")
            if not values or not all(values):
                raise ValueError(f"feature {name!r} has an empty value")
            if _structural(name):
                raise ValueError(f"feature name {name!r} contains structural characters")
            if any(map(_structural, values)):
                raise ValueError(f"feature {name!r} has a value with structural characters")
            if name in index:
                raise ValueError(f"duplicate feature {name!r}")
            index[name] = values
        self._index = index
        self._string = "|".join(
            f"{name}={','.join(sorted(index[name]))}"
            for name in sorted(index, key=lambda name: (name.lower(), name))
        ) or "_"

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

    def names(self) -> tuple[str, ...]:
        return tuple(self._index)

    def items(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        return tuple(self._index.items())

    def to_string(self) -> str:
        return self._string

    def __len__(self) -> int:
        return len(self._index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureBundle):
            return NotImplemented
        return self._string == other._string

    def __hash__(self) -> int:
        return hash(self._string)

    def __repr__(self) -> str:
        return f"FeatureBundle({self._string!r})"


def _checked_make(cls, iterable):
    """A record's ``_make``, and so its ``_replace``, through its checking
    constructor."""
    return cls(*iterable)


class _TokenFields(NamedTuple):
    id: int
    form: str
    lemma: str
    upos: str
    # bundles are immutable, so every token without features shares one
    feats: FeatureBundle = FeatureBundle()
    xpos: str | None = None
    head: str | None = None
    deprel: str | None = None
    deps: str | None = None
    misc: tuple[tuple[str, str | None], ...] = ()


class Token(_TokenFields):
    """One annotated word token (never a multiword range or empty node).

    An immutable tuple record. The constructor, and ``_replace``, reject
    an id below 1 (StructureError) and a repeated MISC key (ParseError).
    ``CorpusReader`` makes the same checks as it reads a line, the MISC
    one once per distinct MISC string, and then builds the token with
    ``tuple.__new__``, without a second check.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        token = super().__new__(cls, *args, **kwargs)
        if token.id < 1:
            raise StructureError(f"token id must be >= 1, got {token.id}")
        _check_misc_keys(token.misc)
        return token

    _make = classmethod(_checked_make)

    def misc_get(self, key: str) -> str | None:
        for k, v in self.misc:
            if k == key:
                return v
        return None

    def misc_string(self) -> str:
        if not self.misc:
            return "_"
        return "|".join(k if v is None else f"{k}={v}" for k, v in self.misc)


class _SentenceFields(NamedTuple):
    sent_id: str
    tokens: tuple[Token, ...]
    text: str | None = None
    doc_id: str | None = None
    work_id: str | None = None
    comments: tuple[str, ...] = ()
    extras: tuple[tuple[int, str], ...] = ()


class Sentence(_SentenceFields):
    """A sentence with its tokens, comments, and pass-through records.

    ``extras`` holds verbatim multiword-token / empty-node lines as
    (insert-before-word-index, raw line) pairs. An immutable tuple
    record; the constructor, and ``_replace``, reject token ids that do
    not strictly increase (StructureError).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        sentence = super().__new__(cls, *args, **kwargs)
        prev = 0
        for token in sentence.tokens:
            if token.id <= prev:
                raise StructureError(
                    f"sentence {sentence.sent_id!r}: token ids not strictly increasing "
                    f"({prev} then {token.id})"
                )
            prev = token.id
        return sentence

    _make = classmethod(_checked_make)


def _check_misc_keys(misc: tuple[tuple[str, str | None], ...]) -> None:
    if len(misc) > 1:
        seen = set()
        for key, _ in misc:
            if key in seen:
                raise ParseError(f"duplicate MISC key {key!r}")
            seen.add(key)


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
    _check_misc_keys(entries)
    return tuple(entries)


FIELDS = ("id", "form", "lemma", "upos", "xpos", "feats", "head", "deprel", "deps", "misc")
MANDATORY_FIELDS = ("form", "lemma", "upos", "feats")


class MappingError(ValueError):
    """Invalid or incomplete column mapping."""


# the default rename tables: shared, so read-only
_NO_RENAMES: Mapping = MappingProxyType({})


class _ColumnMappingFields(NamedTuple):
    columns: dict[str, int] | None = None
    n_columns: int = 10
    separator: str = "\t"
    feature_renames: Mapping[str, str] = _NO_RENAMES
    value_renames: Mapping[str, Mapping[str, str]] = _NO_RENAMES
    known_values: dict[str, frozenset[str]] | None = None


class ColumnMapping(_ColumnMappingFields):
    """Where each CoNLL-U field lives in the source rows.

    ``columns`` maps field names from FIELDS to 0-based columns; by
    default, each field whose index in FIELDS is below ``n_columns``
    sits at that index. A field without a column reads as ``_``; without
    an ``id`` column, tokens are numbered by position.
    ``feature_renames`` maps source feature names to internal ones;
    ``value_renames`` maps, per internal feature name, source values to
    internal values. ``known_values`` (optional) lists the expected value
    inventory per feature; values outside it are passed through but
    counted as warnings. An immutable tuple record: the constructor, and
    ``_replace``, raise MappingError for an invalid or incomplete mapping.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        mapping = super().__new__(cls, *args, **kwargs)
        if mapping.columns is None:
            columns = {name: i for i, name in enumerate(FIELDS) if i < mapping.n_columns}
            mapping = super().__new__(cls, columns, *mapping[1:])
        for name in mapping.columns:
            if name not in FIELDS:
                raise MappingError(
                    f"{name!r} is not a CoNLL-U field; fields are {', '.join(FIELDS)}"
                )
        for name in MANDATORY_FIELDS:
            if name not in mapping.columns:
                raise MappingError(f"mandatory field {name!r} has no column assignment")
        tables = {f"value renames for {f!r}": table for f, table in mapping.value_renames.items()}
        for what, table in {**tables, "feature renames": mapping.feature_renames}.items():
            if len(set(table.values())) != len(table):
                raise MappingError(f"{what} are not injective")
        for name, index in mapping.columns.items():
            if not 0 <= index < mapping.n_columns:
                raise MappingError(
                    f"column {index} of field {name!r} is outside "
                    f"0..{mapping.n_columns - 1}"
                )
        return mapping

    _make = classmethod(_checked_make)


# Plain CoNLL-U: all ten columns, no renames, no inventory.
CONLLU_MAPPING = ColumnMapping()


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


# the comments whose values name a sentence, a document or a work
_ID_KEYS = frozenset({"sent_id", "newdoc id", "work_id"})


def _comment_field(line: str) -> tuple[str | None, str]:
    """A ``# key = value`` comment's stripped key (None without "=") and value."""
    key, equals, value = line[1:].partition("=")
    return (key.strip() if equals else None), value.strip()


class CorpusReader:
    """Reads the files of one corpus through one ColumnMapping.

    Each distinct raw FEATS string gets one bundle for the life of the
    reader, so the files of a corpus share their bundles. A string that
    fails to parse is never stored, so it raises again on every line.
    Each distinct raw MISC string likewise gets one entry tuple, checked
    for duplicate keys once, when it is first read; a string with a
    repeated key is never stored either. With the id checked on each
    line, every check of ``Token(...)`` is made, so tokens are built
    with ``tuple.__new__``.

    When the mapping has an ``id`` column, each distinct raw token line
    is also memoized, with the values it holds outside the mapping's
    inventory, and each line is looked up before any other test: a line
    read again, in any file, gives back the same token without being
    stripped, split or checked. Tokens are immutable, so the sentences of
    every file share them. Only a line that passed every check is
    stored, so a bad line raises at each occurrence, with its own line
    number. Without an id column a token's id is its position, and lines
    are not memoized. ``unknown_values`` counts every occurrence of a
    value outside the mapping's inventory, memoized lines included. Ids
    are checked for order as tokens are gathered, so sentences are built
    with ``tuple.__new__`` too.
    """

    def __init__(self, mapping: ColumnMapping = CONLLU_MAPPING):
        self.mapping = mapping
        self.unknown_values: Counter = Counter()
        self._bundles: dict[str, tuple[FeatureBundle, tuple[tuple[str, str], ...]]] = {}
        self._miscs: dict[str, tuple[tuple[str, str | None], ...]] = {}
        self._lines: dict[str, tuple[Token, tuple[tuple[str, str], ...]]] = {}
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
        and current sentence id), for a stem, sent_id, newdoc id or
        work_id holding a tab or a line break, for a stem that cannot be
        encoded as UTF-8 (a file name that is not UTF-8 decodes to lone
        surrogates), and StructureError for token ids that do not
        increase.
        """
        if stem is not None:
            if breaks_a_cell(stem):
                raise ParseError(f"stem {stem!r} holds a tab or a line break")
            try:
                stem.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(f"stem {stem!r} cannot be encoded as UTF-8") from None
        mapping = self.mapping
        separator, n_columns = mapping.separator, mapping.n_columns
        id_column = mapping.columns.get("id")
        fields, bundles, miscs = self._fields, self._bundles, self._miscs
        unknown_values = self.unknown_values
        # without an id column a line's id is its position: no line is
        # memoized, so every lookup misses
        memo = self._lines if id_column is not None else {}
        memoized = memo.get
        new = tuple.__new__
        if isinstance(source, str):
            source = io.StringIO(source, newline=None)
        sentences: list[Sentence] = []
        doc_id: str | None = None
        comments, meta, tokens, extras = [], {}, [], []
        last_id, in_order = 0, True  # the block's last token id, and whether ids increase

        # a source never yields "", so a final "" closes the last block
        for line_no, raw in enumerate(chain(source, ("",)), start=1):
            # a memoized token line passed every check, and no blank or
            # comment line is stored: so they are tested only after a miss
            seen = memoized(raw)
            if seen is not None:
                token = seen[0]
                if seen[1]:
                    unknown_values.update(seen[1])
            else:
                line = raw.rstrip("\n")
                if not line:
                    if tokens:
                        sent_id = meta.get("sent_id")
                        if sent_id is None:
                            sent_id = f"{stem or 'sent'}-{len(sentences) + 1}"
                        if not in_order:
                            Sentence(sent_id, tuple(tokens))  # raises its StructureError
                        # a "# newdoc id" carries over to the blocks that follow it
                        doc_id = meta.get("newdoc id", doc_id)
                        work_id = meta.get("work_id") or doc_id or stem
                        sentences.append(new(Sentence, (
                            sent_id, tuple(tokens), meta.get("text"), doc_id, work_id,
                            tuple(comments), tuple(extras),
                        )))
                        comments, meta, tokens, extras = [], {}, [], []
                        last_id = 0  # a block out of order never closes
                    elif comments or extras:
                        # the closing blank line, or the last line of the source
                        end = line_no if raw else line_no - 1
                        raise ParseError(f"line {end}: sentence block without token lines")
                    continue
                if line[0] == "#":
                    comments.append(line)
                    key, value = _comment_field(line)
                    if key is not None:
                        if key in _ID_KEYS and breaks_a_cell(value):
                            raise ParseError(f"line {line_no}: {key} {value!r} holds a tab or a line break")
                        meta[key] = value
                    continue
                try:
                    cols = line.split(separator)
                    if len(cols) != n_columns:
                        raise ValueError(f"expected {n_columns} columns, got {len(cols)}")
                    if id_column is None:
                        tok_id = len(tokens) + 1
                    else:
                        raw_id = cols[id_column]
                        if raw_id.isdecimal():
                            tok_id = int(raw_id)
                        elif _EXTRA_ID.match(raw_id):
                            extras.append((len(tokens), "\t".join(cols)))
                            continue
                        else:
                            raise ValueError(f"bad token id {raw_id!r}")
                    cols.append("_")
                    form, lemma, upos, xpos, feats, head, deprel, deps, misc = fields(cols)
                    if upos != "_" and upos not in UPOS_TAGS:
                        raise ValueError(f"unknown UPOS {upos!r}")
                    hit = bundles.get(feats)
                    if hit is None:
                        hit = bundles[feats] = _mapped_feats(feats, mapping)
                    if hit[1]:
                        unknown_values.update(hit[1])
                    # Token's checks, in its order and with its messages
                    if tok_id < 1:
                        raise StructureError(f"token id must be >= 1, got {tok_id}")
                    misc_entries = miscs.get(misc)
                    if misc_entries is None:
                        misc_entries = miscs[misc] = _parse_misc(misc)
                except ValueError as exc:
                    raise ParseError(
                        f"line {line_no} (sentence {meta.get('sent_id')!r}): {exc}"
                    ) from exc
                token = new(Token, (
                    tok_id, form, lemma, upos, hit[0],
                    None if xpos == "_" else xpos,
                    None if head == "_" else head,
                    None if deprel == "_" else deprel,
                    None if deps == "_" else deps,
                    misc_entries,
                ))
                if id_column is not None:
                    memo[raw] = (token, hit[1])
            if token[0] <= last_id:
                in_order = False
            last_id = token[0]
            tokens.append(token)
        return sentences

    def read_file(self, path: str | Path) -> list[Sentence]:
        """Read one file with its stem as the ``stem`` of ``read``. A
        leading UTF-8 byte-order mark is skipped. An error names the file."""
        path = Path(path)
        with open(path, encoding="utf-8-sig") as handle:
            try:
                return self.read(handle, stem=path.stem)
            except UnicodeDecodeError as exc:
                raise ConlluError(f"{path}: not UTF-8 text ({exc.reason})") from None
            except ConlluError as exc:
                raise type(exc)(f"{path}: {exc}") from None


def parse_conllu(source: str | TextIO) -> list[Sentence]:
    """Plain CoNLL-U text as sentences; see ``CorpusReader.read``."""
    return CorpusReader().read(source)


def parse_conllu_file(path: str | Path) -> list[Sentence]:
    """One plain CoNLL-U file as sentences; see ``CorpusReader.read_file``."""
    return CorpusReader().read_file(path)


def serialize_sentence(sentence: Sentence) -> str:
    comments = sentence.comments
    if not comments and sentence.text is not None:
        comments = (f"# text = {sentence.text}",)
    # a sentence read without "# sent_id" keeps its id; the usual id line is tested first
    id_line = f"# sent_id = {sentence.sent_id}"
    if id_line not in comments and "sent_id" not in map(itemgetter(0), map(_comment_field, comments)):
        comments = (id_line, *comments)
    lines = list(comments)
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
