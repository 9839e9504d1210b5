"""Ingest LASLA-format treebank exports into the internal sentence model.

The file layout is configuration, not code: a ColumnMapping names the
source column of each mandatory field and carries per-feature rename
tables, so columnar variants only need a different mapping document.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

from .conllu import (
    UPOS_TAGS,
    FeatureBundle,
    ParseError,
    Sentence,
    Token,
    read_blocks,
)


class MappingError(ValueError):
    """Invalid or incomplete column mapping."""


MANDATORY_FIELDS = ("form", "lemma", "upos", "feats")


@dataclass(frozen=True, slots=True)
class ColumnMapping:
    """Where each internal field lives in the source rows.

    Column indices are 0-based. ``feature_renames`` maps source feature
    names to internal ones; ``value_renames`` maps, per internal feature
    name, source values to internal values. ``known_values`` (optional)
    lists the expected value inventory per feature; values outside it
    are passed through but counted as warnings.
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
        for name in MANDATORY_FIELDS:
            if name not in self.columns:
                raise MappingError(f"mandatory field {name!r} has no column assignment")
        for feature, renames in self.value_renames.items():
            targets = list(renames.values())
            if len(targets) != len(set(targets)):
                raise MappingError(f"value renames for {feature!r} are not injective")
        targets = list(self.feature_renames.values())
        if len(targets) != len(set(targets)):
            raise MappingError("feature renames are not injective")
        for name, index in self.columns.items():
            if not 0 <= index < self.n_columns:
                raise MappingError(
                    f"column {index} of field {name!r} is outside "
                    f"0..{self.n_columns - 1}"
                )

    @classmethod
    def from_dict(cls, data: dict) -> "ColumnMapping":
        kwargs = dict(data)
        if "known_values" in kwargs and kwargs["known_values"] is not None:
            kwargs["known_values"] = {
                feature: frozenset(values)
                for feature, values in kwargs["known_values"].items()
            }
        if "columns" in kwargs:
            kwargs["columns"] = {k: int(v) for k, v in kwargs["columns"].items()}
        return cls(**kwargs)


# LASLA's CoNLL-U-like export: standard columns, "Plural" spelled out,
# no dependency relations. The known-value inventory covers the features
# the conversion consumes; values outside it are counted as warnings.
DEFAULT_LASLA_MAPPING = ColumnMapping(
    value_renames={"Number": {"Plural": "Plur"}},
    known_values={
        "Aspect": frozenset({"Imp", "Perf", "Prosp"}),
        "Case": frozenset({"Nom", "Gen", "Dat", "Acc", "Abl", "Voc", "Loc"}),
        "Degree": frozenset({"Abs", "Cmp", "Pos"}),
        "Gender": frozenset({"Masc", "Fem", "Neut"}),
        "Mood": frozenset({"Ind", "Sub", "Imp"}),
        "Number": frozenset({"Sing", "Plur"}),
        "Person": frozenset({"1", "2", "3"}),
        "Tense": frozenset({"Pres", "Past", "Fut", "Pqp"}),
        "Voice": frozenset({"Act", "Pass"}),
        "VerbForm": frozenset({"Fin", "Inf", "Part", "Ger", "Gdv", "Sup"}),
    },
)


@dataclass(slots=True)
class IngestResult:
    sentences: list[Sentence]
    # (feature, value) -> occurrences outside the declared inventory
    unknown_values: Counter = field(default_factory=Counter)


def _mapped_feats(
    raw: str, mapping: ColumnMapping
) -> tuple[FeatureBundle, tuple[tuple[str, str], ...]]:
    """The bundle of one raw FEATS string and its (feature, value) pairs
    outside the declared inventory, once per occurrence."""
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


def ingest_lasla(
    source: str | TextIO,
    mapping: ColumnMapping = DEFAULT_LASLA_MAPPING,
    *,
    work_id: str | None = None,
) -> IngestResult:
    """Parse one LASLA file into sentences carrying ``work_id`` provenance.

    Never invents values: every output value is a source value or its
    configured rename. Unknown values are counted, not dropped.
    """
    result = IngestResult(sentences=[])
    # One bundle per distinct raw FEATS string; a string that fails to
    # map is never stored, so it raises again on every line. A hit counts
    # its unknown values again, so every occurrence is counted.
    bundles: dict[str, tuple[FeatureBundle, tuple[tuple[str, str], ...]]] = {}

    def col(cols: list[str], name: str) -> str | None:
        index = mapping.columns.get(name)
        return cols[index] if index is not None else None

    for comments, meta, rows, _end in read_blocks(
        source, separator=mapping.separator, n_columns=mapping.n_columns
    ):
        sent_id = meta.get("sent_id")
        tokens: list[Token] = []
        for line_no, cols in rows:
            upos = col(cols, "upos") or "_"
            if upos != "_" and upos not in UPOS_TAGS:
                raise ParseError(
                    f"line {line_no} (sentence {sent_id!r}): unknown UPOS {upos!r}"
                )
            try:
                raw = col(cols, "feats") or "_"
                mapped = bundles.get(raw)
                if mapped is None:
                    mapped = bundles[raw] = _mapped_feats(raw, mapping)
                feats, unknown = mapped
                result.unknown_values.update(unknown)
                raw_id = col(cols, "id")
                xpos = col(cols, "xpos")
                tokens.append(
                    Token(
                        id=int(raw_id) if raw_id not in (None, "_") else len(tokens) + 1,
                        form=col(cols, "form") or "_",
                        lemma=col(cols, "lemma") or "_",
                        upos=upos,
                        xpos=None if xpos in (None, "_") else xpos,
                        feats=feats,
                    )
                )
            except ValueError as exc:
                raise ParseError(f"line {line_no} (sentence {sent_id!r}): {exc}") from exc
        result.sentences.append(
            Sentence(
                sent_id=sent_id or f"{work_id or 'lasla'}-{len(result.sentences) + 1}",
                tokens=tuple(tokens),
                work_id=meta.get("work_id") or meta.get("newdoc id") or work_id,
                comments=comments,
            )
        )
    return result


def ingest_lasla_file(
    path: str | Path, mapping: ColumnMapping = DEFAULT_LASLA_MAPPING
) -> IngestResult:
    """Ingest one file; sentences without a work id take the file stem.
    A leading UTF-8 byte-order mark is skipped."""
    path = Path(path)
    with open(path, encoding="utf-8-sig") as handle:
        return ingest_lasla(handle, mapping, work_id=path.stem)
