"""LASLA's treebank export: a column mapping for the one corpus reader.

The file layout is configuration, not code: a ColumnMapping names the
source column of each field and carries per-feature rename tables, so
columnar variants only need a different mapping document.
"""

from __future__ import annotations

from pathlib import Path

from .conllu import ColumnMapping, CorpusReader, Sentence

# LASLA's CoNLL-U-like export: the ten standard columns, "Plural" spelled
# out. The known-value inventory covers the features the conversion
# consumes; values outside it are counted as warnings.
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


def ingest_lasla_file(
    path: str | Path, mapping: ColumnMapping = DEFAULT_LASLA_MAPPING
) -> list[Sentence]:
    """One LASLA file as sentences; see ``CorpusReader.read_file``."""
    return CorpusReader(mapping).read_file(path)
