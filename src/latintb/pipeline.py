"""Corpus-level plumbing shared by the CLI subcommands.

Conversion runs standardization and harmonization in one pass and
rewrites each token's FEATS to the standard 9-feature scheme; the MISC
keys the flavor's standardizer reads (UD's TraditionalTense and
TraditionalMood, none for LASLA) are dropped, everything else passes
through untouched.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import FLAVORS
from .config import ToolConfig
from .conllu import CONLLU_MAPPING, ConlluError, CorpusReader, FeatureBundle, Sentence, Token
from .standardize import TRADITIONAL_KEYS, StandardRecord, standardize_lasla, standardize_ud

if TYPE_CHECKING:
    from .agreement import AlignedTokenPair


class ManifestError(ValueError):
    """A duplicate manifest row that the corpora do not bear out."""


def corpus_files(path: str | Path) -> list[Path]:
    """The path itself, or the sorted .conllu files of a directory; a
    directory without one is a ValueError, not an empty corpus."""
    path = Path(path)
    if not path.is_dir():
        return [path]
    files = sorted(p for p in path.iterdir() if p.suffix == ".conllu")
    if not files:
        raise ValueError(f"{path}: no .conllu file in this directory")
    return files


# The one place a corpus flavor is dispatched: its column mapping (given
# the config), its token standardizer and the MISC keys that reads.
_FLAVORS = dict(zip(FLAVORS, (
    (lambda config: CONLLU_MAPPING, standardize_ud, TRADITIONAL_KEYS),
    (lambda config: config.lasla_mapping, standardize_lasla, ()),
)))


def _flavor(flavor: str):
    try:
        return _FLAVORS[flavor]
    except KeyError:
        raise ValueError(f"unknown flavor {flavor!r}") from None


def corpus_reader(flavor: str, config: ToolConfig | None = None) -> CorpusReader:
    """A reader through the flavor's column mapping under ``config``."""
    mapping, _, _ = _flavor(flavor)
    return CorpusReader(mapping(config or ToolConfig()))


def read_corpus_files(path: str | Path, reader: CorpusReader) -> list[tuple[Path, list[Sentence]]]:
    """Each file of a file or a directory of .conllu files, in sorted
    file order, with its sentences, read through ``reader``: the files
    share its FEATS bundles and its counts of values outside the
    mapping's inventory. A sent_id that two sentences under ``path``
    share is a ConlluError, raised before anything is returned.
    """
    files: list[tuple[Path, list[Sentence]]] = []
    holder: dict[str, Path] = {}  # sent_id -> the file that holds it
    for file in corpus_files(path):
        sentences = reader.read_file(file)
        for sentence in sentences:
            if sentence.sent_id in holder:
                raise ConlluError(
                    f"sentence id {sentence.sent_id!r} appears in {holder[sentence.sent_id]} "
                    f"and in {file}"
                )
            holder[sentence.sent_id] = file
        files.append((file, sentences))
    return files


def load_corpus(
    path: str | Path,
    flavor: str,
    config: ToolConfig | None = None,
    *,
    jobs: int = 1,
) -> tuple[list[Sentence], Counter]:
    """The sentences of every file of ``read_corpus_files`` through a new
    ``corpus_reader``, in file order, and its unknown-value counts.
    ``jobs`` is accepted and ignored: the files are read in one thread.
    The benchmark's traced pass (``perfbench/layers.py``) still passes it.
    """
    reader = corpus_reader(flavor, config)
    files = read_corpus_files(path, reader)
    return [sentence for _, sentences in files for sentence in sentences], reader.unknown_values


class ConversionResult(NamedTuple):
    """Converted sentences, their records, rule audit counts and
    (sent_id, token id, code) anomalies; filled in as sentences convert."""

    sentences: list[Sentence]
    records: list[list[StandardRecord]]
    audit: Counter
    anomalies: list[tuple[str, int, str]]


def sentence_with_records(
    sentence: Sentence,
    records: Sequence[StandardRecord],
    consumed: tuple[str, ...] = TRADITIONAL_KEYS,
) -> Sentence:
    """The sentence with the records' UPOS and FEATS, without the
    ``consumed`` MISC keys (by default those UD's standardizer reads).
    A token that has them already is kept as it is; its bundle is equal
    to the record's, so it serializes alike."""
    tokens = []
    for token, record in zip(sentence.tokens, records):
        feats = record.to_feature_bundle()
        misc = tuple(item for item in token.misc if item[0] not in consumed)
        if record.upos != token.upos or feats != token.feats or misc != token.misc:
            # built unchecked: the id is the checked token's, and MISC only lost keys
            token = tuple.__new__(Token, (
                token.id, token.form, token.lemma, record.upos, feats,
                token.xpos, token.head, token.deprel, token.deps, misc,
            ))
        tokens.append(token)
    # built unchecked: the tokens keep the checked sentence's ids
    return tuple.__new__(Sentence, (sentence.sent_id, tuple(tokens), *sentence[2:]))


class Converter:
    """Standardizes then harmonizes the sentences of one flavor under one
    config, collecting rule audit counts and per-token anomaly codes.

    A token's standard record depends only on its UPOS, its canonical
    FEATS string and the values of the MISC keys its flavor's
    standardizer reads, so tokens that share all of them share one
    standardization and, unless it reads the token's sentence or lemma
    (``harmonize.reads_context``: a supine, or a pronoun under the
    pronoun repair), one harmonization, whose rule ids are counted again
    for each token. A supine or such a pronoun is harmonized per token
    by the same ``harmonize_record``. The memos live as long as the
    converter, so the files of one corpus share them.
    """

    def __init__(self, flavor: str, config: ToolConfig | None = None):
        # imported here, so that a command that converts nothing loads no
        # harmonization code (nor normalize and unicodedata, which it needs)
        from .harmonize import harmonize_record, reads_context

        self._harmonize_record, self._reads_context = harmonize_record, reads_context
        _, self._standardize, self._misc_keys = _flavor(flavor)
        self.config = config or ToolConfig()
        # each standardize key: what every token with it converts to, as
        # (harmonized record, the rule ids it applied in order, its bundle,
        # whether the token's UPOS and FEATS already read so); or, when
        # harmonization reads the token's sentence or lemma, (standardized
        # record, None, None, False), harmonized per token
        self._harmonized: dict[tuple, tuple] = {}
        # each distinct MISC tuple: the values the standardizer reads, and
        # the tuple without their keys (the tuple itself if it has none)
        self._miscs: dict[tuple, tuple[tuple, tuple]] = {}
        self._bundles: dict[StandardRecord, FeatureBundle] = {}

    def _bundle(self, record: StandardRecord) -> FeatureBundle:
        feats = self._bundles.get(record)
        if feats is None:
            feats = self._bundles[record] = record.to_feature_bundle()
        return feats

    def _harmonize(self, sentence: Sentence, index: int, record: StandardRecord, audit: Counter | None):
        config = self.config
        return self._harmonize_record(
            sentence, index, record, audit=audit, iri_window=config.iri_window,
            pronoun_person_repair=config.pronoun_person_repair,
        )

    def _entry(self, sentence: Sentence, index: int) -> tuple:
        token = sentence.tokens[index]
        record = self._standardize(token, tense_table=self.config.tense_table)
        if self._reads_context(record, pronoun_person_repair=self.config.pronoun_person_repair):
            return record, None, None, False
        applied: Counter = Counter()
        record = self._harmonize(sentence, index, record, applied)
        feats = self._bundle(record)
        return record, tuple(applied), feats, record.upos == token.upos and feats == token.feats

    def convert(self, sentences: Sequence[Sentence]) -> ConversionResult:
        """The sentences converted, with the audit counts and anomalies
        of these sentences only."""
        harmonized, miscs, misc_keys = self._harmonized, self._miscs, self._misc_keys
        no_values = (None,) * len(misc_keys)  # what a token without MISC reads
        result = ConversionResult([], [], Counter(), [])
        audit, anomalies = result.audit, result.anomalies
        new = tuple.__new__
        for sentence in sentences:
            records, tokens = [], []
            for index, token in enumerate(sentence.tokens):
                misc = token.misc
                if misc:
                    read = miscs.get(misc)
                    if read is None:
                        kept = tuple(item for item in misc if item[0] not in misc_keys)
                        read = miscs[misc] = (
                            tuple(map(token.misc_get, misc_keys)),
                            misc if len(kept) == len(misc) else kept,
                        )
                    values, misc = read
                else:
                    values = no_values
                key = (token.upos, token.feats.to_string(), values)
                entry = harmonized.get(key)
                if entry is None:
                    entry = harmonized[key] = self._entry(sentence, index)
                record, rules, feats, unchanged = entry
                if rules is None:
                    record = self._harmonize(sentence, index, record, audit)
                    feats = self._bundle(record)
                    unchanged = record.upos == token.upos and feats == token.feats
                else:
                    for rule in rules:
                        audit[rule] += 1
                for code in record.anomalies:
                    anomalies.append((sentence.sent_id, token.id, code))
                records.append(record)
                if not unchanged or misc is not token.misc:
                    # built unchecked: the id is the checked token's, and MISC only lost keys
                    token = new(Token, (
                        token.id, token.form, token.lemma, record.upos, feats,
                        token.xpos, token.head, token.deprel, token.deps, misc,
                    ))
                tokens.append(token)
            result.records.append(records)
            # built unchecked: the tokens keep the checked sentence's ids
            result.sentences.append(new(Sentence, (sentence.sent_id, tuple(tokens), *sentence[2:])))
        return result


def convert_corpus(
    sentences: Sequence[Sentence],
    flavor: str,
    config: ToolConfig | None = None,
) -> ConversionResult:
    """The sentences converted by a new ``Converter``."""
    return Converter(flavor, config).convert(sentences)


def aligned_pairs(
    manifest_rows: Sequence[tuple[str, str, str, int]],
    corpus_a: Sequence[Sentence],
    corpus_b: Sequence[Sentence],
    records_a: Sequence[Sequence[StandardRecord]],
    records_b: Sequence[Sequence[StandardRecord]],
) -> list[AlignedTokenPair]:
    """Re-align the duplicate pairs named by a manifest, checking each
    row's length, and attach the converted records of both sides."""
    # imported here, so that convert and lint load no dedup code
    from .agreement import AlignedTokenPair
    from .dedup import token_alignment
    from .normalize import matching_key

    by_id_a = {s.sent_id: i for i, s in enumerate(corpus_a)}
    by_id_b = {s.sent_id: i for i, s in enumerate(corpus_b)}
    pairs: list[AlignedTokenPair] = []
    for sent_a, sent_b, _basis, length in manifest_rows:
        if sent_a not in by_id_a or sent_b not in by_id_b:
            raise ManifestError(f"manifest pair ({sent_a!r}, {sent_b!r}) not found in corpora")
        pos_a, pos_b = by_id_a[sent_a], by_id_b[sent_b]
        alignment = token_alignment(matching_key(corpus_a[pos_a]), matching_key(corpus_b[pos_b]))
        if len(alignment) != length:
            raise ManifestError(
                f"manifest pair ({sent_a!r}, {sent_b!r}) has align_length {length}, "
                f"but the corpora align {len(alignment)} tokens"
            )
        for i, j in alignment:
            pairs.append(
                AlignedTokenPair(
                    token_a=corpus_a[pos_a].tokens[i],
                    token_b=corpus_b[pos_b].tokens[j],
                    record_a=records_a[pos_a][i],
                    record_b=records_b[pos_b][j],
                )
            )
    return pairs
