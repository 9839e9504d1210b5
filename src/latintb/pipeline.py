"""Corpus-level plumbing shared by the CLI subcommands.

Conversion runs standardization and harmonization in one pass and
rewrites each token's FEATS to the standard 9-feature scheme; the MISC
keys the flavor's standardizer reads (UD's TraditionalTense and
TraditionalMood, none for LASLA) are dropped, everything else passes
through untouched.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .config import ToolConfig
from .conllu import CONLLU_MAPPING, ConlluError, CorpusReader, FeatureBundle, Sentence, Token
from .harmonize import harmonize_sentence
from .standardize import TRADITIONAL_KEYS, StandardRecord, standardize_lasla, standardize_ud

if TYPE_CHECKING:
    from .agreement import AlignedTokenPair


class ManifestError(ValueError):
    """A duplicate manifest row that the corpora do not bear out."""


def corpus_files(path: str | Path) -> list[Path]:
    path = Path(path)
    if path.is_dir():
        return sorted(p for p in path.iterdir() if p.suffix == ".conllu")
    return [path]


# The one place a corpus flavor is dispatched: its column mapping (given
# the config), its token standardizer and the MISC keys that reads.
_FLAVORS = {
    "ud": (lambda config: CONLLU_MAPPING, standardize_ud, TRADITIONAL_KEYS),
    "lasla": (lambda config: config.lasla_mapping, standardize_lasla, ()),
}
FLAVORS = tuple(_FLAVORS)


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


@dataclass(slots=True)
class ConversionResult:
    sentences: list[Sentence]
    records: list[list[StandardRecord]]
    audit: Counter = field(default_factory=Counter)
    anomalies: list[tuple[str, int, str]] = field(default_factory=list)


def _standard_token(
    token: Token,
    record: StandardRecord,
    bundles: dict[StandardRecord, FeatureBundle],
    consumed: tuple[str, ...],
) -> Token:
    """The token with the record's UPOS and FEATS and without the
    ``consumed`` MISC keys. A token that has them already is returned as
    it is; its bundle is equal to the record's, so it serializes alike."""
    feats = bundles.get(record)
    if feats is None:
        feats = bundles[record] = record.to_feature_bundle()
    misc = token.misc
    if misc:
        misc = tuple((key, value) for key, value in misc if key not in consumed)
    if record.upos == token.upos and feats == token.feats and misc == token.misc:
        return token
    # built unchecked: the id is the checked token's, and MISC only lost keys
    return tuple.__new__(Token, (
        token.id, token.form, token.lemma, record.upos, feats,
        token.xpos, token.head, token.deprel, token.deps, misc,
    ))


def _with_records(
    sentence: Sentence,
    records: Sequence[StandardRecord],
    bundles: dict[StandardRecord, FeatureBundle],
    consumed: tuple[str, ...],
) -> Sentence:
    tokens = tuple(
        _standard_token(token, record, bundles, consumed)
        for token, record in zip(sentence.tokens, records)
    )
    return Sentence(
        sentence.sent_id, tokens, sentence.text, sentence.doc_id,
        sentence.work_id, sentence.comments, sentence.extras,
    )


def sentence_with_records(
    sentence: Sentence, records: Sequence[StandardRecord]
) -> Sentence:
    """The sentence with the records' UPOS and FEATS, without the MISC
    keys that UD's standardizer reads."""
    return _with_records(sentence, records, {}, TRADITIONAL_KEYS)


class Converter:
    """Standardizes then harmonizes the sentences of one flavor under one
    config, collecting rule audit counts and per-token anomaly codes.

    A token's standard record depends only on its UPOS, its FEATS and
    the values of the MISC keys its flavor's standardizer reads, and the
    reader shares one bundle per distinct FEATS string, so tokens that
    share all of them share one record. The memos live as long as the
    converter, so the files of one corpus share them; each memo holds its
    bundle, so no id key outlives its object. Harmonization reads the
    sentence and stays per token.
    """

    def __init__(self, flavor: str, config: ToolConfig | None = None):
        _, self._standardize, self._misc_keys = _flavor(flavor)
        self.config = config or ToolConfig()
        self._standard: dict[tuple, tuple[FeatureBundle, StandardRecord]] = {}
        self._bundles: dict[StandardRecord, FeatureBundle] = {}

    def convert(self, sentences: Sequence[Sentence]) -> ConversionResult:
        """The sentences converted, with the audit counts and anomalies
        of these sentences only."""
        config, standardize, standard = self.config, self._standardize, self._standard
        misc_keys = self._misc_keys
        no_values = (None,) * len(misc_keys)  # what a token without MISC reads
        result = ConversionResult(sentences=[], records=[])

        def standardized(token: Token) -> StandardRecord:
            values = map(token.misc_get, misc_keys) if token.misc else no_values
            key = (token.upos, id(token.feats), *values)
            hit = standard.get(key)
            if hit is None:
                record = standardize(token, tense_table=config.tense_table)
                hit = standard[key] = (token.feats, record)
            return hit[1]

        for sentence in sentences:
            records = harmonize_sentence(
                sentence,
                [standardized(token) for token in sentence.tokens],
                audit=result.audit,
                iri_window=config.iri_window,
                pronoun_person_repair=config.pronoun_person_repair,
            )
            for token, record in zip(sentence.tokens, records):
                for code in record.anomalies:
                    result.anomalies.append((sentence.sent_id, token.id, code))
            result.records.append(records)
            result.sentences.append(_with_records(sentence, records, self._bundles, misc_keys))
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
