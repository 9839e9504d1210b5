"""Constrained time-period train/dev/test split construction.

Work-level assignment is rule-driven (published table when available,
greedy fill otherwise); only dev membership is sampled. Three hard
constraints: works are atomic across train/test, test sets hold at
least 1000 sentences, and tests draw from UD data only, which forces
every work shared between LASLA and UD into the Classical train set,
and every work that the metadata lists as LASLA or whose id the LASLA
corpus holds into the train set of its period.
"""

from __future__ import annotations

import random
from collections import defaultdict
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .config import DEFAULT_DEV_FRACTION, DEFAULT_MIN_TEST, InfeasibleSplitError
from .conllu import Sentence
from .dedup import DuplicatePair
from .metadata import (
    PERIOD_BIBLE,
    PERIOD_CLASSICAL,
    PERIOD_POST_CLASSICAL,
    MetadataError,
    TextMetadata,
    assign_time_period,
)
from .reports import integer, read_table

PERIOD_CLASSICAL_UD = "Classical-UD"
PERIOD_CLASSICAL_BOTH = "Classical-UD+LASLA"

CONSTRAINT_ATOMICITY = "work-atomicity"
CONSTRAINT_TEST_SIZE = "test-min-size"
CONSTRAINT_TEST_UD_ONLY = "test-ud-only"
CONSTRAINT_SHARED_IN_TRAIN = "lasla-shared-in-train"


class AuditResult(NamedTuple):
    constraint: str
    passed: bool
    details: tuple[str, ...] = ()


class SplitManifest(NamedTuple):
    period: str
    seed: int
    train_works: tuple[str, ...]
    test_works: tuple[str, ...]
    dev_sentences: tuple[str, ...]
    audit: tuple[AuditResult, ...] = ()


def load_published_assignment(path: str | Path | None = None) -> dict[str, tuple[str, str]]:
    """work_id -> (period, split) from the published work-level table."""
    if path is None:
        path = resources.files("latintb.data").joinpath("published_split_assignment.tsv")
    assignment: dict[str, tuple[str, str]] = {}

    def row(cells: list[str]) -> None:
        if len(cells) != 4:
            raise ValueError(f"expected 4 columns, got {len(cells)}")
        period, work_id, split, sentences = cells
        if split not in ("train", "test"):
            raise ValueError(f"split must be train or test, got {split!r}")
        integer(sentences)  # checked, though splits are built from the corpus counts
        if work_id in assignment:
            raise ValueError(f"work {work_id!r} is listed twice")
        assignment[work_id] = (period, split)

    read_table(path, ("period", "work_id", "split", "sentences"), row)
    return assignment


def _works(corpus: Iterable[Sentence]) -> dict[str, list[str]]:
    """Sentence ids grouped by work."""
    works: dict[str, list[str]] = {}
    for sentence in corpus:
        works.setdefault(sentence.work_id or "?", []).append(sentence.sent_id)
    return works


def duplicate_ud_sentences(
    duplicates: Sequence[DuplicatePair] | Sequence[tuple[str, str, str, int]],
) -> set[str]:
    """The UD sentence ids of DuplicatePairs or raw manifest rows: both
    are tuples that open with sent_a, the UD side."""
    return {item[0] for item in duplicates}


def shared_works(
    duplicates: Sequence[DuplicatePair] | Sequence[tuple[str, str, str, int]],
    ud_corpus: Sequence[Sentence],
) -> set[str]:
    """UD works with at least one sentence duplicated in LASLA."""
    duplicated = duplicate_ud_sentences(duplicates)
    return {s.work_id for s in ud_corpus if s.sent_id in duplicated and s.work_id}


def _dev_sample(
    eligible: Sequence[str], seed: int, work: str, fraction: float
) -> list[str]:
    # floor of the fraction, but never zero for a non-empty pool
    if not eligible:
        return []
    k = max(1, int(fraction * len(eligible)))
    rng = random.Random(f"{seed}:{work}")
    return sorted(rng.sample(sorted(eligible), k))


def _assign_period_works(
    period: str,
    works: list[str],
    pool: Mapping[str, list[str]],
    held: Mapping[str, str],
    published: Mapping[str, tuple[str, str]] | None,
    min_test: int,
) -> tuple[list[str], list[str]]:
    """Train and test works of one period; ``held`` maps each work that
    must stay in train to the constraint that holds it there."""
    train: list[str] = []
    test: list[str] = []
    unassigned: list[str] = []
    for work in works:
        if published and work in published:
            split = published[work][1]
            if work in held and split == "test":
                kind = "LASLA-shared" if held[work] == CONSTRAINT_SHARED_IN_TRAIN else "non-UD"
                raise InfeasibleSplitError(
                    held[work], f"published assignment puts {kind} work {work!r} in test"
                )
            (train if split == "train" else test).append(work)
        elif work in held:
            train.append(work)
        else:
            unassigned.append(work)

    test_size = sum(len(pool[w]) for w in test)
    # Smallest works first keeps the test set lean while reaching the floor.
    unassigned.sort(key=lambda w: (len(pool[w]), w))
    for work in unassigned:
        if test_size < min_test:
            test.append(work)
            test_size += len(pool[work])
        else:
            train.append(work)

    if test_size < min_test:
        blocking = ", ".join(sorted(set(held.values()))) or CONSTRAINT_TEST_SIZE
        raise InfeasibleSplitError(
            CONSTRAINT_TEST_SIZE,
            f"period {period}: only {test_size} test sentences available "
            f"(need {min_test}); binding constraint: {blocking}",
        )
    # All open works are in test: a valid split keeps one, the smallest, in train.
    if not train and unassigned and test_size - len(pool[unassigned[0]]) >= min_test:
        test.remove(unassigned[0])
        train.append(unassigned[0])
    if not train:
        raise InfeasibleSplitError(
            CONSTRAINT_TEST_SIZE,
            f"period {period}: filling the test set to {min_test} left no training works",
        )
    return sorted(train), sorted(test)


def build_splits(
    ud_corpus: Sequence[Sentence],
    lasla_corpus: Sequence[Sentence] | None,
    metadata: Mapping[str, TextMetadata],
    duplicates: Sequence[DuplicatePair] | Sequence[tuple[str, str, str, int]],
    seed: int,
    *,
    dev_fraction: float = DEFAULT_DEV_FRACTION,
    min_test: int = DEFAULT_MIN_TEST,
    published: Mapping[str, tuple[str, str]] | None = None,
) -> list[SplitManifest]:
    """Build the four period manifests.

    Dev sets are a per-work random sample from train, never drawn from
    LASLA nor from UD sentences that also appear in LASLA; everything
    except dev membership is deterministic in the inputs alone. Dev is
    joined on the bare sentence id, so a LASLA sentence whose id a UD
    sentence holds is a ValueError.
    """
    lasla_works = set(_works(lasla_corpus)) if lasla_corpus is not None else set()
    if lasla_corpus is not None:
        ud_ids = {sentence.sent_id for sentence in ud_corpus}
        for sentence in lasla_corpus:
            if sentence.sent_id in ud_ids:
                raise ValueError(
                    f"sentence id {sentence.sent_id!r} is in both the UD and the LASLA corpus"
                )
    pool = _works(ud_corpus)
    shared = shared_works(duplicates, ud_corpus)
    dup_sents = duplicate_ud_sentences(duplicates)

    period_works: dict[str, list[str]] = defaultdict(list)
    for work in sorted(pool):
        meta = metadata.get(work)
        if meta is None:
            raise MetadataError(f"work {work!r} has no metadata row")
        period_works[assign_time_period(meta)].append(work)

    manifests: list[SplitManifest] = []
    for period in (PERIOD_CLASSICAL, PERIOD_BIBLE, PERIOD_POST_CLASSICAL):
        works = period_works.get(period, [])
        if not works:
            continue
        # The works that test-ud-only, and in Classical lasla-shared-in-train, keep out of test.
        held = {
            work: CONSTRAINT_TEST_UD_ONLY
            for work in works
            if work in lasla_works or metadata[work].treebank == "LASLA"
        }
        if period == PERIOD_CLASSICAL:
            held.update(dict.fromkeys(shared.intersection(works), CONSTRAINT_SHARED_IN_TRAIN))
        train, test = _assign_period_works(period, works, pool, held, published, min_test)
        dev: list[str] = []
        for work in train:
            eligible = [s for s in pool[work] if s not in dup_sents]
            dev.extend(_dev_sample(eligible, seed, work, dev_fraction))
        name = PERIOD_CLASSICAL_UD if period == PERIOD_CLASSICAL else period
        manifests.append(
            SplitManifest(
                period=name,
                seed=seed,
                train_works=tuple(train),
                test_works=tuple(test),
                dev_sentences=tuple(sorted(dev)),
            )
        )
        if period == PERIOD_CLASSICAL and lasla_corpus is not None:
            lasla_train = sorted(set(train) | lasla_works)
            manifests.append(
                manifests[-1]._replace(period=PERIOD_CLASSICAL_BOTH, train_works=tuple(lasla_train))
            )
    return manifests


def audit_splits(
    manifest: SplitManifest,
    ud_corpus: Sequence[Sentence],
    lasla_corpus: Sequence[Sentence] | None,
    metadata: Mapping[str, TextMetadata],
    duplicates: Sequence[DuplicatePair] | Sequence[tuple[str, str, str, int]] = (),
    *,
    min_test: int = DEFAULT_MIN_TEST,
    atomicity_exceptions: Sequence[str] = (),
) -> list[AuditResult]:
    """Re-check every constraint independently of the builder."""
    results = []
    pool = _works(ud_corpus)
    lasla_work_set = set(_works(lasla_corpus)) if lasla_corpus else set()

    overlap = sorted(
        work
        for work in set(manifest.train_works) & set(manifest.test_works)
        if not any(work.startswith(prefix) for prefix in atomicity_exceptions)
    )
    results.append(
        AuditResult(
            CONSTRAINT_ATOMICITY,
            not overlap,
            tuple(f"work {w!r} appears in both train and test" for w in overlap),
        )
    )

    test_size = sum(len(pool.get(w, ())) for w in manifest.test_works)
    results.append(
        AuditResult(
            CONSTRAINT_TEST_SIZE,
            test_size >= min_test,
            () if test_size >= min_test else (f"test set has {test_size} sentences, need {min_test}",),
        )
    )

    non_ud = sorted(
        work
        for work in manifest.test_works
        if work in lasla_work_set
        or (work in metadata and metadata[work].treebank == "LASLA")
        or work not in pool
    )
    results.append(
        AuditResult(
            CONSTRAINT_TEST_UD_ONLY,
            not non_ud,
            tuple(f"test work {w!r} is not UD data" for w in non_ud),
        )
    )

    if manifest.period in (PERIOD_CLASSICAL_UD, PERIOD_CLASSICAL_BOTH):
        shared = shared_works(duplicates, ud_corpus)
        stray = sorted(shared - set(manifest.train_works))
        results.append(
            AuditResult(
                CONSTRAINT_SHARED_IN_TRAIN,
                not stray,
                tuple(f"LASLA-shared work {w!r} is outside train" for w in stray),
            )
        )
    return results


def materialize(
    manifest: SplitManifest,
    ud_corpus: Sequence[Sentence],
    lasla_corpus: Sequence[Sentence] | None = None,
) -> dict[str, list[Sentence]]:
    """Sentence lists for train/dev/test; dev is carved out of train."""
    dev_ids = set(manifest.dev_sentences)
    train_works = set(manifest.train_works)
    test_works = set(manifest.test_works)
    out: dict[str, list[Sentence]] = {"train": [], "dev": [], "test": []}
    sources: list[Sequence[Sentence]] = [ud_corpus]
    if lasla_corpus is not None and manifest.period == PERIOD_CLASSICAL_BOTH:
        sources.append(lasla_corpus)
    for corpus in sources:
        for sentence in corpus:
            work = sentence.work_id or "?"
            if sentence.sent_id in dev_ids:
                out["dev"].append(sentence)
            elif work in test_works:
                out["test"].append(sentence)
            elif work in train_works:
                out["train"].append(sentence)
    return out
