"""Command-line pipeline: convert, dedup, agree, metadata-validate,
split, eval, perm-test, lint.

Identical inputs, flags, and seed produce byte-identical outputs. Exit
codes: 0 success, 1 validation failure, 2 usage error. ``main`` alone
turns a failure into its exit code and one line on stderr; a command
only reads, computes and writes.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections import Counter
from pathlib import Path

# Only what every subcommand needs is imported here: each fresh process
# pays for its imports. agreement, dedup, evaluation, metadata and splits
# are imported by the subcommands that use them, so convert and lint load
# none; numpy is loaded by perm-test alone, through
# evaluation.permutation_test, on one BLAS thread unless the caller sets
# OpenBLAS's thread count; json and hashlib only when a config is read
# or a JSON report written. Records are NamedTuples, so no run loads
# dataclasses and the inspect module it imports. A test in
# tests/test_cli.py checks this in fresh interpreters.
from . import __version__, reports
from .config import InfeasibleSplitError, ToolConfig
from .conllu import write_conllu_file
from .harmonize import ALL_RULES
from .pipeline import (
    FLAVORS, Converter, aligned_pairs, convert_corpus, corpus_reader, load_corpus, read_corpus_files,
)
from .standardize import lint_token


class UsageError(ValueError):
    """A flag value out of range (exit 2)."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latintb",
        description="Latin treebank harmonization, deduplication, splits, and scoring.",
    )
    parser.add_argument("--version", action="version", version=f"latintb {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master random seed")
    common.add_argument("--config", type=Path, default=None, help="JSON config file")
    common.add_argument("--jobs", type=int, default=1, help="accepted and ignored")

    pair = argparse.ArgumentParser(add_help=False)  # the two corpora of dedup and agree
    pair.add_argument("--a", dest="corpus_a", type=Path, required=True)
    pair.add_argument("--b", dest="corpus_b", type=Path, required=True)
    pair.add_argument("--a-flavor", choices=FLAVORS, default="ud")
    pair.add_argument("--b-flavor", choices=FLAVORS, default="lasla")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", parents=[common], help="standardize and harmonize a corpus")
    p.set_defaults(run=cmd_convert)
    p.add_argument("--in", dest="input", type=Path, required=True)
    p.add_argument("--flavor", choices=FLAVORS, required=True)
    p.add_argument("--out", type=Path, required=True, help="output directory")

    p = sub.add_parser("dedup", parents=[common, pair], help="find duplicate sentences across two corpora")
    p.set_defaults(run=cmd_dedup)
    p.add_argument("--out", type=Path, required=True, help="duplicate manifest TSV")
    p.add_argument("--report", type=Path, default=None, help="per-work duplicate counts TSV")
    p.add_argument("--metadata", type=Path, default=None)

    p = sub.add_parser("agree", parents=[common, pair], help="annotation agreement over duplicate tokens")
    p.set_defaults(run=cmd_agree)
    p.add_argument("--dups", type=Path, required=True, help="duplicate manifest TSV")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--exclude-anomalous", action="store_true")

    p = sub.add_parser("metadata-validate", parents=[common], help="check a metadata table")
    p.set_defaults(run=cmd_metadata_validate)
    p.add_argument("--file", type=Path, required=True)
    p.add_argument("--corpus", type=Path, default=None, help="cross-check sentence counts")
    p.add_argument("--flavor", choices=FLAVORS, default="ud")

    p = sub.add_parser("split", parents=[common], help="build constrained time-period splits")
    p.set_defaults(run=cmd_split)
    p.add_argument("--ud", type=Path, required=True, help="standardized UD corpus")
    p.add_argument("--lasla", type=Path, default=None, help="standardized LASLA corpus")
    p.add_argument("--metadata", type=Path, required=True)
    p.add_argument("--dups", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--published-assignment", type=Path, default=None,
                   help="work-level assignment table (default: shipped table)")
    p.add_argument("--no-published", action="store_true",
                   help="ignore the shipped assignment and fill greedily")

    p = sub.add_parser("eval", parents=[common], help="score a prediction file against gold")
    p.set_defaults(run=cmd_eval)
    p.add_argument("--gold", type=Path, required=True)
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None, help="JSON report")

    p = sub.add_parser("perm-test", parents=[common], help="paired permutation test between two prediction files")
    p.set_defaults(run=cmd_perm_test)
    p.add_argument("--gold", type=Path, required=True)
    p.add_argument("--a", dest="pred_a", type=Path, required=True)
    p.add_argument("--b", dest="pred_b", type=Path, required=True)
    p.add_argument("--metric", default="morph-acc",
                   help="morph-acc | upos-macro-f1 | macro-f1:<Feature> | value-f1:<Feature>=<Value>")
    p.add_argument("--n", dest="iterations", type=int, default=10_000)
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("lint", parents=[common], help="legality and divergence flags for a corpus")
    p.set_defaults(run=cmd_lint)
    p.add_argument("--in", dest="input", type=Path, required=True)
    p.add_argument("--flavor", choices=FLAVORS, default="ud")
    p.add_argument("--out", type=Path, required=True)

    return parser


def _report(args, config: ToolConfig, path: Path, header, rows) -> None:
    """A TSV report, with the run's seed and config in its footer."""
    reports.write_tsv(path, header, rows, seed=args.seed, config_hash=config.config_hash)


def _warn_unknown(*unknown_values: Counter) -> None:
    """One stderr line counting the feature values that raw LASLA reads
    found outside the mapping's inventory and kept as read. A command
    calls it last, on success, so a failure still writes one line."""
    total = sum(sum(counts.values()) for counts in unknown_values)
    if total:
        print(f"warning: {total} feature values outside the LASLA inventory kept as read",
              file=sys.stderr)


def cmd_convert(args, config: ToolConfig) -> int:
    # every file is read, and sentence ids checked, before any output
    reader = corpus_reader(args.flavor, config)
    files = read_corpus_files(args.input, reader)
    args.out.mkdir(parents=True, exist_ok=True)
    audit_rows = []
    anomaly_rows = []
    converter = Converter(args.flavor, config)  # its memos serve every file
    for file, sentences in files:
        result = converter.convert(sentences)
        write_conllu_file(args.out / file.name, result.sentences)
        for rule in ALL_RULES:
            if result.audit.get(rule):
                audit_rows.append((file.stem, rule, result.audit[rule]))
        anomaly_rows.extend(result.anomalies)
    _report(args, config, args.out / "harmonization_audit.tsv",
            ("corpus", "rule_id", "tokens_affected"), audit_rows)
    _report(args, config, args.out / "anomalies.tsv", ("sent_id", "token_id", "code"), anomaly_rows)
    _warn_unknown(reader.unknown_values)
    return 0


def cmd_dedup(args, config: ToolConfig) -> int:
    from . import dedup

    corpus_a, unknown_a = load_corpus(args.corpus_a, args.a_flavor, config)
    corpus_b, unknown_b = load_corpus(args.corpus_b, args.b_flavor, config)
    pairs = dedup.find_duplicates(
        corpus_a,
        corpus_b,
        min_chars=config.dedup_min_chars,
        min_tokens=config.dedup_min_tokens,
    )
    dedup.write_manifest(args.out, pairs, seed=args.seed, config_hash=config.config_hash)
    if args.report is not None:
        metadata = None
        if args.metadata is not None:
            from .metadata import load_metadata

            metadata = load_metadata(args.metadata)
        _report(args, config, args.report, ("author", "work", "duplicates"),
                dedup.duplicate_report(pairs, metadata))
    _warn_unknown(unknown_a, unknown_b)
    return 0


def cmd_agree(args, config: ToolConfig) -> int:
    from . import dedup
    from .agreement import STAGE_CONVERTED, STAGE_RAW, agreement_table

    corpus_a, unknown_a = load_corpus(args.corpus_a, args.a_flavor, config)
    corpus_b, unknown_b = load_corpus(args.corpus_b, args.b_flavor, config)
    manifest = dedup.read_manifest(args.dups)
    # conversion works per sentence, so only the named sentences need it;
    # aligned_pairs still rejects a pair that the corpora do not hold
    named_a = {row[0] for row in manifest}
    named_b = {row[1] for row in manifest}
    corpus_a = [s for s in corpus_a if s.sent_id in named_a]
    corpus_b = [s for s in corpus_b if s.sent_id in named_b]
    converted_a = convert_corpus(corpus_a, args.a_flavor, config)
    converted_b = convert_corpus(corpus_b, args.b_flavor, config)
    pairs = aligned_pairs(
        manifest, corpus_a, corpus_b, converted_a.records, converted_b.records
    )
    include = not args.exclude_anomalous
    before, after = (
        {row.feature: row for row in agreement_table(pairs, None, stage, include_anomalous=include)}
        for stage in (STAGE_RAW, STAGE_CONVERTED)
    )
    rows = []
    for feature in dict.fromkeys([*before, *after]):
        cells = [feature]
        for row in (before.get(feature), after.get(feature)):
            cells += [row.percent_str(), row.same, row.total] if row else ["--"] * 3
        rows.append(cells)
    _report(args, config, args.out,
            ("feature", "before_pct", "before_same", "before_total",
             "after_pct", "after_same", "after_total"), rows)
    _warn_unknown(unknown_a, unknown_b)
    return 0


def cmd_metadata_validate(args, config: ToolConfig) -> int:
    from .metadata import read_metadata, validate_metadata

    rows = read_metadata(args.file)
    corpus_counts, unknown_values = None, Counter()
    if args.corpus is not None:
        sentences, unknown_values = load_corpus(args.corpus, args.flavor, config)
        corpus_counts = Counter(sentence.work_id or "?" for sentence in sentences)
    violations = validate_metadata(rows, corpus_counts=corpus_counts)
    for violation in violations:
        print(f"{violation.work_id}\t{violation.code}\t{violation.message}")
    if violations:
        print(f"{len(violations)} violations", file=sys.stderr)
        return 1
    print("metadata ok")
    _warn_unknown(unknown_values)
    return 0


def cmd_split(args, config: ToolConfig) -> int:
    from . import dedup, splits
    from .metadata import load_metadata

    ud_corpus, _ = load_corpus(args.ud, "ud", config)
    lasla_corpus = None
    if args.lasla is not None:
        # convert writes plain CoNLL-U, so lasla_mapping (raw LASLA) does not apply
        lasla_corpus, _ = load_corpus(args.lasla, "ud", config)
    metadata = load_metadata(args.metadata)
    manifest_rows = dedup.read_manifest(args.dups)
    published = None
    if not args.no_published:
        published = splits.load_published_assignment(args.published_assignment)
    manifests = splits.build_splits(
        ud_corpus,
        lasla_corpus,
        metadata,
        manifest_rows,
        args.seed,
        dev_fraction=config.dev_fraction,
        min_test=config.min_test_sentences,
        published=published,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    audit_rows = []
    all_passed = True
    for manifest in manifests:
        results = splits.audit_splits(
            manifest,
            ud_corpus,
            lasla_corpus,
            metadata,
            manifest_rows,
            min_test=config.min_test_sentences,
            atomicity_exceptions=config.atomicity_exceptions,
        )
        manifest = manifest._replace(audit=tuple(results))
        reports.write_json(args.out / f"{manifest.period}.manifest.json", manifest)
        parts = splits.materialize(manifest, ud_corpus, lasla_corpus)
        period_dir = args.out / manifest.period
        period_dir.mkdir(exist_ok=True)
        for split_name, sentences in parts.items():
            write_conllu_file(period_dir / f"{split_name}.conllu", sentences)
            audit_rows.append((manifest.period, f"{split_name}-sentences", len(sentences), ""))
        for result in results:
            all_passed &= result.passed
            audit_rows.append(
                (
                    manifest.period,
                    result.constraint,
                    "pass" if result.passed else "FAIL",
                    "; ".join(result.details),
                )
            )
    _report(args, config, args.out / "split_audit.tsv", ("period", "check", "result", "details"),
            audit_rows)
    return 0 if all_passed else 1


@contextlib.contextmanager
def _naming(path: Path):
    """A ValueError raised inside names ``path``, the file at fault."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _aligned_records(config: ToolConfig, gold_path: Path, *pred_paths: Path):
    from . import evaluation

    # One reader and one record memo serve gold and predictions, so a
    # FEATS string the files share is parsed once and each distinct
    # (UPOS, bundle) pair becomes one record. Sentence ids stay checked
    # per path: gold and predictions share them.
    reader = corpus_reader("ud", config)
    paths = (gold_path, *pred_paths)
    gold, *preds = [
        [sentence for _, sentences in read_corpus_files(path, reader) for sentence in sentences]
        for path in paths
    ]
    for path, pred in zip(pred_paths, preds):
        with _naming(path):
            evaluation.check_alignment(gold, pred)
    memo: evaluation.RecordMemo = {}
    records = []
    for path, corpus in zip(paths, (gold, *preds)):
        with _naming(path):
            records.append(evaluation.records_of(corpus, memo))
    return records


def cmd_eval(args, config: ToolConfig) -> int:
    from . import evaluation

    gold_records, pred_records = _aligned_records(config, args.gold, args.pred)
    report = evaluation.evaluate(
        gold_records, pred_records, include_upos=config.include_upos_in_string
    )
    print(report.format_table())
    if args.out is not None:
        provenance = reports.footer(args.seed, config.config_hash)
        reports.write_json(args.out, {**report._asdict(), "provenance": provenance})
    return 0


def cmd_perm_test(args, config: ToolConfig) -> int:
    # Before numpy loads, or OpenBLAS starts a worker thread per core that
    # each process pays to start and stop; the sums are exact integer
    # counts, so any thread count gives the same bytes. Not in
    # permutation.py, so that importing the library never changes a host
    # program's BLAS threads. A count the caller gives OpenBLAS is kept.
    blas_threads = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if not any(os.environ.get(name) for name in blas_threads):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from . import evaluation

    try:
        evaluation.parse_metric(args.metric)
    except ValueError as exc:
        raise UsageError(exc) from None
    for bad, message in (
        (args.iterations < 1, f"--n must be >= 1, got {args.iterations}"),
        (args.iterations > evaluation.MAX_ITERATIONS,
         f"--n must be <= {evaluation.MAX_ITERATIONS}, got {args.iterations}"),
        (args.seed < 0, f"--seed must be >= 0, got {args.seed}"),
    ):
        if bad:
            raise UsageError(message)
    result = evaluation.permutation_test(
        *_aligned_records(config, args.gold, args.pred_a, args.pred_b),
        args.metric,
        iterations=args.iterations,
        seed=args.seed,
        include_upos=config.include_upos_in_string,
    )
    line = (
        f"metric={result.metric} observed_diff={result.observed_diff:.6f} "
        f"p={result.p_value:.4f} iterations={result.iterations} seed={result.seed}"
    )
    print(line)
    if result.note:
        print(f"note: {result.note}")
    if args.out is not None:
        _report(args, config, args.out, ("metric", "observed_diff", "p_value", "iterations", "seed"),
                [(result.metric, f"{result.observed_diff:.6f}", f"{result.p_value:.4f}",
                  result.iterations, result.seed)])
    return 0


def cmd_lint(args, config: ToolConfig) -> int:
    sentences, unknown_values = load_corpus(args.input, args.flavor, config)
    converted = convert_corpus(sentences, args.flavor, config)
    rows = []
    for sentence, records in zip(converted.sentences, converted.records):
        for token, record in zip(sentence.tokens, records):
            for code in lint_token(token, record, config.legality_rules):
                rows.append((sentence.sent_id, token.id, code))
    _report(args, config, args.out, ("sent_id", "token_id", "code"), rows)
    _warn_unknown(unknown_values)
    return 0


def _fail(prefix: str, exc: Exception, code: int) -> int:
    # each line boundary that str.splitlines knows, escaped, even in a path
    breaks = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
    print(f"{prefix}: {exc}".translate({ord(c): repr(c)[1:-1] for c in breaks}), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = ToolConfig.load(args.config)
    except (ValueError, OSError) as exc:
        return _fail("config error", exc, 2)
    try:
        return args.run(args, config)
    except UsageError as exc:
        return _fail("usage error", exc, 2)
    except InfeasibleSplitError as exc:
        return _fail("infeasible", exc, 1)
    except (ValueError, OSError) as exc:  # a bad input, or a path that cannot be read or written
        return _fail("error", exc, 1)


if __name__ == "__main__":
    sys.exit(main())
