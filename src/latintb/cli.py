"""Command-line pipeline: convert, dedup, agree, metadata-validate,
split, eval, perm-test, lint.

Identical inputs, flags, and seed produce byte-identical outputs. Exit
codes: 0 success, 1 validation failure, 2 usage error. A command reads,
computes and stages each output through its run record as it is made;
``main`` renames the staged outputs into place, all or none, and prints
the results only after, so a failing run prints only its one error line.
A process runs ``main`` through ``entry``, which flushes stdout and
stderr and then ends the process without the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import os
import sys
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

# Each fresh process pays for its imports, so the module level imports
# only the version and the flavor names: --version, --help and a usage
# error load no other latintb module. main loads config once the
# arguments parse; each command imports what it runs, so eval and
# perm-test load no conversion code (harmonize, normalize, unicodedata),
# convert and lint no dedup or evaluation code, and only perm-test loads
# numpy, through evaluation.permutation_test_codes, on one BLAS thread
# unless the caller sets OpenBLAS's thread count; json and hashlib load
# only when a config is read or a JSON report written. Records are
# NamedTuples, so no run loads dataclasses and the inspect module it
# imports. Tests in tests/test_cli.py check this in fresh interpreters.
from . import FLAVORS, __version__

if TYPE_CHECKING:
    from .config import ToolConfig
    from .evaluation import _Codes


class UsageError(ValueError):
    """A flag value out of range (exit 2)."""


class Output:
    """A run's record: its config and seed, the lines for stdout and stderr, and the raw LASLA
    values read outside the inventory. It stages each output in a sibling file as it is given
    and keeps only the two paths, which ``main`` commits before it prints the lines."""

    def __init__(self, config: ToolConfig, seed: int, inputs: list[Path]) -> None:
        self.config, self.seed = config, seed
        self.stdout, self.stderr, self.unknown = [], [], Counter()
        # the file named by each directory entry (realpath(parent), name) of an input or an output
        self._named = {os.path.split(os.path.realpath(path)): f"input {path}" for path in inputs}
        self._staged: list[tuple[Path, Path]] = []  # (path, sibling)
        self._made: list[Path] = []  # the directories the run makes, each after its parent

    def read(self, flavor: str, *paths: Path, by_file: bool = False) -> list[list]:
        """Each path's sentences in file order, or ``by_file`` its files with their sentences,
        read through one new reader of the flavor. The reader's unknown-value counts go to the
        run; the reader, with its memos, is dropped when the read returns."""
        from .pipeline import corpus_reader, read_corpus_files

        reader = corpus_reader(flavor, self.config)
        read = [read_corpus_files(path, reader) for path in paths]
        self.unknown.update(reader.unknown_values)
        return read if by_file else [[s for _, sentences in files for s in sentences] for files in read]

    def file(self, path: Path, text: str) -> None:
        """``text`` written to ``.<name>.<pid>.new`` beside ``path``, in a directory made if
        missing; an output naming the directory entry of an input or an earlier one is refused."""
        # the parent resolved, the name not: a symlink at an output path is replaced, not followed
        entry = (os.path.realpath(path.parent), path.name)
        if entry in self._named:
            raise ValueError(f"{path}: names the same file as {self._named[entry]}")
        self._named[entry] = f"output {path}"
        # recorded before made, so a failed mkdir's parents go too; the rmdir of a sub/.. fails
        self._made.extend(d for d in reversed(path.parents) if not d.exists())
        path.parent.mkdir(parents=True, exist_ok=True)
        new = path.with_name(f".{path.name}.{os.getpid()}.new")
        with _naming(path):
            if path.is_dir():  # else its rename would fail after others were done
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            self._staged.append((path, new))
            new.write_text(text, encoding="utf-8")

    def tsv(self, path: Path, header, rows) -> None:
        """A TSV report at ``path``, with the run's seed and config in its footer."""
        from . import reports

        with _naming(path):
            text = reports.tsv_text(header, rows, seed=self.seed, config_hash=self.config.config_hash)
        self.file(path, text)

    def commit(self) -> None:
        """Every sibling renamed into place, in the order staged, all or none: an existing output
        is first hard-linked to ``.<name>.<pid>.old``, so that if a link or a rename fails, each
        output renamed so far is put back, or removed where there was none."""
        kept: list[tuple[Path, Path | None]] = []  # (path, the link to its earlier file)
        try:
            for path, new in self._staged:
                with _naming(path):
                    old = None
                    if os.path.lexists(path):
                        old = path.with_name(f".{path.name}.{os.getpid()}.old")
                        with contextlib.suppress(FileNotFoundError):
                            old.unlink()  # left by a killed run that had this pid
                        os.link(path, old, follow_symlinks=False)  # a symlink, not its target
                    kept.append((path, old))
                    os.replace(new, path)
        except BaseException:
            for path, old in reversed(kept):
                # a path whose rename failed still holds its earlier file, linked to old:
                # the replace then does nothing, and the loop below removes the link
                with contextlib.suppress(OSError):
                    os.replace(old, path) if old else path.unlink()
            raise
        finally:
            for _, old in kept:
                if old:
                    with contextlib.suppress(OSError):
                        old.unlink()

    def discard(self) -> None:
        """Every sibling removed, then every directory the run made, children first."""
        for leftover in [*(new for _, new in self._staged), *reversed(self._made)]:
            with contextlib.suppress(OSError):
                leftover.rmdir() if leftover in self._made else leftover.unlink()


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a failed write to stdout (``--version``, ``--help``) raises an
    OSError that names ``stdout``, where argparse ignores it; a failed write to stderr is still
    ignored, as everywhere (``_STDERR_FAILS``). Subparsers take this class too."""

    def _print_message(self, message, file=None):
        file = file or sys.stderr  # argparse's choice, as is doing nothing when that is None
        if message and file is not None:
            with _STDERR_FAILS if file is sys.stderr else _naming("stdout"):
                file.write(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def cmd_convert(args, output: Output) -> int:
    from .conllu import serialize_conllu
    from .harmonize import ALL_RULES
    from .pipeline import Converter

    [files] = output.read(args.flavor, args.input, by_file=True)
    audit_rows = []
    anomaly_rows = []
    converter = Converter(args.flavor, output.config)  # its memos serve every file
    for file, sentences in files:
        result = converter.convert(sentences)
        output.file(args.out / file.name, serialize_conllu(result.sentences))
        for rule in ALL_RULES:
            if result.audit.get(rule):
                audit_rows.append((file.stem, rule, result.audit[rule]))
        anomaly_rows.extend(result.anomalies)
    output.tsv(args.out / "harmonization_audit.tsv", ("corpus", "rule_id", "tokens_affected"), audit_rows)
    output.tsv(args.out / "anomalies.tsv", ("sent_id", "token_id", "code"), anomaly_rows)
    return 0


def cmd_dedup(args, output: Output) -> int:
    from . import dedup

    [corpus_a] = output.read(args.a_flavor, args.corpus_a)
    [corpus_b] = output.read(args.b_flavor, args.corpus_b)
    pairs = dedup.find_duplicates(corpus_a, corpus_b, min_chars=output.config.dedup_min_chars,
                                  min_tokens=output.config.dedup_min_tokens)
    output.tsv(args.out, dedup.MANIFEST_HEADER, dedup.manifest_rows(pairs))
    if args.report is not None:
        metadata = None
        if args.metadata is not None:
            from .metadata import load_metadata

            metadata = load_metadata(args.metadata)
        output.tsv(args.report, ("author", "work", "duplicates"), dedup.duplicate_report(pairs, metadata))
    return 0


def cmd_agree(args, output: Output) -> int:
    from . import dedup
    from .agreement import STAGE_CONVERTED, STAGE_RAW, agreement_table
    from .pipeline import aligned_pairs, convert_corpus

    [corpus_a] = output.read(args.a_flavor, args.corpus_a)
    [corpus_b] = output.read(args.b_flavor, args.corpus_b)
    manifest = dedup.read_manifest(args.dups)
    # conversion works per sentence, so only the named sentences need it;
    # aligned_pairs still rejects a pair that the corpora do not hold
    named_a = {row[0] for row in manifest}
    named_b = {row[1] for row in manifest}
    corpus_a = [s for s in corpus_a if s.sent_id in named_a]
    corpus_b = [s for s in corpus_b if s.sent_id in named_b]
    converted_a = convert_corpus(corpus_a, args.a_flavor, output.config)
    converted_b = convert_corpus(corpus_b, args.b_flavor, output.config)
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
    output.tsv(args.out, ("feature", "before_pct", "before_same", "before_total",
                          "after_pct", "after_same", "after_total"), rows)
    return 0


def cmd_metadata_validate(args, output: Output) -> int:
    from .metadata import read_metadata, validate_metadata

    rows = read_metadata(args.file)
    corpus_counts = None
    if args.corpus is not None:
        [sentences] = output.read(args.flavor, args.corpus)
        corpus_counts = Counter(sentence.work_id or "?" for sentence in sentences)
    # split requires a row for each UD work, not for a LASLA one
    violations = validate_metadata(rows, corpus_counts=corpus_counts, require_rows=args.flavor == "ud")
    output.stdout.extend(f"{v.work_id}\t{v.code}\t{v.message}" for v in violations)
    if violations:
        output.stderr.append(f"{len(violations)} violation{'' if len(violations) == 1 else 's'}")
        return 1
    output.stdout.append("metadata ok")
    return 0


def cmd_split(args, output: Output) -> int:
    from . import dedup, reports, splits
    from .conllu import serialize_conllu
    from .metadata import load_metadata

    [ud_corpus] = output.read("ud", args.ud)
    lasla_corpus = None
    if args.lasla is not None:
        # convert writes plain CoNLL-U, so lasla_mapping (raw LASLA) does not apply
        [lasla_corpus] = output.read("ud", args.lasla)
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
        dev_fraction=output.config.dev_fraction,
        min_test=output.config.min_test_sentences,
        published=published,
    )
    audit_rows, failed = [], []
    for manifest in manifests:
        results = splits.audit_splits(
            manifest,
            ud_corpus,
            lasla_corpus,
            metadata,
            manifest_rows,
            min_test=output.config.min_test_sentences,
            atomicity_exceptions=output.config.atomicity_exceptions,
        )
        manifest = manifest._replace(audit=tuple(results))
        output.file(args.out / f"{manifest.period}.manifest.json", reports.json_text(manifest))
        parts = splits.materialize(manifest, ud_corpus, lasla_corpus)
        for split_name, sentences in parts.items():
            output.file(args.out / manifest.period / f"{split_name}.conllu", serialize_conllu(sentences))
            audit_rows.append((manifest.period, f"{split_name}-sentences", len(sentences), ""))
        for result in results:
            if not result.passed:
                failed.append(f"{manifest.period} {result.constraint}")
            audit_rows.append(
                (
                    manifest.period,
                    result.constraint,
                    "pass" if result.passed else "FAIL",
                    "; ".join(result.details),
                )
            )
    output.tsv(args.out / "split_audit.tsv", ("period", "check", "result", "details"), audit_rows)
    if failed:
        output.stderr.append(f"split audit failed: {'; '.join(failed)}")
        return 1
    return 0


@contextlib.contextmanager
def _naming(path: Path | str):
    """A ValueError or OSError raised inside names ``path``, the file at fault."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def _aligned_records(output: Output, gold_path: Path, *pred_paths: Path) -> _Codes:
    """Gold and the prediction files as one ``evaluation._Codes``. One reader
    serves them all, so a line the files share is one token, coded once.
    Only the codes are returned: the tokens are freed before perm-test
    loads numpy, so they never add to the process's peak memory."""
    from . import evaluation

    paths = (gold_path, *pred_paths)
    corpora = output.read("ud", *paths)
    try:
        return evaluation._Codes(*([s.tokens for s in corpus] for corpus in corpora))
    except ValueError:
        # named as the files show it: the first prediction file out of line
        # with gold, else the first sentence, in file order, that holds a
        # label outside the standard scheme
        gold, *preds = corpora
        for path, pred in zip(pred_paths, preds):
            with _naming(path):
                evaluation.check_alignment(gold, pred)
        for path, corpus in zip(paths, corpora):
            with _naming(path):
                evaluation.records_of(corpus)
        raise


def cmd_eval(args, output: Output) -> int:
    from . import evaluation, reports

    codes = _aligned_records(output, args.gold, args.pred)
    report = evaluation.evaluate_codes(codes, include_upos=output.config.include_upos_in_string)
    output.stdout.append(report.format_table())
    if args.out is not None:
        provenance = reports.footer(output.seed, output.config.config_hash)
        output.file(args.out, reports.json_text({**report._asdict(), "provenance": provenance}))
    return 0


def cmd_perm_test(args, output: Output) -> int:
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
    result = evaluation.permutation_test_codes(
        _aligned_records(output, args.gold, args.pred_a, args.pred_b),
        args.metric,
        iterations=args.iterations,
        seed=args.seed,
        include_upos=output.config.include_upos_in_string,
    )
    output.stdout.append(
        f"metric={result.metric} observed_diff={result.observed_diff:.6f} "
        f"p={result.p_value:.4f} iterations={result.iterations} seed={result.seed}"
    )
    if result.note:
        output.stdout.append(f"note: {result.note}")
    if args.out is not None:
        output.tsv(args.out, ("metric", "observed_diff", "p_value", "iterations", "seed"),
                   [(result.metric, f"{result.observed_diff:.6f}", f"{result.p_value:.4f}",
                     result.iterations, result.seed)])
    return 0


def cmd_lint(args, output: Output) -> int:
    from .pipeline import convert_corpus
    from .standardize import lint_token

    [sentences] = output.read(args.flavor, args.input)
    converted = convert_corpus(sentences, args.flavor, output.config)
    rows = []
    for sentence, records in zip(converted.sentences, converted.records):
        for token, record in zip(sentence.tokens, records):
            for code in lint_token(token, record, output.config.legality_rules):
                rows.append((sentence.sent_id, token.id, code))
    output.tsv(args.out, ("sent_id", "token_id", "code"), rows)
    return 0


# A failed write to stderr, or flush of it, is ignored: nowhere is left to
# report it, and the exit code stands.
_STDERR_FAILS = contextlib.suppress(OSError)


def _fail(prefix: str, exc: Exception, code: int) -> int:
    # each line boundary that str.splitlines knows, escaped, even in a path
    breaks = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
    with _STDERR_FAILS:
        print(f"{prefix}: {exc}".translate({ord(c): repr(c)[1:-1] for c in breaks}), file=sys.stderr)
    return code


# the options that name an output; every other path option names an input
_OUTPUT_OPTIONS = ("out", "report")


def _inputs(args: argparse.Namespace) -> list[Path]:
    """The files a run reads: each input option's file, or each .conllu file of its directory."""
    paths = [path for name, path in vars(args).items()
             if isinstance(path, Path) and name not in _OUTPUT_OPTIONS]
    return [file for path in paths for file in (path.glob("*.conllu") if path.is_dir() else [path])]


def main(argv: list[str] | None = None) -> int:
    # A run's records are tuples, dicts and lists that form no reference
    # cycle; only argparse and numpy's import leave a few hundred cyclic
    # objects. So the cyclic collector, whose passes cost milliseconds a
    # run, is paused for the run and then left as the caller had it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            args = _build_parser().parse_args(argv)
        except OSError as exc:  # --version or --help on a stdout that fails
            return _fail("error", exc, 1)
        from .config import InfeasibleSplitError, ToolConfig

        try:
            config = ToolConfig.load(args.config)
        except (ValueError, OSError) as exc:
            return _fail("config error", exc, 2)
        try:
            output = Output(config, args.seed, _inputs(args))
            try:
                code = args.run(args, output)
                output.commit()
            except BaseException:
                output.discard()
                raise
        except UsageError as exc:
            return _fail("usage error", exc, 2)
        except InfeasibleSplitError as exc:
            return _fail("infeasible", exc, 1)
        except (ValueError, OSError) as exc:  # a bad input, or a path that cannot be read or written
            return _fail("error", exc, 1)
        try:
            with _naming("stdout"):  # full, or a closed pipe: the outputs stay committed
                for line in output.stdout:
                    print(line)
        except OSError as exc:
            return _fail("error", exc, 1)
        unknown = sum(output.unknown.values())
        with _STDERR_FAILS:
            for line in output.stderr:
                print(line, file=sys.stderr)
            if code == 0 and unknown:
                print(f"warning: {unknown} feature value{'' if unknown == 1 else 's'} outside the LASLA "
                      "inventory kept as read", file=sys.stderr)
        return code
    finally:
        if collecting:
            gc.enable()


def entry() -> NoReturn:
    """``main`` as a process: its code, or argparse's (``--version``, ``--help``, a usage
    error), is the exit status once stdout and stderr are flushed. Every output is committed
    and closed by then, so the process ends with ``os._exit``: the interpreter's teardown
    (clearing every module, a last collection, freeing numpy) would only cost time, and no
    atexit callback or finalizer runs. Any other exception leaves the normal way."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    try:
        with _naming("stdout"):  # a block-buffered stdout fails here, not in main
            if sys.stdout is not None:  # None if the process started with it closed
                sys.stdout.flush()
    except OSError as exc:
        code = _fail("error", exc, code or 1)
    with _STDERR_FAILS:
        if sys.stderr is not None:
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
