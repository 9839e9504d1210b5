"""Per-layer metrics: spans around the calls into each latintb module.

The traced pass runs inside the benchmark's own process on the same
inputs as the workload's command sequence. Each span records its name,
start, end and parent; spans stay in memory and are written out when
the run ends. A layer's time is its spans' self time: duration minus
the part of the interval its child spans cover.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import gen
from latintb import evaluation
from latintb.agreement import STAGE_CONVERTED, STAGE_RAW, agreement_table
from latintb.config import ToolConfig
from latintb.conllu import parse_conllu_file, serialize_conllu
from latintb.dedup import find_duplicates
from latintb.harmonize import harmonize_sentence
from latintb.lasla import ingest_lasla_file
from latintb.metadata import load_metadata
from latintb.normalize import matching_key
from latintb.pipeline import aligned_pairs, convert_corpus, corpus_files, load_corpus
from latintb.splits import audit_splits, build_splits, materialize
from latintb.standardize import lint_token, standardize_lasla, standardize_ud

# Per-layer metrics, in report order. A workload that does not exercise
# a layer reports 0 for it.
PER_LAYER = {
    "input.sentences": "count",
    "input.tokens": "count",
    "conllu.parse_s": "s",
    "conllu.parse_tokens_per_s": "1/s",
    "conllu.serialize_s": "s",
    "conllu.retained_mb": "MB",
    "conllu.distinct_feats_per_ktok": "1/ktok",
    "lasla.ingest_s": "s",
    "lasla.unknown_values": "count",
    "standardize.s": "s",
    "standardize.tokens_per_s": "1/s",
    "standardize.distinct_inputs_per_ktok": "1/ktok",
    "standardize.lint_s": "s",
    "harmonize.s": "s",
    "harmonize.rewrites": "count",
    "pipeline.load_corpus_s": "s",
    "pipeline.convert_s": "s",
    "pipeline.convert_self_s": "s",
    "pipeline.aligned_pairs_s": "s",
    "normalize.matching_key_s": "s",
    "dedup.find_s": "s",
    "dedup.candidates": "count",
    "dedup.largest_bucket": "count",
    "dedup.confirmed_pairs": "count",
    "dedup.confirmed_per_candidate": "ratio",
    "agreement.table_s": "s",
    "agreement.aligned_tokens": "count",
    "splits.build_s": "s",
    "splits.audit_s": "s",
    "splits.materialize_s": "s",
    "evaluation.records_of_s": "s",
    "evaluation.check_alignment_s": "s",
    "evaluation.evaluate_s": "s",
    "evaluation.evaluate_tokens_per_s": "1/s",
    "evaluation.perm_setup_s": "s",
    "evaluation.perm_iters_per_s": "1/s",
    "cmd.convert_s": "s",
    "cmd.dedup_s": "s",
    "cmd.agree_s": "s",
    "cmd.split_s": "s",
    "cmd.lint_s": "s",
    "cmd.eval_s": "s",
    "cmd.perm_test_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

# Iterations per metric in the traced permutation test: one 2048-draw
# chunk of the CLI's 10 000, enough to time the iteration loop.
PERM_SAMPLE = 2048
CLI_SEED = 7  # the --seed the command sequences give split and perm-test


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace: int


class Tracer:
    """In-memory spans; ``trace`` groups the spans of one pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.trace = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.trace))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self, trace: int) -> dict[str, float]:
        """Per span name: total duration minus the union of the
        intervals its direct children cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span.trace != trace:
                continue
            covered = covered_length([(c.start, c.end) for c in children.get(index, ())])
            totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start) - covered
        return totals

    def root_total(self, trace: int) -> float:
        return sum(s.end - s.start for s in self.spans if s.trace == trace and s.parent is None)

    def write(self, path: Path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        rows = [
            {"id": i, "trace": s.trace, "name": s.name, "parent": s.parent,
             "start_s": s.start - origin, "end_s": s.end - origin}
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def covered_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def n_tokens(sentences) -> int:
    return sum(len(s.tokens) for s in sentences)


def per_ktok(distinct: int, tokens: int) -> float:
    return 1000.0 * distinct / tokens if tokens else 0.0


class Pass:
    """One traced pass over a workload's inputs. The spans hold only calls
    into latintb; the pass keeps what it loaded so ``count`` can work out
    the deterministic figures afterwards, outside any span."""

    def __init__(self, tracer: Tracer, inp: Path, out: Path, jobs: int):
        self.t = tracer
        self.inp, self.out = inp, out
        self.jobs = jobs
        self.config = ToolConfig()
        self.counts: Counter = Counter()  # figures latintb returns
        self.ud = self.lasla = self.keys = self.gold = None
        self.main = []  # the corpus the input.* counts describe
        self.perm_iterations = 0

    def count(self) -> Counter:
        """The pass's deterministic figures, the same on every pass."""
        counts = Counter(self.counts)
        tokens = [t for s in self.main for t in s.tokens]
        counts["input.sentences"] = len(self.main)
        counts["input.tokens"] = len(tokens)
        counts["feats"] = len({t.feats for t in tokens})
        # the main corpus is what conllu.parse times: UD for prep, gold for score
        counts["parsed_tokens"] = n_tokens(self.ud if self.ud is not None else self.main)
        counts["evaluated_tokens"] = n_tokens(self.gold or [])
        counts["perm_iterations"] = self.perm_iterations
        if self.ud is not None:
            counts["standardized_tokens"] = len(tokens)
            counts["std_inputs"] = len({
                (t.upos, t.feats, t.misc_get("TraditionalTense"), t.misc_get("TraditionalMood"))
                for t in tokens
            })
        if self.keys is not None:
            candidates, largest = gen.candidate_pairs(
                *({k.sent_id: list(k.forms) for k in keys} for keys in self.keys))
            counts["dedup.candidates"] = len(candidates)
            counts["dedup.largest_bucket"] = largest
        return counts

    # -- convert, dedup, agree -------------------------------------------

    def load_raw(self):
        with self.t.span("pipeline.load_corpus"):
            ud, _ = load_corpus(self.inp / "ud", "ud", self.config, jobs=self.jobs)
        with self.t.span("pipeline.load_corpus"):
            lasla, unknown = load_corpus(self.inp / "lasla", "lasla", self.config, jobs=self.jobs)
        for file in corpus_files(self.inp / "ud"):
            with self.t.span("conllu.parse"):
                parse_conllu_file(file)
        for file in corpus_files(self.inp / "lasla"):
            with self.t.span("lasla.ingest"):
                ingest_lasla_file(file, self.config.lasla_mapping)
        self.counts["lasla.unknown_values"] = sum(unknown.values())
        self.ud, self.lasla = ud, lasla
        self.main = ud + lasla
        return ud, lasla

    def convert(self, ud, lasla, serialize: bool):
        config = self.config
        with self.t.span("standardize"):
            records_ud = [[standardize_ud(t, tense_table=config.tense_table) for t in s.tokens]
                          for s in ud]
            records_la = [[standardize_lasla(t, tense_table=config.tense_table) for t in s.tokens]
                          for s in lasla]
        audit: Counter = Counter()
        with self.t.span("harmonize"):
            for sentences, records in ((ud, records_ud), (lasla, records_la)):
                for sentence, recs in zip(sentences, records):
                    harmonize_sentence(sentence, recs, audit=audit, iri_window=config.iri_window,
                                       pronoun_person_repair=config.pronoun_person_repair)
        self.counts["harmonize.rewrites"] = sum(audit.values())
        with self.t.span("pipeline.convert"):
            conv_ud = convert_corpus(ud, "ud", config)
            conv_la = convert_corpus(lasla, "lasla", config)
        if serialize:
            with self.t.span("conllu.serialize"):
                serialize_conllu(conv_ud.sentences)
                serialize_conllu(conv_la.sentences)
        return conv_ud, conv_la

    def dedup(self, ud, lasla):
        with self.t.span("normalize.matching_key"):
            keys_ud = [matching_key(s) for s in ud]
            keys_la = [matching_key(s) for s in lasla]
        with self.t.span("dedup.find"):
            pairs = find_duplicates(ud, lasla, min_chars=self.config.dedup_min_chars,
                                    min_tokens=self.config.dedup_min_tokens)
        self.keys = keys_ud, keys_la
        self.counts["dedup.confirmed_pairs"] = len(pairs)
        return [(p.sent_a, p.sent_b, p.basis, len(p.alignment)) for p in pairs]

    def agree(self, manifest, ud, lasla, conv_ud, conv_la):
        with self.t.span("pipeline.aligned_pairs"):
            pairs = aligned_pairs(manifest, ud, lasla, conv_ud.records, conv_la.records)
        with self.t.span("agreement.table"):
            agreement_table(pairs, None, STAGE_RAW)
            agreement_table(pairs, None, STAGE_CONVERTED)
        self.counts["agreement.aligned_tokens"] = len(pairs)

    # -- split, lint ------------------------------------------------------

    def split(self, manifest, conv_ud, conv_la):
        config = ToolConfig.load(self.inp / "config.json")
        metadata = load_metadata(self.inp / "metadata.tsv")
        std_ud, std_la = conv_ud.sentences, conv_la.sentences
        with self.t.span("splits.build"):
            manifests = build_splits(std_ud, std_la, metadata, manifest, CLI_SEED,
                                     dev_fraction=config.dev_fraction,
                                     min_test=config.min_test_sentences)
        with self.t.span("splits.audit"):
            for m in manifests:
                audit_splits(m, std_ud, std_la, metadata, manifest,
                             min_test=config.min_test_sentences,
                             atomicity_exceptions=config.atomicity_exceptions)
        with self.t.span("splits.materialize"):
            parts = [materialize(m, std_ud, std_la) for m in manifests]
        with self.t.span("conllu.serialize"):
            for part in parts:
                for sentences in part.values():
                    serialize_conllu(sentences)

    def lint(self, conv_ud):
        rules = self.config.legality_rules
        with self.t.span("standardize.lint"):
            for sentence, records in zip(conv_ud.sentences, conv_ud.records):
                for token, record in zip(sentence.tokens, records):
                    lint_token(token, record, rules)

    # -- eval, perm-test --------------------------------------------------

    def score(self, gold_path: Path, pred_a: Path, pred_b: Path, metrics: tuple[str, ...],
              count_inputs: bool):
        loaded = []
        for path in (gold_path, pred_a, pred_b):
            with self.t.span("pipeline.load_corpus"):
                loaded.append(load_corpus(path, "ud", self.config, jobs=self.jobs)[0])
        gold, a, b = loaded
        self.gold = gold
        if count_inputs:
            with self.t.span("conllu.parse"):
                parse_conllu_file(gold_path)
            self.main = gold
        with self.t.span("evaluation.check_alignment"):
            evaluation.check_alignment(gold, a)
            evaluation.check_alignment(gold, b)
        with self.t.span("evaluation.records_of"):
            records = [evaluation.records_of(c) for c in (gold, a, b)]
        with self.t.span("evaluation.evaluate"):
            evaluation.evaluate(records[0], records[1])
        for metric in metrics:
            with self.t.span("evaluation.perm_setup"):
                evaluation.permutation_test(*records, metric, iterations=1, seed=CLI_SEED,
                                            jobs=self.jobs)
            with self.t.span("evaluation.perm_run"):
                evaluation.permutation_test(*records, metric, iterations=PERM_SAMPLE,
                                            seed=CLI_SEED, jobs=self.jobs)
        self.perm_iterations = (PERM_SAMPLE - 1) * len(metrics)


def run_pass(tracer: Tracer, workload: str, inp: Path, out: Path, score_metrics) -> Pass:
    if workload == "prep":
        p = Pass(tracer, inp, out, jobs=2)
        with tracer.span("step.convert"):
            ud, lasla = p.load_raw()
            conv_ud, conv_la = p.convert(ud, lasla, serialize=True)
        with tracer.span("step.dedup"):
            manifest = p.dedup(ud, lasla)
        with tracer.span("step.agree"):
            p.agree(manifest, ud, lasla, conv_ud, conv_la)
        with tracer.span("step.split"):
            p.split(manifest, conv_ud, conv_la)
        with tracer.span("step.score"):
            p.score(out / "splits" / "Classical-UD" / "test.conllu", out / "pred_a.conllu",
                    out / "pred_b.conllu", ("morph-acc",), count_inputs=False)
        with tracer.span("step.lint"):
            p.lint(conv_ud)
    elif workload == "score":
        p = Pass(tracer, inp, out, jobs=2)
        with tracer.span("step.score"):
            p.score(inp / "gold.conllu", inp / "pred_a.conllu", inp / "pred_b.conllu",
                    score_metrics, count_inputs=True)
    else:
        raise ValueError(workload)
    return p


def retained_mb(workload: str, inp: Path) -> float:
    """Memory the parsed main corpus keeps alive, by tracemalloc, in a
    pass of its own so it does not slow the timed spans."""
    files = [inp / "gold.conllu"] if workload == "score" else corpus_files(inp / "ud")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = [parse_conllu_file(f) for f in files]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del parsed
    return retained / 2**20


def layer_metrics(tracer: Tracer, counts: Counter, trace: int) -> dict[str, float]:
    self_s = tracer.self_times(trace)
    m = {name: 0.0 for name in PER_LAYER}
    for key in ("input.sentences", "input.tokens", "lasla.unknown_values", "harmonize.rewrites",
                "dedup.candidates", "dedup.largest_bucket", "dedup.confirmed_pairs",
                "agreement.aligned_tokens"):
        m[key] = counts[key]
    for span, key in (("conllu.parse", "conllu.parse_s"), ("conllu.serialize", "conllu.serialize_s"),
                      ("lasla.ingest", "lasla.ingest_s"), ("standardize", "standardize.s"),
                      ("standardize.lint", "standardize.lint_s"), ("harmonize", "harmonize.s"),
                      ("pipeline.load_corpus", "pipeline.load_corpus_s"),
                      ("pipeline.convert", "pipeline.convert_s"),
                      ("pipeline.aligned_pairs", "pipeline.aligned_pairs_s"),
                      ("normalize.matching_key", "normalize.matching_key_s"),
                      ("dedup.find", "dedup.find_s"), ("agreement.table", "agreement.table_s"),
                      ("splits.build", "splits.build_s"), ("splits.audit", "splits.audit_s"),
                      ("splits.materialize", "splits.materialize_s"),
                      ("evaluation.records_of", "evaluation.records_of_s"),
                      ("evaluation.check_alignment", "evaluation.check_alignment_s"),
                      ("evaluation.evaluate", "evaluation.evaluate_s"),
                      ("evaluation.perm_setup", "evaluation.perm_setup_s")):
        m[key] = self_s.get(span, 0.0)
    tokens = counts["input.tokens"]
    m["conllu.distinct_feats_per_ktok"] = per_ktok(counts["feats"], tokens)
    m["standardize.distinct_inputs_per_ktok"] = per_ktok(counts["std_inputs"], tokens)
    if m["conllu.parse_s"]:
        m["conllu.parse_tokens_per_s"] = counts["parsed_tokens"] / m["conllu.parse_s"]
    if m["standardize.s"]:
        m["standardize.tokens_per_s"] = counts["standardized_tokens"] / m["standardize.s"]
        # derived: convert_corpus minus the separately timed standardize + harmonize
        m["pipeline.convert_self_s"] = m["pipeline.convert_s"] - m["standardize.s"] - m["harmonize.s"]
    if m["evaluation.evaluate_s"]:
        m["evaluation.evaluate_tokens_per_s"] = counts["evaluated_tokens"] / m["evaluation.evaluate_s"]
    loop_s = self_s.get("evaluation.perm_run", 0.0) - m["evaluation.perm_setup_s"]
    if counts["perm_iterations"] and loop_s > 0:
        m["evaluation.perm_iters_per_s"] = counts["perm_iterations"] / loop_s
    if m["dedup.candidates"]:
        m["dedup.confirmed_per_candidate"] = m["dedup.confirmed_pairs"] / m["dedup.candidates"]
    m["trace.total_s"] = tracer.root_total(trace)
    m["trace.unattributed_s"] = sum(v for k, v in self_s.items() if k.startswith("step."))
    return m


def measure(workload: str, work: Path, seconds: float, cli_pass, spans_path: Path,
            score_metrics) -> dict[str, dict]:
    """Traced passes while the next one should end within ``seconds``
    (at least one); times are medians over passes, counts come from the
    first, worked out after it and outside its spans."""
    start = time.perf_counter()
    tracer = Tracer()
    per_pass = []
    counts = None
    while True:
        p = run_pass(tracer, workload, work / "in", work / "out", score_metrics)
        if counts is None:
            counts = p.count()
        del p
        per_pass.append(layer_metrics(tracer, counts, tracer.trace))
        tracer.trace += 1
        elapsed = time.perf_counter() - start
        if elapsed * (len(per_pass) + 1) / len(per_pass) > seconds:
            break
    tracer.write(spans_path)
    values = {name: statistics.median(m[name] for m in per_pass) for name in PER_LAYER}
    for name, unit in PER_LAYER.items():
        if unit == "count":
            values[name] = per_pass[0][name]
    values["conllu.retained_mb"] = retained_mb(workload, work / "in")
    for name in ("convert", "dedup", "agree", "split", "lint", "eval", "perm_test"):
        values[f"cmd.{name}_s"] = cli_pass.per_command.get(f"{name}_s", 0.0)
    values["trace.overhead_s"] = values["trace.total_s"] - cli_pass.wall_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
