#!/usr/bin/env python3
"""Benchmark of the latintb CLI over seeded synthetic corpora.

    python3 perfbench/run.py --workload prep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The benchmark generates the
workload's inputs from ``--seed`` under ``perfbench/.work``, then:

* ``--trace 0`` runs the workload's command sequence as real ``latintb``
  subprocesses, one after another, again and again for ``--seconds``
  seconds, checks every output, and reports the end-to-end metrics,
  with times scaled by a reference process run before each ``latintb``
  process (reference.py);
* ``--trace 1`` runs the sequence once untraced, then times the calls
  into each module's public functions on the same inputs inside this
  process, and reports the per-layer metrics.

Every metric is printed by name with its unit; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1
SETUP_SAMPLES = 3  # before each pass and after the last
# Nominal seconds of one reference process (reference.py). Time figures
# are scaled to a host on which the reference process takes this long.
REFERENCE_S = 0.3
PERM_ITERATIONS = 10_000

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("prep", "score")


@dataclass
class CommandResult:
    seconds: float
    returncode: int
    maxrss_kb: int
    stdout: str
    stderr: str


@dataclass
class Step:
    """One CLI invocation of a workload's command sequence."""

    metric: str  # per-subcommand metric it adds to, e.g. "convert_s"
    argv: list[str]
    check: Callable[[CommandResult], list[str]] = lambda done: []
    outputs: tuple[str, ...] = ()  # paths under out/ this step writes
    before: Callable[[], None] | None = None  # untimed input preparation


def spawn(argv: list[str], log_dir: Path) -> CommandResult:
    """Run one process and wait for it; its stdout and stderr go to
    files so no pipe can fill."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _pid, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandResult(seconds, proc.returncode, usage.ru_maxrss,
                         out_path.read_text(encoding="utf-8", errors="replace"),
                         err_path.read_text(encoding="utf-8", errors="replace"))


def latintb(argv: list[str], log_dir: Path) -> CommandResult:
    """One ``latintb`` process from the checkout's sources."""
    return spawn([sys.executable, "-m", "latintb.cli", *argv], log_dir)


def reference(log_dir: Path) -> float:
    """Seconds of one reference process (reference.py); raises if it
    fails, since no figure can be scaled without it."""
    done = spawn([sys.executable, str(BENCH / "reference.py")], log_dir)
    if done.returncode != 0 or not done.stdout.startswith("reference "):
        raise RuntimeError(f"reference process failed: exit {done.returncode}")
    return done.seconds


def workload_steps(workload: str, inp: Path, out: Path) -> list[Step]:
    """The workload's command sequence, in order, with its output checks."""
    s = str
    if workload == "prep":
        jobs = ["--jobs", "2"]
        test = out / "splits" / "Classical-UD" / "test.conllu"
        return [
            Step("convert_s", ["convert", "--in", s(inp / "ud"), "--flavor", "ud",
                               "--out", s(out / "std" / "ud"), *jobs],
                 lambda done: checks.convert_kept_tokens(inp / "ud", out / "std" / "ud"), ("std/ud",)),
            Step("convert_s", ["convert", "--in", s(inp / "lasla"), "--flavor", "lasla",
                               "--out", s(out / "std" / "lasla"), *jobs],
                 lambda done: checks.convert_kept_tokens(inp / "lasla", out / "std" / "lasla"),
                 ("std/lasla",)),
            Step("dedup_s", ["dedup", "--a", s(inp / "ud"), "--b", s(inp / "lasla"),
                             "--out", s(out / "dups.tsv"), "--report", s(out / "dup_report.tsv"),
                             "--metadata", s(inp / "metadata.tsv"), *jobs],
                 lambda done: checks.dedup_equals_planted(out / "dups.tsv", inp / "planted.tsv"),
                 ("dups.tsv", "dup_report.tsv")),
            Step("agree_s", ["agree", "--a", s(inp / "ud"), "--b", s(inp / "lasla"),
                             "--dups", s(out / "dups.tsv"), "--out", s(out / "agreement.tsv"), *jobs],
                 lambda done: checks.agreement_totals(out / "agreement.tsv", out / "dups.tsv"),
                 ("agreement.tsv",)),
            Step("metadata_validate_s", ["metadata-validate", "--file", s(inp / "metadata.tsv"),
                                         "--corpus", s(inp / "ud"), *jobs],
                 lambda done: checks.metadata_ok(done.stdout)),
            Step("split_s", ["split", "--ud", s(out / "std" / "ud"), "--lasla", s(out / "std" / "lasla"),
                             "--metadata", s(inp / "metadata.tsv"), "--dups", s(out / "dups.tsv"),
                             "--out", s(out / "splits"), "--config", s(inp / "config.json"),
                             "--no-published", "--seed", "7", *jobs],
                 lambda done: checks.split_audits_pass(out / "splits"), ("splits",)),
            Step("eval_s", ["eval", "--gold", s(test), "--pred", s(out / "pred_a.conllu"),
                            "--out", s(out / "eval.json"), *jobs],
                 lambda done: checks.eval_report(out / "eval.json", test, out / "pred_a.conllu"),
                 ("eval.json", "pred_a.conllu", "pred_b.conllu"),
                 before=lambda: gen.write_predictions(test, out / "pred_a.conllu",
                                                      out / "pred_b.conllu", seed=7)),
            Step("perm_test_s", ["perm-test", "--gold", s(test), "--a", s(out / "pred_a.conllu"),
                                 "--b", s(out / "pred_b.conllu"), "--metric", "morph-acc",
                                 "--n", str(PERM_ITERATIONS), "--seed", "7",
                                 "--out", s(out / "perm.tsv"), *jobs],
                 lambda done: checks.perm_result(out / "perm.tsv", "morph-acc", PERM_ITERATIONS, test,
                                            out / "pred_a.conllu", out / "pred_b.conllu"),
                 ("perm.tsv",)),
            Step("lint_s", ["lint", "--in", s(inp / "ud"), "--flavor", "ud",
                            "--out", s(out / "lint.tsv"), *jobs],
                 lambda done: checks.lint_report(out / "lint.tsv"), ("lint.tsv",)),
        ]
    if workload == "score":
        jobs = ["--jobs", "2"]
        gold = inp / "gold.conllu"
        steps = [
            Step("eval_s", ["eval", "--gold", s(gold), "--pred", s(inp / f"pred_{x}.conllu"),
                            "--out", s(out / f"eval_{x}.json"), *jobs],
                 lambda done, x=x: checks.eval_report(out / f"eval_{x}.json", gold,
                                                inp / f"pred_{x}.conllu"),
                 (f"eval_{x}.json",))
            for x in ("a", "b")
        ]
        for index, metric in enumerate(SCORE_METRICS):
            name = f"perm_{index}.tsv"
            steps.append(
                Step("perm_test_s", ["perm-test", "--gold", s(gold), "--a", s(inp / "pred_a.conllu"),
                                     "--b", s(inp / "pred_b.conllu"), "--metric", metric,
                                     "--n", str(PERM_ITERATIONS), "--seed", "7",
                                     "--out", s(out / name), *jobs],
                     lambda done, name=name, metric=metric: checks.perm_result(
                         out / name, metric, PERM_ITERATIONS, gold, inp / "pred_a.conllu",
                         inp / "pred_b.conllu"),
                     (name,))
            )
        return steps
    raise ValueError(workload)


SCORE_METRICS = ("morph-acc", "upos-macro-f1", "macro-f1:Case", "value-f1:Mood=Sub")


@dataclass
class PassResult:
    wall_s: float
    per_command: dict[str, float]
    maxrss_kb: int
    attempted: int
    reference_s: float = 0.0  # summed reference processes, one before each step
    failures: dict[int, list[str]] = field(default_factory=dict)  # step index -> messages
    digests: dict[str, str] = field(default_factory=dict)

    def scaled_wall_s(self) -> float:
        """``wall_s`` on a host where the reference process takes
        ``REFERENCE_S``: each step's reference process measures how fast
        the host ran while the pass ran."""
        return self.wall_s * REFERENCE_S * self.attempted / self.reference_s


def run_pass(workload: str, inp: Path, out: Path) -> PassResult:
    """One pass of the command sequence into a fresh ``out`` directory."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    log_dir = out.parent
    steps = workload_steps(workload, inp, out)
    result = PassResult(0.0, {}, 0, len(steps))
    for index, step in enumerate(steps):
        if step.before is not None:
            step.before()
        result.reference_s += reference(log_dir)
        done = latintb(step.argv, log_dir)
        result.wall_s += done.seconds
        result.per_command[step.metric] = result.per_command.get(step.metric, 0.0) + done.seconds
        result.maxrss_kb = max(result.maxrss_kb, done.maxrss_kb)
        problems = []
        if done.returncode != 0:
            problems.append(f"exit {done.returncode}: {done.stderr.strip()[-200:]}")
        else:
            try:
                problems += step.check(done)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"output check could not read the outputs: {exc!r}")
        if problems:
            result.failures[index] = problems
    result.digests = {f"out/{k}": v for k, v in checks.digests(out).items()}
    return result


def step_of_artifact(steps: list[Step], artifact: str) -> int:
    """Index of the step that writes an ``out/...`` artifact."""
    rel = artifact.removeprefix("out/")
    for index, step in enumerate(steps):
        if any(rel == o or rel.startswith(o + "/") for o in step.outputs):
            return index
    return len(steps) - 1


def committed_digests(workload: str) -> dict[str, str] | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)


def check_digests(workload: str, seed: int, inp_digests: dict[str, str],
                  passes: list[PassResult], steps: list[Step]) -> list[str]:
    """Attribute digest failures to the steps that wrote the artifacts:
    every pass must repeat the first byte for byte and, for the default
    seed, match the committed digests. Returns input-level failures."""
    first = passes[0].digests
    for result in passes[1:]:
        for name in checks.compare_digests(result.digests, first):
            index = step_of_artifact(steps, name.split(":")[0])
            result.failures.setdefault(index, []).append(f"not deterministic: {name}")
    if seed != DEFAULT_SEED:
        return []
    expected = committed_digests(workload)
    if expected is None:
        return ["no committed digests"]
    actual = dict(inp_digests, **first)
    input_failures = []
    for problem in checks.compare_digests(actual, expected):
        artifact = problem.split(":")[0]
        if artifact.startswith("in/"):
            input_failures.append(problem)
            continue
        index = step_of_artifact(steps, artifact)
        for result in passes:
            result.failures.setdefault(index, []).append(problem)
    return input_failures


@dataclass
class SetupSamples:
    """Wall times of fresh ``latintb --version`` processes (interpreter
    start plus every import the CLI makes), each right after a reference
    process."""

    log_dir: Path
    times: list[float] = field(default_factory=list)
    references: list[float] = field(default_factory=list)
    failed: int = 0

    def take(self) -> None:
        for _ in range(SETUP_SAMPLES):
            self.references.append(reference(self.log_dir))
            done = latintb(["--version"], self.log_dir)
            self.times.append(done.seconds)
            self.failed += done.returncode != 0 or not done.stdout.startswith("latintb ")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_passes(workload: str, work: Path, seconds: float,
                 setup: SetupSamples) -> list[PassResult]:
    """Passes of the command sequence, each after a set-up sample, while
    the next pass with its set-up sample should end within ``seconds``
    of the start (at least one pass). Set-up is sampled before each pass
    and after the last, so its samples spread over the whole run and a
    burst of load on a shared machine does not decide the median."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        setup.take()
        passes.append(run_pass(workload, work / "in", work / "out"))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            setup.take()
            return passes


def print_table(title: str, rows: dict[str, dict]) -> None:
    print(title)
    for name, m in rows.items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<42} {shown:>14} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="record this run's artifact digests as the committed ones "
                             "(default seed only)")
    args = parser.parse_args(argv)

    if not (SRC / "latintb" / "cli.py").is_file():
        print(f"error: no latintb sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        gen.generate(args.workload, args.seed, work / "in")
        inp_digests = {f"in/{k}": v for k, v in checks.digests(work / "in").items()}
        start = time.perf_counter()
        if args.trace == 0:
            setup = SetupSamples(work)
            passes = timed_passes(args.workload, work, args.seconds, setup)
        else:
            passes = [run_pass(args.workload, work / "in", work / "out")]
        steps = workload_steps(args.workload, work / "in", work / "out")
        input_failures = check_digests(args.workload, args.seed, inp_digests, passes, steps)
        attempted = sum(p.attempted for p in passes)
        failed = sum(len(p.failures) for p in passes)
        for number, result in enumerate(passes, start=1):
            for index, problems in sorted(result.failures.items()):
                for problem in problems:
                    print(f"FAIL pass {number} step {index} ({steps[index].argv[0]}): {problem}")
        for problem in input_failures:
            print(f"FAIL generated input {problem}")

        if args.trace == 0:
            attempted += len(setup.times)
            failed += setup.failed
            reference_s = statistics.median(setup.references)
            metrics = {
                "wall_s": metric(statistics.median(p.scaled_wall_s() for p in passes), "s"),
                "setup_s": metric(statistics.median(setup.times) * REFERENCE_S / reference_s, "s"),
                "peak_rss_mb": metric(max(p.maxrss_kb for p in passes) / 1024, "MB"),
            }
            print(f"{args.workload} seed={args.seed}: pass wall_s "
                  + " ".join(f"{p.wall_s:.3f}" for p in passes) + ", scaled "
                  + " ".join(f"{p.scaled_wall_s():.3f}" for p in passes))
            print_table("unscaled medians", {
                "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
                "setup_s": metric(statistics.median(setup.times), "s"),
                "reference_s": metric(reference_s, "s"),
            })
            print_table("per-subcommand medians", {
                name: metric(statistics.median(p.per_command[name] for p in passes), "s")
                for name in passes[0].per_command
            })
            shown = dict(metrics, fail_ratio=metric(failed / attempted, "ratio"))
            if args.write_digests and args.seed == DEFAULT_SEED and failed == 0:
                write_digests(args.workload, dict(inp_digests, **passes[0].digests))
        else:
            sys.path.insert(0, str(SRC))
            import layers

            metrics = shown = layers.measure(
                args.workload, work, args.seconds - (time.perf_counter() - start), passes[0],
                WORK / f"spans-{args.workload}-s{args.seed}.json", SCORE_METRICS)
        print_table("metrics", shown)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0 and not input_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def write_digests(workload: str, digests: dict[str, str]) -> None:
    data = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    data[workload] = digests
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
