"""Output checks for the benchmark: artifact digests and brute-force
oracles computed from the generated inputs without latintb code.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from gen import parse_feats

MORPH_FEATURES = ("Case", "Degree", "Gender", "Mood", "Number", "Person", "Tense", "Voice")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by its relative path."""
    return {
        p.relative_to(root).as_posix(): sha256(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def compare_digests(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    failures = []
    for name in sorted(set(actual) | set(expected)):
        if name not in actual:
            failures.append(f"{name}: missing")
        elif name not in expected:
            failures.append(f"{name}: not in the committed digests")
        elif actual[name] != expected[name]:
            failures.append(f"{name}: sha256 {actual[name][:12]} != {expected[name][:12]}")
    return failures


def tsv_rows(path: Path) -> list[list[str]]:
    """Data rows of a report: header and comment lines skipped."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines[1:] if line and not line.startswith("#")]


def word_lines(path: Path) -> list[list[str]]:
    """Columns of every word-token line (no multiword ranges, no empty nodes)."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            cols = line.split("\t")
            if cols[0].isdigit():
                rows.append(cols)
    return rows


def convert_kept_tokens(src_dir: Path, out_dir: Path) -> list[str]:
    failures = []
    for src in sorted(src_dir.glob("*.conllu")):
        out = out_dir / src.name
        if not out.is_file():
            failures.append(f"convert wrote no {out.name}")
            continue
        n_in, n_out = len(word_lines(src)), len(word_lines(out))
        if n_in != n_out:
            failures.append(f"{src.name}: {n_in} tokens in, {n_out} out")
    for report in ("harmonization_audit.tsv", "anomalies.tsv"):
        if not (out_dir / report).is_file():
            failures.append(f"convert wrote no {report}")
    return failures


def planted(path: Path) -> list[tuple[str, str, str]]:
    return [tuple(row) for row in tsv_rows(path)]


def dedup_equals_planted(manifest: Path, planted_tsv: Path) -> list[str]:
    found = {(row[0], row[1]) for row in tsv_rows(manifest)}
    expected = {(a, b) for a, b, _kind in planted(planted_tsv)}
    if found == expected:
        return []
    return [f"dedup: {len(found - expected)} pairs not planted, "
            f"{len(expected - found)} planted pairs missed"]


def agreement_totals(agreement: Path, manifest: Path) -> list[str]:
    """Every aligned token pair is counted once in the UPOS row, before
    and after conversion."""
    aligned = sum(int(row[3]) for row in tsv_rows(manifest))
    upos = [row for row in tsv_rows(agreement) if row[0] == "UPOS"]
    if not upos:
        return ["agree: no UPOS row"]
    before, after = int(upos[0][3]), int(upos[0][6])
    if before != aligned or after != aligned:
        return [f"agree: UPOS totals {before}/{after}, manifest aligns {aligned} tokens"]
    return []


def metadata_ok(stdout: str) -> list[str]:
    return [] if stdout.strip() == "metadata ok" else [f"metadata-validate: {stdout.strip()[:80]!r}"]


def split_audits_pass(split_dir: Path) -> list[str]:
    audit = split_dir / "split_audit.tsv"
    if not audit.is_file():
        return ["split wrote no split_audit.tsv"]
    failures = [f"split: {row[0]} {row[1]} failed" for row in tsv_rows(audit)
                if row[2] not in ("pass",) and not row[1].endswith("-sentences")]
    test = split_dir / "Classical-UD" / "test.conllu"
    if not test.is_file() or not word_lines(test):
        failures.append("split: empty Classical-UD test set")
    return failures


def morph_string(feats_column: str) -> str:
    feats = parse_feats(feats_column)
    parts = []
    for name in MORPH_FEATURES:
        if name in feats:
            values = feats[name]
            values = sorted(values) if isinstance(values, list) else [values]
            parts.append(f"{name}={','.join(values)}")
    return "|".join(parts)


def eval_report(report: Path, gold: Path, pred: Path) -> list[str]:
    """Token count and whole-string accuracy, recomputed from the files."""
    if not report.is_file():
        return [f"eval wrote no {report.name}"]
    data = json.loads(report.read_text(encoding="utf-8"))
    correct, total = accuracy(gold, pred)
    failures = []
    if data.get("token_count") != total:
        failures.append(f"eval: token_count {data.get('token_count')} != {total}")
    reported = data.get("whole_string_accuracy")
    if reported is None or abs(reported - correct / total) > 1e-12:
        failures.append(f"eval: accuracy {reported} != {correct / total}")
    return failures


def accuracy(gold: Path, pred: Path) -> tuple[int, int]:
    """(correct, total) whole-string matches over the morphological features."""
    gold_rows, pred_rows = word_lines(gold), word_lines(pred)
    correct = sum(morph_string(g[5]) == morph_string(p[5]) for g, p in zip(gold_rows, pred_rows))
    return correct, len(gold_rows)


def perm_result(path: Path, metric: str, iterations: int, gold: Path, pred_a: Path,
                pred_b: Path) -> list[str]:
    """One result row for the metric with a valid p-value; for morph-acc
    the observed difference is recomputed from the files."""
    if not path.is_file():
        return [f"perm-test wrote no {path.name}"]
    rows = tsv_rows(path)
    if len(rows) != 1:
        return [f"perm-test: {len(rows)} result rows"]
    name, diff, p_value, iters, _seed = rows[0]
    failures = []
    if name != metric or int(iters) != iterations:
        failures.append(f"perm-test: row {name} {iters} for {metric} {iterations}")
    if not 0 <= float(p_value) <= 1:
        failures.append(f"perm-test {metric}: p={p_value}")
    if metric == "morph-acc":
        (correct_a, total), (correct_b, _) = accuracy(gold, pred_a), accuracy(gold, pred_b)
        expected = f"{abs(correct_a - correct_b) / total:.6f}"
        if diff != expected:
            failures.append(f"perm-test morph-acc: observed_diff {diff} != {expected}")
    return failures


def lint_report(path: Path) -> list[str]:
    if not path.is_file():
        return ["lint wrote no report"]
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "sent_id\ttoken_id\tcode" or not lines[-1].startswith("# latintb="):
        return ["lint: malformed report"]
    return []
