#!/usr/bin/env bash
# End-to-end demo of every subcommand on the shipped fixture corpus.
# Usage: scripts/run_fixture_pipeline.sh [output-dir]
# Runs the package from this checkout's src/; no install is needed.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
latintb() { python3 -m latintb.cli "$@"; }
OUT="${1:-/tmp/latintb-demo}"
FIX="$ROOT/tests/fixtures"
CFG="$FIX/config.json"

mkdir -p "$OUT"

echo "== convert =="
latintb convert --in "$FIX/ud" --flavor ud --out "$OUT/std/ud"
latintb convert --in "$FIX/lasla" --flavor lasla --out "$OUT/std/lasla"

echo "== dedup =="
latintb dedup --a "$FIX/ud" --b "$FIX/lasla" \
    --out "$OUT/dups.tsv" --report "$OUT/dup_report.tsv" \
    --metadata "$FIX/metadata.tsv"

echo "== agree =="
latintb agree --a "$FIX/ud" --b "$FIX/lasla" \
    --dups "$OUT/dups.tsv" --out "$OUT/agreement.tsv"

echo "== metadata-validate =="
latintb metadata-validate --file "$FIX/metadata.tsv" --corpus "$FIX/ud"

echo "== split =="
latintb split --ud "$OUT/std/ud" --lasla "$OUT/std/lasla" \
    --metadata "$FIX/metadata.tsv" --dups "$OUT/dups.tsv" \
    --out "$OUT/splits" --config "$CFG" --no-published --seed 7

echo "== baseline predictions =="
python3 "$ROOT/scripts/predict_baseline.py" \
    "$OUT/splits/Classical-UD/test.conllu" "$OUT/pred_a.conllu"
python3 "$ROOT/scripts/predict_baseline.py" \
    "$OUT/splits/Classical-UD/test.conllu" "$OUT/pred_b.conllu" --degrade 3

echo "== eval =="
latintb eval --gold "$OUT/splits/Classical-UD/test.conllu" \
    --pred "$OUT/pred_a.conllu" --out "$OUT/eval.json"

echo "== perm-test =="
latintb perm-test --gold "$OUT/splits/Classical-UD/test.conllu" \
    --a "$OUT/pred_a.conllu" --b "$OUT/pred_b.conllu" \
    --metric morph-acc --n 10000 --seed 7 --out "$OUT/perm.tsv"

echo "== lint =="
latintb lint --in "$FIX/ud" --flavor ud --out "$OUT/lint.tsv"

echo "artifacts in $OUT"
