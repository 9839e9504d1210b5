#!/usr/bin/env python3
"""Run the shipped suffix-rule baseline over a standardized corpus.

Reads a standardized .conllu file, writes predictions in the same
format (token-aligned with the input), optionally degrading every Nth
sentence to all-bare-NOUN records so two prediction files of different
quality exist for permutation-test demos.
"""

import argparse
from pathlib import Path

from latintb.baseline import predict_corpus
from latintb.conllu import parse_conllu_file, serialize_conllu
from latintb.pipeline import sentence_with_records
from latintb.standardize import StandardRecord


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("gold", type=Path, help="standardized CoNLL-U input")
    parser.add_argument("out", type=Path, help="prediction file to write")
    parser.add_argument(
        "--degrade", type=int, default=0, metavar="N",
        help="overwrite every Nth sentence with bare NOUN records",
    )
    args = parser.parse_args()

    sentences = parse_conllu_file(args.gold)
    records = predict_corpus(sentences)
    if args.degrade:
        for index in range(0, len(records), args.degrade):
            records[index] = [StandardRecord(upos="NOUN") for _ in records[index]]
    args.out.write_text(
        serialize_conllu(sentence_with_records(s, r) for s, r in zip(sentences, records)),
        encoding="utf-8",
    )
    print(f"wrote {len(sentences)} sentences to {args.out}")


if __name__ == "__main__":
    main()
