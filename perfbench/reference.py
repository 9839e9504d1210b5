#!/usr/bin/env python3
"""The reference process: a fixed piece of Python work that measures how
fast the host runs a fresh interpreter right now.

    python3 perfbench/reference.py

It starts an interpreter, builds and serializes many small dicts of
strings (allocation-heavy, like parsing a treebank), reads them back,
and prints a checksum. It never imports latintb, so no change to the
program changes its time. The benchmark runs it right before every
``latintb`` process and divides each time by it (see run.py), so that a
shared host running slower or faster for minutes at a time moves the
reported figures less.
"""

from __future__ import annotations

import json
import zlib

ROWS = 400
FIELDS = 200
ROUNDS = 3


def work() -> int:
    rows = [{f"k{i}": "v" * ((i + r) % 50) for i in range(FIELDS)} for r in range(ROWS)]
    text = json.dumps(rows)
    for _ in range(ROUNDS):
        rows = json.loads(text)
    return zlib.crc32(json.dumps(rows, sort_keys=True).encode())


if __name__ == "__main__":
    print(f"reference {work()}")
