"""Artifacts: deterministic TSV tables with a provenance footer, the one
strict reader for every TSV input, and the one JSON writer."""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from . import __version__

if TYPE_CHECKING:  # importlib.resources.abc is new in Python 3.11
    from importlib.resources.abc import Traversable

T = TypeVar("T")


def footer(seed: int | None = None, config_hash: str = "default") -> str:
    parts = [f"# latintb={__version__}"]
    if seed is not None:
        parts.append(f"seed={seed}")
    parts.append(f"config={config_hash}")
    return " ".join(parts)


def write_tsv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    seed: int | None = None,
    config_hash: str = "default",
) -> None:
    """A TSV table with the provenance footer. A cell that holds a tab or
    a line break is a ValueError, raised before the file is written."""
    lines = ["\t".join(header)]
    for row in rows:
        cells = [str(cell) for cell in row]
        for cell in cells:
            # read_table splits a table into lines with str.splitlines
            if "\t" in cell or "".join(cell.splitlines()) != cell:
                raise ValueError(f"{path}: cell {cell!r} holds a tab or a line break")
        lines.append("\t".join(cells))
    lines.append(footer(seed, config_hash))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: str | Path, payload: object) -> None:
    """A JSON artifact: sorted keys, two-space indent and a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_table(
    path: str | Path | Traversable, header: Sequence[str], convert: Callable[[list[str]], T]
) -> list[T]:
    """``convert(cells)`` for each data row of a TSV table.

    A byte-order mark, CRLF endings, blank lines and ``#`` lines are
    skipped. The first line left must equal ``header``. Any
    ``ValueError`` is re-raised as one that names the file, and its line
    if the file is UTF-8 text.
    """
    path = Path(path) if isinstance(path, str) else path
    expected = "\t".join(header)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    rows: list[T] | None = None
    for number, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        try:
            if rows is not None:
                rows.append(convert(line.split("\t")))
            elif line == expected:
                rows = []
            else:
                raise ValueError(f"expected header {expected!r}, got {line!r}")
        except ValueError as exc:
            raise ValueError(f"{path} line {number}: {exc}") from None
    if rows is None:
        raise ValueError(f"{path}: expected header {expected!r}, got no line")
    return rows
