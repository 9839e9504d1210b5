"""Artifacts: deterministic TSV tables with a provenance footer, the one
strict reader for every TSV input, and the one JSON renderer."""

from __future__ import annotations

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


def breaks_a_cell(value: str) -> bool:
    """Whether a value would shift or split a TSV cell: read_table splits
    lines with str.splitlines and cells at tabs."""
    return "\t" in value or "".join(value.splitlines()) != value


def tsv_text(
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    seed: int | None = None,
    config_hash: str = "default",
) -> str:
    """A TSV table with the provenance footer. A cell that holds a tab or
    a line break is a ValueError."""
    lines = ["\t".join(header)]
    for row in rows:
        cells = [str(cell) for cell in row]
        for cell in cells:
            if breaks_a_cell(cell):
                raise ValueError(f"cell {cell!r} holds a tab or a line break")
        lines.append("\t".join(cells))
    lines.append(footer(seed, config_hash))
    return "\n".join(lines) + "\n"


def integer(cell: str) -> int:
    """A TSV cell's integer: ASCII digits with an optional leading "-". Any
    other cell is the ValueError that ``int()`` raises for a bad literal."""
    digits = cell[1:] if cell.startswith("-") else cell
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {cell!r}")
    return int(cell)


def plain(value: object) -> object:
    """``value`` with every record in it, at any depth, as a dict of its
    fields, and every tuple as a list. A record is anything with an
    ``_asdict`` method; ``json.dumps`` would write a tuple record as an
    array."""
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def json_text(payload: object) -> str:
    """A JSON artifact of ``plain(payload)``: sorted keys, two-space
    indent and a final newline."""
    import json

    return json.dumps(plain(payload), indent=2, sort_keys=True) + "\n"


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
