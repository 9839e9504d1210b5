import codecs
import re
from importlib import resources

import pytest

from latintb.reports import read_table, write_tsv

HEADER = ("name", "count")


def test_written_report_reads_back(tmp_path):
    path = tmp_path / "report.tsv"
    write_tsv(path, HEADER, [("a", 1), ("b", 2)], seed=3)
    assert read_table(str(path), HEADER, list) == [["a", "1"], ["b", "2"]]


@pytest.mark.parametrize("cell", ["a\tb", "a\nb", "a\r", "\x0ba", "a\x1eb", "a\x85b", "a\u2028b"])
def test_a_cell_that_would_shift_a_column_is_refused(tmp_path, cell):
    # a tab, or a line boundary that read_table's str.splitlines splits on
    path = tmp_path / "report.tsv"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: cell {cell!r}')} holds a tab or a line break$"):
        write_tsv(path, HEADER, [("ok", 1), (cell, 2)])
    assert not path.exists()


@pytest.mark.parametrize(
    "data",
    [
        b"name\tcount\na\t1\n",
        b"name\tcount\r\na\t1\r\n",
        codecs.BOM_UTF8 + b"name\tcount\na\t1\n",
        b"# made by hand\n\nname\tcount\n\n# a comment\na\t1",
    ],
    ids=["clean", "crlf", "bom", "comments-and-blank-lines"],
)
def test_bom_crlf_comments_and_blank_lines_are_skipped(tmp_path, data):
    path = tmp_path / "table.tsv"
    path.write_bytes(data)
    assert read_table(path, HEADER, list) == [["a", "1"]]


def test_a_row_error_names_file_and_line(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_text("# note\nname\tcount\n\na\t1\nb\ttwo\n")
    with pytest.raises(ValueError, match=(
        f"^{re.escape(str(path))} line 5: invalid literal for int\\(\\) with base 10: 'two'$"
    )):
        read_table(path, HEADER, lambda cells: (cells[0], int(cells[1])))


@pytest.mark.parametrize(
    "text, line",
    [("a\t1\n", "line 1: expected header 'name\\\\tcount', got 'a\\\\t1'"),
     ("# only a comment\n\n", "expected header 'name\\\\tcount', got no line"),
     ("", "expected header 'name\\\\tcount', got no line")],
    ids=["data-row-first", "comments-only", "empty"],
)
def test_a_table_must_start_with_its_header(tmp_path, text, line):
    path = tmp_path / "table.tsv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:? {line}$"):
        read_table(path, HEADER, list)


def test_a_table_that_is_not_utf8_is_named(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_bytes(b"name\tcount\n\xffa\t1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8 text \\(invalid start byte\\)$"):
        read_table(path, HEADER, list)


def test_reads_a_packaged_table():
    table = resources.files("latintb.data").joinpath("published_split_assignment.tsv")
    rows = read_table(table, ("period", "work_id", "split", "sentences"), tuple)
    assert rows[0] == ("Classical", "BellumGallicum", "train", "1445")
    assert len(rows) == 74
