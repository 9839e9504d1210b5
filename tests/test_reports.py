import codecs
import re
from importlib import resources

import pytest

from latintb.dedup import read_manifest
from latintb.metadata import read_metadata
from latintb.reports import integer, read_table, tsv_text
from latintb.splits import load_published_assignment

HEADER = ("name", "count")


def test_written_report_reads_back(tmp_path):
    path = tmp_path / "report.tsv"
    path.write_text(tsv_text(HEADER, [("a", 1), ("b", 2)], seed=3), encoding="utf-8")
    assert read_table(str(path), HEADER, list) == [["a", "1"], ["b", "2"]]


@pytest.mark.parametrize("cell", ["a\tb", "a\nb", "a\r", "\x0ba", "a\x1eb", "a\x85b", "a\u2028b"])
def test_a_cell_that_would_shift_a_column_is_refused(cell):
    # a tab, or a line boundary that read_table's str.splitlines splits on
    with pytest.raises(ValueError, match=f"^{re.escape(f'cell {cell!r}')} holds a tab or a line break$"):
        tsv_text(HEADER, [("ok", 1), (cell, 2)])


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


@pytest.mark.parametrize("cell, value", [("0", 0), ("-12", -12), ("007", 7)])
def test_an_integer_cell_is_ascii_digits_with_an_optional_minus(cell, value):
    assert integer(cell) == value


_NOT_INTEGERS = [" 1_0", "+3", "٣", "", "-", "1 ", "--1", "1e3"]


@pytest.mark.parametrize("cell", _NOT_INTEGERS)
def test_any_other_integer_cell_raises_as_int_does(cell):
    with pytest.raises(ValueError) as raised:
        integer(cell)
    assert str(raised.value) == f"invalid literal for int() with base 10: {cell!r}"


# each TSV input with an integer column: its header, a row with "{}" for the
# integer cell, its reader, and the message it gives for a bad cell
_INTEGER_TABLES = {
    "metadata": ("treebank\twork_id\tauthor\tcentury\tis_bible\tgenres\ttrain_sents\tdev_sents\t"
                 "test_sents", "Perseus\tw\tA\t{}\tfalse\tspeech\t1\t0\t0", read_metadata,
                 "invalid literal for int() with base 10: {!r}"),
    "manifest": ("sent_a\tsent_b\tbasis\talign_length", "a-1\tb-1\tchar-prefix\t{}", read_manifest,
                 "expected sent_a, sent_b, basis and an integer length, tab-separated, got {line!r}"),
    "published": ("period\twork_id\tsplit\tsentences", "Classical\tw\ttrain\t{}",
                  load_published_assignment, "invalid literal for int() with base 10: {!r}"),
}


@pytest.mark.parametrize("cell", [" 1_0", "+3", "٣"], ids=["space-underscore", "plus", "arabic-indic"])
@pytest.mark.parametrize("table", sorted(_INTEGER_TABLES))
def test_every_tsv_input_reads_integers_by_one_rule(tmp_path, table, cell):
    header, row, read, message = _INTEGER_TABLES[table]
    path = tmp_path / "table.tsv"
    path.write_text(f"{header}\n{row.format('3')}\n", encoding="utf-8")
    read(path)
    path.write_text(f"{header}\n{row.format(cell)}\n", encoding="utf-8")
    with pytest.raises(ValueError) as raised:
        read(path)
    expected = message.format(cell, line=row.format(cell))
    assert str(raised.value) == f"{path} line 2: {expected}"
