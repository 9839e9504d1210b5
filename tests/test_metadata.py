import re

import pytest

from latintb.cli import main
from latintb.metadata import (
    PERIOD_BIBLE,
    PERIOD_CLASSICAL,
    PERIOD_POST_CLASSICAL,
    MetadataError,
    PeriodError,
    TextMetadata,
    assign_time_period,
    load_metadata,
    read_metadata,
    validate_metadata,
)


def meta(**kwargs):
    defaults = dict(
        treebank="Perseus", work_id="w", author="A", century=-1,
        is_bible=False, genres=frozenset({"speech"}),
        train_sents=10, dev_sents=0, test_sents=0,
    )
    defaults.update(kwargs)
    return TextMetadata(**defaults)


def test_classical_assignment():
    assert assign_time_period(meta(century=-1)) == PERIOD_CLASSICAL
    assert assign_time_period(meta(century=-3)) == PERIOD_CLASSICAL
    assert assign_time_period(meta(century=2)) == PERIOD_CLASSICAL


def test_bible_assignment():
    vulgata = meta(century=4, is_bible=True, genres=frozenset({"Bible", "Christian"}))
    assert assign_time_period(vulgata) == PERIOD_BIBLE


def test_post_classical_assignment():
    assert assign_time_period(meta(century=4)) == PERIOD_POST_CLASSICAL
    assert assign_time_period(meta(century=14)) == PERIOD_POST_CLASSICAL


def test_third_century_is_an_error():
    with pytest.raises(PeriodError, match="3rd-century"):
        assign_time_period(meta(century=3))


def test_valid_fixture_table_has_no_violations(fixtures_dir):
    rows = read_metadata(fixtures_dir / "metadata.tsv")
    assert validate_metadata(rows) == []


def test_duplicate_work_id_flagged():
    rows = [meta(work_id="dup"), meta(work_id="dup")]
    codes = [v.code for v in validate_metadata(rows)]
    assert "duplicate-work" in codes


def test_exclusive_genres_cannot_cooccur():
    rows = [meta(genres=frozenset({"epic", "short poem", "poem"}))]
    codes = [v.code for v in validate_metadata(rows)]
    assert "multiple-exclusive-genres" in codes
    assert "epic-and-short-poem" in codes


def test_bible_genre_requires_christian():
    rows = [meta(genres=frozenset({"Bible"}))]
    codes = [v.code for v in validate_metadata(rows)]
    assert "bible-without-christian" in codes


def test_century_bounds():
    for bad in (0, -4, 15):
        codes = [v.code for v in validate_metadata([meta(century=bad)])]
        assert "century-out-of-range" in codes


def test_unknown_genre_flagged():
    codes = [v.code for v in validate_metadata([meta(genres=frozenset({"novel"}))])]
    assert "unknown-genre" in codes


def test_count_crosscheck(ud_corpus):
    counts = {}
    for sentence in ud_corpus:
        counts[sentence.work_id] = counts.get(sentence.work_id, 0) + 1
    good = [meta(work_id="cl_alpha", train_sents=counts["cl_alpha"])]
    assert validate_metadata(good, corpus_counts=counts) == []
    bad = [meta(work_id="cl_alpha", train_sents=counts["cl_alpha"] + 1)]
    codes = [v.code for v in validate_metadata(bad, corpus_counts=counts)]
    assert "count-mismatch" in codes


HEADER = "treebank\twork_id\tauthor\tcentury\tis_bible\tgenres\ttrain_sents\tdev_sents\ttest_sents"


@pytest.mark.parametrize("row, line", [
    ("Other\tw\tA\t-1\tfalse\tspeech\t1\t0\t0",
     "w\tunknown-treebank\ttreebank 'Other' not recognized"),
    ("Perseus\tw\tA\t-1\tfalse\tspeech\t1\t-1\t0",
     "w\tnegative-count\tsentence counts must be non-negative"),
], ids=["unknown-treebank", "negative-count"])
def test_metadata_validate_lists_a_violation(tmp_path, capsys, row, line):
    table = tmp_path / "meta.tsv"
    table.write_text(f"{HEADER}\n{row}\n")
    assert main(["metadata-validate", "--file", str(table)]) == 1
    assert capsys.readouterr() == (f"{line}\n", "1 violation\n")


def test_strict_load_raises(tmp_path):
    table = tmp_path / "meta.tsv"
    table.write_text(HEADER + "\nPerseus\tw\tA\t0\tfalse\tspeech\t1\t0\t0\n")
    message = "1 metadata violation (w: century-out-of-range ...)"
    with pytest.raises(MetadataError, match=f"^{re.escape(message)}$"):
        load_metadata(table)


def test_strict_load_counts_its_violations(tmp_path):
    table = tmp_path / "meta.tsv"
    table.write_text(HEADER + "\nPerseus\tw\tA\t0\tfalse\tspeech\t1\t0\t0"
                     "\nPerseus\tv\tA\t-1\tfalse\tspeech\t1\t-1\t0\n")
    message = "2 metadata violations (w: century-out-of-range; v: negative-count ...)"
    with pytest.raises(MetadataError, match=f"^{re.escape(message)}$"):
        load_metadata(table)


def test_bad_header_rejected(tmp_path):
    table = tmp_path / "meta.tsv"
    table.write_text("wrong\theader\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(table))} line 1: expected header"):
        load_metadata(table)


@pytest.mark.parametrize(
    "row, message",
    [
        ("Perseus\tw\tA\t-1\tfalse\tspeech\t1\t0", "expected 9 columns, got 8"),
        ("Perseus\tw\tA\tI BCE\tfalse\tspeech\t1\t0\t0", "invalid literal for int"),
        ("Perseus\tw\tA\t-1\tyes\tspeech\t1\t0\t0", "is_bible must be true or false, got 'yes'"),
        ("Perseus\tw\tA\t-1\tTrue\tspeech\t1\t0\t0", "is_bible must be true or false, got 'True'"),
    ],
    ids=["short-row", "bad-integer", "is-bible-yes", "is-bible-capitalized"],
)
def test_bad_row_error_names_file_and_line(tmp_path, row, message):
    table = tmp_path / "meta.tsv"
    # the comment and the blank line count: the bad row is file line 5
    table.write_text(f"# works\n{HEADER}\n\nPerseus\tv\tA\t-1\tfalse\tspeech\t1\t0\t0\n{row}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(table))} line 5: {message}"):
        read_metadata(table)
