import re
import shutil
from collections import Counter

import pytest

from latintb.cli import main
from latintb.metadata import (
    PERIOD_BIBLE,
    PERIOD_CLASSICAL,
    PERIOD_POST_CLASSICAL,
    MetadataError,
    PeriodError,
    TextMetadata,
    Violation,
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


def test_every_corpus_work_needs_a_row_when_rows_are_required(fixtures_dir, ud_corpus):
    rows = read_metadata(fixtures_dir / "metadata.tsv")
    counts = Counter(sentence.work_id for sentence in ud_corpus)
    assert validate_metadata(rows, corpus_counts=counts, require_rows=True) == []
    kept = [row for row in rows if row.work_id not in ("cl_beta", "bible_mark")]
    assert validate_metadata(kept, corpus_counts=counts) == []
    # the missing rows follow the row checks, in sorted order
    assert validate_metadata([*kept, meta(century=0)], corpus_counts=counts, require_rows=True) == [
        Violation("w", "century-out-of-range", "century 0 outside 3rd BCE..14th CE"),
        Violation("bible_mark", "missing-row", "corpus has 70 sentences, table has no row"),
        Violation("cl_beta", "missing-row", "corpus has 60 sentences, table has no row"),
    ]


def test_metadata_validate_flags_a_corpus_work_without_a_row(fixtures_dir, tmp_path, capsys):
    corpus = tmp_path / "ud"
    shutil.copytree(fixtures_dir / "ud", corpus)
    alpha = (corpus / "cl_alpha.conllu").read_text(encoding="utf-8")
    (corpus / "cl_zeta.conllu").write_text(alpha.replace("cl_alpha", "cl_zeta"), encoding="utf-8")
    argv = ["metadata-validate", "--file", str(fixtures_dir / "metadata.tsv"), "--corpus", str(corpus)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("cl_zeta\tmissing-row\tcorpus has 60 sentences, table has no row\n",
                                   "1 violation\n")


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
