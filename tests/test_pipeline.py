import pytest

from latintb.pipeline import convert_corpus, load_corpus


def test_unknown_flavor_is_rejected(fixtures_dir, ud_corpus):
    with pytest.raises(ValueError, match="unknown flavor 'bogus'"):
        load_corpus(fixtures_dir / "ud", "bogus")
    with pytest.raises(ValueError, match="unknown flavor 'bogus'"):
        convert_corpus(ud_corpus[:1], "bogus")


def test_lasla_unknown_values_are_summed_over_files(fixtures_dir, tmp_path):
    for name in ("a", "b"):
        (tmp_path / f"{name}.conllu").write_text("1\tx\tx\tNOUN\t_\tCase=Erg\t_\t_\t_\t_\n")
    (tmp_path / "skipped.txt").write_text("not read\n")
    sentences, unknown = load_corpus(tmp_path, "lasla")
    assert [s.work_id for s in sentences] == ["a", "b"]
    assert unknown == {("Case", "Erg"): 2}
