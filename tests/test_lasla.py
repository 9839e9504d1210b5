import pytest

from latintb.cli import main
from latintb.conllu import ColumnMapping, CorpusReader, MappingError, ParseError
from latintb.lasla import DEFAULT_LASLA_MAPPING, ingest_lasla_file

SAMPLE = """\
# sent_id = w-s1
1\tpuella\tpuella\tNOUN\t_\tCase=Nom|Gender=Fem,Masc,Neut|Number=Sing\t_\t_\t_\t_
2\tamant\tamo\tVERB\t_\tMood=Ind|Number=Plural|Person=3|Tense=Pres|Voice=Act\t_\t_\t_\t_
3\tgaudet\tgaudeo\tVERB\t_\t_\t_\t_\t_\t_
"""


def ingest(text, mapping=DEFAULT_LASLA_MAPPING, stem="w"):
    """The sentences and the unknown-value counts of one LASLA text."""
    reader = CorpusReader(mapping)
    return reader.read(text, stem=stem), reader.unknown_values


def test_multi_value_gender_survives():
    sentences, _ = ingest(SAMPLE)
    token = sentences[0].tokens[0]
    assert token.feats.get("Gender") == ("Fem", "Masc", "Neut")


def test_plural_renamed_to_plur():
    sentences, _ = ingest(SAMPLE)
    token = sentences[0].tokens[1]
    assert token.feats.get("Number") == ("Plur",)


def test_empty_feats_cell_is_empty_bundle():
    sentences, _ = ingest(SAMPLE)
    assert len(sentences[0].tokens[2].feats) == 0


def test_work_id_from_provenance():
    [sentence], _ = ingest(SAMPLE.replace("# sent_id = w-s1\n", ""), stem="opus")
    assert sentence.work_id == "opus"
    assert sentence.sent_id == "opus-1"


def test_mapping_requires_mandatory_fields():
    with pytest.raises(MappingError, match="mandatory field"):
        ColumnMapping(columns={"form": 0, "lemma": 1, "upos": 2})


@pytest.mark.parametrize("n_columns", [6, 8, 10])
def test_default_columns_are_the_fields_that_fit(n_columns):
    fields = ("id", "form", "lemma", "upos", "xpos", "feats", "head", "deprel", "deps", "misc")
    assert ColumnMapping(n_columns=n_columns).columns == {
        name: i for i, name in enumerate(fields[:n_columns])
    }


@pytest.mark.parametrize("n_columns", [4, 5])
def test_default_columns_below_six_leave_feats_unmapped(n_columns):
    with pytest.raises(MappingError, match="^mandatory field 'feats' has no column assignment$"):
        ColumnMapping(n_columns=n_columns)


@pytest.mark.parametrize("index", [-1, 10, 12])
def test_mapping_rejects_a_column_outside_the_row(index):
    columns = dict(DEFAULT_LASLA_MAPPING.columns, feats=index)
    with pytest.raises(MappingError, match=f"column {index} of field 'feats'"):
        ColumnMapping(columns=columns)


def test_value_renames_must_be_injective():
    with pytest.raises(MappingError, match="not injective"):
        ColumnMapping(value_renames={"Number": {"Plural": "Plur", "Dual": "Plur"}})


def test_unknown_values_counted_not_dropped():
    mapping = ColumnMapping(
        value_renames={"Number": {"Plural": "Plur"}},
        known_values={"Number": frozenset({"Sing", "Plur"})},
    )
    text = "1\tx\tx\tNOUN\t_\tNumber=Dualis\t_\t_\t_\t_\n"
    sentences, unknown = ingest(text, mapping)
    assert unknown[("Number", "Dualis")] == 1
    assert sentences[0].tokens[0].feats.get("Number") == ("Dualis",)


def test_repeated_feats_share_a_bundle_and_count_every_unknown_value():
    text = "".join(
        f"{i}\tx\tx\tNOUN\t_\tCase=Erg|Number=Plural\t_\t_\t_\t_\n" for i in (1, 2, 3)
    )
    sentences, unknown = ingest(text)
    tokens = sentences[0].tokens
    assert tokens[0].feats is tokens[1].feats is tokens[2].feats
    assert tokens[0].feats.get("Number") == ("Plur",)
    assert unknown == {("Case", "Erg"): 3}


def test_default_mapping_warns_on_out_of_inventory_values():
    text = (
        "1\tx\tx\tNOUN\t_\tCase=Erg\t_\t_\t_\t_\n"
        "2\ty\ty\tNOUN\t_\tPronType=Emp\t_\t_\t_\t_\n"
    )
    _, unknown = ingest(text)
    assert unknown[("Case", "Erg")] == 1
    # features without a declared inventory pass silently
    assert ("PronType", "Emp") not in unknown


def test_fixture_corpus_ingests_without_warnings(fixtures_dir):
    for path in sorted((fixtures_dir / "lasla").glob("*.conllu")):
        reader = CorpusReader(DEFAULT_LASLA_MAPPING)
        assert reader.read_file(path) == ingest_lasla_file(path)
        assert not reader.unknown_values, (path, reader.unknown_values)


def test_never_fabricates_values(fixtures_dir, lasla_corpus):
    # every ingested value is a source value or a configured rename target
    source_values = set()
    for path in (fixtures_dir / "lasla").glob("*.conllu"):
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line or line.startswith("#"):
                continue
            feats = line.split("\t")[5]
            if feats == "_":
                continue
            for item in feats.split("|"):
                source_values.update(item.split("=", 1)[1].split(","))
    rename_targets = {
        (feature, new)
        for feature, table in DEFAULT_LASLA_MAPPING.value_renames.items()
        for new in table.values()
    }
    for sentence in lasla_corpus:
        for token in sentence.tokens:
            for name, values in token.feats.items():
                for value in values:
                    assert value in source_values or (name, value) in rename_targets


def test_columnar_variant_mapping():
    mapping = ColumnMapping(
        columns={"form": 0, "lemma": 1, "upos": 2, "feats": 3},
        n_columns=4,
        separator="\t",
    )
    text = "amat\tamo\tVERB\tMood=Ind|Tense=Pres\n"
    sentences, _ = ingest(text, mapping, stem="col")
    token = sentences[0].tokens[0]
    assert token.form == "amat"
    assert token.id == 1
    assert token.feats.get("Mood") == ("Ind",)


def test_order_and_segmentation_preserved(fixtures_dir, lasla_corpus):
    raw = (fixtures_dir / "lasla" / "lasla_alpha.conllu").read_text(encoding="utf-8")
    blocks = [b for b in raw.split("\n\n") if b.strip()]
    from_file = [s for s in lasla_corpus if s.work_id == "lasla_alpha"]
    assert len(from_file) == len(blocks)
    for sentence, block in zip(from_file, blocks):
        token_lines = [l for l in block.splitlines() if not l.startswith("#")]
        assert [t.form for t in sentence.tokens] == [
            l.split("\t")[1] for l in token_lines
        ]


def test_wrong_column_count_is_parse_error():
    with pytest.raises(ParseError, match="expected 10 columns"):
        ingest("1\tonly\tthree\n")


def test_feature_rename_applied():
    mapping = ColumnMapping(feature_renames={"Genus": "Gender"})
    text = "1\tx\tx\tNOUN\t_\tGenus=Fem\t_\t_\t_\t_\n"
    sentences, _ = ingest(text, mapping)
    assert sentences[0].tokens[0].feats.get("Gender") == ("Fem",)


def _convert_lasla(tmp_path, text, *options):
    """The token rows that ``convert --flavor lasla`` writes for one file."""
    source = tmp_path / "in"
    source.mkdir()
    (source / "w.conllu").write_text(text)
    assert main(["convert", "--in", str(source), "--flavor", "lasla",
                 "--out", str(tmp_path / "out"), *options]) == 0
    return [line.split("\t") for line in (tmp_path / "out" / "w.conllu").read_text().splitlines()
            if line and not line.startswith("#")]


SYNTAX = (
    "# sent_id = w-s1\n"
    "1\tpuella\tpuella\tNOUN\t_\tCase=Nom|Gender=Fem|Number=Sing\t2\tnsubj\t2:nsubj\t_\n"
    "2\tcantat\tcanto\tVERB\t_\tMood=Ind|Number=Sing|Person=3|Tense=Pres|Voice=Act"
    "\t0\troot\t0:root\tSpaceAfter=No\n"
)
# HEAD, DEPREL, DEPS and MISC of its two tokens
SYNTAX_COLUMNS = [["2", "nsubj", "2:nsubj", "_"], ["0", "root", "0:root", "SpaceAfter=No"]]


def test_convert_keeps_lasla_syntax_and_misc(tmp_path):
    assert [row[6:] for row in _convert_lasla(tmp_path, SYNTAX)] == SYNTAX_COLUMNS


def test_a_config_mapping_without_columns_keeps_lasla_syntax_and_misc(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"lasla_mapping": {"value_renames": {"Number": {"Plural": "Plur"}}}}')
    rows = _convert_lasla(tmp_path, SYNTAX, "--config", str(config))
    assert [row[6:] for row in rows] == SYNTAX_COLUMNS


def test_convert_keeps_traditional_misc_keys_that_lasla_does_not_read(tmp_path):
    text = SYNTAX.replace("SpaceAfter=No", "TraditionalMood=Sub|SpaceAfter=No")
    rows = _convert_lasla(tmp_path, text)
    assert rows[1][9] == "TraditionalMood=Sub|SpaceAfter=No"
    # the mood still comes from FEATS
    assert "Mood=Ind" in rows[1][5]
