import json

import pytest

from latintb.config import ConfigError, ToolConfig
from latintb.conllu import CorpusReader, FeatureBundle, Token
from latintb.standardize import standardize_lasla


def test_defaults():
    config = ToolConfig.load(None)
    assert config.dedup_min_chars == 20
    assert config.dedup_min_tokens == 5
    assert config.min_test_sentences == 1000
    assert config.dev_fraction == 0.03
    assert config.config_hash == "default"


def test_load_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "dedup_min_chars": 12,
        "min_test_sentences": 30,
        "iri_window": 2,
        "lasla_mapping": {
            "columns": {"form": 0, "lemma": 1, "upos": 2, "feats": 3},
            "n_columns": 4,
            "value_renames": {"Number": {"Plural": "Plur"}},
        },
        "tense_table": {"Past,Prosp": "Fut"},
    }))
    config = ToolConfig.load(path)
    assert config.dedup_min_chars == 12
    assert config.min_test_sentences == 30
    assert config.iri_window == 2
    assert config.config_hash != "default"

    [sentence] = CorpusReader(config.lasla_mapping).read(
        "amabat\tamo\tVERB\tNumber=Plural|Tense=Past|Aspect=Prosp\n", stem="w")
    token = sentence.tokens[0]
    assert token.feats.get("Number") == ("Plur",)
    assert standardize_lasla(token, tense_table=config.tense_table).tense == "Fut"


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dedup_min_char": 12}))
    with pytest.raises(ConfigError, match="unknown config keys"):
        ToolConfig.load(path)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        ToolConfig.load(path)


def test_config_that_is_not_utf8_is_a_config_error_naming_the_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"dedup_min_chars": "\xff"}')
    with pytest.raises(ConfigError) as err:
        ToolConfig.load(path)
    assert str(err.value) == f"config {path}: not UTF-8 text (invalid start byte)"


def test_hash_stable_for_same_document(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text('{"dedup_min_chars": 9, "dedup_min_tokens": 3}')
    b.write_text('{"dedup_min_tokens": 3, "dedup_min_chars": 9}')
    assert ToolConfig.load(a).config_hash == ToolConfig.load(b).config_hash


def test_a_byte_order_mark_reads_as_if_absent(tmp_path):
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text('{"min_test_sentences": 30}', encoding="utf-8")
    marked.write_text('{"min_test_sentences": 30}', encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    a, b = ToolConfig.load(marked), ToolConfig.load(plain)
    assert a.min_test_sentences == b.min_test_sentences == 30
    assert a.config_hash == b.config_hash != "default"


def test_tense_table_override_on_standardize():
    config = ToolConfig.from_dict({"tense_table": {"Fut,Imp": "FutP"}})
    token = Token(id=1, form="x", lemma="x", upos="VERB",
                  feats=FeatureBundle.from_dict({"Tense": "Fut", "Aspect": "Imp"}))
    assert standardize_lasla(token, tense_table=config.tense_table).tense == "FutP"


def test_bad_tense_override_rejected():
    with pytest.raises(ConfigError, match="unknown pair"):
        ToolConfig.from_dict({"tense_table": {"Never,Ever": "Fut"}})


@pytest.mark.parametrize("table", [["Fut,Imp"], "x", {"Fut,Imp": 3}, {"Fut,Imp": ["Fut"]}])
def test_tense_table_must_be_an_object_of_strings_or_nulls(table):
    with pytest.raises(ConfigError, match="^tense_table must be a JSON object of strings or nulls, got "):
        ToolConfig.from_dict({"tense_table": table})


def test_tense_table_override_to_null_is_kept():
    table = ToolConfig.from_dict({"tense_table": {"Pres,Imp": None}}).tense_table
    assert table.lookup("Pres", "Imp") is None


@pytest.mark.parametrize(
    "data, message",
    [
        ({"atomicity_exceptions": "cl_"}, 'atomicity_exceptions must be a JSON array of strings, got "cl_"'),
        ({"atomicity_exceptions": ["cl_", 3]}, "atomicity_exceptions must be a JSON array of strings"),
        ({"pronoun_person_repair": "false"}, 'pronoun_person_repair must be true or false, got "false"'),
        ({"include_upos_in_string": 1}, "include_upos_in_string must be true or false, got 1"),
        ({"legality_rules": "PRON_MISSING_NOMINAL_FEATS"}, "legality_rules must be a JSON array of strings"),
        ({"legality_rules": ["PRON_MISSING_NOMINAL_FEATS", "NO_SUCH_RULE"]},
         r"legality_rules names unknown rules \['NO_SUCH_RULE'\]"),
        (5, "config must be a JSON object, got 5"),
        (["dedup_min_chars"], "config must be a JSON object"),
        ({"dedup_min_chars": True}, "dedup_min_chars must be a JSON integer >= 1, got true"),
        ({"dedup_min_chars": 20.9}, "dedup_min_chars must be a JSON integer >= 1, got 20.9"),
        ({"dedup_min_chars": 0}, "dedup_min_chars must be a JSON integer >= 1, got 0"),
        ({"dedup_min_tokens": "5"}, 'dedup_min_tokens must be a JSON integer >= 1, got "5"'),
        ({"min_test_sentences": -1}, "min_test_sentences must be a JSON integer >= 0, got -1"),
        ({"dev_fraction": "0.1"}, r'dev_fraction must be a JSON number in \[0, 1\], got "0.1"'),
        ({"dev_fraction": 2}, r"dev_fraction must be a JSON number in \[0, 1\], got 2"),
        ({"dev_fraction": -0.5}, r"dev_fraction must be a JSON number in \[0, 1\], got -0.5"),
        ({"dev_fraction": False}, r"dev_fraction must be a JSON number in \[0, 1\], got false"),
        ({"iri_window": 3.7}, 'iri_window must be "sentence" or a JSON integer >= 0, got 3.7'),
        ({"iri_window": True}, 'iri_window must be "sentence" or a JSON integer >= 0, got true'),
        ({"iri_window": "3"}, 'iri_window must be "sentence" or a JSON integer >= 0, got "3"'),
        ({"lasla_mapping": [1, 2]}, r"lasla_mapping must be a JSON object, got \[1, 2\]"),
        ({"lasla_mapping": {"column": {}}}, r"unknown lasla_mapping keys: \['column'\]"),
        ({"lasla_mapping": {"columns": [1, 2]}},
         r"lasla_mapping.columns must be a JSON object of integers, got \[1, 2\]"),
        ({"lasla_mapping": {"columns": {"form": 1, "lemma": 2, "upos": 3, "feats": True}}},
         "lasla_mapping.columns must be a JSON object of integers, got {.*\"feats\": true}"),
        ({"lasla_mapping": {"columns": {"form": 1, "lemma": 2, "upos": 3, "feats": 5.0}}},
         "lasla_mapping.columns must be a JSON object of integers"),
        ({"lasla_mapping": {"n_columns": "10"}}, 'lasla_mapping.n_columns must be a JSON integer, got "10"'),
        ({"lasla_mapping": {"n_columns": True}}, "lasla_mapping.n_columns must be a JSON integer, got true"),
        ({"lasla_mapping": {"separator": ""}}, 'lasla_mapping.separator must be a non-empty string, got ""'),
        ({"lasla_mapping": {"separator": 9}}, "lasla_mapping.separator must be a non-empty string, got 9"),
        ({"lasla_mapping": {"feature_renames": {"Num": 1}}},
         'lasla_mapping.feature_renames must be a JSON object of strings, got {"Num": 1}'),
        ({"lasla_mapping": {"value_renames": {"Number": "Plur"}}},
         'lasla_mapping.value_renames must be a JSON object of objects of strings, got {"Number": "Plur"}'),
        ({"lasla_mapping": {"known_values": {"Case": "Nom"}}},
         'lasla_mapping.known_values must be null or a JSON object of string arrays, got {"Case": "Nom"}'),
        ({"lasla_mapping": {"known_values": {"Case": ["Nom", 1]}}},
         "lasla_mapping.known_values must be null or a JSON object of string arrays"),
    ],
    ids=["string-for-array", "number-in-array", "string-for-bool", "number-for-bool",
         "rule-string-for-array", "unknown-rule", "number-for-object", "array-for-object",
         "bool-for-int", "float-for-int", "zero-min-chars", "string-for-int", "negative-min-test",
         "string-for-fraction", "fraction-above-one", "negative-fraction", "bool-for-fraction",
         "float-for-window", "bool-for-window", "string-number-for-window",
         "mapping-array-for-object", "mapping-unknown-key", "mapping-columns-array",
         "mapping-bool-column", "mapping-float-column", "mapping-string-n-columns",
         "mapping-bool-n-columns", "mapping-empty-separator", "mapping-number-separator",
         "mapping-number-feature-rename", "mapping-string-value-renames",
         "mapping-string-known-values", "mapping-number-in-known-values"],
)
def test_values_of_the_wrong_json_type_are_rejected(data, message):
    with pytest.raises(ConfigError, match=message):
        ToolConfig.from_dict(data)


def test_well_typed_values_are_kept():
    config = ToolConfig.from_dict({
        "atomicity_exceptions": ["cl_"],
        "pronoun_person_repair": False,
        "include_upos_in_string": True,
        "legality_rules": ["PRON_MISSING_NOMINAL_FEATS"],
        "dedup_min_chars": 1,
        "dedup_min_tokens": 3,
        "min_test_sentences": 0,
        "dev_fraction": 1,
        "iri_window": 0,
    })
    assert (config.dedup_min_chars, config.dedup_min_tokens, config.min_test_sentences) == (1, 3, 0)
    assert config.dev_fraction == 1.0 and isinstance(config.dev_fraction, float)
    assert config.iri_window == 0
    assert ToolConfig.from_dict({"dev_fraction": 0.1, "iri_window": "sentence"}).dev_fraction == 0.1
    assert config.atomicity_exceptions == ("cl_",)
    assert config.pronoun_person_repair is False
    assert config.include_upos_in_string is True
    assert config.legality_rules == ("PRON_MISSING_NOMINAL_FEATS",)
