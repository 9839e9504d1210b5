import codecs
import io
import re

import pytest
from hypothesis import example, given, strategies as st

from latintb.cli import main
from latintb.conllu import (
    CONLLU_MAPPING,
    ColumnMapping,
    ConlluError,
    CorpusReader,
    FeatureBundle,
    ParseError,
    Sentence,
    StructureError,
    Token,
    parse_conllu,
    parse_conllu_file,
    serialize_conllu,
    serialize_sentence,
)
from latintb.lasla import DEFAULT_LASLA_MAPPING, ingest_lasla_file
from latintb.pipeline import load_corpus

ARMA = "1\tarma\tarma\tNOUN\t_\tCase=Acc|Number=Plur\t_\t_\t_\t_"


def _feats(raw: str) -> FeatureBundle:
    """The bundle the reader makes of one raw FEATS cell."""
    return parse_conllu(f"1\tx\tx\tNOUN\t_\t{raw}\t_\t_\t_\t_\n")[0].tokens[0].feats


def test_parse_single_token_line():
    sentences = parse_conllu(f"# sent_id = x\n{ARMA}\n")
    token = sentences[0].tokens[0]
    assert token.id == 1
    assert token.form == "arma"
    assert token.upos == "NOUN"
    assert token.feats.get("Case") == ("Acc",)
    assert token.feats.get("Number") == ("Plur",)


def test_multi_value_gender_parses():
    bundle = _feats("Gender=Fem,Masc")
    assert bundle.get("Gender") == ("Fem", "Masc")


def test_feature_bundle_canonical_order():
    bundle = FeatureBundle([("Number", ["Sing"]), ("Case", ["Nom"])])
    assert bundle.to_string() == "Case=Nom|Number=Sing"


def test_empty_bundle_serializes_to_underscore():
    assert FeatureBundle().to_string() == "_"


def test_misc_round_trips_traditional_mood():
    token = Token(id=1, form="x", lemma="x", upos="NOUN", misc=(("TraditionalMood", "Ind"),))
    sentence = Sentence(sent_id="s", tokens=(token,))
    assert "TraditionalMood=Ind" in serialize_conllu([sentence])


def test_token_is_an_immutable_record_that_checks_its_fields():
    token = Token(id=1, form="x", lemma="x", upos="NOUN")
    with pytest.raises(AttributeError):
        token.form = "y"
    assert (token.feats, token.xpos, token.head, token.deprel, token.deps, token.misc) == (
        FeatureBundle(), None, None, None, None, ())
    assert serialize_conllu([Sentence("s", (token,))]) == "# sent_id = s\n1\tx\tx\tNOUN\t_\t_\t_\t_\t_\t_\n"
    same = Token(1, "x", "x", "NOUN", FeatureBundle(), None, None, None, None, ())
    assert same == token and hash(same) == hash(token)
    assert token._replace(form="y") != token
    with pytest.raises(StructureError, match=r"^token id must be >= 1, got 0$"):
        Token(id=0, form="x", lemma="x", upos="NOUN")
    with pytest.raises(StructureError, match=r"^token id must be >= 1, got 0$"):
        token._replace(id=0)
    with pytest.raises(ParseError, match=r"^duplicate MISC key 'Ref'$"):
        Token(id=1, form="x", lemma="x", upos="NOUN",
              misc=(("Ref", "a"), ("Gloss", None), ("Ref", None)))


def test_roundtrip_fixture_bytes_and_fields(fixtures_dir):
    text = (fixtures_dir / "roundtrip.conllu").read_text(encoding="utf-8")
    first = parse_conllu(text)
    assert len(first) == 200
    serialized = serialize_conllu(first)
    assert serialized == text
    second = parse_conllu(serialized)
    assert len(second) == len(first)
    for a, b in zip(first, second):
        assert a.tokens == b.tokens
        assert a.comments == b.comments
        assert a.extras == b.extras


def test_counts_preserved_by_roundtrip(fixtures_dir):
    text = (fixtures_dir / "roundtrip.conllu").read_text(encoding="utf-8")
    sentences = parse_conllu(text)
    again = parse_conllu(serialize_conllu(sentences))
    assert [len(s.tokens) for s in again] == [len(s.tokens) for s in sentences]


def test_bad_column_count_reports_line_number():
    with pytest.raises(ParseError, match="line 2.*expected 10 columns"):
        parse_conllu("# sent_id = s1\n1\tbroken\tline\n")


def test_non_monotonic_ids_report_sentence_id():
    bad = "# sent_id = s9\n" + ARMA + "\n" + ARMA + "\n"
    with pytest.raises(StructureError, match="s9"):
        parse_conllu(bad)


def test_unknown_upos_rejected():
    with pytest.raises(ParseError, match="UPOS"):
        parse_conllu("1\tx\tx\tNOPE\t_\t_\t_\t_\t_\t_\n")


def test_duplicate_misc_key_rejected():
    line = "1\tx\tx\tNOUN\t_\t_\t_\t_\t_\tRef=a|Ref=b"
    with pytest.raises(ParseError, match="duplicate MISC key"):
        parse_conllu(line + "\n")


def test_empty_feature_value_rejected():
    with pytest.raises(ParseError):
        parse_conllu("1\tx\tx\tNOUN\t_\tCase=\t_\t_\t_\t_\n")


def test_duplicate_feature_rejected():
    with pytest.raises(ParseError, match="duplicate feature"):
        parse_conllu("1\tx\tx\tNOUN\t_\tCase=Acc|Case=Nom\t_\t_\t_\t_\n")


def test_multiword_and_empty_node_lines_pass_through():
    text = (
        "# sent_id = s1\n"
        "1-2\tdello\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tde\tde\tADP\t_\t_\t_\t_\t_\t_\n"
        "2\tlo\tlo\tDET\t_\t_\t_\t_\t_\t_\n"
        "2.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_\n"
    )
    sentences = parse_conllu(text)
    assert len(sentences[0].tokens) == 2
    assert sentences[0].extras == ((0, "1-2\tdello\t_\t_\t_\t_\t_\t_\t_\t_"),
                                   (2, "2.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_"))
    assert serialize_conllu(sentences) == text


def test_parse_accepts_stream():
    stream = io.StringIO(f"# sent_id = s1\n{ARMA}\n")
    assert len(parse_conllu(stream)) == 1


_name = st.text(alphabet="ABCDEFabcdef", min_size=1, max_size=6)
_value = st.text(alphabet="ABCXYZabcxyz123", min_size=1, max_size=5)
_bundles = st.dictionaries(_name, st.lists(_value, min_size=1, max_size=3, unique=True), max_size=5)


@given(_bundles, st.randoms())
def test_bundle_serialization_is_insertion_order_free(mapping, rnd):
    entries = list(mapping.items())
    shuffled = entries[:]
    rnd.shuffle(shuffled)
    assert FeatureBundle(entries).to_string() == FeatureBundle(shuffled).to_string()


@given(_bundles)
def test_bundle_parse_serialize_identity_on_canonical_form(mapping):
    bundle = FeatureBundle(mapping.items())
    canonical = bundle.to_string()
    assert _feats(canonical).to_string() == canonical
    assert _feats(canonical) == bundle


def _canonical_items(bundle):
    """The bundle's identity before it kept one canonical string: features
    sorted case-insensitively, each with its values sorted."""
    return tuple(
        (name, tuple(sorted(values)))
        for name, values in sorted(bundle.items(), key=lambda e: (e[0].lower(), e[0]))
    )


def _reordered(mapping, rnd):
    entries = [(name, rnd.sample(values, len(values))) for name, values in mapping.items()]
    rnd.shuffle(entries)
    return entries


@given(_bundles, _bundles, st.randoms())
def test_bundle_equality_and_hash_follow_the_canonical_items(a, b, rnd):
    bundles = [FeatureBundle(a.items()), FeatureBundle(_reordered(a, rnd)), FeatureBundle(b.items())]
    for x in bundles:
        assert x.names() == tuple(name for name, _ in x.items())
        for y in bundles:
            assert (x == y) == (_canonical_items(x) == _canonical_items(y))
            if x == y:
                assert hash(x) == hash(y)
    assert bundles[0] == bundles[1]


def test_repeated_malformed_feats_raise_at_each_line():
    good, bad = "Case=Acc", "Case=Acc|Case=Nom"
    feats = [good, bad, good, bad, bad]
    for first_bad in [i for i, f in enumerate(feats, start=1) if f == bad]:
        # earlier copies of the malformed string are repaired, later ones kept
        lines = [
            f"{i}\tx\tx\tNOUN\t_\t{good if f == bad and i < first_bad else f}\t_\t_\t_\t_"
            for i, f in enumerate(feats, start=1)
        ]
        text = "# sent_id = s\n" + "\n".join(lines) + "\n"
        # token i sits on line i + 1, after the comment
        for _ in range(2):
            with pytest.raises(ParseError, match=f"line {first_bad + 1} .*duplicate feature"):
                parse_conllu(text)


# The block reader is shared by both flavors, so each behaviour it owns
# is checked through both of them.
FLAVORS = pytest.mark.parametrize("flavor", ["ud", "lasla"])


MAPPINGS = {"ud": CONLLU_MAPPING, "lasla": DEFAULT_LASLA_MAPPING}


def _read(flavor, text):
    return CorpusReader(MAPPINGS[flavor]).read(text, stem="w")


@FLAVORS
def test_comment_only_block_fails_at_its_closing_line(flavor):
    head = f"# sent_id = s1\n{ARMA}\n\n# sent_id = s2\n"
    with pytest.raises(ParseError, match="^line 5: sentence block without token lines$"):
        _read(flavor, head + "\n")
    # at the end of the input, the last line closes the block, with or
    # without a final newline
    for text in (head, head.rstrip("\n")):
        with pytest.raises(ParseError, match="^line 4: sentence block without token lines$"):
            _read(flavor, text)


@FLAVORS
def test_wrong_column_count_names_line_and_sentence(flavor):
    text = f"# sent_id = s1\n{ARMA}\n\n# sent_id = s2\n{ARMA}\n2\tbroken\tline\n"
    with pytest.raises(
        ParseError, match=r"^line 6 \(sentence 's2'\): expected 10 columns, got 3$"
    ):
        _read(flavor, text)


@FLAVORS
@pytest.mark.parametrize("ending", ["", "\n", "\n\n\n"])
def test_last_block_is_read_whatever_the_file_ending(flavor, ending):
    text = f"# sent_id = s1\n{ARMA}\n\n\n# sent_id = s2\n{ARMA}{ending}"
    assert [s.sent_id for s in _read(flavor, text)] == ["s1", "s2"]


@FLAVORS
def test_token_error_line_counts_comment_and_blank_lines(flavor):
    bad = ARMA.replace("NOUN", "NOPE")
    text = f"# sent_id = s1\n{ARMA}\n\n\n# sent_id = s2\n# text = arma\n{bad}\n"
    with pytest.raises(
        ParseError, match=r"^line 7 \(sentence 's2'\): unknown UPOS 'NOPE'$"
    ):
        _read(flavor, text)


@FLAVORS
def test_the_first_bad_line_in_file_order_is_named(flavor):
    bad_upos = ARMA.replace("NOUN", "NOPE")
    text = f"# sent_id = s1\n{bad_upos}\n2\tbroken\tline\n"
    with pytest.raises(ParseError, match=r"^line 2 \(sentence 's1'\): unknown UPOS 'NOPE'$"):
        _read(flavor, text)
    # a sent_id that follows the bad line is not yet known
    with pytest.raises(ParseError, match=r"^line 1 \(sentence None\): unknown UPOS 'NOPE'$"):
        _read(flavor, f"{bad_upos}\n# sent_id = late\n")


_COMMENTS = st.text(alphabet="ab =_", max_size=8).map(lambda body: "#" + body)
_FORMS = st.text(alphabet="abcxyz", min_size=1, max_size=5)
# a block: comment lines, then at least one token form, then comments
_BLOCKS = st.tuples(st.lists(_COMMENTS, max_size=3), st.lists(_FORMS, min_size=1, max_size=4),
                    st.lists(_COMMENTS, max_size=2))


@FLAVORS
@given(
    blocks=st.lists(_BLOCKS, min_size=1, max_size=5),
    blank_runs=st.lists(st.integers(min_value=1, max_value=3), min_size=5, max_size=5),
    final_newline=st.booleans(),
)
def test_sentences_are_the_blocks_between_blank_lines(flavor, blocks, blank_runs, final_newline):
    texts = []
    for before, forms, after in blocks:
        rows = [f"{i}\t{form}\t{form}\tNOUN\t_\t_\t_\t_\t_\t_" for i, form in enumerate(forms, 1)]
        texts.append("\n".join(before + rows + after))
    text = "".join(block + "\n" * (1 + run) for block, run in zip(texts, blank_runs))
    if not final_newline:
        text = text.rstrip("\n")
    # the oracle: a plain split on blank lines
    expected = [block.split("\n") for block in re.split(r"\n\n+", text.strip("\n"))]
    sentences = _read(flavor, text)
    assert [list(s.comments) for s in sentences] == [
        [line for line in block if line.startswith("#")] for block in expected
    ]
    assert [[t.form for t in s.tokens] for s in sentences] == [
        [line.split("\t")[1] for line in block if not line.startswith("#")] for block in expected
    ]


@FLAVORS
def test_work_id_comment_wins_over_newdoc_id(flavor):
    for head in ("# work_id = w1\n# newdoc id = d1\n", "# newdoc id = d1\n# work_id = w1\n"):
        [sentence] = _read(flavor, head + ARMA + "\n")
        assert sentence.work_id == "w1"


@FLAVORS
def test_newdoc_id_text_and_empty_cells_are_kept(flavor):
    text = (f"# newdoc id = d1\n# sent_id = s1\n# text = arma\n{ARMA}\n\n"
            f"# sent_id = s2\n{ARMA.replace('arma', '')}\n")
    first, second = _read(flavor, text)
    # the doc id carries over to the blocks that follow it
    assert [s.work_id for s in (first, second)] == ["d1", "d1"]
    assert [s.doc_id for s in (first, second)] == ["d1", "d1"]
    assert (first.text, second.text) == ("arma", None)
    assert (second.tokens[0].form, second.tokens[0].lemma) == ("", "")


@FLAVORS
def test_range_and_empty_node_lines_are_written_back_by_convert(flavor, tmp_path):
    text = (
        "# sent_id = s1\n"
        "1-2\tdello\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tde\tde\tADP\t_\t_\t_\t_\t_\t_\n"
        "2\tlo\tlo\tDET\t_\t_\t_\t_\t_\t_\n"
        "2.1\tnull\t_\t_\t_\t_\t_\t_\t_\t_\n"
    )
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "f.conllu").write_text(text)
    assert [t.form for t in _read(flavor, text)[0].tokens] == ["de", "lo"]
    assert main(["convert", "--in", str(tmp_path / "in"), "--flavor", flavor,
                 "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "f.conllu").read_text() == text


@FLAVORS
def test_sentences_without_ids_are_numbered_per_file_stem(flavor, tmp_path):
    (tmp_path / "a.conllu").write_text(f"{ARMA}\n\n{ARMA}\n")
    (tmp_path / "b.conllu").write_text(f"{ARMA}\n")
    sentences, _ = load_corpus(tmp_path, flavor)
    assert [s.sent_id for s in sentences] == ["a-1", "a-2", "b-1"]
    assert [s.work_id for s in sentences] == ["a", "a", "b"]


def test_a_sentence_with_comments_but_no_sent_id_keeps_its_id_when_written():
    (sentence,) = CorpusReader().read(f"# text = arma\n{ARMA}\n", stem="aeneid")
    assert sentence.sent_id == "aeneid-1"
    written = serialize_sentence(sentence)
    assert written == f"# sent_id = aeneid-1\n# text = arma\n{ARMA}\n"
    (again,) = CorpusReader().read(written, stem="test")
    assert (again.sent_id, again.text, again.tokens) == ("aeneid-1", "arma", sentence.tokens)
    # a comment that carries the key, however spaced, is the id line
    (spaced,) = CorpusReader().read(f"#sent_id=v1\n{ARMA}\n", stem="aeneid")
    assert serialize_sentence(spaced) == f"#sent_id=v1\n{ARMA}\n"


@pytest.mark.parametrize("final_newline", [True, False])
def test_crlf_text_parses_as_lf_text(fixtures_dir, final_newline):
    text = (fixtures_dir / "ud" / "cl_alpha.conllu").read_text(encoding="utf-8")
    text = text if final_newline else text.rstrip("\n")
    crlf = parse_conllu(text.replace("\n", "\r\n"))
    assert crlf == parse_conllu(text)
    assert all("\r" not in token.misc_string() for s in crlf for token in s.tokens)


@FLAVORS
@pytest.mark.parametrize("token_id", ["_", "x", "1a", "-1", "0"])
def test_a_bad_token_id_names_its_line(flavor, token_id):
    text = f"{ARMA}\n\n# sent_id = s1\n{token_id}{ARMA[1:]}\n"
    error = "token id must be >= 1, got 0" if token_id == "0" else f"bad token id '{token_id}'"
    with pytest.raises(ParseError, match=rf"^line 4 \(sentence 's1'\): {error}$"):
        _read(flavor, text)


@FLAVORS
def test_one_bundle_per_raw_feats_string_across_the_files_of_a_corpus(flavor, tmp_path):
    line = "1\tx\tx\tVERB\t_\t{}\t_\t_\t_\t_\n"
    (tmp_path / "a.conllu").write_text(line.format("Mood=Sub,Ind|Tense=Pres"))
    (tmp_path / "b.conllu").write_text(
        line.format("Mood=Sub,Ind|Tense=Pres") + "\n" + line.format("Mood=Ind,Sub|Tense=Pres"))
    a, b, c = (s.tokens[0].feats for s in load_corpus(tmp_path, flavor)[0])
    assert a is b
    # equal bundles from different strings stay apart: the value order
    # decides the standard mood
    assert b == c and b is not c


def test_read_blocks_metadata_last_wins_and_custom_columns():
    mapping = ColumnMapping(
        columns={"form": 0, "lemma": 1, "upos": 2, "feats": 3}, n_columns=4, separator=";"
    )
    text = "# sent_id = a\n# sent_id = b\n# note\nx;y;NOUN;Case=Nom\n\n\nz;w;VERB;_\n"
    first, second = CorpusReader(mapping).read(text, stem="f")
    assert (first.sent_id, first.comments) == ("b", ("# sent_id = a", "# sent_id = b", "# note"))
    assert (second.sent_id, second.comments) == ("f-2", ())
    assert [
        (t.id, t.form, t.lemma, t.upos, t.feats.to_string(), t.xpos, t.head, t.misc)
        for s in (first, second) for t in s.tokens
    ] == [(1, "x", "y", "NOUN", "Case=Nom", None, None, ()), (1, "z", "w", "VERB", "_", None, None, ())]
    # the custom separator decides the width, and the error names the row's line
    with pytest.raises(ParseError, match=r"^line 7 \(sentence None\): expected 4 columns, got 2$"):
        CorpusReader(mapping).read(text.replace("z;w;VERB;_", "z;w"))


@pytest.mark.parametrize("flavor, name", [("ud", "cl_alpha.conllu"), ("lasla", "lasla_alpha.conllu")])
def test_file_readers_skip_a_byte_order_mark(fixtures_dir, tmp_path, flavor, name):
    source = fixtures_dir / flavor / name
    copy = tmp_path / name
    copy.write_bytes(codecs.BOM_UTF8 + source.read_bytes())
    read = parse_conllu_file if flavor == "ud" else ingest_lasla_file
    assert read(copy) == read(source)


@pytest.mark.parametrize("flavor, name", [("ud", "cl_alpha.conllu"), ("lasla", "lasla_alpha.conllu")])
def test_a_file_that_is_not_utf8_is_named(fixtures_dir, tmp_path, flavor, name):
    data = (fixtures_dir / flavor / name).read_bytes()
    copy = tmp_path / name
    # past the first chunk the reader decodes
    copy.write_bytes(data[:9000] + b"\xff" + data[9000:])
    read = parse_conllu_file if flavor == "ud" else ingest_lasla_file
    with pytest.raises(ConlluError, match=rf"^{re.escape(str(copy))}: not UTF-8 text \(invalid start byte\)$"):
        read(copy)


# The CoNLL-U id patterns as regular expressions: the oracle for the
# reader's id classification, which tries str.isdecimal() first.
_REGEX_WORD_ID = re.compile(r"^\d+$")
_REGEX_EXTRA_ID = re.compile(r"^\d+[-.]\d+$")
# ASCII and other Unicode Nd digits, digit-like characters outside Nd
# (superscript two, one half, Roman four), the range and empty-node
# separators, letters and a space
_ID_ALPHABET = "0129٣０߃𝟘²½Ⅳ-.xA "


@FLAVORS
@given(raw_id=st.text(alphabet=_ID_ALPHABET, max_size=5))
@example(raw_id="")
@example(raw_id="٣０")
@example(raw_id="00")
@example(raw_id="1-2")
@example(raw_id="٣.０")
@example(raw_id="²")
@example(raw_id="1.")
def test_token_ids_are_classified_as_the_id_patterns_classify_them(flavor, raw_id):
    # a word id of up to five digits stays below the id of the last token
    text = f"# sent_id = s1\n{raw_id}{ARMA[1:]}\n1000000{ARMA[1:]}\n"
    if _REGEX_EXTRA_ID.match(raw_id):
        [sentence] = _read(flavor, text)
        assert [t.id for t in sentence.tokens] == [1000000]
        assert sentence.extras == ((0, f"{raw_id}{ARMA[1:]}"),)
    elif _REGEX_WORD_ID.match(raw_id) and int(raw_id) >= 1:
        [sentence] = _read(flavor, text)
        assert [t.id for t in sentence.tokens] == [int(raw_id), 1000000]
        assert sentence.extras == ()
    else:
        error = ("token id must be >= 1, got 0" if _REGEX_WORD_ID.match(raw_id)
                 else f"bad token id {raw_id!r}")
        with pytest.raises(ParseError, match=rf"^line 2 \(sentence 's1'\): {re.escape(error)}$"):
            _read(flavor, text)


@FLAVORS
def test_a_reused_reader_rejects_a_duplicate_misc_key_at_every_line(flavor):
    reader = CorpusReader(MAPPINGS[flavor])
    good = ARMA[:-1] + "SpaceAfter=No"
    bad = ARMA[:-1] + "SpaceAfter=No|SpaceAfter=Yes"
    text = f"# sent_id = s1\n{good}\n\n# sent_id = s2\n{bad}\n"
    # the MISC strings are interned per reader, but a failure is not kept
    for _ in range(2):
        with pytest.raises(ParseError, match=r"^line 5 \(sentence 's2'\): duplicate MISC key 'SpaceAfter'$"):
            reader.read(text)
    [first, second] = reader.read(f"# sent_id = s1\n{good}\n\n# sent_id = s2\n{good}\n")
    assert first.tokens[0].misc == (("SpaceAfter", "No"),)
    assert first.tokens[0].misc is second.tokens[0].misc


_MISC_ITEMS = st.tuples(st.sampled_from(["Ref", "SpaceAfter", "Gloss"]),
                        st.sampled_from([None, "a", "No"]))


def _misc_text(misc):
    return "|".join(k if v is None else f"{k}={v}" for k, v in misc) or "_"


@FLAVORS
@given(
    # a few MISC entry lists, some with a repeated key, shared by the lines
    pool=st.lists(st.lists(_MISC_ITEMS, max_size=4).map(tuple), min_size=1, max_size=3),
    rows=st.lists(st.tuples(st.sampled_from([0, 1, 2, 7]), st.integers(0, 2)),
                  min_size=1, max_size=8),
)
def test_the_reader_checks_each_token_as_its_constructor_does(flavor, pool, rows):
    reader = CorpusReader(MAPPINGS[flavor])
    blocks = [(token_id, pool[index % len(pool)]) for token_id, index in rows]
    while True:
        text = "".join(
            f"# sent_id = s{n}\n{token_id}\tx\tx\tNOUN\t_\t_\t_\t_\t_\t{_misc_text(misc)}\n\n"
            for n, (token_id, misc) in enumerate(blocks)
        )
        # the oracle: the first line whose token the checking constructor rejects
        for n, (token_id, misc) in enumerate(blocks):
            try:
                Token(token_id, "x", "x", "NOUN", misc=misc)
            except ConlluError as exc:
                message = rf"^line {3 * n + 2} \(sentence 's{n}'\): {re.escape(str(exc))}$"
                break
        else:
            break
        # one reader throughout: a MISC string that failed is not kept, so it fails again
        with pytest.raises(ParseError, match=message):
            reader.read(text)
        del blocks[n]
    tokens = [token for sentence in reader.read(text) for token in sentence.tokens]
    assert [(token.id, token.misc) for token in tokens] == blocks
    for token in tokens:
        assert type(token) is Token and Token(*token) == token
