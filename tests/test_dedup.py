import random
import re

import pytest
from hypothesis import given, strategies as st

from latintb.conllu import FeatureBundle, Sentence, Token
from latintb.dedup import (
    DEFAULT_MIN_CHARS,
    DEFAULT_MIN_TOKENS,
    MANIFEST_HEADER,
    align_tokens,
    duplicate_report,
    find_duplicates,
    manifest_rows,
    read_manifest,
)
from latintb.normalize import matching_key
from latintb.reports import tsv_text


def oracle_align(forms_a, forms_b):
    """Quadratic-plus oracle: try every start pair, extend while equal."""
    best = []
    for i in range(len(forms_a)):
        for j in range(len(forms_b)):
            k = 0
            while (
                i + k < len(forms_a)
                and j + k < len(forms_b)
                and forms_a[i + k] == forms_b[j + k]
            ):
                k += 1
            if k > len(best):
                best = [(i + n, j + n) for n in range(k)]
    return best


def oracle_candidates(norms_a, norms_b, min_chars, min_tokens):
    """All-pairs prefix/suffix criterion, checked directly."""
    hits = set()
    for a_pos, na in enumerate(norms_a):
        for b_pos, nb in enumerate(norms_b):
            char_ok = (
                len(na.char_key) >= min_chars
                and len(nb.char_key) >= min_chars
                and (
                    na.char_key[:min_chars] == nb.char_key[:min_chars]
                    or na.char_key[-min_chars:] == nb.char_key[-min_chars:]
                )
            )
            token_ok = (
                len(na.forms) >= min_tokens
                and len(nb.forms) >= min_tokens
                and (
                    na.forms[:min_tokens] == nb.forms[:min_tokens]
                    or na.forms[-min_tokens:] == nb.forms[-min_tokens:]
                )
            )
            if char_ok or token_ok:
                hits.add((a_pos, b_pos))
    return hits


def test_align_textbook_example():
    assert align_tokens(list("abcd"), list("xbcy")) == [(1, 1), (2, 2)]


def test_align_identical():
    forms = ["arma", "uirumque", "cano"]
    assert align_tokens(forms, forms) == [(0, 0), (1, 1), (2, 2)]


def test_align_disjoint():
    assert align_tokens(["a", "b"], ["c", "d"]) == []
    assert align_tokens([], ["a"]) == []


def test_align_tie_breaks_earliest_start():
    # two runs of length 2; the earlier one in A wins
    result = align_tokens(["a", "b", "x", "a", "b"], ["a", "b"])
    assert result == [(0, 0), (1, 1)]
    result = align_tokens(["a", "b"], ["a", "b", "z", "a", "b"])
    assert result == [(0, 0), (1, 1)]


def test_align_matches_oracle_on_random_pairs():
    rng = random.Random(11)
    vocab = list("abcdefg")
    for _ in range(300):
        forms_a = [rng.choice(vocab) for _ in range(rng.randint(0, 20))]
        forms_b = [rng.choice(vocab) for _ in range(rng.randint(0, 20))]
        assert align_tokens(forms_a, forms_b) == oracle_align(forms_a, forms_b)


# Two or three symbols make equal-length runs, and so ties, common.
_tied_forms = st.sampled_from(["ab", "abc"]).flatmap(
    lambda alphabet: st.tuples(
        st.lists(st.sampled_from(alphabet), max_size=12),
        st.lists(st.sampled_from(alphabet), max_size=12),
    )
)


@given(_tied_forms)
def test_align_matches_oracle_on_small_alphabets(pair):
    forms_a, forms_b = pair
    assert align_tokens(forms_a, forms_b) == oracle_align(forms_a, forms_b)


def sent(sid, forms, work=None):
    tokens = tuple(
        Token(id=i, form=f, lemma=f, upos="NOUN", feats=FeatureBundle())
        for i, f in enumerate(forms, start=1)
    )
    return Sentence(sent_id=sid, tokens=tokens, work_id=work)


def test_identical_sentences_pair_fully():
    forms = ["tarba", "mirqo", "zelun", "parvo", "lemik", "dorud"]
    a = [sent("a1", forms, "wa")]
    b = [sent("b1", forms, "wb")]
    pairs = find_duplicates(a, b)
    assert len(pairs) == 1
    assert pairs[0].alignment == tuple((i, i) for i in range(6))


def test_spelling_and_punctuation_insensitive():
    a = [sent("a1", ["Jurat", "vinum", "servus", ",", "habet", "virtus", "."],
              "wa")]
    b = [sent("b1", ["iurat", "uinum", "seruus", "habet", "uirtus"], "wb")]
    pairs = find_duplicates(a, b)
    assert len(pairs) == 1
    # aligned indices point at original token positions (punct skipped)
    assert pairs[0].alignment == ((0, 0), (1, 1), (2, 2), (4, 3), (5, 4))


def test_disjoint_corpora_no_pairs():
    a = [sent("a1", ["aaa", "bbb", "ccc", "ddd", "eee", "fff"])]
    b = [sent("b1", ["ggg", "hhh", "iii", "jjj", "kkk", "lll"])]
    assert find_duplicates(a, b) == []


def test_a_candidate_that_shares_no_token_is_dropped():
    # the first tokens share their first 20 characters, a char-prefix key,
    # but no form of one sentence is a form of the other
    a = [sent("a1", ["quadringentesimusprimus", "alpha", "beta"], "wa")]
    b = [sent("b1", ["quadringentesimusprimo", "gamma", "delta"], "wb")]
    norms_a, norms_b = [matching_key(s) for s in a], [matching_key(s) for s in b]
    assert oracle_candidates(norms_a, norms_b, DEFAULT_MIN_CHARS, DEFAULT_MIN_TOKENS) == {(0, 0)}
    assert find_duplicates(a, b) == []


def test_fixture_duplicates_match_planted_set(
    ud_corpus, lasla_corpus, duplicate_pairs, planted_duplicates
):
    found = {(p.sent_a, p.sent_b) for p in duplicate_pairs}
    assert found == {(a, b) for a, b, _ in planted_duplicates}


def test_fixture_candidates_match_bruteforce_oracle(ud_corpus, lasla_corpus, duplicate_pairs):
    norms_a = [matching_key(s) for s in ud_corpus]
    norms_b = [matching_key(s) for s in lasla_corpus]
    oracle = oracle_candidates(norms_a, norms_b, DEFAULT_MIN_CHARS, DEFAULT_MIN_TOKENS)
    # fixture plants disjoint pairs, so greedy selection == candidate set
    ids = {(norms_a[i].sent_id, norms_b[j].sent_id) for i, j in oracle}
    assert {(p.sent_a, p.sent_b) for p in duplicate_pairs} == ids


def test_symmetry_on_fixture(ud_corpus, lasla_corpus, duplicate_pairs):
    reverse = find_duplicates(lasla_corpus, ud_corpus)
    assert {(p.sent_b, p.sent_a) for p in reverse} == {
        (p.sent_a, p.sent_b) for p in duplicate_pairs
    }


def test_alignment_forms_match_bytewise(ud_corpus, lasla_corpus, duplicate_pairs):
    by_id_a = {s.sent_id: s for s in ud_corpus}
    by_id_b = {s.sent_id: s for s in lasla_corpus}
    for pair in duplicate_pairs:
        sa, sb = by_id_a[pair.sent_a], by_id_b[pair.sent_b]
        assert len(pair.alignment) <= min(len(sa.tokens), len(sb.tokens))
        for i, j in pair.alignment:
            norm_a = matching_key(Sentence(sent_id="x", tokens=(sa.tokens[i],)))
            norm_b = matching_key(Sentence(sent_id="y", tokens=(sb.tokens[j],)))
            assert norm_a.forms == norm_b.forms


def test_greedy_keeps_one_partner_per_sentence():
    forms = ["tarba", "mirqo", "zelun", "parvo", "lemik", "dorud"]
    a = [sent("a1", forms, "wa"), sent("a2", forms, "wa")]
    b = [sent("b1", forms, "wb")]
    pairs = find_duplicates(a, b)
    assert len(pairs) == 1
    assert pairs[0].sent_a == "a1"  # lexicographic tie-break


def test_duplicate_report_counts_by_work(duplicate_pairs, metadata_table, planted_duplicates):
    rows = duplicate_report(duplicate_pairs, metadata_table)
    by_work = {work: (author, count) for author, work, count in rows}
    expected_alpha = sum(1 for a, _, _ in planted_duplicates if a.startswith("cl_alpha"))
    expected_beta = sum(1 for a, _, _ in planted_duplicates if a.startswith("cl_beta"))
    assert by_work["cl_alpha"] == ("Cicero", expected_alpha)
    assert by_work["cl_beta"] == ("Caesar", expected_beta)


def test_manifest_roundtrip(tmp_path, duplicate_pairs):
    path = tmp_path / "dups.tsv"
    path.write_text(tsv_text(MANIFEST_HEADER, manifest_rows(duplicate_pairs)), encoding="utf-8")
    rows = read_manifest(path)
    assert [(r[0], r[1]) for r in rows] == [
        (p.sent_a, p.sent_b) for p in duplicate_pairs
    ]
    assert [r[3] for r in rows] == [len(p.alignment) for p in duplicate_pairs]


@pytest.mark.parametrize(
    "row", ["cl_alpha-s1\tlasla_alpha-s1\tchar-prefix", "cl_alpha-s1\tlasla_alpha-s1\tchar-prefix\tmany",
            "cl_alpha-s1\tlasla_alpha-s1\tprefix\t7"],
    ids=["three-columns", "non-integer-length", "unknown-basis"],
)
def test_bad_manifest_row_names_file_and_line(tmp_path, row):
    path = tmp_path / "dups.tsv"
    path.write_text(f"sent_a\tsent_b\tbasis\talign_length\nx\ty\tchar-prefix\t7\n{row}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 3: expected sent_a, sent_b, basis"):
        read_manifest(path)


@pytest.mark.parametrize(
    "text",
    ["sent_a\tsent_b\tbasis\tlength\nx\ty\tchar-prefix\t7\n", "x\ty\tchar-prefix\t7\n"],
    ids=["renamed-column", "no-header"],
)
def test_manifest_without_its_header_is_rejected(tmp_path, text):
    path = tmp_path / "dups.tsv"
    path.write_text(text)
    with pytest.raises(ValueError, match=(
        f"^{re.escape(str(path))} line 1: expected header 'sent_a\\\\tsent_b\\\\tbasis\\\\talign_length'"
    )):
        read_manifest(path)
