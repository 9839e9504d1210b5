import unicodedata

from hypothesis import given, strategies as st

from latintb.conllu import FeatureBundle, Sentence, Token
from latintb.normalize import (
    is_punctuation_form,
    jv_replace,
    matching_key,
)


def tok(i, form, upos="NOUN"):
    return Token(id=i, form=form, lemma=form, upos=upos, feats=FeatureBundle())


def kept_forms(tokens):
    """The forms of the tokens a matching key keeps, as they are."""
    return [tokens[i].form for i in matching_key(Sentence("s", tuple(tokens))).token_indices]


def test_jv_replace_examples():
    assert jv_replace("Vergilius") == "Uergilius"
    assert jv_replace("jam vjvo") == "iam uiuo"
    assert jv_replace("arma") == "arma"


@given(st.text())
def test_jv_replace_idempotent_and_length_preserving(text):
    once = jv_replace(text)
    assert jv_replace(once) == once
    assert len(once) == len(text)


def test_all_punct_sentence_empties():
    tokens = [tok(1, ",", upos="PUNCT"), tok(2, "!", upos="PUNCT")]
    assert kept_forms(tokens) == []


def test_mixed_form_retained():
    # "que." is not pure punctuation, so stays even with a sloppy UPOS
    tokens = [tok(1, "que.")]
    assert kept_forms(tokens) == ["que."]
    oracle = all(unicodedata.category(c).startswith("P") for c in "que.")
    assert is_punctuation_form("que.") == oracle is False


def test_punct_by_form_alone_removed():
    tokens = [tok(1, "arma"), tok(2, ";")]
    assert kept_forms(tokens) == ["arma"]
    assert is_punctuation_form("§")


def test_matching_key_hand_computed():
    sentence = Sentence(
        sent_id="s",
        tokens=(
            tok(1, "Justitia"),
            tok(2, "virtus"),
            tok(3, ",", upos="PUNCT"),
            tok(4, "regnorum"),
            tok(5, "est", upos="AUX"),
        ),
    )
    norm = matching_key(sentence)
    assert norm.forms == ("iustitia", "uirtus", "regnorum", "est")
    assert norm.token_indices == (0, 1, 3, 4)
    assert norm.char_key == "iustitia uirtus regnorum est"


def test_matching_key_invariant_to_spelling_and_punctuation():
    plain = Sentence(sent_id="a", tokens=(tok(1, "iustitia"), tok(2, "uiuit")))
    fancy = Sentence(
        sent_id="b",
        tokens=(tok(1, "Justitia"), tok(2, "vivit"), tok(3, ".", upos="PUNCT")),
    )
    assert matching_key(plain).char_key == matching_key(fancy).char_key
    assert matching_key(plain).forms == matching_key(fancy).forms
