"""Orthographic normalization applied before cross-treebank matching."""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from .conllu import Sentence, Token

_JV_TABLE = str.maketrans({"j": "i", "J": "I", "v": "u", "V": "U"})


def jv_replace(text: str) -> str:
    """Map j->i and v->u (both cases); length-preserving and idempotent."""
    return text.translate(_JV_TABLE)


def is_punctuation_form(form: str) -> bool:
    if not form:
        return False
    return all(unicodedata.category(ch).startswith("P") for ch in form)


def is_punctuation_token(token: Token) -> bool:
    return token.upos == "PUNCT" or is_punctuation_form(token.form)


def normalize_form(form: str) -> str:
    return jv_replace(form.lower())


@dataclass(frozen=True, slots=True)
class NormalizedSentence:
    """Punctuation-free, case/JV-normalized view used for duplicate matching."""

    sent_id: str
    forms: tuple[str, ...]
    token_indices: tuple[int, ...]  # positions of kept tokens in the source sentence
    char_key: str


def matching_key(sentence: Sentence) -> NormalizedSentence:
    forms: list[str] = []
    indices: list[int] = []
    for index, token in enumerate(sentence.tokens):
        if is_punctuation_token(token):
            continue
        forms.append(normalize_form(token.form))
        indices.append(index)
    return NormalizedSentence(
        sent_id=sentence.sent_id,
        forms=tuple(forms),
        token_indices=tuple(indices),
        char_key=" ".join(forms),
    )
