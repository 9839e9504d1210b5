"""A deliberately simple suffix-rule tagger used to exercise the scorer.

Not a serious model: it exists so the evaluation harness has a shipped,
deterministic prediction source whose scores the test suite can verify
against brute-force oracles.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from .conllu import Sentence
from .normalize import is_punctuation_token, normalize_form
from .standardize import StandardRecord

_CLOSED_CLASS = {
    "et": "CCONJ", "atque": "CCONJ", "sed": "CCONJ", "aut": "CCONJ",
    "in": "ADP", "ad": "ADP", "cum": "ADP", "de": "ADP", "ex": "ADP", "ab": "ADP",
    "non": "PART", "ne": "PART",
    "ut": "SCONJ", "si": "SCONJ", "quod": "SCONJ",
    "qui": "PRON", "quae": "PRON", "hic": "PRON", "ille": "PRON", "is": "PRON",
}
_PRON = StandardRecord(upos="PRON", case="Nom", number="Sing")

_verb = partial(StandardRecord, upos="VERB", tense="Pres", mood="Ind")
_noun = partial(StandardRecord, upos="NOUN")
# Tried in order: the first row with a suffix that ends the form gives its record.
_SUFFIX_RULES = (
    (("que",), StandardRecord(upos="CCONJ")),
    (("nt",), _verb(person="3", number="Plur", voice="Act")),
    (("ntur",), _verb(person="3", number="Plur", voice="Pass")),
    (("tur",), _verb(person="3", number="Sing", voice="Pass")),
    (("re",), _verb(mood="Inf", voice="Act")),
    (("t",), _verb(person="3", number="Sing", voice="Act")),
    (("orum", "arum"), _noun(case="Gen", number="Plur", gender=("Masc",))),
    (("is",), _noun(case="Abl", number="Plur", gender=("Masc",))),
    (("am",), _noun(case="Acc", number="Sing", gender=("Fem",))),
    (("um",), _noun(case="Acc", number="Sing", gender=("Masc",))),
    (("us",), _noun(case="Nom", number="Sing", gender=("Masc",))),
    (("ae",), _noun(case="Gen", number="Sing", gender=("Fem",))),
    (("a",), _noun(case="Nom", number="Sing", gender=("Fem",))),
    (("e",), StandardRecord(upos="ADV")),
)


def predict_token(form: str) -> StandardRecord:
    word = normalize_form(form)
    if word in _CLOSED_CLASS:
        upos = _CLOSED_CLASS[word]
        return _PRON if upos == "PRON" else StandardRecord(upos=upos)
    for suffixes, record in _SUFFIX_RULES:
        if word.endswith(suffixes):
            return record
    return StandardRecord(upos="NOUN")


def predict_sentence(sentence: Sentence) -> list[StandardRecord]:
    records = []
    for token in sentence.tokens:
        if is_punctuation_token(token):
            records.append(StandardRecord(upos="PUNCT"))
        else:
            records.append(predict_token(token.form))
    return records


def predict_corpus(sentences: Sequence[Sentence]) -> list[list[StandardRecord]]:
    return [predict_sentence(s) for s in sentences]
