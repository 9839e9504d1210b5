"""Cross-treebank consistency rules applied on top of standardization.

Every rule rewrites a StandardRecord toward the agreed arbitrary value;
applications are counted per rule id so a corpus conversion can be
audited afterwards.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from .conllu import Sentence
from .normalize import normalize_form
from .standardize import StandardRecord

RULE_COLLAPSE_INTJ = "intj-to-part"
RULE_NONFINITE_NUMBER = "ger-inf-sup-number-none"
RULE_NONFINITE_GENDER = "ger-inf-sup-gender-none"
RULE_NONFINITE_TENSE = "ger-gdv-sup-tense-none"
RULE_AUX_VOICE = "aux-voice-act"
RULE_GER_VOICE = "ger-voice-act"
RULE_GDV_VOICE = "gdv-voice-pass"
RULE_SUP_VOICE = "sup-voice"
RULE_PRON_PERSON = "pron-person-from-lemma"

ALL_RULES = (
    RULE_COLLAPSE_INTJ,
    RULE_NONFINITE_NUMBER,
    RULE_NONFINITE_GENDER,
    RULE_NONFINITE_TENSE,
    RULE_AUX_VOICE,
    RULE_GER_VOICE,
    RULE_GDV_VOICE,
    RULE_SUP_VOICE,
    RULE_PRON_PERSON,
)

_NO_NUMBER_GENDER_MOODS = frozenset({"Ger", "Inf", "Sup"})
_NO_TENSE_MOODS = frozenset({"Ger", "Gdv", "Sup"})

# Latin has a closed set of personal-pronoun lemmas; used only by the
# optional, off-by-default Person repair.
DEFAULT_PRONOUN_PERSONS: Mapping[str, str] = {
    "ego": "1",
    "nos": "1",
    "tu": "2",
    "uos": "2",  # lemmas are looked up after v -> u, so "vos" reads as "uos"
}


def collapse_upos(record: StandardRecord, audit: Counter | None = None) -> StandardRecord:
    """INTJ -> PART; ITTB and LLCT never use INTJ, so nobody gets to."""
    if record.upos == "INTJ":
        if audit is not None:
            audit[RULE_COLLAPSE_INTJ] += 1
        return record._replace(upos="PART")
    return record


def detect_iri_construction(
    sentence: Sentence, index: int, *, window: int | str = "sentence"
) -> bool:
    """True iff a token with normalized form "iri" accompanies the supine
    at ``index``; window is the whole sentence or +/- n tokens."""
    for position, token in enumerate(sentence.tokens):
        if position == index:
            continue
        if window != "sentence" and abs(position - index) > int(window):
            continue
        if normalize_form(token.form) == "iri":
            return True
    return False


def enforce_arbitrary_values(
    record: StandardRecord,
    *,
    iri: bool = False,
    audit: Counter | None = None,
) -> StandardRecord:
    """Rewrite the record until it satisfies every arbitrary-value rule.

    ``iri`` marks a supine used in an iri-construction (passive future
    infinitive), the one case where a supine is Voice=Pass.
    """
    changes: dict[str, object] = {}
    applied: list[str] = []
    mood = record.mood

    if mood in _NO_NUMBER_GENDER_MOODS:
        if record.number is not None:
            changes["number"] = None
            applied.append(RULE_NONFINITE_NUMBER)
        if record.gender:
            changes["gender"] = ()
            applied.append(RULE_NONFINITE_GENDER)
    if mood in _NO_TENSE_MOODS and record.tense is not None:
        changes["tense"] = None
        applied.append(RULE_NONFINITE_TENSE)
    if record.upos == "AUX":
        # AUX wins over the mood-based voice rules
        if record.voice != "Act":
            changes["voice"] = "Act"
            applied.append(RULE_AUX_VOICE)
    elif mood == "Ger" and record.voice != "Act":
        changes["voice"] = "Act"
        applied.append(RULE_GER_VOICE)
    elif mood == "Gdv" and record.voice != "Pass":
        changes["voice"] = "Pass"
        applied.append(RULE_GDV_VOICE)
    elif mood == "Sup":
        wanted = "Pass" if iri else "Act"
        if record.voice != wanted:
            changes["voice"] = wanted
            applied.append(RULE_SUP_VOICE)

    if not changes:
        return record
    if audit is not None:
        for rule in applied:
            audit[rule] += 1
    return record._replace(**changes)


def arbitrary_value_violations(record: StandardRecord, *, iri: bool = False) -> list[str]:
    """Independent scan: which arbitrary-value rules does this record break?

    Deliberately re-states each rule as a check rather than reusing the
    transformer, so a post-conversion corpus scan is a real audit.
    """
    bad: list[str] = []
    if record.mood in ("Ger", "Inf", "Sup") and record.number is not None:
        bad.append(RULE_NONFINITE_NUMBER)
    if record.mood in ("Ger", "Inf", "Sup") and record.gender:
        bad.append(RULE_NONFINITE_GENDER)
    if record.mood in ("Ger", "Gdv", "Sup") and record.tense is not None:
        bad.append(RULE_NONFINITE_TENSE)
    if record.upos == "AUX":
        # AUX takes precedence over the mood-based voice rules.
        if record.voice != "Act":
            bad.append(RULE_AUX_VOICE)
    elif record.mood == "Ger" and record.voice != "Act":
        bad.append(RULE_GER_VOICE)
    elif record.mood == "Gdv" and record.voice != "Pass":
        bad.append(RULE_GDV_VOICE)
    elif record.mood == "Sup" and record.voice != ("Pass" if iri else "Act"):
        bad.append(RULE_SUP_VOICE)
    return bad


def repair_pronoun_person(
    token_lemma: str,
    record: StandardRecord,
    audit: Counter | None = None,
) -> StandardRecord:
    """Optional LASLA repair: fill Person on personal pronouns from the
    lemma. Off by default in the pipeline."""
    if record.upos != "PRON" or record.person is not None:
        return record
    person = DEFAULT_PRONOUN_PERSONS.get(normalize_form(token_lemma))
    if person is None:
        return record
    if audit is not None:
        audit[RULE_PRON_PERSON] += 1
    return record._replace(person=person)


def reads_context(record: StandardRecord, *, pronoun_person_repair: bool = False) -> bool:
    """Whether harmonizing this standardized record reads more than the
    record: a supine's voice reads the sentence for an iri, and the
    pronoun repair reads a pronoun's lemma."""
    return record.mood == "Sup" or (pronoun_person_repair and record.upos == "PRON")


def harmonize_record(
    sentence: Sentence,
    index: int,
    record: StandardRecord,
    *,
    audit: Counter | None = None,
    iri_window: int | str = "sentence",
    pronoun_person_repair: bool = False,
) -> StandardRecord:
    """Apply UPOS collapsing then arbitrary-value enforcement to the
    record of the token at ``index``, resolving an iri-construction if
    it is a supine, then the optional pronoun repair."""
    record = collapse_upos(record, audit)
    iri = False
    if record.mood == "Sup":
        iri = detect_iri_construction(sentence, index, window=iri_window)
    record = enforce_arbitrary_values(record, iri=iri, audit=audit)
    if pronoun_person_repair:
        record = repair_pronoun_person(sentence.tokens[index].lemma, record, audit=audit)
    return record


def harmonize_sentence(
    sentence: Sentence,
    records: Sequence[StandardRecord],
    *,
    audit: Counter | None = None,
    iri_window: int | str = "sentence",
    pronoun_person_repair: bool = False,
) -> list[StandardRecord]:
    """``harmonize_record`` on every record of one sentence."""
    return [
        harmonize_record(
            sentence, index, record, audit=audit, iri_window=iri_window,
            pronoun_person_repair=pronoun_person_repair,
        )
        for index, record in enumerate(records)
    ]
