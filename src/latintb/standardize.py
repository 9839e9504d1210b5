"""Convert UD-style and LASLA-style annotations into standard Latin grammar.

The target scheme is a 9-feature record: UPOS plus Person, Number, Tense,
Mood, Voice, Gender, Case, and Degree. Tense uses the six traditional
values, Mood folds in the non-finite verb forms (infinitive, participle,
gerund, gerundive, supine).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping

from .conllu import UPOS_TAGS, FeatureBundle, Token

TENSES = ("Pres", "Imp", "Perf", "Fut", "Pqp", "FutP")
MOODS = ("Ind", "Sub", "Imp", "Inf", "Part", "Ger", "Gdv", "Sup")
VOICES = ("Act", "Pass")
GENDERS = ("Masc", "Fem", "Neut")
CASES = ("Nom", "Gen", "Dat", "Acc", "Abl", "Voc", "Loc")
DEGREES = ("Cmp", "Abs")
PERSONS = ("1", "2", "3")
NUMBERS = ("Sing", "Plur")

VERBAL_UPOS = frozenset({"VERB", "AUX"})

UD_TENSES = ("Pres", "Past", "Fut", "Pqp")
UD_ASPECTS = ("Imp", "Perf", "Prosp", "Inch")
# Tense values that only exist in the traditional inventory; seeing one
# means the token is already standardized.
_TRADITIONAL_ONLY_TENSES = frozenset({"Imp", "Perf", "FutP"})

# Aspect of a tense-less infinitive decides its traditional tense.
INFINITIVE_ASPECT_TENSE = {"Imp": "Pres", "Perf": "Perf", "Prosp": "Fut"}

# VerbForm -> mood for tokens without a TraditionalMood. Ger/Gdv/Sup are
# the Latin-specific values used by LASLA; Vnoun/Conv absorb the UD-only
# spellings of gerund-like and participle-like forms.
DEFAULT_VERBFORM_MOODS: Mapping[str, str | None] = {
    "Fin": None,
    "Inf": "Inf",
    "Part": "Part",
    "Ger": "Ger",
    "Gdv": "Gdv",
    "Sup": "Sup",
    "Vnoun": "Ger",
    "Conv": "Part",
}

# The standard scheme: each morph feature and its inventory, in the order a record
# checks them. A record holds a feature under its lower-case name (Gender as a tuple).
_INVENTORIES = {
    "Person": PERSONS,
    "Number": NUMBERS,
    "Tense": TENSES,
    "Mood": MOODS,
    "Voice": VOICES,
    "Case": CASES,
    "Degree": DEGREES,
    "Gender": GENDERS,
}
_FIELDS = {feature: feature.lower() for feature in _INVENTORIES}
_field_values = attrgetter(*_FIELDS.values())  # a record's values, in table order
MORPH_FEATURES = tuple(sorted(_INVENTORIES))
STANDARD_FEATURES = ("UPOS",) + MORPH_FEATURES

ANOMALY_TRAD_ON_NONVERB = "TRAD_FIELD_ON_NONVERB"
ANOMALY_UNKNOWN_VALUE = "UNKNOWN_FEATURE_VALUE"
ANOMALY_MULTI_VALUE = "MULTI_VALUE_FEATURE"
ANOMALY_MOOD_CONFLICT = "MOOD_AND_NONFINITE_VERBFORM"


class TenseAspectTable:
    """Total map from (UD Tense, UD Aspect) to a traditional tense.

    The constructor checks exhaustiveness over the full cross-product so
    a lookup can never miss.
    """

    _TENSES = (None,) + UD_TENSES
    _ASPECTS = (None,) + UD_ASPECTS

    def __init__(self, table: Mapping[tuple[str | None, str | None], str | None]):
        missing = [
            (t, a) for t in self._TENSES for a in self._ASPECTS if (t, a) not in table
        ]
        if missing:
            raise ValueError(f"tense/aspect table not exhaustive, missing {missing}")
        for key, value in table.items():
            if value is not None and value not in TENSES:
                raise ValueError(f"tense/aspect table maps {key} to unknown {value!r}")
        self._table = dict(table)

    @classmethod
    def default(cls) -> "TenseAspectTable":
        table: dict[tuple[str | None, str | None], str | None] = {}
        for aspect in cls._ASPECTS:
            table[(None, aspect)] = None
            table[("Pres", aspect)] = "Pres"
            table[("Pqp", aspect)] = "Pqp"
            table[("Past", aspect)] = "Imp" if aspect == "Imp" else "Perf"
            table[("Fut", aspect)] = "FutP" if aspect == "Perf" else "Fut"
        return cls(table)

    @classmethod
    def from_overrides(
        cls, overrides: Mapping[str, str | None]
    ) -> "TenseAspectTable":
        """Apply overrides keyed "Tense,Aspect" (absent side spelled "None")."""
        base = cls.default()._table
        for key, value in overrides.items():
            tense_s, _, aspect_s = key.partition(",")
            tense = None if tense_s in ("None", "") else tense_s
            aspect = None if aspect_s in ("None", "") else aspect_s
            if (tense, aspect) not in base:
                raise ValueError(f"tense/aspect override for unknown pair {key!r}")
            base[(tense, aspect)] = value
        return cls(base)

    def lookup(self, tense: str | None, aspect: str | None) -> str | None:
        return self._table[(tense, aspect)]


_DEFAULT_TABLE = TenseAspectTable.default()


@dataclass(frozen=True, slots=True)
class StandardRecord:
    """One token's standard-Latin-grammar annotation.

    ``gender`` is a tuple to carry LASLA's multi-valued genders; empty
    means None. ``anomalies`` records conversion problems without
    breaking the record's validity.
    """

    upos: str
    person: str | None = None
    number: str | None = None
    tense: str | None = None
    mood: str | None = None
    voice: str | None = None
    gender: tuple[str, ...] = ()
    case: str | None = None
    degree: str | None = None
    anomalies: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for (feature, inventory), value in zip(_INVENTORIES.items(), _field_values(self)):
            for v in value if feature == "Gender" else (value,):
                if v is not None and v not in inventory:
                    raise ValueError(f"{_FIELDS[feature]} value {v!r} outside inventory")

    def values_for(self, feature: str) -> tuple[str, ...]:
        """Values of one of the 9 features; empty tuple means None."""
        if feature == "UPOS":
            return (self.upos,) if self.upos != "_" else ()
        value = getattr(self, _FIELDS[feature])
        if feature == "Gender":
            return tuple(sorted(value))
        return (value,) if value is not None else ()

    def set_values(
        self, features: Iterable[str] = MORPH_FEATURES
    ) -> list[tuple[str, tuple[str, ...]]]:
        """The (feature, values) pairs among ``features`` that this record sets."""
        return [(feature, values) for feature in features if (values := self.values_for(feature))]

    def label_for(self, feature: str) -> str:
        """Single class label used by the metrics; absence is "None"."""
        values = self.values_for(feature)
        return ",".join(values) if values else "None"

    def morph_string(self, *, include_upos: bool = False) -> str:
        """Alphabetically sorted Feature=Value string over the morph features."""
        parts = [f"{feature}={','.join(values)}" for feature, values in self.set_values()]
        if include_upos:
            parts.insert(0, f"UPOS={self.upos}")
        return "|".join(parts)

    def to_feature_bundle(self) -> FeatureBundle:
        return FeatureBundle(self.set_values())


def check_label(feature: str, label: str) -> None:
    """Raise ValueError, naming the accepted form, unless some record's
    ``label_for(feature)`` can be ``label``."""
    inventory = UPOS_TAGS if feature == "UPOS" else _INVENTORIES[feature]
    values = label.split(",") if feature == "Gender" else [label]
    if label == "None" or (values == sorted(set(values)) and set(values) <= set(inventory)):
        return
    if feature == "Gender":
        form = f"distinct values of {', '.join(sorted(GENDERS))}, sorted and joined by ','"
    else:
        form = "a UPOS tag" if feature == "UPOS" else f"one of {', '.join(inventory)}"
    raise ValueError(f"{feature} value {label!r} is not None or {form}")


@dataclass(slots=True)
class _Conversion:
    """Mutable scratch state while assembling one record."""

    anomalies: list[str] = field(default_factory=list)

    def flag(self, code: str) -> None:
        if code not in self.anomalies:
            self.anomalies.append(code)

    def single(self, feats: FeatureBundle, name: str, inventory: Iterable[str]) -> str | None:
        values = feats.get(name)
        if values is None:
            return None
        if len(values) > 1:
            self.flag(ANOMALY_MULTI_VALUE)
            return None
        if values[0] not in inventory:
            self.flag(ANOMALY_UNKNOWN_VALUE)
            return None
        return values[0]

    def gender(self, feats: FeatureBundle) -> tuple[str, ...]:
        values = feats.get("Gender")
        if values is None:
            return ()
        kept = []
        for value in values:
            if value in GENDERS:
                kept.append(value)
            else:
                self.flag(ANOMALY_UNKNOWN_VALUE)
        return tuple(sorted(set(kept)))

    def degree(self, feats: FeatureBundle) -> str | None:
        value = self.single(feats, "Degree", DEGREES + ("Pos", "Dim"))
        if value in ("Pos", "Dim"):
            return None
        return value


# The MISC keys standardize_ud reads: a harmonized UD release's traditional
# tense and mood.
TRADITIONAL_KEYS = ("TraditionalTense", "TraditionalMood")


def _traditional_field(token: Token, name: str) -> str | None:
    """Traditional* fields live in MISC in the harmonized releases, but
    some exports carry them in FEATS; MISC wins."""
    value = token.misc_get(name)
    if value is not None:
        return value
    return token.feats.first(name)


def _resolve_mood(
    conv: _Conversion, feats: FeatureBundle, trad_mood: str | None
) -> str | None:
    if trad_mood is not None:
        if trad_mood in MOODS:
            return trad_mood
        conv.flag(ANOMALY_UNKNOWN_VALUE)
        return None
    mood = feats.first("Mood")
    verbform = feats.first("VerbForm")
    if mood is not None:
        if mood in MOODS:
            if verbform is not None and DEFAULT_VERBFORM_MOODS.get(verbform) not in (None, mood):
                conv.flag(ANOMALY_MOOD_CONFLICT)
            return mood
        conv.flag(ANOMALY_UNKNOWN_VALUE)
        return None
    if verbform is not None:
        if verbform in DEFAULT_VERBFORM_MOODS:
            return DEFAULT_VERBFORM_MOODS[verbform]
        conv.flag(ANOMALY_UNKNOWN_VALUE)
    return None


def _tense_from_table(
    conv: _Conversion, feats: FeatureBundle, table: TenseAspectTable
) -> str | None:
    tense = feats.first("Tense")
    aspect = feats.first("Aspect")
    if tense in _TRADITIONAL_ONLY_TENSES:
        return tense
    if tense is not None and tense not in UD_TENSES:
        conv.flag(ANOMALY_UNKNOWN_VALUE)
        tense = None
    if aspect is not None and aspect not in UD_ASPECTS:
        aspect = None
    return table.lookup(tense, aspect)


def standardize_ud(
    token: Token, *, tense_table: TenseAspectTable = _DEFAULT_TABLE
) -> StandardRecord:
    """Standardize a token from a harmonized-UD-style source.

    Tense prefers the TraditionalTense field (future perfect recovered
    via Aspect); tense-less infinitives derive their tense from Aspect;
    everything else falls back to the tense/aspect table.
    """
    conv = _Conversion()
    feats = token.feats
    trad_tense, trad_mood = (_traditional_field(token, key) for key in TRADITIONAL_KEYS)

    verbal = token.upos in VERBAL_UPOS
    if (trad_tense is not None or trad_mood is not None) and not verbal:
        conv.flag(ANOMALY_TRAD_ON_NONVERB)
        tense = mood = voice = None
    else:
        mood = _resolve_mood(conv, feats, trad_mood)
        if trad_tense is not None:
            if trad_tense == "Fut" and feats.first("Aspect") == "Perf":
                tense = "FutP"
            elif trad_tense in TENSES:
                tense = trad_tense
            else:
                conv.flag(ANOMALY_UNKNOWN_VALUE)
                tense = None
        elif mood == "Inf" and feats.first("Aspect") in INFINITIVE_ASPECT_TENSE:
            tense = INFINITIVE_ASPECT_TENSE[feats.first("Aspect")]
        else:
            tense = _tense_from_table(conv, feats, tense_table)
        voice = conv.single(feats, "Voice", VOICES)

    return StandardRecord(
        upos=token.upos,
        person=conv.single(feats, "Person", PERSONS),
        number=conv.single(feats, "Number", NUMBERS),
        tense=tense,
        mood=mood,
        voice=voice,
        gender=conv.gender(feats),
        case=conv.single(feats, "Case", CASES),
        degree=conv.degree(feats),
        anomalies=tuple(conv.anomalies),
    )


def standardize_lasla(
    token: Token, *, tense_table: TenseAspectTable = _DEFAULT_TABLE
) -> StandardRecord:
    """Standardize a token ingested from LASLA.

    Mood comes straight from Mood for finite verbs and from VerbForm
    (Ger/Gdv/Sup included) otherwise; tense from the tense/aspect table;
    multi-valued Gender survives.
    """
    conv = _Conversion()
    feats = token.feats
    return StandardRecord(
        upos=token.upos,
        person=conv.single(feats, "Person", PERSONS),
        number=conv.single(feats, "Number", NUMBERS),
        tense=_tense_from_table(conv, feats, tense_table),
        mood=_resolve_mood(conv, feats, None),
        voice=conv.single(feats, "Voice", VOICES),
        gender=conv.gender(feats),
        case=conv.single(feats, "Case", CASES),
        degree=conv.degree(feats),
        anomalies=tuple(conv.anomalies),
    )


def record_from_standard_feats(token: Token) -> StandardRecord:
    """Read a record from a token already encoded in the standard scheme.

    Strict: out-of-inventory values raise, unlike the lenient
    standardize_* converters.
    """
    feats = token.feats
    for name in feats.names():
        if name not in _FIELDS:
            raise ValueError(f"non-standard feature {name!r} in {token.form!r}")
    fields = {"gender": tuple(sorted(feats.get("Gender") or ()))}
    for feature, name in _FIELDS.items():
        values = feats.get(feature)
        if values is None or feature == "Gender":
            continue
        if len(values) != 1:
            raise ValueError(f"feature {feature} must be single-valued, got {values}")
        fields[name] = values[0]
    return StandardRecord(upos=token.upos, **fields)


# Legality rules (grammar-breaking feature combinations).
RULE_SCONJ_NOMINAL = "SCONJ_HAS_NOMINAL_FEATS"
RULE_PRON_MISSING = "PRON_MISSING_NOMINAL_FEATS"
RULE_TENSE_NO_MOOD = "VERB_TENSE_WITHOUT_MOOD"

LEGALITY_RULES = {
    RULE_SCONJ_NOMINAL: lambda r: r.upos == "SCONJ"
    and (r.gender or r.number is not None or r.case is not None),
    RULE_PRON_MISSING: lambda r: r.upos == "PRON"
    and (r.case is None or r.number is None),
    RULE_TENSE_NO_MOOD: lambda r: r.upos == "VERB"
    and r.tense is not None
    and r.mood is None,
}

DEFAULT_LEGALITY_RULES = tuple(LEGALITY_RULES)


def legality_check(
    record: StandardRecord, rules: Iterable[str] = DEFAULT_LEGALITY_RULES
) -> list[str]:
    """Return the codes of all violated legality rules (empty = legal)."""
    violations = []
    for code in rules:
        try:
            predicate = LEGALITY_RULES[code]
        except KeyError:
            raise ValueError(f"unknown legality rule {code!r}") from None
        if predicate(record):
            violations.append(code)
    return violations


# Informational lint rules over known-but-unharmonized divergences.
LINT_ESSE_AS_NOUN = "ESSE_AS_NOUN"
LINT_INF_WITH_CASE = "INF_WITH_CASE"
LINT_SUI_WITH_NUMBER = "SUI_WITH_NUMBER"


def lint_token(
    token: Token,
    record: StandardRecord,
    rules: Iterable[str] = DEFAULT_LEGALITY_RULES,
) -> list[str]:
    """Legality violations plus lemma-aware flags for divergences the
    pipeline deliberately leaves untouched."""
    codes = legality_check(record, rules)
    if token.lemma == "sum" and record.upos == "NOUN":
        codes.append(LINT_ESSE_AS_NOUN)
    if record.mood == "Inf" and record.case is not None:
        codes.append(LINT_INF_WITH_CASE)
    if token.lemma == "sui" and record.upos == "PRON" and record.number is not None:
        codes.append(LINT_SUI_WITH_NUMBER)
    return codes
