"""Tool configuration: one JSON document overriding pinned defaults.

Flags override config, config overrides defaults. The JSON document as
given (keys sorted, no whitespace) is hashed, so every report can name
the configuration file it was produced under. The hash is of the
document, not of the settings it resolves to: ``{}`` and a document
that sets a key to its default hash differently, and a run without
``--config`` reports ``config=default``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .conllu import ColumnMapping
from .lasla import DEFAULT_LASLA_MAPPING
from .standardize import DEFAULT_LEGALITY_RULES, LEGALITY_RULES, TenseAspectTable

# The defaults of dedup and splits live here, so that loading a config
# imports neither module.
DEFAULT_MIN_CHARS = 20
DEFAULT_MIN_TOKENS = 5
DEFAULT_DEV_FRACTION = 0.03
DEFAULT_MIN_TEST = 1000


class ConfigError(ValueError):
    pass


class InfeasibleSplitError(ValueError):
    """No split meets a hard constraint under the configured sizes."""

    def __init__(self, constraint: str, message: str):
        super().__init__(f"[{constraint}] {message}")
        self.constraint = constraint


@dataclass(slots=True)
class ToolConfig:
    dedup_min_chars: int = DEFAULT_MIN_CHARS
    dedup_min_tokens: int = DEFAULT_MIN_TOKENS
    dev_fraction: float = DEFAULT_DEV_FRACTION
    min_test_sentences: int = DEFAULT_MIN_TEST
    atomicity_exceptions: tuple[str, ...] = ()
    iri_window: int | str = "sentence"
    pronoun_person_repair: bool = False
    include_upos_in_string: bool = False
    legality_rules: tuple[str, ...] = DEFAULT_LEGALITY_RULES
    lasla_mapping: ColumnMapping = field(default_factory=lambda: DEFAULT_LASLA_MAPPING)
    tense_table: TenseAspectTable = field(default_factory=TenseAspectTable.default)
    config_hash: str = "default"

    @classmethod
    def load(cls, path: str | Path | None) -> "ToolConfig":
        if path is None:
            return cls()
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path}: not UTF-8 text ({exc.reason})") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path}: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data) -> "ToolConfig":
        try:
            config = cls(**_object("config", _FIELDS, data))
        except ValueError as exc:  # also a MappingError or a bad tense/aspect table
            raise ConfigError(str(exc)) from exc
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        config.config_hash = hashlib.sha256(canonical.encode()).hexdigest()[:12]
        return config


def _object(what: str, fields: dict, data, prefix: str = "") -> dict:
    """The values of the JSON object ``data``, each turned by its key's
    coercer in ``fields``; ``prefix`` starts each key's name in errors."""
    if type(data) is not dict:
        raise ConfigError(f"{what} must be a JSON object, got {json.dumps(data)}")
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return {key: coerce(prefix + key, data[key]) for key, coerce in fields.items() if key in data}


def _checked(expected: str, valid, convert=None):
    """A coercer that keeps a JSON value ``valid`` accepts, or names ``expected``."""
    def coerce(name: str, value):
        if not valid(value):
            raise ConfigError(f"{name} must be {expected}, got {json.dumps(value)}")
        return value if convert is None else convert(value)
    return coerce


def _integer(minimum: int):
    return _checked(f"a JSON integer >= {minimum}", lambda v: type(v) is int and v >= minimum)


def _is(kind: type):
    """A check that a JSON value has exactly this type: a JSON boolean is no integer."""
    return lambda value: type(value) is kind


def _array_of(valid):
    return lambda value: type(value) is list and all(map(valid, value))


def _object_of(valid):
    return lambda value: type(value) is dict and all(map(valid, value.values()))


_boolean = _checked("true or false", lambda v: isinstance(v, bool))
_strings = _checked("a JSON array of strings", _array_of(_is(str)), tuple)


def _legality_rules(name: str, value) -> tuple[str, ...]:
    rules = _strings(name, value)
    unknown = [rule for rule in rules if rule not in LEGALITY_RULES]
    if unknown:
        raise ConfigError(f"{name} names unknown rules {unknown}")
    return rules


# lasla_mapping key -> the function that turns its JSON value into the
# ColumnMapping argument.
_MAPPING_FIELDS = {
    "columns": _checked("a JSON object of integers", _object_of(_is(int))),
    "n_columns": _checked("a JSON integer", _is(int)),
    "separator": _checked("a non-empty string", lambda v: type(v) is str and v != ""),
    "feature_renames": _checked("a JSON object of strings", _object_of(_is(str))),
    "value_renames": _checked(
        "a JSON object of objects of strings", _object_of(_object_of(_is(str)))
    ),
    "known_values": _checked(
        "null or a JSON object of string arrays",
        lambda v: v is None or _object_of(_array_of(_is(str)))(v),
        lambda v: None if v is None else {name: frozenset(values) for name, values in v.items()},
    ),
}

# Config key -> the function that turns its JSON value into the field's value.
_FIELDS = {
    "dedup_min_chars": _integer(1),
    "dedup_min_tokens": _integer(1),
    "dev_fraction": _checked(
        "a JSON number in [0, 1]", lambda v: type(v) in (int, float) and 0 <= v <= 1, float
    ),
    "min_test_sentences": _integer(0),
    "atomicity_exceptions": _strings,
    "iri_window": _checked(
        '"sentence" or a JSON integer >= 0', lambda v: v == "sentence" or type(v) is int and v >= 0
    ),
    "pronoun_person_repair": _boolean,
    "include_upos_in_string": _boolean,
    "legality_rules": _legality_rules,
    "lasla_mapping": lambda name, value: ColumnMapping(
        **_object(name, _MAPPING_FIELDS, value, f"{name}.")
    ),
    "tense_table": _checked(
        "a JSON object of strings or nulls",
        _object_of(lambda v: v is None or type(v) is str),
        TenseAspectTable.from_overrides,
    ),
}
