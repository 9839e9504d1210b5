"""Tool configuration: one JSON document overriding pinned defaults.

Flags override config, config overrides defaults. The resolved document
is hashed so every report can name the exact configuration it was
produced under.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .conllu import ColumnMapping
from .dedup import DEFAULT_MIN_CHARS, DEFAULT_MIN_TOKENS
from .lasla import DEFAULT_LASLA_MAPPING
from .splits import DEFAULT_DEV_FRACTION, DEFAULT_MIN_TEST
from .standardize import DEFAULT_LEGALITY_RULES, LEGALITY_RULES, TenseAspectTable


class ConfigError(ValueError):
    pass


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
        raw = Path(path).read_text(encoding="utf-8")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path}: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "ToolConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {json.dumps(data)}")
        unknown = set(data) - set(_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config = cls()
        for name, coerce in _FIELDS.items():
            if name in data:
                try:
                    setattr(config, name, coerce(name, data[name]))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(str(exc)) from exc
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        config.config_hash = hashlib.sha256(canonical.encode()).hexdigest()[:12]
        return config


def _checked(expected: str, valid, convert=None):
    """A coercer that keeps a JSON value ``valid`` accepts, or names ``expected``."""
    def coerce(name: str, value):
        if not valid(value):
            raise ConfigError(f"{name} must be {expected}, got {json.dumps(value)}")
        return value if convert is None else convert(value)
    return coerce


def _integer(minimum: int):
    return _checked(f"a JSON integer >= {minimum}", lambda v: type(v) is int and v >= minimum)


_boolean = _checked("true or false", lambda v: isinstance(v, bool))
_strings = _checked(
    "a JSON array of strings", lambda v: type(v) is list and all(type(s) is str for s in v), tuple
)


def _legality_rules(name: str, value) -> tuple[str, ...]:
    rules = _strings(name, value)
    unknown = [rule for rule in rules if rule not in LEGALITY_RULES]
    if unknown:
        raise ConfigError(f"{name} names unknown rules {unknown}")
    return rules


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
    "lasla_mapping": lambda name, value: ColumnMapping.from_dict(value, name),
    "tense_table": lambda _, value: TenseAspectTable.from_overrides(value),
}
