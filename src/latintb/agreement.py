"""Annotation agreement over aligned duplicate tokens.

Rows count token pairs where at least one side annotates the feature;
"same" requires exact value-list equality, or membership of the single
UD value in LASLA's value list under the loose gender criterion.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .conllu import Token
from .standardize import STANDARD_FEATURES, StandardRecord

MODE_STRICT = "strict"
MODE_LOOSE_GENDER = "loose-gender"

STAGE_RAW = "raw"
STAGE_CONVERTED = "converted"

# feature name -> sorted value tuple; absent feature = absent key
FeatureView = Mapping[str, tuple[str, ...]]


class AgreementRow(NamedTuple):
    feature: str
    same: int
    total: int

    @property
    def percent(self) -> float:
        return self.same / self.total if self.total else 0.0

    def percent_str(self) -> str:
        return f"{100 * self.percent:.1f}"


class AlignedTokenPair(NamedTuple):
    """One aligned token with both sides' raw tokens and standardized
    records."""

    token_a: Token
    token_b: Token
    record_a: StandardRecord
    record_b: StandardRecord

    def anomalous(self) -> bool:
        return bool(self.record_a.anomalies or self.record_b.anomalies)


def raw_view(token: Token) -> dict[str, tuple[str, ...]]:
    view = {name: tuple(sorted(values)) for name, values in token.feats.items()}
    if token.upos != "_":
        view["UPOS"] = (token.upos,)
    return view


def converted_view(record: StandardRecord) -> dict[str, tuple[str, ...]]:
    return dict(record.set_values(STANDARD_FEATURES))


def _same(values_a: tuple[str, ...], values_b: tuple[str, ...], mode: str) -> bool:
    if values_a == values_b:
        return True
    if mode == MODE_LOOSE_GENDER:
        # single UD value counted as agreeing when LASLA lists it
        return len(values_a) == 1 and values_a[0] in values_b
    return False


def feature_agreement(
    pairs: Sequence[tuple[FeatureView, FeatureView]],
    feature: str,
    mode: str = MODE_STRICT,
) -> AgreementRow:
    if mode not in (MODE_STRICT, MODE_LOOSE_GENDER):
        raise ValueError(f"unknown agreement mode {mode!r}")
    same = total = 0
    for view_a, view_b in pairs:
        values_a = view_a.get(feature, ())
        values_b = view_b.get(feature, ())
        if not values_a and not values_b:
            continue
        total += 1
        if _same(values_a, values_b, mode):
            same += 1
    return AgreementRow(feature=feature, same=same, total=total)


def observed_features(pairs: Sequence[tuple[FeatureView, FeatureView]]) -> list[str]:
    names = set()
    for view_a, view_b in pairs:
        names.update(view_a)
        names.update(view_b)
    return sorted(names)


def agreement_table(
    aligned: Sequence[AlignedTokenPair],
    features: Sequence[str] | None = None,
    stage: str = STAGE_CONVERTED,
    *,
    include_anomalous: bool = True,
) -> list[AgreementRow]:
    """Agreement per feature at one pipeline stage.

    The converted stage reads the 9-feature records (Mood and VerbForm
    already merged into Mood); the raw stage reads the source features.
    A "Gender (loose)" row is appended whenever Gender is reported.
    """
    if not include_anomalous:
        aligned = [p for p in aligned if not p.anomalous()]
    if stage == STAGE_RAW:
        pairs = [(raw_view(p.token_a), raw_view(p.token_b)) for p in aligned]
        if features is None:
            features = observed_features(pairs)
    elif stage == STAGE_CONVERTED:
        pairs = [(converted_view(p.record_a), converted_view(p.record_b)) for p in aligned]
        if features is None:
            features = STANDARD_FEATURES
    else:
        raise ValueError(f"unknown stage {stage!r}")

    rows = []
    for feature in features:
        rows.append(feature_agreement(pairs, feature, MODE_STRICT))
        if feature == "Gender":
            loose = feature_agreement(pairs, "Gender", MODE_LOOSE_GENDER)
            rows.append(AgreementRow(feature="Gender (loose)", same=loose.same, total=loose.total))
    return rows
