#!/usr/bin/env python3
"""Generate the deterministic desk-scale fixture corpus under tests/fixtures/.

Builds a synthetic UD-flavor corpus, a LASLA-flavor corpus with planted
duplicate sentences, a metadata table, a 200-sentence round-trip fixture,
and the fixture config. Regenerate with:

    python3 scripts/make_fixtures.py

The script verifies its own planting: the duplicate detector must find
exactly the planted pairs, and the split builder must succeed under the
fixture config.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from latintb.conllu import FeatureBundle
from latintb.dedup import find_duplicates
from latintb import splits
from latintb.metadata import load_metadata
from latintb.pipeline import convert_corpus, load_corpus

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

SEED = 20240602

VOWELS = "aeiou"

NOUNS = [
    ("puell", "Fem", "puella"), ("domin", "Masc", "dominus"), ("bell", "Neut", "bellum"),
    ("agricol", "Fem", "agricola"), ("seru", "Masc", "seruus"), ("uerb", "Neut", "uerbum"),
    ("silu", "Fem", "silua"), ("mur", "Masc", "murus"), ("uin", "Neut", "uinum"),
    ("uit", "Fem", "uita"), ("popul", "Masc", "populus"), ("regn", "Neut", "regnum"),
    ("iniuri", "Fem", "iniuria"), ("amic", "Masc", "amicus"), ("don", "Neut", "donum"),
]
NOUN_ENDINGS = {
    "Fem": {("Nom", "Sing"): "a", ("Gen", "Sing"): "ae", ("Acc", "Sing"): "am",
            ("Abl", "Sing"): "a", ("Nom", "Plur"): "ae", ("Acc", "Plur"): "as",
            ("Abl", "Plur"): "is", ("Gen", "Plur"): "arum"},
    "Masc": {("Nom", "Sing"): "us", ("Gen", "Sing"): "i", ("Acc", "Sing"): "um",
             ("Abl", "Sing"): "o", ("Nom", "Plur"): "i", ("Acc", "Plur"): "os",
             ("Abl", "Plur"): "is", ("Gen", "Plur"): "orum"},
    "Neut": {("Nom", "Sing"): "um", ("Gen", "Sing"): "i", ("Acc", "Sing"): "um",
             ("Abl", "Sing"): "o", ("Nom", "Plur"): "a", ("Acc", "Plur"): "a",
             ("Abl", "Plur"): "is", ("Gen", "Plur"): "orum"},
}
CASE_NUMBER = list(NOUN_ENDINGS["Fem"].keys())

VERBS = [("am", "amo"), ("laud", "laudo"), ("port", "porto"), ("uoc", "uoco"),
         ("pugn", "pugno"), ("ambul", "ambulo"), ("narr", "narro"), ("cant", "canto"),
         ("nauig", "nauigo"), ("liber", "libero")]

ADJS = [("magn", "magnus"), ("bon", "bonus"), ("mal", "malus"), ("alt", "altus")]

ADVS = ["semper", "bene", "nunc", "saepe", "ibi", "iam"]
CCONJS = ["et", "atque", "sed", "aut"]
ADPS = ["in", "ad", "de", "ab", "ex"]
SCONJS = ["ut", "si", "quia"]
PARTS = ["non", "ne"]
INTJS = ["heu", "o"]
PROPNS = [("Marcus", "Masc"), ("Iulia", "Fem"), ("Roma", "Fem"), ("Cato", "Masc")]


@dataclass
class Item:
    """One logical word with its UD-side and LASLA-side annotations."""

    form: str            # base orthography: lowercase, u/i only
    lemma: str
    upos_ud: str
    upos_lasla: str
    feats_ud: dict = field(default_factory=dict)
    feats_lasla: dict = field(default_factory=dict)
    misc_ud: list = field(default_factory=list)


def decorate_ud(form: str, rng: random.Random) -> str:
    """Reintroduce v/j spellings on the UD side; normalization undoes it."""
    if len(form) > 1 and form[0] == "u" and form[1] in VOWELS and rng.random() < 0.7:
        return "v" + form[1:]
    if len(form) > 1 and form[0] == "i" and form[1] in VOWELS and rng.random() < 0.4:
        return "j" + form[1:]
    return form


def lasla_number(number: str) -> str:
    return "Plural" if number == "Plur" else number


def noun_item(rng: random.Random) -> Item:
    stem, gender, lemma = rng.choice(NOUNS)
    case, number = rng.choice(CASE_NUMBER)
    form = stem + NOUN_ENDINGS[gender][(case, number)]
    feats_ud = {"Case": case, "Gender": gender, "Number": number}
    genders = [gender]
    if rng.random() < 0.3:
        genders.append(rng.choice([g for g in ("Masc", "Fem", "Neut") if g != gender]))
        if rng.random() < 0.2:
            genders = ["Masc", "Fem", "Neut"]
    feats_lasla = {"Case": case, "Gender": sorted(set(genders)),
                   "Number": lasla_number(number)}
    if rng.random() < 0.05:  # planted annotation disagreement
        feats_lasla["Case"] = rng.choice([c for c in "Nom Gen Dat Acc Abl".split() if c != case])
    return Item(form, lemma, "NOUN", "NOUN", feats_ud, feats_lasla)


def propn_item(rng: random.Random) -> Item:
    form, gender = rng.choice(PROPNS)
    feats = {"Case": "Nom", "Gender": gender, "Number": "Sing"}
    return Item(form.lower(), form, "PROPN", "PROPN", dict(feats),
                {"Case": "Nom", "Gender": [gender], "Number": "Sing"})


def adj_item(rng: random.Random) -> Item:
    stem, lemma = rng.choice(ADJS)
    case, number = rng.choice(CASE_NUMBER)
    gender = rng.choice(("Masc", "Fem", "Neut"))
    comparative = rng.random() < 0.25
    if comparative:
        form = stem + "ior"
        feats_ud = {"Case": case, "Degree": "Cmp", "Gender": gender, "Number": number}
        feats_lasla = {"Case": case, "Degree": "Cmp", "Gender": [gender],
                       "Number": lasla_number(number)}
    else:
        form = stem + NOUN_ENDINGS[gender][(case, number)]
        feats_ud = {"Case": case, "Gender": gender, "Number": number}
        # LASLA alone marks the positive degree
        feats_lasla = {"Case": case, "Degree": "Pos", "Gender": [gender],
                       "Number": lasla_number(number)}
    return Item(form, lemma, "ADJ", "ADJ", feats_ud, feats_lasla)


# finite kind: singular ending, plural ending, Aspect, UD Tense, TraditionalTense, Voice
FINITE_FORMS = {
    "pres": ("at", "ant", "Imp", "Pres", "Pres", "Act"),
    "impf": ("abat", "abant", "Imp", "Past", "Imp", "Act"),
    "perf": ("auit", "auerunt", "Perf", "Past", "Perf", "Act"),
    "fut": ("abit", "abunt", "Imp", "Fut", "Fut", "Act"),
    # TraditionalTense says Fut; only Aspect separates it from the future
    "futp": ("auerit", "auerint", "Perf", "Fut", "Fut", "Act"),
    "pqp": ("auerat", "auerant", "Perf", "Pqp", "Pqp", "Act"),
    "pass": ("atur", "antur", "Imp", "Pres", "Pres", "Pass"),
}


def verb_item(rng: random.Random) -> Item:
    stem, lemma = rng.choice(VERBS)
    kind = rng.choice(
        ("pres", "pres", "impf", "perf", "fut", "futp", "pqp", "pass",
         "inf", "infperf", "part", "ger", "gdv", "sup")
    )
    person, number = "3", rng.choice(("Sing", "Plur"))
    n_l = lasla_number(number)

    if kind in FINITE_FORMS:
        singular, plural, aspect, tense, trad_tense, voice = FINITE_FORMS[kind]
        form = stem + (singular if number == "Sing" else plural)
        ud = {"Aspect": aspect, "Mood": "Ind", "Number": number, "Person": person,
              "Tense": tense, "VerbForm": "Fin", "Voice": voice}
        misc = [("TraditionalMood", "Ind"), ("TraditionalTense", trad_tense)]
        la = {"Aspect": aspect, "Mood": "Ind", "Number": n_l, "Person": person,
              "Tense": tense, "Voice": voice}
    elif kind == "inf":
        # infinitives carry no TraditionalTense; Aspect decides
        form = stem + "are"
        ud = {"Aspect": "Imp", "VerbForm": "Inf", "Voice": "Act"}
        misc = []
        la = {"Aspect": "Imp", "VerbForm": "Inf", "Voice": "Act"}
    elif kind == "infperf":
        form = stem + "auisse"
        ud = {"Aspect": "Perf", "VerbForm": "Inf", "Voice": "Act"}
        misc = []
        la = {"Aspect": "Perf", "VerbForm": "Inf", "Voice": "Act"}
    elif kind == "part":
        case, pnumber = rng.choice(CASE_NUMBER)
        gender = rng.choice(("Masc", "Fem", "Neut"))
        form = stem + "ans"
        ud = {"Aspect": "Imp", "Case": case, "Gender": gender, "Number": pnumber,
              "Tense": "Pres", "VerbForm": "Part", "Voice": "Act"}
        misc = [("TraditionalMood", "Part"), ("TraditionalTense", "Pres")]
        la = {"Aspect": "Imp", "Case": case, "Gender": [gender],
              "Number": lasla_number(pnumber), "Tense": "Pres",
              "VerbForm": "Part", "Voice": "Act"}
    elif kind == "ger":
        # gerund with harmonization fodder: spurious number/gender/tense/voice
        form = stem + "andum"
        ud = {"Aspect": "Prosp", "Case": "Acc", "Gender": "Neut", "Number": "Sing",
              "VerbForm": "Vnoun", "Voice": "Pass"}
        misc = [("TraditionalMood", "Ger")]
        la = {"Case": "Acc", "Gender": ["Neut"], "Number": "Sing",
              "VerbForm": "Ger", "Voice": "Pass"}
    elif kind == "gdv":
        case, pnumber = rng.choice(CASE_NUMBER)
        gender = rng.choice(("Masc", "Fem", "Neut"))
        form = stem + "andus"
        ud = {"Case": case, "Gender": gender, "Number": pnumber, "Tense": "Pres",
              "VerbForm": "Part", "Voice": "Act"}
        misc = [("TraditionalMood", "Gdv")]
        la = {"Case": case, "Gender": [gender], "Number": lasla_number(pnumber),
              "Tense": "Pres", "VerbForm": "Gdv", "Voice": "Act"}
    else:  # sup
        form = stem + "atum"
        ud = {"Case": "Acc", "VerbForm": "Part", "Voice": "Pass", "Number": "Sing"}
        misc = [("TraditionalMood", "Sup")]
        la = {"Case": "Acc", "Number": "Sing", "VerbForm": "Sup", "Voice": "Pass"}
    return Item(form, lemma, "VERB", "VERB", ud, la, misc)


def aux_item(rng: random.Random) -> Item:
    form, trad, ud_tense, aspect = rng.choice(
        (("est", "Pres", "Pres", "Imp"), ("erat", "Imp", "Past", "Imp"),
         ("erit", "Fut", "Fut", "Imp"), ("fuit", "Perf", "Past", "Perf"))
    )
    # an occasional stray Voice=Pass for the AUX rule to clean up
    voice = "Pass" if rng.random() < 0.3 else "Act"
    ud = {"Aspect": aspect, "Mood": "Ind", "Number": "Sing", "Person": "3",
          "Tense": ud_tense, "VerbForm": "Fin", "Voice": voice}
    la = {"Aspect": aspect, "Mood": "Ind", "Number": "Sing", "Person": "3",
          "Tense": ud_tense, "Voice": voice}
    return Item(form, "sum", "AUX", "AUX",
                ud, la, [("TraditionalMood", "Ind"), ("TraditionalTense", trad)])


def pron_item(rng: random.Random) -> Item:
    form, person, number = rng.choice(
        (("ego", "1", "Sing"), ("tu", "2", "Sing"), ("nos", "1", "Plur"),
         ("uos", "2", "Plur"))
    )
    case = rng.choice(("Nom", "Acc", "Dat"))
    ud = {"Case": case, "Number": number, "Person": person}
    # LASLA leaves Person unannotated on personal pronouns
    la = {"Case": case, "Number": lasla_number(number)}
    return Item(form, form if form != "nos" else "ego", "PRON", "PRON", ud, la)


def simple_item(rng: random.Random, kind: str) -> Item:
    if kind == "ADV":
        form = rng.choice(ADVS)
        return Item(form, form, "ADV", "ADV")
    if kind == "CCONJ":
        form = rng.choice(CCONJS)
        return Item(form, form, "CCONJ", "CCONJ")
    if kind == "ADP":
        form = rng.choice(ADPS)
        return Item(form, form, "ADP", "ADP")
    if kind == "SCONJ":
        form = rng.choice(SCONJS)
        return Item(form, form, "SCONJ", "SCONJ")
    if kind == "PART":
        form = rng.choice(PARTS)
        return Item(form, form, "PART", "PART")
    # interjection: UD says INTJ, LASLA already says PART
    form = rng.choice(INTJS)
    return Item(form, form, "INTJ", "PART")


def supine_iri_pair() -> list[Item]:
    sup = Item("amatum", "amo", "VERB", "VERB",
               {"Case": "Acc", "VerbForm": "Part", "Voice": "Act"},
               {"Case": "Acc", "VerbForm": "Sup", "Voice": "Act"},
               [("TraditionalMood", "Sup")])
    iri = Item("iri", "eo", "VERB", "VERB",
               {"Aspect": "Imp", "VerbForm": "Inf", "Voice": "Pass"},
               {"Aspect": "Imp", "VerbForm": "Inf", "Voice": "Pass"})
    return [sup, iri]


def make_sentence_items(rng: random.Random) -> list[Item]:
    template = rng.choice(
        (
            ("NOUN", "NOUN", "VERB", "CCONJ", "NOUN", "VERB"),
            ("PROPN", "NOUN", "ADJ", "VERB", "ADV"),
            ("ADP", "NOUN", "NOUN", "VERB", "PART", "VERB"),
            ("PRON", "NOUN", "VERB", "SCONJ", "NOUN", "VERB"),
            ("NOUN", "ADJ", "AUX", "CCONJ", "NOUN", "ADJ", "AUX"),
            ("INTJ", "PROPN", "NOUN", "VERB", "ADV", "NOUN"),
            ("NOUN", "VERB", "ADP", "NOUN", "ADJ", "NOUN", "VERB"),
        )
    )
    items = []
    for kind in template:
        if kind == "NOUN":
            items.append(noun_item(rng))
        elif kind == "PROPN":
            items.append(propn_item(rng))
        elif kind == "ADJ":
            items.append(adj_item(rng))
        elif kind == "VERB":
            items.append(verb_item(rng))
        elif kind == "AUX":
            items.append(aux_item(rng))
        elif kind == "PRON":
            items.append(pron_item(rng))
        else:
            items.append(simple_item(rng, kind))
    if rng.random() < 0.08:
        items.extend(supine_iri_pair())
    if rng.random() < 0.15:
        items.extend(make_extra_nouns(rng))
    return items


def make_extra_nouns(rng: random.Random) -> list[Item]:
    return [noun_item(rng) for _ in range(rng.randint(1, 3))]


def feats_string(feats: dict) -> str:
    if not feats:
        return "_"
    return FeatureBundle.from_dict(feats).to_string()


def ud_sentence_lines(
    work: str, index: int, items: list[Item], rng: random.Random
) -> list[str]:
    """Render one UD sentence: decorated forms, capitalization,
    punctuation, occasional multiword-token line."""
    sent_id = f"{work}-s{index}"
    forms = [decorate_ud(item.form, rng) for item in items]
    forms[0] = forms[0].capitalize()
    comma_at = rng.randint(1, len(items) - 2) if len(items) > 3 and rng.random() < 0.5 else None

    rows = []
    tid = 0
    mwt_at = rng.randint(0, len(items) - 2) if rng.random() < 0.12 else None
    for position, (item, form) in enumerate(zip(items, forms)):
        if position == mwt_at:
            joined = form + forms[position + 1]
            rows.append(f"{tid + 1}-{tid + 2}\t{joined}\t_\t_\t_\t_\t_\t_\t_\t_")
        tid += 1
        misc = list(item.misc_ud)
        if position == comma_at:
            misc.append(("SpaceAfter", "No"))
        misc_s = "|".join(k if v is None else f"{k}={v}" for k, v in misc) or "_"
        rows.append(
            f"{tid}\t{form}\t{item.lemma}\t{item.upos_ud}\t_\t"
            f"{feats_string(item.feats_ud)}\t_\t_\t_\t{misc_s}"
        )
        if position == comma_at:
            tid += 1
            rows.append(f"{tid}\t,\t,\tPUNCT\t_\t_\t_\t_\t_\t_")
    tid += 1
    rows.append(f"{tid}\t.\t.\tPUNCT\t_\t_\t_\t_\t_\t_")

    text_parts = []
    for position, form in enumerate(forms):
        text_parts.append(form)
        if position == comma_at:
            text_parts[-1] += " ,"
    text = " ".join(text_parts) + " ."
    return [f"# sent_id = {sent_id}", f"# text = {text}"] + rows


def lasla_sentence_lines(work: str, index: int, items: list[Item]) -> list[str]:
    sent_id = f"{work}-s{index}"
    rows = []
    for tid, item in enumerate(items, start=1):
        rows.append(
            f"{tid}\t{item.form}\t{item.lemma}\t{item.upos_lasla}\t_\t"
            f"{feats_string(item.feats_lasla)}\t_\t_\t_\t_"
        )
    return [f"# sent_id = {sent_id}"] + rows


WORK_PLAN = [
    # work, treebank, author, century, is_bible, genres, n_sentences
    ("cl_alpha", "Perseus", "Cicero", -1, False, "speech", 60),
    ("cl_beta", "Perseus", "Caesar", -1, False, "history,narrative", 60),
    ("cl_gamma", "Perseus", "Ouidius", 1, False, "epic,poem", 50),
    ("cl_delta", "PROIEL", "Vergilius", -1, False, "epic,poem", 45),
    ("cl_epsilon", "Perseus", "Suetonius", 2, False, "history,narrative", 40),
    ("bible_mark", "PROIEL", "Hieronymus", 4, True, "Bible,Christian", 70),
    ("bible_luke", "PROIEL", "Hieronymus", 4, True, "Bible,Christian", 60),
    ("bible_john", "PROIEL", "Hieronymus", 4, True, "Bible,Christian", 45),
    ("pc_legal1", "LLCT", "Anonymus", 8, False, "legal", 55),
    ("pc_legal2", "LLCT", "Anonymus", 9, False, "legal", 45),
    ("pc_aquinas", "ITTB", "Aquinas", 13, False, "treatise,Christian", 65),
    ("pc_dante", "UDante", "Dante", 14, False, "letter,narrative", 40),
]
LASLA_PLAN = [
    # work, author, duplicate source, n_full_dups, n_prefix_dups, n_unique
    ("lasla_alpha", "Cicero", "cl_alpha", 25, 5, 15),
    ("lasla_beta", "Caesar", "cl_beta", 20, 5, 15),
    ("lasla_solo", "Plautus", None, 0, 0, 35),
]


def esse_as_noun_lines(work: str, index: int) -> list[str]:
    # ITTB's esse-as-NOUN quirk, left for the linter to flag
    sent_id = f"{work}-s{index}"
    return [
        f"# sent_id = {sent_id}",
        "# text = Esse bonum est .",
        "1\tEsse\tsum\tNOUN\t_\t_\t_\t_\t_\t_",
        "2\tbonum\tbonus\tADJ\t_\tCase=Nom|Gender=Neut|Number=Sing\t_\t_\t_\t_",
        "3\test\tsum\tAUX\t_\tAspect=Imp|Mood=Ind|Number=Sing|Person=3|Tense=Pres|VerbForm=Fin|Voice=Act\t_\t_\t_\tTraditionalMood=Ind|TraditionalTense=Pres",
        "4\t.\t.\tPUNCT\t_\t_\t_\t_\t_\t_",
    ]


def generate_corpora(rng: random.Random):
    ud_files: dict[str, list[str]] = {}
    lasla_files: dict[str, list[str]] = {}
    planted: list[tuple[str, str, str]] = []

    # logical item sequences for works that get duplicated into LASLA
    shared_pools: dict[str, list[list[Item]]] = {}

    for work, _tb, _author, _century, _bible, _genres, count in WORK_PLAN:
        blocks = []
        pool = []
        for index in range(1, count + 1):
            if work == "pc_aquinas" and index in (3, 17):
                blocks.append(esse_as_noun_lines(work, index))
                pool.append(None)
                continue
            items = make_sentence_items(rng)
            pool.append(items)
            blocks.append(ud_sentence_lines(work, index, items, rng))
        ud_files[work] = blocks
        shared_pools[work] = pool

    for work, _author, source, n_full, n_prefix, n_unique in LASLA_PLAN:
        blocks = []
        index = 0
        if source is not None:
            source_pool = shared_pools[source]
            usable = [i for i, items in enumerate(source_pool) if items is not None]
            chosen = usable[: n_full + n_prefix]
            for offset, src_index in enumerate(chosen):
                index += 1
                items = source_pool[src_index]
                if offset < n_full:
                    dup_items = items
                    kind = "full"
                else:
                    # keep the first six tokens, replace the tail
                    dup_items = items[:6] + make_extra_nouns(rng)
                    kind = "prefix"
                blocks.append(lasla_sentence_lines(work, index, dup_items))
                planted.append((f"{source}-s{src_index + 1}", f"{work}-s{index}", kind))
        for _ in range(n_unique):
            index += 1
            blocks.append(lasla_sentence_lines(work, index, make_sentence_items(rng)))
        lasla_files[work] = blocks

    return ud_files, lasla_files, planted


def metadata_rows(ud_files, lasla_files) -> list[str]:
    rows = ["treebank\twork_id\tauthor\tcentury\tis_bible\tgenres\ttrain_sents\tdev_sents\ttest_sents"]
    for work, tb, author, century, bible, genres, _count in WORK_PLAN:
        total = len(ud_files[work])
        rows.append(
            f"{tb}\t{work}\t{author}\t{century}\t{'true' if bible else 'false'}\t"
            f"{genres}\t{total}\t0\t0"
        )
    for work, author, _src, _f, _p, _u in LASLA_PLAN:
        total = len(lasla_files[work])
        rows.append(f"LASLA\t{work}\t{author}\t-1\tfalse\tnarrative\t{total}\t0\t0")
    return rows


def roundtrip_sentences(rng: random.Random) -> list[str]:
    """200 canonical-form sentences stressing multi-value features, MISC
    keys, multiword tokens, and empty nodes."""
    misc_keys = ["Ref", "SpaceAfter", "TraditionalTense", "TraditionalMood", "Gloss"]
    blocks = []
    for index in range(1, 201):
        n_tokens = rng.randint(2, 9)
        lines = [f"# sent_id = rt-s{index}"]
        if rng.random() < 0.6:
            lines.append(f"# text = synthetic sentence {index}")
        if rng.random() < 0.2:
            lines.append(f"# source = fixture-{rng.randint(1, 9)}")
        tid = 0
        for _ in range(n_tokens):
            if rng.random() < 0.1:
                lines.append(f"{tid + 1}-{tid + 2}\tfusion{rng.randint(1, 99)}\t_\t_\t_\t_\t_\t_\t_\t_")
            tid += 1
            feats = {}
            if rng.random() < 0.7:
                feats["Case"] = rng.choice(("Nom", "Gen", "Acc", "Abl"))
            if rng.random() < 0.5:
                feats["Number"] = rng.choice(("Sing", "Plur"))
            if rng.random() < 0.3:
                feats["Gender"] = sorted(
                    rng.sample(("Masc", "Fem", "Neut"), rng.randint(1, 3))
                )
            if rng.random() < 0.2:
                feats["VerbForm"] = rng.choice(("Fin", "Inf", "Ger", "Gdv", "Sup"))
            misc = []
            for key in misc_keys:
                if rng.random() < 0.15:
                    misc.append(f"{key}={rng.choice(('No', 'Ind', 'x1', 'b2'))}")
            if rng.random() < 0.05:
                misc.append("BareFlag")
            misc_s = "|".join(misc) or "_"
            upos = rng.choice(("NOUN", "VERB", "ADJ", "ADV", "PRON", "X", "_"))
            lines.append(
                f"{tid}\tw{index}t{tid}\tlem{rng.randint(1, 40)}\t{upos}\t"
                f"{rng.choice(('_', 'xp1'))}\t{feats_string(feats)}\t"
                f"{rng.choice(('_', '0', str(max(1, tid - 1))))}\t"
                f"{rng.choice(('_', 'root', 'nsubj', 'obj'))}\t_\t{misc_s}"
            )
            if rng.random() < 0.05:
                lines.append(f"{tid}.1\tnull{tid}\t_\t_\t_\t_\t_\t_\t_\tEmpty=Yes")
        blocks.append(lines)
    return blocks


def write_blocks(path: Path, blocks: list[list[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = "\n\n".join("\n".join(block) for block in blocks) + "\n"
    path.write_text(text, encoding="utf-8")


def self_check(planted) -> None:
    ud, _ = load_corpus(FIXTURES / "ud", "ud")
    lasla, _ = load_corpus(FIXTURES / "lasla", "lasla")
    pairs = find_duplicates(ud, lasla)
    found = {(p.sent_a, p.sent_b) for p in pairs}
    expected = {(a, b) for a, b, _kind in planted}
    if found != expected:
        raise SystemExit(
            f"planted duplicates drifted: missing={sorted(expected - found)[:5]} "
            f"extra={sorted(found - expected)[:5]}"
        )

    metadata = load_metadata(FIXTURES / "metadata.tsv")
    converted = convert_corpus(ud, "ud")
    manifests = splits.build_splits(
        converted.sentences, lasla, metadata, pairs, seed=7, min_test=30
    )
    for manifest in manifests:
        results = splits.audit_splits(
            manifest, converted.sentences, lasla, metadata, pairs, min_test=30
        )
        failed = [r for r in results if not r.passed]
        if failed:
            raise SystemExit(f"{manifest.period}: audit failed {failed}")
    print(f"self-check ok: {len(pairs)} duplicates, {len(manifests)} manifests")


def main() -> None:
    rng = random.Random(SEED)
    ud_files, lasla_files, planted = generate_corpora(rng)
    for work, blocks in ud_files.items():
        write_blocks(FIXTURES / "ud" / f"{work}.conllu", blocks)
    for work, blocks in lasla_files.items():
        write_blocks(FIXTURES / "lasla" / f"{work}.conllu", blocks)
    (FIXTURES / "metadata.tsv").write_text(
        "\n".join(metadata_rows(ud_files, lasla_files)) + "\n", encoding="utf-8"
    )
    write_blocks(FIXTURES / "roundtrip.conllu", roundtrip_sentences(rng))
    (FIXTURES / "planted_duplicates.tsv").write_text(
        "sent_a\tsent_b\tkind\n"
        + "\n".join(f"{a}\t{b}\t{k}" for a, b, k in planted)
        + "\n",
        encoding="utf-8",
    )
    (FIXTURES / "config.json").write_text(
        json.dumps({"min_test_sentences": 30}, indent=2) + "\n", encoding="utf-8"
    )
    self_check(planted)


if __name__ == "__main__":
    main()
