#!/usr/bin/env python3
"""Seeded, scale-parameterized input generator for the benchmark.

Writes the inputs of one workload into a directory: raw UD-flavor and
LASLA-flavor corpora with planted duplicates, a metadata table, a
config, the planted-pair list, and (for ``score``) a gold file in the
standard scheme with two prediction files. The same seed and scale
give byte-identical files.

The generator is stdlib only and never imports latintb, so the
benchmark's oracles do not share code with the program they check.

    python3 perfbench/gen.py --workload prep --seed 1 --out /tmp/prep-in
"""

from __future__ import annotations

import argparse
import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path

VOWELS = "aeiou"
CONSONANTS = "bcdfglmnprst"

# Fixed-inventory function words; open classes come from a seeded
# pseudo-Latin lexicon wide enough that two unrelated sentences do not
# share a 20-character or 5-token prefix or suffix by accident.
ADVS = ["semper", "bene", "nunc", "saepe", "ibi", "iam"]
CCONJS = ["et", "atque", "sed", "aut"]
ADPS = ["in", "ad", "de", "ab", "ex"]
SCONJS = ["ut", "si", "quia"]
PARTS = ["non", "ne"]
INTJS = ["heu", "o"]

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
CASE_NUMBER = list(NOUN_ENDINGS["Fem"])
GENDERS = ("Masc", "Fem", "Neut")

# work, treebank, author, century, is_bible, genres, sentences at scale 1
WORK_PLAN = [
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
# work, author, duplicate source, full dups, prefix dups, unique (scale 1)
LASLA_PLAN = [
    ("lasla_alpha", "Cicero", "cl_alpha", 25, 5, 15),
    ("lasla_beta", "Caesar", "cl_beta", 20, 5, 15),
    ("lasla_solo", "Plautus", None, 0, 0, 35),
]
# Test sets must hold this many sentences per unit of scale; at scale 1
# the smallest free Classical work (40 sentences) fills it alone.
MIN_TEST_PER_SCALE = 30


@dataclass
class Item:
    """One logical word with its UD-side and LASLA-side annotations."""

    form: str  # base orthography: lowercase, u/i only
    lemma: str
    upos_ud: str
    upos_lasla: str
    feats_ud: dict = field(default_factory=dict)
    feats_lasla: dict = field(default_factory=dict)
    misc_ud: list = field(default_factory=list)


@dataclass
class Lexicon:
    nouns: list[tuple[str, str]]  # (stem, gender)
    verbs: list[str]
    adjs: list[str]
    propns: list[tuple[str, str]]  # (form, gender)


def make_lexicon(rng: random.Random) -> Lexicon:
    seen: set[str] = set()

    def stems(count: int) -> list[str]:
        out = []
        while len(out) < count:
            stem = "".join(
                rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(2)
            ) + rng.choice(CONSONANTS)
            if stem not in seen:
                seen.add(stem)
                out.append(stem)
        return out

    return Lexicon(
        nouns=[(s, rng.choice(GENDERS)) for s in stems(2000)],
        verbs=stems(1000),
        adjs=stems(600),
        propns=[(s.capitalize() + rng.choice(("us", "a", "o")), rng.choice(("Masc", "Fem")))
                for s in stems(400)],
    )


def canonical_feats(feats: dict) -> str:
    """UD canonical FEATS: names ascending case-insensitively, values sorted."""
    if not feats:
        return "_"
    parts = []
    for name in sorted(feats, key=lambda n: (n.lower(), n)):
        values = feats[name]
        if isinstance(values, str):
            values = [values]
        parts.append(f"{name}={','.join(sorted(values))}")
    return "|".join(parts)


def lasla_number(number: str) -> str:
    return "Plural" if number == "Plur" else number


class ItemMaker:
    """Draws annotated words from the lexicon with one seeded stream."""

    def __init__(self, rng: random.Random, lexicon: Lexicon):
        self.rng = rng
        self.lex = lexicon

    def noun(self) -> Item:
        rng = self.rng
        stem, gender = rng.choice(self.lex.nouns)
        case, number = rng.choice(CASE_NUMBER)
        form = stem + NOUN_ENDINGS[gender][(case, number)]
        feats_ud = {"Case": case, "Gender": gender, "Number": number}
        genders = [gender]
        if rng.random() < 0.3:
            genders.append(rng.choice([g for g in GENDERS if g != gender]))
            if rng.random() < 0.2:
                genders = list(GENDERS)
        feats_lasla = {"Case": case, "Gender": sorted(set(genders)),
                       "Number": lasla_number(number)}
        if rng.random() < 0.05:  # planted annotation disagreement
            feats_lasla["Case"] = rng.choice([c for c in ("Nom", "Gen", "Dat", "Acc", "Abl") if c != case])
        return Item(form, stem + NOUN_ENDINGS[gender][("Nom", "Sing")], "NOUN", "NOUN",
                    feats_ud, feats_lasla)

    def propn(self) -> Item:
        form, gender = self.rng.choice(self.lex.propns)
        return Item(form.lower(), form, "PROPN", "PROPN",
                    {"Case": "Nom", "Gender": gender, "Number": "Sing"},
                    {"Case": "Nom", "Gender": [gender], "Number": "Sing"})

    def adj(self) -> Item:
        rng = self.rng
        stem = rng.choice(self.lex.adjs)
        case, number = rng.choice(CASE_NUMBER)
        gender = rng.choice(GENDERS)
        if rng.random() < 0.25:
            form = stem + "ior"
            feats_ud = {"Case": case, "Degree": "Cmp", "Gender": gender, "Number": number}
            feats_lasla = {"Case": case, "Degree": "Cmp", "Gender": [gender],
                           "Number": lasla_number(number)}
        else:
            form = stem + NOUN_ENDINGS[gender][(case, number)]
            feats_ud = {"Case": case, "Gender": gender, "Number": number}
            # LASLA alone marks the positive degree; a rare "Sup" is
            # outside its declared inventory and counts as unknown
            degree = "Sup" if rng.random() < 0.03 else "Pos"
            feats_lasla = {"Case": case, "Degree": degree, "Gender": [gender],
                           "Number": lasla_number(number)}
        return Item(form, stem + "us", "ADJ", "ADJ", feats_ud, feats_lasla)

    def verb(self) -> Item:
        rng = self.rng
        stem = rng.choice(self.lex.verbs)
        lemma = stem + "o"
        kind = rng.choice(
            ("pres", "pres", "subj", "subj", "impf", "perf", "fut", "futp", "pqp",
             "pass", "inf", "infperf", "part", "ger", "gdv", "sup")
        )
        number = rng.choice(("Sing", "Plur"))
        n_l = lasla_number(number)
        sing = number == "Sing"

        def finite(suffix_s, suffix_p, tense, aspect, trad, mood="Ind", voice="Act"):
            ud = {"Aspect": aspect, "Mood": mood, "Number": number, "Person": "3",
                  "Tense": tense, "VerbForm": "Fin", "Voice": voice}
            la = {"Aspect": aspect, "Mood": mood, "Number": n_l, "Person": "3",
                  "Tense": tense, "Voice": voice}
            misc = [("TraditionalMood", mood), ("TraditionalTense", trad)]
            return Item(stem + (suffix_s if sing else suffix_p), lemma, "VERB", "VERB",
                        ud, la, misc)

        if kind == "pres":
            return finite("at", "ant", "Pres", "Imp", "Pres")
        if kind == "subj":
            return finite("et", "ent", "Pres", "Imp", "Pres", mood="Sub")
        if kind == "impf":
            return finite("abat", "abant", "Past", "Imp", "Imp")
        if kind == "perf":
            return finite("auit", "auerunt", "Past", "Perf", "Perf")
        if kind == "fut":
            return finite("abit", "abunt", "Fut", "Imp", "Fut")
        if kind == "futp":
            # TraditionalTense says Fut; only Aspect separates it from the future
            return finite("auerit", "auerint", "Fut", "Perf", "Fut")
        if kind == "pqp":
            return finite("auerat", "auerant", "Pqp", "Perf", "Pqp")
        if kind == "pass":
            return finite("atur", "antur", "Pres", "Imp", "Pres", voice="Pass")
        if kind in ("inf", "infperf"):
            aspect = "Imp" if kind == "inf" else "Perf"
            feats = {"Aspect": aspect, "VerbForm": "Inf", "Voice": "Act"}
            return Item(stem + ("are" if kind == "inf" else "auisse"), lemma, "VERB", "VERB",
                        feats, dict(feats))
        if kind == "part":
            case, pnumber = rng.choice(CASE_NUMBER)
            gender = rng.choice(GENDERS)
            ud = {"Aspect": "Imp", "Case": case, "Gender": gender, "Number": pnumber,
                  "Tense": "Pres", "VerbForm": "Part", "Voice": "Act"}
            la = {"Aspect": "Imp", "Case": case, "Gender": [gender],
                  "Number": lasla_number(pnumber), "Tense": "Pres",
                  "VerbForm": "Part", "Voice": "Act"}
            return Item(stem + "ans", lemma, "VERB", "VERB", ud, la,
                        [("TraditionalMood", "Part"), ("TraditionalTense", "Pres")])
        if kind == "ger":
            # gerund with harmonization fodder: spurious number/gender/voice
            ud = {"Aspect": "Prosp", "Case": "Acc", "Gender": "Neut", "Number": "Sing",
                  "VerbForm": "Vnoun", "Voice": "Pass"}
            la = {"Case": "Acc", "Gender": ["Neut"], "Number": "Sing",
                  "VerbForm": "Ger", "Voice": "Pass"}
            return Item(stem + "andum", lemma, "VERB", "VERB", ud, la,
                        [("TraditionalMood", "Ger")])
        if kind == "gdv":
            case, pnumber = rng.choice(CASE_NUMBER)
            gender = rng.choice(GENDERS)
            ud = {"Case": case, "Gender": gender, "Number": pnumber, "Tense": "Pres",
                  "VerbForm": "Part", "Voice": "Act"}
            la = {"Case": case, "Gender": [gender], "Number": lasla_number(pnumber),
                  "Tense": "Pres", "VerbForm": "Gdv", "Voice": "Act"}
            return Item(stem + "andus", lemma, "VERB", "VERB", ud, la,
                        [("TraditionalMood", "Gdv")])
        ud = {"Case": "Acc", "VerbForm": "Part", "Voice": "Pass", "Number": "Sing"}
        la = {"Case": "Acc", "Number": "Sing", "VerbForm": "Sup", "Voice": "Pass"}
        return Item(stem + "atum", lemma, "VERB", "VERB", ud, la, [("TraditionalMood", "Sup")])

    def aux(self) -> Item:
        rng = self.rng
        form, trad, ud_tense, aspect = rng.choice(
            (("est", "Pres", "Pres", "Imp"), ("erat", "Imp", "Past", "Imp"),
             ("erit", "Fut", "Fut", "Imp"), ("fuit", "Perf", "Past", "Perf"))
        )
        voice = "Pass" if rng.random() < 0.3 else "Act"  # for the AUX rule
        ud = {"Aspect": aspect, "Mood": "Ind", "Number": "Sing", "Person": "3",
              "Tense": ud_tense, "VerbForm": "Fin", "Voice": voice}
        la = {"Aspect": aspect, "Mood": "Ind", "Number": "Sing", "Person": "3",
              "Tense": ud_tense, "Voice": voice}
        return Item(form, "sum", "AUX", "AUX", ud, la,
                    [("TraditionalMood", "Ind"), ("TraditionalTense", trad)])

    def pron(self) -> Item:
        rng = self.rng
        form, person, number = rng.choice(
            (("ego", "1", "Sing"), ("tu", "2", "Sing"), ("nos", "1", "Plur"), ("uos", "2", "Plur"))
        )
        case = rng.choice(("Nom", "Acc", "Dat"))
        # LASLA leaves Person unannotated on personal pronouns
        return Item(form, form if form != "nos" else "ego", "PRON", "PRON",
                    {"Case": case, "Number": number, "Person": person},
                    {"Case": case, "Number": lasla_number(number)})

    def simple(self, kind: str) -> Item:
        words = {"ADV": ADVS, "CCONJ": CCONJS, "ADP": ADPS, "SCONJ": SCONJS,
                 "PART": PARTS, "INTJ": INTJS}[kind]
        form = self.rng.choice(words)
        # interjection: UD says INTJ, LASLA already says PART
        return Item(form, form, kind, "PART" if kind == "INTJ" else kind)

    def extra_nouns(self) -> list[Item]:
        return [self.noun() for _ in range(self.rng.randint(1, 3))]

    def sentence(self) -> list[Item]:
        rng = self.rng
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
        makers = {"NOUN": self.noun, "PROPN": self.propn, "ADJ": self.adj,
                  "VERB": self.verb, "AUX": self.aux, "PRON": self.pron}
        items = [makers[k]() if k in makers else self.simple(k) for k in template]
        if rng.random() < 0.08:
            items.extend(supine_iri_pair(rng.choice(self.lex.verbs)))
        if rng.random() < 0.15:
            items.extend(self.extra_nouns())
        return items


def supine_iri_pair(stem: str) -> list[Item]:
    sup = Item(stem + "atum", stem + "o", "VERB", "VERB",
               {"Case": "Acc", "VerbForm": "Part", "Voice": "Act"},
               {"Case": "Acc", "VerbForm": "Sup", "Voice": "Act"},
               [("TraditionalMood", "Sup")])
    iri = Item("iri", "eo", "VERB", "VERB",
               {"Aspect": "Imp", "VerbForm": "Inf", "Voice": "Pass"},
               {"Aspect": "Imp", "VerbForm": "Inf", "Voice": "Pass"})
    return [sup, iri]


def decorate_ud(form: str, rng: random.Random) -> str:
    """Reintroduce v/j spellings on the UD side; normalization undoes it."""
    if len(form) > 1 and form[0] == "u" and form[1] in VOWELS and rng.random() < 0.7:
        return "v" + form[1:]
    if len(form) > 1 and form[0] == "i" and form[1] in VOWELS and rng.random() < 0.4:
        return "j" + form[1:]
    return form


def ud_block(sent_id: str, items: list[Item], rng: random.Random) -> list[str]:
    """One UD sentence: decorated forms, capitalization, punctuation,
    an occasional multiword-token line."""
    forms = [decorate_ud(item.form, rng) for item in items]
    forms[0] = forms[0].capitalize()
    comma_at = rng.randint(1, len(items) - 2) if len(items) > 3 and rng.random() < 0.5 else None
    mwt_at = rng.randint(0, len(items) - 2) if rng.random() < 0.12 else None
    rows = []
    tid = 0
    for position, (item, form) in enumerate(zip(items, forms)):
        if position == mwt_at:
            rows.append(f"{tid + 1}-{tid + 2}\t{form}{forms[position + 1]}\t_\t_\t_\t_\t_\t_\t_\t_")
        tid += 1
        misc = list(item.misc_ud)
        if position == comma_at:
            misc.append(("SpaceAfter", "No"))
        misc_s = "|".join(f"{k}={v}" for k, v in misc) or "_"
        rows.append(f"{tid}\t{form}\t{item.lemma}\t{item.upos_ud}\t_\t"
                    f"{canonical_feats(item.feats_ud)}\t_\t_\t_\t{misc_s}")
        if position == comma_at:
            tid += 1
            rows.append(f"{tid}\t,\t,\tPUNCT\t_\t_\t_\t_\t_\t_")
    tid += 1
    rows.append(f"{tid}\t.\t.\tPUNCT\t_\t_\t_\t_\t_\t_")
    text = " ".join(f + (" ," if i == comma_at else "") for i, f in enumerate(forms)) + " ."
    return [f"# sent_id = {sent_id}", f"# text = {text}"] + rows


def lasla_block(sent_id: str, items: list[Item]) -> list[str]:
    rows = [f"{tid}\t{item.form}\t{item.lemma}\t{item.upos_lasla}\t_\t"
            f"{canonical_feats(item.feats_lasla)}\t_\t_\t_\t_"
            for tid, item in enumerate(items, start=1)]
    return [f"# sent_id = {sent_id}"] + rows


def write_blocks(path: Path, blocks: list[list[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n\n".join("\n".join(b) for b in blocks) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Duplicate-candidate oracle, written from the documented rule: candidates
# share a normalized prefix or suffix of >= 20 characters or >= 5 tokens;
# normalization lowercases, maps j->i and v->u and drops punctuation.

MIN_CHARS = 20
MIN_TOKENS = 5


def norm_forms(forms: list[str]) -> list[str]:
    table = str.maketrans("jv", "iu")
    return [f.lower().translate(table) for f in forms
            if f and not all(ch in string.punctuation for ch in f)]


def candidate_keys(forms: list[str]) -> list[tuple]:
    keys = []
    chars = " ".join(forms)
    if len(chars) >= MIN_CHARS:
        keys += [("cp", chars[:MIN_CHARS]), ("cs", chars[-MIN_CHARS:])]
    if len(forms) >= MIN_TOKENS:
        keys += [("tp", tuple(forms[:MIN_TOKENS])), ("ts", tuple(forms[-MIN_TOKENS:]))]
    return keys


def candidate_pairs(forms_a: dict[str, list[str]], forms_b: dict[str, list[str]]) -> tuple[set, int]:
    """Distinct (a, b) id pairs sharing a candidate key, and the largest
    number of ``b`` sentences under one key."""
    index: dict[tuple, list[str]] = {}
    for sid, forms in forms_b.items():
        for key in candidate_keys(forms):
            index.setdefault(key, []).append(sid)
    pairs = set()
    for sid, forms in forms_a.items():
        for key in candidate_keys(forms):
            for other in index.get(key, ()):
                pairs.add((sid, other))
    return pairs, max((len(v) for v in index.values()), default=0)


# ---------------------------------------------------------------------------
# Corpora


@dataclass
class Corpus:
    ud: dict[str, list[list[str]]] = field(default_factory=dict)  # work -> blocks
    lasla: dict[str, list[list[str]]] = field(default_factory=dict)
    ud_forms: dict[str, list[str]] = field(default_factory=dict)  # sent_id -> forms
    lasla_forms: dict[str, list[str]] = field(default_factory=dict)
    planted: list[tuple[str, str, str]] = field(default_factory=list)


def build_corpus(rng: random.Random, scale: int) -> Corpus:
    maker = ItemMaker(rng, make_lexicon(rng))
    corpus = Corpus()

    seen_keys: set[tuple] = set()

    def fresh() -> list[Item]:
        # Redraw until the sentence shares no candidate key with any
        # earlier one, so duplicates are only ever planted ones.
        while True:
            items = maker.sentence()
            keys = candidate_keys(norm_forms([i.form for i in items]))
            if not seen_keys.intersection(keys):
                seen_keys.update(keys)
                return items

    pools: dict[str, list[list[Item]]] = {}
    for work, *_meta, count in WORK_PLAN:
        blocks, pool = [], []
        for index in range(1, count * scale + 1):
            items = fresh()
            sid = f"{work}-s{index}"
            blocks.append(ud_block(sid, items, rng))
            corpus.ud_forms[sid] = [i.form for i in items]
            pool.append(items)
        corpus.ud[work] = blocks
        pools[work] = pool

    for work, _author, source, n_full, n_prefix, n_unique in LASLA_PLAN:
        blocks = []
        index = 0
        if source is not None:
            n_full, n_prefix = n_full * scale, n_prefix * scale
            for offset, items in enumerate(pools[source][: n_full + n_prefix]):
                index += 1
                if offset < n_full:
                    kind, dup = "full", items
                else:
                    # keep the first six tokens, replace the tail with
                    # one whose suffix keys are new
                    kind = "prefix"
                    while True:
                        dup = items[:6] + maker.extra_nouns()
                        tail = [k for k in candidate_keys(norm_forms([i.form for i in dup]))
                                if k[0] in ("cs", "ts")]
                        if not seen_keys.intersection(tail):
                            seen_keys.update(tail)
                            break
                sid = f"{work}-s{index}"
                blocks.append(lasla_block(sid, dup))
                corpus.lasla_forms[sid] = [i.form for i in dup]
                corpus.planted.append((f"{source}-s{offset + 1}", sid, kind))
        for _ in range(n_unique * scale):
            index += 1
            sid = f"{work}-s{index}"
            items = fresh()
            blocks.append(lasla_block(sid, items))
            corpus.lasla_forms[sid] = [i.form for i in items]
        corpus.lasla[work] = blocks
    return corpus


def metadata_text(corpus: Corpus) -> str:
    rows = ["treebank\twork_id\tauthor\tcentury\tis_bible\tgenres\ttrain_sents\tdev_sents\ttest_sents"]
    for work, tb, author, century, bible, genres, _count in WORK_PLAN:
        rows.append(f"{tb}\t{work}\t{author}\t{century}\t{'true' if bible else 'false'}\t"
                    f"{genres}\t{len(corpus.ud[work])}\t0\t0")
    for work, author, *_rest in LASLA_PLAN:
        rows.append(f"LASLA\t{work}\t{author}\t-1\tfalse\tnarrative\t{len(corpus.lasla[work])}\t0\t0")
    return "\n".join(rows) + "\n"


def write_corpus(out: Path, corpus: Corpus, config: dict) -> None:
    for work, blocks in corpus.ud.items():
        write_blocks(out / "ud" / f"{work}.conllu", blocks)
    for work, blocks in corpus.lasla.items():
        write_blocks(out / "lasla" / f"{work}.conllu", blocks)
    (out / "metadata.tsv").write_text(metadata_text(corpus), encoding="utf-8")
    (out / "planted.tsv").write_text(
        "sent_a\tsent_b\tkind\n" + "".join(f"{a}\t{b}\t{k}\n" for a, b, k in corpus.planted),
        encoding="utf-8",
    )
    (out / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")


def make_prep(out: Path, seed: int, scale: int) -> None:
    corpus = build_corpus(random.Random(seed), scale)
    norm_ud = {k: norm_forms(v) for k, v in corpus.ud_forms.items()}
    norm_la = {k: norm_forms(v) for k, v in corpus.lasla_forms.items()}
    found, _ = candidate_pairs(norm_ud, norm_la)
    planted = {(a, b) for a, b, _kind in corpus.planted}
    if found != planted:
        raise SystemExit(
            f"lexicon too narrow: {len(found - planted)} accidental candidate pairs, "
            f"{len(planted - found)} planted pairs not candidates"
        )
    write_corpus(out, corpus, {"min_test_sentences": MIN_TEST_PER_SCALE * scale})


# ---------------------------------------------------------------------------
# Scoring inputs: a gold file in the standard 9-feature scheme and two
# prediction files.

STD_CASES = ("Nom", "Gen", "Dat", "Acc", "Abl", "Voc")
STD_TENSES = ("Pres", "Imp", "Perf", "Fut", "Pqp", "FutP")
FEATURE_VALUES = {
    "Case": STD_CASES, "Degree": ("Cmp", "Abs"), "Gender": GENDERS,
    "Mood": ("Ind", "Sub", "Imp", "Inf", "Part", "Ger", "Gdv", "Sup"),
    "Number": ("Sing", "Plur"), "Person": ("1", "2", "3"), "Tense": STD_TENSES,
    "Voice": ("Act", "Pass"),
}


def standard_token(rng: random.Random, lexicon: Lexicon) -> tuple[str, str, dict]:
    """(form, upos, standard feats) for one gold token."""
    roll = rng.random()
    if roll < 0.35:
        stem, gender = rng.choice(lexicon.nouns)
        case, number = rng.choice(CASE_NUMBER)
        return stem + NOUN_ENDINGS[gender][(case, number)], "NOUN", {
            "Case": case, "Gender": gender, "Number": number}
    if roll < 0.5:
        stem = rng.choice(lexicon.adjs)
        case, number = rng.choice(CASE_NUMBER)
        feats = {"Case": case, "Gender": rng.choice(GENDERS), "Number": number}
        if rng.random() < 0.2:
            feats["Degree"] = rng.choice(("Cmp", "Abs"))
        return stem + NOUN_ENDINGS[feats["Gender"]][(case, number)], "ADJ", feats
    if roll < 0.75:
        stem = rng.choice(lexicon.verbs)
        if rng.random() < 0.7:
            mood = "Sub" if rng.random() < 0.35 else rng.choice(("Ind", "Ind", "Imp"))
            feats = {"Mood": mood, "Number": rng.choice(("Sing", "Plur")),
                     "Person": rng.choice(("1", "2", "3")), "Tense": rng.choice(STD_TENSES),
                     "Voice": rng.choice(("Act", "Act", "Pass"))}
            return stem + rng.choice(("at", "et", "abat", "auit", "atur", "ent")), "VERB", feats
        mood = rng.choice(("Inf", "Part", "Ger", "Gdv", "Sup"))
        feats = {"Mood": mood}
        if mood in ("Inf", "Part"):
            feats["Tense"] = rng.choice(("Pres", "Perf"))
            feats["Voice"] = rng.choice(("Act", "Pass"))
        if mood in ("Part", "Gdv"):
            feats.update(Case=rng.choice(STD_CASES), Gender=rng.choice(GENDERS),
                         Number=rng.choice(("Sing", "Plur")))
        if mood == "Ger":
            feats["Case"] = rng.choice(("Gen", "Acc", "Abl"))
        return stem + rng.choice(("are", "ans", "andum", "andus", "atum")), "VERB", feats
    if roll < 0.82:
        form, person, number = rng.choice(
            (("ego", "1", "Sing"), ("tu", "2", "Sing"), ("nos", "1", "Plur"), ("uos", "2", "Plur")))
        return form, "PRON", {"Case": rng.choice(("Nom", "Acc", "Dat")), "Number": number,
                              "Person": person}
    kind = rng.choice(("ADV", "CCONJ", "ADP", "SCONJ", "PART"))
    words = {"ADV": ADVS, "CCONJ": CCONJS, "ADP": ADPS, "SCONJ": SCONJS, "PART": PARTS}[kind]
    return rng.choice(words), kind, {}


def perturb(rng: random.Random, upos: str, feats: dict) -> tuple[str, dict]:
    """A plausible tagging error: NOUN and ADJ swap, or one feature gets
    another value or is dropped; finite Sub is mistaken for Ind."""
    if upos in ("NOUN", "ADJ") and rng.random() < 0.2:
        return ("ADJ" if upos == "NOUN" else "NOUN"), feats
    return upos, _perturb_feats(rng, upos, feats)


def _perturb_feats(rng: random.Random, upos: str, feats: dict) -> dict:
    feats = dict(feats)
    if feats.get("Mood") == "Sub" and rng.random() < 0.5:
        feats["Mood"] = "Ind"
        return feats
    if not feats or rng.random() < 0.15:
        feats["Case" if upos in ("NOUN", "ADJ", "PRON") else "Mood"] = rng.choice(
            STD_CASES if upos in ("NOUN", "ADJ", "PRON") else ("Ind", "Sub"))
        return feats
    name = rng.choice(sorted(feats))
    if rng.random() < 0.2:
        del feats[name]
    else:
        feats[name] = rng.choice([v for v in FEATURE_VALUES[name] if v != feats[name]])
    return feats


def make_score(out: Path, seed: int, n_tokens: int) -> None:
    rng = random.Random(seed)
    lexicon = make_lexicon(rng)
    sentences = []  # (sent_id, [(form, upos, feats)])
    total = 0
    index = 0
    while total < n_tokens:
        index += 1
        tokens = [standard_token(rng, lexicon) for _ in range(rng.randint(4, 14))]
        tokens[0] = (tokens[0][0].capitalize(),) + tokens[0][1:]
        tokens.append((".", "PUNCT", {}))
        sentences.append((f"gold-s{index}", tokens))
        total += len(tokens)
    gold_blocks = [[f"# sent_id = {sid}"] + [
        f"{i}\t{form}\t_\t{upos}\t_\t{canonical_feats(feats)}\t_\t_\t_\t_"
        for i, (form, upos, feats) in enumerate(tokens, start=1)] for sid, tokens in sentences]
    out.mkdir(parents=True, exist_ok=True)
    write_blocks(out / "gold.conllu", gold_blocks)
    write_predictions(out / "gold.conllu", out / "pred_a.conllu", out / "pred_b.conllu", seed)


ERROR_RATE = 0.1  # share of tokens pred_a gets wrong
CHANGED_SHARE = 0.3  # share of sentences where pred_b differs from pred_a


def write_predictions(gold: Path, pred_a: Path, pred_b: Path, seed: int) -> None:
    """Two token-aligned prediction files for a gold file in the standard
    scheme.

    ``pred_a`` errs on a seeded ``ERROR_RATE`` of tokens. ``pred_b`` equals
    ``pred_a`` except on a seeded ``CHANGED_SHARE`` of sentences: a bare
    majority of those gets as many fresh errors again and the rest is
    corrected to gold, so the two systems differ by a small net margin
    and permutation p-values fall between 0 and 1 rather than at 0.
    """
    rng = random.Random(seed ^ 0xB0B)
    blocks = gold.read_text(encoding="utf-8").rstrip("\n").split("\n\n")
    # The net margin grows with the number of changed sentences m, the
    # spread of simulated differences with sqrt(m): a worse share of
    # 1/2 + 1.25/sqrt(m) keeps the observed difference near 1.5 standard
    # deviations of the null whatever the corpus size.
    worse_share = 0.5 + min(0.25, 1.25 / max(1.0, CHANGED_SHARE * len(blocks)) ** 0.5)
    out_a, out_b = [], []
    for block in blocks:
        roll = rng.random()
        mode = None
        if roll < CHANGED_SHARE:
            mode = "worse" if roll < CHANGED_SHARE * worse_share else "better"
        a_lines, b_lines = [], []
        for line in block.split("\n"):
            cols = line.split("\t")
            if line.startswith("#") or not cols[0].isdigit() or cols[3] == "PUNCT":
                a_lines.append(line)
                b_lines.append(line)
                continue
            gold_tag = (cols[3], parse_feats(cols[5]))
            a_tag = perturb(rng, *gold_tag) if rng.random() < ERROR_RATE else gold_tag
            b_tag = a_tag
            if mode == "better":
                b_tag = gold_tag
            elif mode == "worse" and rng.random() < ERROR_RATE:
                b_tag = perturb(rng, *a_tag)
            for tag, lines in ((a_tag, a_lines), (b_tag, b_lines)):
                cols[3], cols[5] = tag[0], canonical_feats(tag[1])
                lines.append("\t".join(cols))
        out_a.append("\n".join(a_lines))
        out_b.append("\n".join(b_lines))
    pred_a.write_text("\n\n".join(out_a) + "\n", encoding="utf-8")
    pred_b.write_text("\n\n".join(out_b) + "\n", encoding="utf-8")


def parse_feats(text: str) -> dict:
    if text == "_":
        return {}
    feats = {}
    for item in text.split("|"):
        name, values = item.split("=", 1)
        feats[name] = values.split(",") if "," in values else values
    return feats


# Workload inputs, sized so one pass of each command sequence takes a few
# seconds to half a minute on a 2-core machine.
PREP_SCALE = 3
SCORE_TOKENS = 8_000


def generate(workload: str, seed: int, out: Path) -> None:
    if workload == "prep":
        make_prep(out, seed, PREP_SCALE)
    elif workload == "score":
        make_score(out, seed, SCORE_TOKENS)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("prep", "score"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
