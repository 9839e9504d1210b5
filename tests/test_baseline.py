import pytest

from latintb.baseline import predict_token
from latintb.standardize import StandardRecord

VERB = dict(upos="VERB", tense="Pres")
NOUN = dict(upos="NOUN")


# One form per rule, in a set where the order of the rules matters.
@pytest.mark.parametrize("form, expected", [
    ("amantur", dict(VERB, person="3", number="Plur", mood="Ind", voice="Pass")),  # ntur, not nt
    ("amant", dict(VERB, person="3", number="Plur", mood="Ind", voice="Act")),
    ("amatur", dict(VERB, person="3", number="Sing", mood="Ind", voice="Pass")),
    ("amare", dict(VERB, mood="Inf", voice="Act")),
    ("amat", dict(VERB, person="3", number="Sing", mood="Ind", voice="Act")),
    ("dominorum", dict(NOUN, case="Gen", number="Plur", gender=("Masc",))),
    ("rosarum", dict(NOUN, case="Gen", number="Plur", gender=("Masc",))),
    ("dominis", dict(NOUN, case="Abl", number="Plur", gender=("Masc",))),
    ("rosam", dict(NOUN, case="Acc", number="Sing", gender=("Fem",))),
    ("dominum", dict(NOUN, case="Acc", number="Sing", gender=("Masc",))),
    ("dominus", dict(NOUN, case="Nom", number="Sing", gender=("Masc",))),
    ("rosae", dict(NOUN, case="Gen", number="Sing", gender=("Fem",))),
    ("rosa", dict(NOUN, case="Nom", number="Sing", gender=("Fem",))),
    ("bene", dict(upos="ADV")),
    ("senatusque", dict(upos="CCONJ")),  # que before us
    ("is", dict(upos="PRON", case="Nom", number="Sing")),  # the closed class before the is suffix
    ("ille", dict(upos="PRON", case="Nom", number="Sing")),  # the closed class before the e suffix
    ("et", dict(upos="CCONJ")),
    ("in", dict(upos="ADP")),
    ("Vocat", dict(VERB, person="3", number="Sing", mood="Ind", voice="Act")),  # uocat
    ("lux", dict(NOUN)),  # no rule: a bare noun
])
def test_each_suffix_rule_gives_its_record(form, expected):
    assert predict_token(form) == StandardRecord(**expected)
