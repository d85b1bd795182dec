"""Stemmer checks against the algorithm's published transformations."""

import itertools
import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from agendascope import porter
from agendascope.porter import (_step1a, _step1b, _step1c, _step2, _step3,
                                _step4, _step5a, _step5b, stem)
from oracles import porter_stem_reference

STEP_NAMES = ("_step1a", "_step1b", "_step1c", "_step2", "_step3", "_step4",
              "_step5a", "_step5b")

# Per-step examples straight from the published rule tables.
STEP_CASES = [
    (_step1a, "caresses", "caress"), (_step1a, "ponies", "poni"),
    (_step1a, "ties", "ti"), (_step1a, "caress", "caress"),
    (_step1a, "cats", "cat"),
    (_step1b, "feed", "feed"), (_step1b, "agreed", "agree"),
    (_step1b, "plastered", "plaster"), (_step1b, "bled", "bled"),
    (_step1b, "motoring", "motor"), (_step1b, "sing", "sing"),
    (_step1b, "conflated", "conflate"), (_step1b, "troubled", "trouble"),
    (_step1b, "sized", "size"), (_step1b, "hopping", "hop"),
    (_step1b, "tanned", "tan"), (_step1b, "falling", "fall"),
    (_step1b, "hissing", "hiss"), (_step1b, "fizzed", "fizz"),
    (_step1b, "failing", "fail"), (_step1b, "filing", "file"),
    (_step1c, "happy", "happi"), (_step1c, "sky", "sky"),
    (_step2, "relational", "relate"), (_step2, "conditional", "condition"),
    (_step2, "rational", "rational"), (_step2, "valenci", "valence"),
    (_step2, "hesitanci", "hesitance"), (_step2, "digitizer", "digitize"),
    (_step2, "conformabli", "conformable"), (_step2, "radicalli", "radical"),
    (_step2, "differentli", "different"), (_step2, "vileli", "vile"),
    (_step2, "analogousli", "analogous"),
    (_step2, "vietnamization", "vietnamize"),
    (_step2, "predication", "predicate"), (_step2, "operator", "operate"),
    (_step2, "feudalism", "feudal"), (_step2, "decisiveness", "decisive"),
    (_step2, "hopefulness", "hopeful"), (_step2, "callousness", "callous"),
    (_step2, "formaliti", "formal"), (_step2, "sensitiviti", "sensitive"),
    (_step2, "sensibiliti", "sensible"),
    (_step3, "triplicate", "triplic"), (_step3, "formative", "form"),
    (_step3, "formalize", "formal"), (_step3, "electriciti", "electric"),
    (_step3, "electrical", "electric"), (_step3, "hopeful", "hope"),
    (_step3, "goodness", "good"),
    (_step4, "revival", "reviv"), (_step4, "allowance", "allow"),
    (_step4, "inference", "infer"), (_step4, "airliner", "airlin"),
    (_step4, "gyroscopic", "gyroscop"), (_step4, "adjustable", "adjust"),
    (_step4, "defensible", "defens"), (_step4, "irritant", "irrit"),
    (_step4, "replacement", "replac"), (_step4, "adjustment", "adjust"),
    (_step4, "dependent", "depend"), (_step4, "adoption", "adopt"),
    (_step4, "homologou", "homolog"), (_step4, "communism", "commun"),
    (_step4, "activate", "activ"), (_step4, "angulariti", "angular"),
    (_step4, "homologous", "homolog"), (_step4, "effective", "effect"),
    (_step4, "bowdlerize", "bowdler"),
    (_step5a, "probate", "probat"), (_step5a, "rate", "rate"),
    (_step5a, "cease", "ceas"),
    (_step5b, "controll", "control"), (_step5b, "roll", "roll"),
]

# End-to-end expectations hand-traced through all five steps of the
# published rules (step outputs feed the next step, e.g. relational ->
# relate -> relat via the final e-removal).
FULL_CASES = {
    "caresses": "caress", "ponies": "poni", "ties": "ti", "cats": "cat",
    "feed": "feed", "agreed": "agre", "plastered": "plaster", "bled": "bled",
    "motoring": "motor", "sing": "sing",
    "conflated": "conflat", "troubled": "troubl", "sized": "size",
    "hopping": "hop", "tanned": "tan", "falling": "fall", "hissing": "hiss",
    "fizzed": "fizz", "failing": "fail", "filing": "file",
    "happy": "happi", "sky": "sky",
    "relational": "relat", "conditional": "condit", "rational": "ration",
    "valenci": "valenc", "hesitanci": "hesit", "digitizer": "digit",
    "radicalli": "radic", "differentli": "differ", "vileli": "vile",
    "analogousli": "analog", "vietnamization": "vietnam",
    "predication": "predic", "operator": "oper", "feudalism": "feudal",
    "decisiveness": "decis", "hopefulness": "hope", "callousness": "callous",
    "formaliti": "formal", "sensitiviti": "sensit", "sensibiliti": "sensibl",
    "triplicate": "triplic", "formative": "form", "formalize": "formal",
    "electriciti": "electr", "electrical": "electr", "hopeful": "hope",
    "goodness": "good",
    "revival": "reviv", "allowance": "allow", "inference": "infer",
    "airliner": "airlin", "gyroscopic": "gyroscop", "adjustable": "adjust",
    "defensible": "defens", "irritant": "irrit", "replacement": "replac",
    "adjustment": "adjust", "dependent": "depend", "adoption": "adopt",
    "communism": "commun", "activate": "activ", "angulariti": "angular",
    "homologous": "homolog", "effective": "effect", "bowdlerize": "bowdler",
    "generalizations": "gener", "oscillators": "oscil", "computers": "comput",
    # tokens the speech pipeline must reproduce
    "economic": "econom", "development": "develop", "trade": "trade",
    "climate": "climat", "sustain": "sustain", "environment": "environ",
    "education": "educ", "growth": "growth", "financial": "financi",
}


@pytest.mark.parametrize("step,word,expected", STEP_CASES,
                         ids=[f"{c[1]}" for c in STEP_CASES])
def test_single_steps(step, word, expected):
    assert step(word) == expected


@pytest.mark.parametrize("word,expected", sorted(FULL_CASES.items()))
def test_full_pipeline(word, expected):
    assert stem(word) == expected


def test_short_words_untouched():
    assert stem("as") == "as"
    assert stem("is") == "is"
    assert stem("a") == "a"


def test_outputs_are_lowercase_alpha():
    for word in FULL_CASES:
        assert stem(word).isalpha()
        assert stem(word) == stem(word).lower()


class TestMatchesReference:
    """``stem``, and each of its steps, gives the reference stemmer's
    output in tests/oracles.py."""

    ROOTS = ("nation", "develop", "econom", "sustain", "relat", "condit",
             "hope", "form", "electr", "agre", "troubl", "size", "hop",
             "fall", "file", "happ", "generat", "operat", "sens", "adjust",
             "depend", "adopt", "commun", "activ", "effect", "control",
             "cooper", "secur", "peac", "govern", "sky", "y", "ee", "bl")
    SUFFIXES = ("", "s", "es", "ies", "sses", "ss", "ed", "eed", "ing", "y",
                "ational", "tional", "enci", "anci", "izer", "abli", "alli",
                "entli", "eli", "ousli", "ization", "ation", "ator", "alism",
                "iveness", "fulness", "ousness", "aliti", "iviti", "biliti",
                "icate", "ative", "alize", "iciti", "ical", "ful", "ness", "al",
                "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
                "ment", "ent", "ion", "sion", "tion", "ou", "ism", "ate",
                "iti", "ous", "ive", "ize", "e", "ll", "izations", "fulness")

    def test_every_word_of_the_sample_speeches(self):
        speeches = resources.files("agendascope").joinpath("data/sample/speeches")
        words = set()
        for path in speeches.iterdir():
            words.update(re.findall("[a-z]+", path.read_text("utf-8").lower()))
        assert len(words) > 150
        assert [w for w in sorted(words) if stem(w) != porter_stem_reference(w)] == []

    def test_roots_times_suffixes(self):
        words = [r + s for r in self.ROOTS for s in self.SUFFIXES]
        assert [w for w in words if stem(w) != porter_stem_reference(w)] == []

    def test_form_matches_reference_cons_flags(self):
        """The consonant/vowel form that every letter condition reads, on
        every word of up to 8 letters over a vowel, a consonant and y, so
        runs of y after either class are covered."""
        words = ["".join(w) for n in range(9) for w in itertools.product("aby", repeat=n)]
        assert [w for w in words if porter._form(w) != "".join(
            "c" if cons else "v" for cons in oracles._porter_cons_flags(w))] == []

    @pytest.mark.parametrize("name", STEP_NAMES)
    def test_each_step_on_roots_times_suffixes(self, name):
        step, reference = getattr(porter, name), getattr(oracles, "_porter" + name)
        words = [r + s for r in self.ROOTS for s in self.SUFFIXES]
        assert [w for w in words if step(w) != reference(w)] == []

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=16))
    @settings(max_examples=300, deadline=None)
    def test_drawn_lowercase_strings(self, word):
        assert stem(word) == porter_stem_reference(word)

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=16))
    @settings(max_examples=300, deadline=None)
    def test_each_step_on_drawn_lowercase_strings(self, word):
        for name in STEP_NAMES:
            assert getattr(porter, name)(word) == getattr(oracles, "_porter" + name)(word), name

    @given(st.lists(st.sampled_from(SUFFIXES), max_size=3),
           st.sampled_from(ROOTS))
    @settings(max_examples=300, deadline=None)
    def test_drawn_suffix_stacks(self, suffixes, root):
        word = root + "".join(suffixes)
        assert stem(word) == porter_stem_reference(word)
