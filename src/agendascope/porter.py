"""Porter stemmer, the original 1980 algorithm.

Implements the five-step suffix-stripping algorithm exactly as published
(longest-match rule selection within each step, no later revisions such as
the BLI/LOGI rules). Input must be a lowercase alphabetic token.

Each letter condition reads the consonant/vowel form of its stem, a "c" or
"v" per letter: m of [C](VC)^m[V] counts its "vc" pairs, *v* is a "v" in it.
"""

from __future__ import annotations

# Vowels to "v", other letters but "y" to "c"; "y" is left for _form.
_CV = bytes.maketrans(b"aeiou" b"bcdfghjklmnpqrstvwxz", b"v" * 5 + b"c" * 20)


def _form(word: str) -> str:
    """The consonant/vowel form of ``word``. A "y" is a vowel after a
    consonant, and a consonant at the start or after a vowel."""
    form = word.encode().translate(_CV).decode()  # a byte table: faster than str.translate
    if form[:1] == "y":
        form = "c" + form[1:]
    while "y" in form:  # each pass settles at least the leftmost "y"
        form = form.replace("cy", "cv").replace("vy", "vc")
    return form


def _measure(stem: str) -> int:
    return _form(stem).count("vc")


def _ends_cvc(stem: str, form: str) -> bool:
    """*o condition: ends consonant-vowel-consonant, final not w, x or y."""
    return form.endswith("cvc") and stem[-1] not in "wxy"


# Steps 2, 3 and 4 as suffix -> replacement tables; the m floor of each
# step applies to the stem left after removing the suffix.
_STEP2_RULES = {
    "ational": "ate", "tional": "tion", "enci": "ence", "anci": "ance",
    "izer": "ize", "abli": "able", "alli": "al", "entli": "ent",
    "eli": "e", "ousli": "ous", "ization": "ize", "ation": "ate",
    "ator": "ate", "alism": "al", "iveness": "ive", "fulness": "ful",
    "ousness": "ous", "aliti": "al", "iviti": "ive", "biliti": "ble",
}

_STEP3_RULES = {
    "icate": "ic", "ative": "", "alize": "al", "iciti": "ic",
    "ical": "ic", "ful": "", "ness": "",
}

_STEP4_RULES = dict.fromkeys((
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
), "")


def _replace_suffix(word: str, rules: dict[str, str], m_floor: int) -> str:
    """Replace the longest suffix of ``word`` in ``rules`` if the stem
    before it has m > ``m_floor``; the step 4 rule (*S or *T)ION needs the
    stem to end in s or t. A longest suffix that fails leaves ``word``."""
    if not word.endswith(tuple(rules)):
        return word
    suffix = max(filter(word.endswith, rules), key=len)
    stem = word[:-len(suffix)]
    if _measure(stem) > m_floor and (suffix != "ion" or stem.endswith(("s", "t"))):
        return stem + rules[suffix]
    return word


def _step1a(word: str) -> str:
    if word.endswith(("sses", "ies")):
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        return word[:-1] if _measure(word[:-3]) > 0 else word
    stem = (word[:-2] if word.endswith("ed") else
            word[:-3] if word.endswith("ing") else "")
    form = _form(stem)
    if "v" not in form:  # no suffix, or no vowel before it
        return word
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if form.endswith("cc") and stem[-1] == stem[-2] and stem[-1] not in "lsz":
        return stem[:-1]
    if form.count("vc") == 1 and _ends_cvc(stem, form):
        return stem + "e"
    return stem


def _step1c(word: str) -> str:
    if word.endswith("y") and "v" in _form(word[:-1]):
        return word[:-1] + "i"
    return word


def _step2(word: str) -> str:
    return _replace_suffix(word, _STEP2_RULES, 0)


def _step3(word: str) -> str:
    return _replace_suffix(word, _STEP3_RULES, 0)


def _step4(word: str) -> str:
    return _replace_suffix(word, _STEP4_RULES, 1)


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        form = _form(stem)
        m = form.count("vc")
        if m > 1 or (m == 1 and not _ends_cvc(stem, form)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("ll") and _measure(word) > 1:
        return word[:-1]
    return word


def stem(word: str) -> str:
    """Stem a lowercase alphabetic token. Not memoized: ``corpus.tokenize``
    keeps one memo of token -> term, so it stems each distinct token once."""
    if len(word) <= 2:
        return word
    for step in (_step1a, _step1b, _step1c, _step2, _step3, _step4,
                 _step5a, _step5b):
        word = step(word)
    return word
