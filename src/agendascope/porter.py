"""Porter stemmer, the original 1980 algorithm.

Implements the five-step suffix-stripping algorithm exactly as published
(longest-match rule selection within each step, no later revisions such as
the BLI/LOGI rules). Input must be a lowercase alphabetic token.
"""

from __future__ import annotations

_VOWELS = frozenset("aeiou")


def _cons_flags(word: str) -> list[bool]:
    """True where the letter acts as a consonant.

    'y' is a consonant at the word start or after a vowel, a vowel after a
    consonant.
    """
    flags: list[bool] = []
    for i, c in enumerate(word):
        if c in _VOWELS:
            flags.append(False)
        elif c == "y":
            flags.append(True if i == 0 else not flags[i - 1])
        else:
            flags.append(True)
    return flags


def _measure(stem: str) -> int:
    """Number of vowel-consonant sequences: the m of [C](VC)^m[V]."""
    flags = _cons_flags(stem)
    m = 0
    prev_vowel = False
    for is_cons in flags:
        if is_cons:
            if prev_vowel:
                m += 1
            prev_vowel = False
        else:
            prev_vowel = True
    return m


def _has_vowel(stem: str) -> bool:
    return not all(_cons_flags(stem))


def _ends_double_consonant(stem: str) -> bool:
    if len(stem) < 2 or stem[-1] != stem[-2]:
        return False
    return _cons_flags(stem)[-1] and _cons_flags(stem)[-2]


def _ends_cvc(stem: str) -> bool:
    """*o condition: ends consonant-vowel-consonant, final not w, x or y."""
    if len(stem) < 3:
        return False
    flags = _cons_flags(stem)
    return flags[-3] and not flags[-2] and flags[-1] and stem[-1] not in "wxy"


# (suffix, replacement) pairs; condition m > threshold applies to the stem
# left after removing the suffix.
_STEP2_RULES = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_STEP3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_STEP2_SUFFIXES = tuple(s for s, _ in _STEP2_RULES)
_STEP2_REPLACEMENT = dict(_STEP2_RULES)
_STEP3_SUFFIXES = tuple(s for s, _ in _STEP3_RULES)
_STEP3_REPLACEMENT = dict(_STEP3_RULES)

_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _longest_match(word: str, suffixes: tuple[str, ...]) -> str | None:
    if not word.endswith(suffixes):
        return None
    best = None
    for sfx in suffixes:
        if word.endswith(sfx) and (best is None or len(sfx) > len(best)):
            best = sfx
    return best


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    stripped = None
    if word.endswith("ed") and _has_vowel(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and _has_vowel(word[:-3]):
        stripped = word[:-3]
    if stripped is None:
        return word
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    if _ends_double_consonant(stripped) and not stripped.endswith(("l", "s", "z")):
        return stripped[:-1]
    if _measure(stripped) == 1 and _ends_cvc(stripped):
        return stripped + "e"
    return stripped


def _step1c(word: str) -> str:
    if word.endswith("y") and _has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step2(word: str) -> str:
    match = _longest_match(word, _STEP2_SUFFIXES)
    if match is None:
        return word
    stem = word[: -len(match)]
    if _measure(stem) > 0:
        return stem + _STEP2_REPLACEMENT[match]
    return word


def _step3(word: str) -> str:
    match = _longest_match(word, _STEP3_SUFFIXES)
    if match is None:
        return word
    stem = word[: -len(match)]
    if _measure(stem) > 0:
        return stem + _STEP3_REPLACEMENT[match]
    return word


def _step4(word: str) -> str:
    match = _longest_match(word, _STEP4_SUFFIXES)
    if match is None:
        return word
    stem = word[: -len(match)]
    if _measure(stem) > 1:
        if match == "ion" and not stem.endswith(("s", "t")):
            return word
        return stem
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
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
