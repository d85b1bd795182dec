"""Prevalence formula DSL.

Grammar (whitespace insignificant)::

    expr := term ('+' term)*
    term := name | 's(' name (',df=' int)? ')'

Plain names bind as linear covariates unless the bound column is
string-valued (then categorical); ``region`` is categorical by schema.
Spline terms take a cubic B-spline basis with ``df`` columns, default 10,
minimum 4.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormulaSyntaxError, NonNumericSpline, UnknownCovariate

LINEAR = "linear"
SPLINE = "spline"
CATEGORICAL = "categorical"

KNOWN_CATEGORICAL = frozenset({"region"})
DEFAULT_SPLINE_DF = 10
MIN_SPLINE_DF = 4

# a name, an integer or any other single non-space character
_TOKEN_RE = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)|\S")
_EXPECTED = {"name": "a covariate name", "int": "an integer"}


@dataclass(frozen=True)
class Term:
    kind: str
    name: str
    df: int | None = None

    def label(self) -> str:
        if self.kind == SPLINE:
            return f"s({self.name},df={self.df})"
        return self.name


@dataclass(frozen=True)
class Formula:
    terms: tuple[Term, ...]

    def term_names(self) -> list[str]:
        return [t.name for t in self.terms]


def parse_formula(text: str) -> Formula:
    """Parse a prevalence formula; errors carry the byte offset."""
    # (kind, token, start), kind "name", "int" or the character itself,
    # and an end token of kind ""
    tokens = [(m.lastgroup or m.group(), m.group(), m.start())
              for m in _TOKEN_RE.finditer(text)] + [("", "", len(text))]
    at = 0

    def fail(pos: int, message: str):
        raise FormulaSyntaxError(len(text[:pos].encode("utf-8")), message)

    def take(kind: str) -> tuple[str, int]:
        nonlocal at
        token_kind, token, pos = tokens[at]
        if token_kind != kind:
            fail(pos, "expected " + _EXPECTED.get(kind, repr(kind)))
        at += 1
        return token, pos

    if len(tokens) == 1:
        fail(0, "empty formula")
    terms: list[tuple[Term, int]] = []
    while True:
        name, start = take("name")
        if name == "s" and tokens[at][0] == "(":
            take("(")
            name, _ = take("name")
            df = DEFAULT_SPLINE_DF
            if tokens[at][0] == ",":
                take(",")
                key, key_pos = take("name")
                if key != "df":
                    fail(key_pos, "expected 'df'")
                take("=")
                digits, df_pos = take("int")
                df = int(digits)
                if df < MIN_SPLINE_DF:
                    fail(df_pos, f"spline df must be at least {MIN_SPLINE_DF}")
            take(")")
            terms.append((Term(kind=SPLINE, name=name, df=df), start))
        else:
            kind = CATEGORICAL if name in KNOWN_CATEGORICAL else LINEAR
            terms.append((Term(kind=kind, name=name), start))
        if tokens[at][0] == "":
            break
        take("+")
    seen: set[str] = set()
    for term, start in terms:
        if term.name in seen:
            fail(start, f"duplicate term {term.name!r}")
        seen.add(term.name)
    return Formula(terms=tuple(term for term, _ in terms))


def _is_string_column(values: list) -> bool:
    return any(isinstance(v, str) for v in values if v is not None)


def bind_formula(formula: Formula, table: dict[str, list]) -> Formula:
    """Resolve term kinds against a covariate table.

    Unknown names raise; linear terms on string-valued columns become
    categorical; splines require numeric columns.
    """
    bound: list[Term] = []
    for term in formula.terms:
        if term.name not in table:
            raise UnknownCovariate(term.name)
        stringy = _is_string_column(table[term.name])
        if term.kind == SPLINE:
            if stringy:
                raise NonNumericSpline(term.name)
            bound.append(term)
        elif stringy or term.kind == CATEGORICAL:
            bound.append(Term(kind=CATEGORICAL, name=term.name))
        else:
            bound.append(term)
    return Formula(terms=tuple(bound))
