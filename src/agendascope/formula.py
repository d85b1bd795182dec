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

from .errors import FormulaSyntaxError, UnknownCovariate

LINEAR = "linear"
SPLINE = "spline"
CATEGORICAL = "categorical"

KNOWN_CATEGORICAL = frozenset({"region"})
DEFAULT_SPLINE_DF = 10
MIN_SPLINE_DF = 4

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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
    text: str

    def term_names(self) -> list[str]:
        return [t.name for t in self.terms]


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def byte_offset(self, pos: int | None = None) -> int:
        pos = self.pos if pos is None else pos
        return len(self.text[:pos].encode("utf-8"))

    def error(self, message: str, pos: int | None = None):
        raise FormulaSyntaxError(self.byte_offset(pos), message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect(self, char: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            self.error(f"expected {char!r}")
        self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def name(self) -> str:
        self.skip_ws()
        match = _NAME_RE.match(self.text, self.pos)
        if match is None:
            self.error("expected a covariate name")
        self.pos = match.end()
        return match.group()

    def integer(self) -> tuple[int, int]:
        self.skip_ws()
        start = self.pos
        match = re.compile(r"\d+").match(self.text, self.pos)
        if match is None:
            self.error("expected an integer")
        self.pos = match.end()
        return int(match.group()), start


def _parse_term(scanner: _Scanner) -> Term:
    name = scanner.name()
    if name == "s" and scanner.peek() == "(":
        scanner.expect("(")
        inner = scanner.name()
        df = DEFAULT_SPLINE_DF
        if scanner.peek() == ",":
            scanner.expect(",")
            key = scanner.name()
            if key != "df":
                scanner.error("expected 'df'", scanner.pos - len(key))
        else:
            key = None
        if key == "df":
            scanner.expect("=")
            df, df_pos = scanner.integer()
            if df < MIN_SPLINE_DF:
                scanner.error(f"spline df must be at least {MIN_SPLINE_DF}", df_pos)
        scanner.expect(")")
        return Term(kind=SPLINE, name=inner, df=df)
    kind = CATEGORICAL if name in KNOWN_CATEGORICAL else LINEAR
    return Term(kind=kind, name=name)


def parse_formula(text: str) -> Formula:
    """Parse a prevalence formula; errors carry the byte offset."""
    scanner = _Scanner(text)
    if scanner.at_end():
        scanner.error("empty formula", 0)
    terms: list[Term] = []
    positions: list[int] = []
    while True:
        scanner.skip_ws()
        positions.append(scanner.pos)
        terms.append(_parse_term(scanner))
        if scanner.at_end():
            break
        scanner.expect("+")
    seen: set[str] = set()
    for term, pos in zip(terms, positions):
        if term.name in seen:
            scanner.error(f"duplicate term {term.name!r}", pos)
        seen.add(term.name)
    return Formula(terms=tuple(terms), text=text)


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
                raise ValueError(f"spline term on non-numeric column {term.name!r}")
            bound.append(term)
        elif stringy or term.kind == CATEGORICAL:
            bound.append(Term(kind=CATEGORICAL, name=term.name))
        else:
            bound.append(term)
    return Formula(terms=tuple(bound), text=formula.text)
