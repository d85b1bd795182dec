"""Design-matrix construction for prevalence and effects regressions.

Turns a parsed formula plus a covariate table into a numeric matrix:
intercept, cubic B-spline bases (boundary knots at the data range, interior
knots at quantiles), one-hot dummies with the first level dropped, and
standardized continuous columns. Each term's spec records its learned
parameters so covariate grids can be pushed through the identical encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientData
from .formula import CATEGORICAL, SPLINE, Formula, bind_formula, parse_formula
from .stm import PrevalenceDesign

SPLINE_DEGREE = 3


def _bspline_basis(x: np.ndarray, t: np.ndarray, degree: int) -> np.ndarray:
    """Dense B-spline design matrix by the Cox-de Boor triangle.

    Each point's span ``ell`` satisfies ``t[ell] <= x < t[ell + 1]``; the
    top interval is closed, so ``x == t[-1]`` lands in the last one. Only
    the ``degree + 1`` bases of that span are nonzero, and they are built
    for all points at once.
    """
    n_basis = len(t) - degree - 1
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, degree, n_basis - 1)
    h = np.zeros((len(x), degree + 1))
    h[:, 0] = 1.0
    for j in range(1, degree + 1):
        prev = h[:, :j].copy()
        h[:, 0] = 0.0
        for n in range(1, j + 1):
            right, left = t[ell + n], t[ell + n - j]
            width = right - left
            # a zero-width knot interval contributes nothing
            w = np.divide(prev[:, n - 1], width, out=np.zeros(len(x)),
                          where=width > 0)
            h[:, n - 1] += w * (right - x)
            h[:, n] = w * (x - left)
    out = np.zeros((len(x), n_basis))
    cols = ell[:, None] - degree + np.arange(degree + 1)
    np.put_along_axis(out, cols, h, axis=1)
    return out


@dataclass(frozen=True)
class SplineSpec:
    name: str
    df: int
    knots: np.ndarray  # full vector incl. boundary multiplicity

    @property
    def lo(self) -> float:
        return float(self.knots[0])

    @property
    def hi(self) -> float:
        return float(self.knots[-1])

    def basis(self, values: np.ndarray) -> np.ndarray:
        clipped = np.clip(np.asarray(values, dtype=float), self.lo, self.hi)
        return _bspline_basis(clipped, self.knots, SPLINE_DEGREE)


@dataclass(frozen=True)
class CategoricalSpec:
    name: str
    levels: tuple[str, ...]  # sorted; the first is the dropped reference

    def encode(self, values: list) -> np.ndarray:
        known = set(self.levels)
        out = np.zeros((len(values), len(self.levels) - 1))
        for row, value in enumerate(values):
            if value not in known:
                raise ValueError(
                    f"unseen level {value!r} for categorical {self.name!r}")
            for j, level in enumerate(self.levels[1:]):
                if value == level:
                    out[row, j] = 1.0
        return out


@dataclass(frozen=True)
class LinearSpec:
    name: str
    mean: float
    scale: float

    def encode(self, values: np.ndarray) -> np.ndarray:
        return ((np.asarray(values, dtype=float) - self.mean) / self.scale)[:, None]


def _numeric_column(values: list, name: str) -> np.ndarray:
    out = np.empty(len(values))
    for i, v in enumerate(values):
        if v is None:
            out[i] = np.nan
        elif isinstance(v, (int, float, np.integer, np.floating)):
            out[i] = float(v)
        else:
            raise ValueError(f"non-numeric value {v!r} in column {name!r}")
    return out


def _spline_knots(values: np.ndarray, df: int, name: str) -> np.ndarray:
    lo = float(values.min())
    hi = float(values.max())
    if hi <= lo:
        raise InsufficientData(f"column {name!r} is constant; no spline range")
    n_interior = df - (SPLINE_DEGREE + 1)
    if n_interior > 0:
        quantiles = np.arange(1, n_interior + 1) / (n_interior + 1)
        interior = np.quantile(values, quantiles)
        distinct = (np.all(interior > lo) and np.all(interior < hi)
                    and np.all(np.diff(interior) > 0))
        if not distinct:
            raise InsufficientData(
                f"column {name!r} has too few distinct values for a df={df} spline")
    else:
        interior = np.array([])
    return np.concatenate([[lo] * (SPLINE_DEGREE + 1), interior,
                           [hi] * (SPLINE_DEGREE + 1)])


@dataclass
class BuiltDesign(PrevalenceDesign):
    """A prevalence design with its learned encoding: one spec per formula
    term, the table rows it keeps (those complete in every term's column),
    and those rows' values of each term's column (``columns``, keyed by
    term name in formula order). ``x`` is ``transform(columns)``."""

    x: np.ndarray = field(init=False)
    specs: list
    kept_rows: np.ndarray
    columns: dict[str, list]

    def __post_init__(self):
        self.x = self.transform(self.columns)
        self.validate()

    def transform(self, table: dict[str, list]) -> np.ndarray:
        """Encode complete rows with the recorded parameters."""
        n_rows = len(next(iter(table.values())))
        blocks = [np.ones((n_rows, 1))]
        for spec in self.specs:
            values = table[spec.name]
            if isinstance(spec, CategoricalSpec):
                missing = any(v is None for v in values)
            else:
                values = _numeric_column(values, spec.name)
                missing = np.isnan(values).any()
            if missing:
                raise ValueError(f"missing value in column {spec.name!r}")
            blocks.append(spec.basis(values) if isinstance(spec, SplineSpec)
                          else spec.encode(values))
        return np.hstack(blocks)


def build_design(formula: Formula | str, table: dict[str, list]) -> BuiltDesign:
    """Build the design over complete-case rows of the referenced columns;
    rows with a missing value in any referenced column are left out of
    ``kept_rows``."""
    if isinstance(formula, str):
        formula = parse_formula(formula)
    formula = bind_formula(formula, table)

    n_rows = len(next(iter(table.values())))
    keep = np.ones(n_rows, dtype=bool)
    numeric_cache: dict[str, np.ndarray] = {}
    for term in formula.terms:
        values = table[term.name]
        if term.kind == CATEGORICAL:
            keep &= np.array([v is not None for v in values])
        else:
            col = _numeric_column(values, term.name)
            numeric_cache[term.name] = col
            keep &= ~np.isnan(col)
    kept_rows = np.nonzero(keep)[0]

    specs: list = []
    column_names = ["(intercept)"]
    for term in formula.terms:
        if term.kind == SPLINE:
            col = numeric_cache[term.name][kept_rows]
            spec = SplineSpec(name=term.name, df=term.df,
                              knots=_spline_knots(col, term.df, term.name))
            column_names += [f"{term.label()}:{i + 1}" for i in range(term.df)]
        elif term.kind == CATEGORICAL:
            values = [table[term.name][i] for i in kept_rows]
            levels = tuple(sorted(set(values)))
            if len(levels) < 2:
                raise InsufficientData(
                    f"categorical {term.name!r} has fewer than 2 observed levels")
            spec = CategoricalSpec(name=term.name, levels=levels)
            column_names += [f"{term.name}={level}" for level in levels[1:]]
        else:
            col = numeric_cache[term.name][kept_rows]
            mean = float(col.mean())
            scale = float(col.std())
            if scale == 0.0:
                scale = 1.0
            spec = LinearSpec(name=term.name, mean=mean, scale=scale)
            column_names.append(term.name)
        specs.append(spec)

    if kept_rows.size < len(column_names) + 2:
        raise InsufficientData(
            f"{kept_rows.size} complete rows for {len(column_names)} design columns")
    return BuiltDesign(column_names=column_names, specs=specs, kept_rows=kept_rows,
                       columns={name: [table[name][i] for i in kept_rows]
                                for name in formula.term_names()})
