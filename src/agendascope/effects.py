"""Covariate effects on topic prevalence via the method of composition.

Each draw resamples document-topic proportions from their per-document
posterior, refits every topic's covariate regression on the drawn
proportions and draws coefficient vectors from the regressions' sampling
distributions. An effect or contrast evaluates one topic's coefficient
draws on a covariate grid; means and empirical 95% intervals summarize
them.
"""

from __future__ import annotations

import concurrent.futures
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .design import BuiltDesign, CategoricalSpec, SplineSpec
from .errors import DimensionMismatch, HessianNotPD, SingularDesign
from .stm import FittedModel, softmax_with_zero

DEFAULT_DRAWS = 500
DEFAULT_GRID_POINTS = 50
LOG_GRID_COVARIATES = frozenset({"gdp_pc", "population"})
MIN_DRAWS = 100
# Byte cap on one block of draws' document normals, a memory decision: on
# 384 documents at K=30 (5 draws a block) 1 MiB took the effects stage's
# peak RSS above the fit stage's, and 256 KiB (2 draws) lost most of the
# gain of sharing each matrix product. The cap is per block, and up to
# ``threads`` blocks are in flight at once.
DRAW_BLOCK_BYTES = 512 * 1024


@dataclass
class EffectEstimate:
    topic_index: int
    covariate: str
    grid: list
    mean: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    n_draws: int

    def table_rows(self) -> list[tuple]:
        """(grid, mean, lo, hi) rows for plot-ready delimited output."""
        return [(g, float(m), float(lo), float(hi))
                for g, m, lo, hi in zip(self.grid, self.mean,
                                        self.ci_lower, self.ci_upper)]


@dataclass
class ContrastEstimate:
    topic_index: int
    covariate: str
    level_a: object
    level_b: object
    point: float
    ci: tuple[float, float]


def _interp_quantile(sorted_draws: np.ndarray, p: float) -> np.ndarray:
    n = sorted_draws.shape[0]
    h = (n - 1) * p
    i = int(np.floor(h))
    frac = h - i
    if i + 1 >= n:
        return sorted_draws[-1]
    return sorted_draws[i] + frac * (sorted_draws[i + 1] - sorted_draws[i])


def quantile_pair(draws: np.ndarray, level: float = 0.95):
    """Empirical central interval, mirror-symmetric by construction:
    negating the draws exactly negates and swaps the bounds."""
    p = (1.0 - level) / 2.0
    lo = _interp_quantile(np.sort(draws, axis=0), p)
    hi = -_interp_quantile(np.sort(-draws, axis=0), p)
    return lo, hi


def _factor_stack(mats: np.ndarray) -> np.ndarray:
    """F with F @ F^T == M for each block M of a stack of symmetric PSD
    matrices: one batched Cholesky, or one batched eigh when any block is
    singular (zero blocks stay zero). A block whose smallest eigenvalue is
    below -1e-10 times its largest |eigenvalue| is not PSD, and raises
    :class:`HessianNotPD` with its index in ``row`` rather than being
    clamped to a different matrix."""
    try:  # batched LAPACK returns NaN factors for a non-finite block
        factors = np.linalg.cholesky(mats)
        if np.isfinite(factors).all():
            return factors
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(0.5 * (mats + np.swapaxes(mats, -1, -2)))
    # eigenvalues ascend; "not >=" also catches a NaN block
    indefinite = ~(vals[:, 0] >= -1e-10 * np.abs(vals).max(axis=-1))
    if indefinite.any():
        i = int(np.argmax(indefinite))
        error = HessianNotPD(f"block {i} is not positive semidefinite: its "
                             f"smallest eigenvalue is {vals[i, 0]:.6g}")
        error.row = i
        raise error
    return vecs * np.sqrt(np.maximum(vals, 0.0))[..., None, :]


def draws_per_block(n_docs: int, k_free: int) -> int:
    """Draws per block of the effects draw loop: as many as keep a block's
    (n_docs, k_free) document normals within ``DRAW_BLOCK_BYTES``, at
    least one."""
    return max(1, DRAW_BLOCK_BYTES // (8 * n_docs * k_free))


class EffectDraws:
    """Coefficient draws for every topic of one model, the design it was
    fitted with and its ``posterior_covariances``: the one seeded draw loop
    that effects and contrasts project.

    Each draw resamples every document's topic proportions from its
    posterior, regresses all K topics on the covariates at once and draws
    each topic's coefficients from its regression's sampling distribution,
    as ``estimateEffect`` in the stm package does. Draw i's generator
    yields the document normals and then a (K, rank) block of coefficient
    normals, so a topic's draws depend only on the seed, the model and the
    design, never on which topics or targets are estimated from them. The
    draws run in blocks that share each matrix product; a block changes
    no draw's generator or the order of its normals. The blocks run on
    ``threads`` threads, and each writes only its own draws, so the draws
    are the same, bit for bit, at any ``threads``.
    """

    def __init__(self, model: FittedModel, design: BuiltDesign, nu: np.ndarray,
                 n_draws: int = DEFAULT_DRAWS, seed: int = 0, threads: int = 1):
        if n_draws < MIN_DRAWS:
            raise ValueError(f"n_draws must be at least {MIN_DRAWS}")
        self.built = design
        self.x = design.x
        self.n, self.p = self.x.shape
        if self.n != model.n_docs:
            raise DimensionMismatch(
                f"design has {self.n} rows for {model.n_docs} documents")
        expected = (model.n_docs,) + model.eta.shape[1:] * 2  # a block per document
        if nu.shape != expected:
            raise DimensionMismatch(f"nu has shape {nu.shape}; expected {expected}")
        # Rank-revealing least squares. A complete B-spline block sums to 1
        # on every row, so each spline term is structurally collinear with
        # the intercept, and only rounding decides whether X'X looks
        # singular. Dropping the null directions gives the minimum-norm
        # solution, which leaves predictions unchanged; any deficiency
        # beyond the structural one is a real error.
        xtx = self.x.T @ self.x
        vals, vecs = np.linalg.eigh(0.5 * (xtx + xtx.T))
        keep = vals > vals.max() * 1e-10
        rank = int(keep.sum())
        n_spline_blocks = sum(isinstance(s, SplineSpec) for s in design.specs)
        if rank < self.p - n_spline_blocks:
            raise SingularDesign(
                "effects design X'X is singular beyond the structural "
                "spline/intercept overlap")
        vecs = vecs[:, keep]
        inv_vals = 1.0 / vals[keep]
        self.solver = (vecs * inv_vals) @ (vecs.T @ self.x.T)
        self.coef_factor = vecs * np.sqrt(inv_vals)
        self.dof = self.n - rank
        self.n_draws = n_draws
        try:
            factors = _factor_stack(nu)
        except HessianNotPD as exc:
            raise HessianNotPD(f"posterior covariance nu of document "
                               f"{model.doc_ids[exc.row]!r}: {exc}") from None
        self.coef = self._coefficient_draws(model.eta, factors, seed, threads)

    def _coefficient_draws(self, eta: np.ndarray, nu_factors: np.ndarray,
                           seed: int, threads: int) -> np.ndarray:
        """n_draws x K x p coefficient draws, from one generator per draw
        spawned from the seed, computed ``draws_per_block`` draws at a
        time on ``threads`` threads."""
        out = np.empty((self.n_draws, eta.shape[1] + 1, self.p))
        children = np.random.SeedSequence(seed).spawn(self.n_draws)
        size = draws_per_block(*eta.shape)

        def fill(start: int) -> None:  # a block writes only its own draws
            out[start:start + size] = self._draw_block(
                eta, nu_factors, children[start:start + size])

        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            # list() drains the map and re-raises a block's error; one
            # thread: no worker starts
            list((pool.map if threads > 1 else map)(fill, range(0, self.n_draws, size)))
        return out

    def _draw_block(self, eta: np.ndarray, nu_factors: np.ndarray,
                    children: list[np.random.SeedSequence]) -> np.ndarray:
        """B x K x p coefficient draws, one per seed in ``children``. Its
        (n, K-1, B) arrays are freed on return, before the next block's."""
        n, k_free = eta.shape
        k, b = k_free + 1, len(children)
        z = np.empty((n, k_free, b))
        zb = np.empty((b, k, self.coef_factor.shape[1]))
        for j, child in enumerate(children):
            rng = np.random.default_rng(child)
            z[:, :, j] = rng.standard_normal((n, k_free))
            zb[j] = rng.standard_normal(zb.shape[1:])
        # C order makes each draw's K-1 values one contiguous row for the
        # softmax, twice as fast as the strided layout of the swapped
        # product; draw j's proportions are then column block j of an
        # n x (B*K) theta
        theta = softmax_with_zero(np.add(
            eta[:, None, :], np.swapaxes(nu_factors @ z, 1, 2), order="C")).reshape(n, b * k)
        bhat = self.solver @ theta
        resid = self.x @ bhat
        np.subtract(theta, resid, out=resid)  # in place: one (n, B*K) array fewer
        s2 = np.einsum("nk,nk->k", resid, resid) / self.dof
        return (bhat.reshape(self.p, b, k).transpose(1, 2, 0)
                + np.sqrt(s2).reshape(b, k, 1) * (zb @ self.coef_factor.T))

    def project(self, topic: int, rows: np.ndarray) -> np.ndarray:
        """``rows @ b`` for each coefficient draw b of ``topic``, as an
        n_draws x len(rows) array."""
        return self.coef[:, topic, :] @ rows.T

    def typical_row(self, exclude: str) -> dict[str, object]:
        """Held values: means for numeric columns, modes for categoricals
        (ties break to the alphabetically first level), over the design's rows."""
        row: dict[str, object] = {}
        for spec in self.built.specs:
            if spec.name == exclude:
                continue
            values = self.built.columns[spec.name]
            if isinstance(spec, CategoricalSpec):
                counts = Counter(values)
                top = max(counts.values())
                row[spec.name] = min(v for v, c in counts.items() if c == top)
            else:
                row[spec.name] = float(np.mean([float(v) for v in values]))
        return row


def _check_request(draws: EffectDraws, topic: int, target: str) -> None:
    k = draws.coef.shape[1]
    if not 0 <= topic < k:
        raise ValueError(f"topic {topic} out of range for k={k}")
    if target not in draws.built.columns:
        raise ValueError(f"target {target!r} does not appear in the formula")


def _grid_for(draws: EffectDraws, target: str, grid_points: int) -> list:
    spec = next(s for s in draws.built.specs if s.name == target)
    if isinstance(spec, CategoricalSpec):
        return list(spec.levels)
    nums = np.sort([float(v) for v in draws.built.columns[target]])
    # not np.unique, which imports numpy.ma (np.ma.is_masked): about 10 ms
    first = np.ones(nums.size, dtype=bool)
    first[1:] = nums[1:] != nums[:-1]
    uniq = nums[first]
    if uniq.size <= grid_points:
        return [float(u) for u in uniq]
    lo, hi = float(nums.min()), float(nums.max())
    if target in LOG_GRID_COVARIATES and lo > 0:
        return [float(g) for g in np.geomspace(lo, hi, grid_points)]
    return [float(g) for g in np.linspace(lo, hi, grid_points)]


def _prediction_matrix(draws: EffectDraws, target: str, grid: list,
                       hold: str) -> np.ndarray:
    built = draws.built
    if hold == "observed":
        return np.stack([built.transform({**built.columns, target: [g] * draws.n}).mean(axis=0)
                         for g in grid])
    typical = draws.typical_row(exclude=target)
    return built.transform({name: [g if name == target else typical[name] for g in grid]
                            for name in built.columns})


def estimate_effect(draws: EffectDraws, topic: int, target: str, *,
                    grid_points: int = DEFAULT_GRID_POINTS,
                    hold: str = "typical") -> EffectEstimate:
    """Expected proportion of ``topic`` over a grid of ``target`` values,
    other covariates held at means/modes (or averaged over observed rows
    with ``hold='observed'``). Per-draw predictions are clipped to [0, 1].
    Raises ValueError for a ``hold`` other than those two or a
    ``grid_points`` below 2, as the config does.
    """
    _check_request(draws, topic, target)
    if hold not in ("typical", "observed"):
        raise ValueError(f"hold must be 'typical' or 'observed', not {hold!r}")
    if grid_points < 2:
        raise ValueError(f"grid_points must be at least 2, not {grid_points}")
    grid = _grid_for(draws, target, grid_points)
    x_grid = _prediction_matrix(draws, target, grid, hold)
    preds = np.clip(draws.project(topic, x_grid), 0.0, 1.0)
    lo, hi = quantile_pair(preds)
    return EffectEstimate(topic_index=topic, covariate=target, grid=grid,
                          mean=preds.mean(axis=0), ci_lower=lo, ci_upper=hi,
                          n_draws=draws.n_draws)


def estimate_contrast(draws: EffectDraws, topic: int, target: str,
                      level_a, level_b) -> ContrastEstimate:
    """Difference in expected topic proportion between two target levels.

    The draws depend only on the seed, so swapping the levels under the
    same draws negates the point estimate and mirrors the interval exactly.
    """
    _check_request(draws, topic, target)
    x_pair = _prediction_matrix(draws, target, [level_a, level_b],
                                hold="typical")
    direction = x_pair[0] - x_pair[1]
    deltas = draws.project(topic, direction[None, :])[:, 0]
    lo, hi = quantile_pair(deltas)
    return ContrastEstimate(topic_index=topic, covariate=target,
                            level_a=level_a, level_b=level_b,
                            point=float(deltas.mean()),
                            ci=(float(lo), float(hi)))
