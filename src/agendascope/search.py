"""Topic-count selection.

Fits one candidate model per K, places each in coherence-exclusivity space,
overlays an ordinary-least-squares line, and selects the candidate with the
largest positive residual (ties go to the smaller K).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .errors import CandidateFailed, DegenerateX
from .jsonio import malformed_as_corrupt, read_json, write_json
from .metrics import DEFAULT_FREX_WEIGHT, DEFAULT_TOP_WORDS, model_quality
from .stm import FitConfig, PrevalenceDesign, fit

logger = logging.getLogger(__name__)

CANDIDATE_REL_TOL = 1e-4


def derive_candidate_seed(seed: int, k: int) -> int:
    return seed ^ k


def ols_line(points: list[tuple[float, float]]):
    """Least-squares line through (x, y) points.

    Returns (slope, intercept, residuals) with residual_i = y_i - fitted_i.
    """
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    x_bar = x.mean()
    y_bar = y.mean()
    sxx = float(((x - x_bar) ** 2).sum())
    if sxx == 0.0:
        raise DegenerateX("all x values are equal")
    slope = float(((x - x_bar) * (y - y_bar)).sum()) / sxx
    intercept = y_bar - slope * x_bar
    residuals = y - (intercept + slope * x)
    return slope, intercept, residuals


@dataclass
class CandidatePoint:
    k: int
    mean_coherence: float
    mean_exclusivity: float
    fit_ref: str


@dataclass
class ModelSearchResult:
    candidates: list[CandidatePoint]
    slope: float
    intercept: float
    residuals: np.ndarray
    selected_k: int

    def plot_rows(self) -> list[tuple[int, float, float, float]]:
        """(k, coherence, exclusivity, residual) rows for external plotting."""
        return [(c.k, c.mean_coherence, c.mean_exclusivity, float(r))
                for c, r in zip(self.candidates, self.residuals)]

    def save(self, path: str | Path) -> Path:
        return write_json(path, self)

    @classmethod
    def load(cls, path: str | Path) -> "ModelSearchResult":
        obj = read_json(path)
        with malformed_as_corrupt(path):
            return cls(candidates=[CandidatePoint(**c) for c in obj["candidates"]],
                       slope=obj["slope"], intercept=obj["intercept"],
                       residuals=np.array(obj["residuals"], dtype=float),
                       selected_k=obj["selected_k"])


def rank_candidates(candidates: list[CandidatePoint]) -> ModelSearchResult:
    """Regress exclusivity on coherence and pick the largest residual.

    Candidates are sorted by k; on a residual tie the smaller k wins.
    """
    candidates = sorted(candidates, key=lambda c: c.k)
    slope, intercept, residuals = ols_line(
        [(c.mean_coherence, c.mean_exclusivity) for c in candidates])
    best = int(np.argmax(residuals))  # first max -> smallest k on ties
    return ModelSearchResult(candidates=candidates, slope=slope,
                             intercept=intercept, residuals=residuals,
                             selected_k=candidates[best].k)


def search(corpus: Corpus, design: PrevalenceDesign, k_grid: list[int],
           config: FitConfig, *, coherence_m: int = DEFAULT_TOP_WORDS,
           frex_w: float = DEFAULT_FREX_WEIGHT,
           candidate_rel_tol: float = CANDIDATE_REL_TOL,
           threads: int = 1) -> ModelSearchResult:
    """Fit one candidate per grid value (seed xor k, loosened tolerance)
    and rank them. A failed candidate aborts the search with its k named.
    """
    grid = sorted(set(int(k) for k in k_grid))
    if len(grid) < 3:
        raise ValueError("k grid needs at least 3 distinct values")
    if any(k < 2 for k in grid):
        raise ValueError("k grid values must be at least 2")
    if not (math.isfinite(candidate_rel_tol) and candidate_rel_tol > 0):
        raise ValueError("candidate_rel_tol must be a finite number > 0")
    candidates = []
    for k in grid:
        cand_config = replace(config, k=k,
                              seed=derive_candidate_seed(config.seed, k),
                              rel_tol=max(config.rel_tol, candidate_rel_tol))
        try:
            model = fit(corpus, design, cand_config, threads=threads)
        except Exception as exc:
            raise CandidateFailed(k, exc) from exc
        quality = model_quality(model.beta, corpus, m=coherence_m, frex_w=frex_w)
        logger.info("candidate k=%d coherence=%.4f exclusivity=%.4f",
                    k, quality.mean_coherence, quality.mean_exclusivity)
        candidates.append(CandidatePoint(
            k=k, mean_coherence=quality.mean_coherence,
            mean_exclusivity=quality.mean_exclusivity,
            fit_ref=f"seed:{cand_config.seed}"))
    return rank_candidates(candidates)

