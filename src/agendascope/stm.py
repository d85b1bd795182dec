"""Covariate-prevalence topic model.

Documents draw a (K-1)-dimensional logistic-normal prevalence vector whose
mean is a linear function of document covariates; token topics follow the
softmax-with-pinned-zero proportions. Fitting alternates a Laplace E-step
(Newton ascent to each document's posterior mode, inverse curvature as the
posterior covariance), batched over fixed 64-document chunks, with
closed-form M-step updates.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .corpus import Corpus
from .errors import (DimensionMismatch, HessianNotPD, KExceedsVocabulary,
                     NonFiniteObjective, SingularDesign)
from .jsonio import read_json, write_json

BETA_FLOOR = 1e-12
_CHUNK = 64  # fixed E-step partition size; reduction order never depends on thread count


@dataclass(frozen=True)
class FitConfig:
    k: int
    seed: int = 0
    max_em_iters: int = 200
    rel_tol: float = 1e-5
    ridge_gamma: float = 1.0
    sigma_floor: float = 1e-6

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.max_em_iters < 1:
            raise ValueError("max_em_iters must be at least 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.ridge_gamma < 0:
            raise ValueError("ridge_gamma must be non-negative")

    def as_dict(self) -> dict:
        return {"k": self.k, "seed": self.seed,
                "max_em_iters": self.max_em_iters, "rel_tol": self.rel_tol,
                "ridge_gamma": self.ridge_gamma,
                "sigma_floor": self.sigma_floor}

    @classmethod
    def from_dict(cls, obj: dict) -> "FitConfig":
        return cls(**obj)


@dataclass
class PrevalenceDesign:
    """Design matrix for the prevalence regression: intercept first,
    continuous columns standardized with the (mean, scale) pairs recorded."""

    x: np.ndarray
    column_names: list[str]
    standardization: dict[str, tuple[float, float]] = field(default_factory=dict)

    def validate(self) -> None:
        x = self.x
        if x.ndim != 2:
            raise DimensionMismatch("design matrix must be 2-D")
        if len(self.column_names) != x.shape[1]:
            raise DimensionMismatch("column_names length differs from design width")
        if not np.all(np.isfinite(x)):
            raise DimensionMismatch("design matrix contains non-finite entries")
        if x.shape[0] == 0:
            raise DimensionMismatch("design matrix has no rows")
        if not np.all(x[:, 0] == 1.0):
            raise DimensionMismatch("first design column must be the all-ones intercept")
        for j in range(1, x.shape[1]):
            if np.ptp(x[:, j]) == 0.0:
                raise DimensionMismatch(
                    f"design column {self.column_names[j]!r} is constant")

    @classmethod
    def intercept_only(cls, n_rows: int) -> "PrevalenceDesign":
        return cls(x=np.ones((n_rows, 1)), column_names=["(intercept)"])


@dataclass
class DocPosterior:
    """Laplace posterior for one document: mode, covariance, and the
    expected per-topic token counts at the mode."""

    eta: np.ndarray
    nu: np.ndarray
    phi_sums: np.ndarray


@dataclass
class FittedModel:
    beta: np.ndarray                  # K x V, rows on the simplex
    gamma: np.ndarray                 # P x (K-1)
    sigma: np.ndarray                 # (K-1) x (K-1)
    eta: np.ndarray                   # D x (K-1) posterior modes
    nu: np.ndarray                    # D x (K-1) x (K-1) posterior covariances
    bound_trace: list[float]
    config: FitConfig
    vocabulary: list[str]
    design_column_names: list[str]
    doc_ids: list[str]

    @property
    def k(self) -> int:
        return self.beta.shape[0]

    @property
    def n_docs(self) -> int:
        return self.eta.shape[0]

    @property
    def theta(self) -> np.ndarray:
        """D x K document-topic proportions, softmax of eta with pinned 0."""
        return softmax_with_zero(self.eta)

    def to_json_obj(self) -> dict:
        return {"k": self.k,
                "vocabulary": list(self.vocabulary),
                "beta": self.beta.tolist(),
                "gamma": self.gamma.tolist(),
                "sigma": self.sigma.tolist(),
                "eta": self.eta.tolist(),
                "nu": self.nu.tolist(),
                "bound_trace": [float(b) for b in self.bound_trace],
                "config": self.config.as_dict(),
                "design_column_names": list(self.design_column_names),
                "doc_ids": list(self.doc_ids)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FittedModel":
        return cls(beta=np.array(obj["beta"], dtype=float),
                   gamma=np.array(obj["gamma"], dtype=float),
                   sigma=np.array(obj["sigma"], dtype=float),
                   eta=np.array(obj["eta"], dtype=float),
                   nu=np.array(obj["nu"], dtype=float),
                   bound_trace=list(obj["bound_trace"]),
                   config=FitConfig.from_dict(obj["config"]),
                   vocabulary=list(obj["vocabulary"]),
                   design_column_names=list(obj["design_column_names"]),
                   doc_ids=list(obj["doc_ids"]))

    def save(self, path: str | Path) -> Path:
        return write_json(path, self.to_json_obj())

    @classmethod
    def load(cls, path: str | Path) -> "FittedModel":
        return cls.from_json_obj(read_json(path))


def softmax_with_zero(eta: np.ndarray) -> np.ndarray:
    """Map (..., K-1) real vectors to (..., K) simplex points; the last
    coordinate is the pinned reference."""
    eta = np.asarray(eta, dtype=float)
    full = np.concatenate([eta, np.zeros(eta.shape[:-1] + (1,))], axis=-1)
    full -= full.max(axis=-1, keepdims=True)
    np.exp(full, out=full)
    full /= full.sum(axis=-1, keepdims=True)
    return full


def _chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return scipy.linalg.cho_solve((chol, True), rhs, check_finite=False)


# -- M-step ------------------------------------------------------------------


def _floor_eigenvalues(mat: np.ndarray, floor: float) -> np.ndarray:
    mat = 0.5 * (mat + mat.T)
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() >= floor:
        return mat
    vals = np.maximum(vals, floor)
    out = (vecs * vals) @ vecs.T
    return 0.5 * (out + out.T)


def m_step(eta: np.ndarray, nu_mean: np.ndarray, x: np.ndarray,
           config: FitConfig, expected_counts: np.ndarray):
    """Closed-form updates ``m_step(eta, nu_mean, x, config,
    expected_counts) -> (beta, gamma, sigma)`` from the D x (K-1) posterior
    modes, their mean (K-1) x (K-1) covariance, the D x P design and the
    K x V expected token counts summed over documents."""
    beta = np.maximum(np.asarray(expected_counts, dtype=float), BETA_FLOOR)
    beta /= beta.sum(axis=1, keepdims=True)

    n_cols = x.shape[1]
    penalty = np.full(n_cols, config.ridge_gamma)
    penalty[0] = 0.0
    a = x.T @ x + np.diag(penalty)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise SingularDesign("X'X + ridge penalty is not invertible") from None
    gamma = _chol_solve(chol, x.T @ eta)

    resid = eta - x @ gamma
    sigma = resid.T @ resid / eta.shape[0] + nu_mean
    sigma = _floor_eigenvalues(sigma, config.sigma_floor)
    return beta, gamma, sigma


# -- initialization ----------------------------------------------------------


def init_params(corpus: Corpus, config: FitConfig) -> tuple[np.ndarray, np.ndarray]:
    """Seeded symmetric-Dirichlet topic rows and zero prevalence modes."""
    if config.k > corpus.n_terms:
        raise KExceedsVocabulary(
            f"k={config.k} exceeds vocabulary size {corpus.n_terms}")
    rng = np.random.default_rng(config.seed)
    beta0 = rng.dirichlet(np.full(corpus.n_terms, 0.1), size=config.k)
    beta0 = np.maximum(beta0, BETA_FLOOR)
    beta0 /= beta0.sum(axis=1, keepdims=True)
    eta0 = np.zeros((corpus.n_docs, config.k - 1))
    return beta0, eta0


# -- batched Laplace E-step --------------------------------------------------


class _Chunk:
    """Zero-padded counts for one fixed block of documents."""

    def __init__(self, doc_range: range, docs):
        self.rows = np.arange(doc_range.start, doc_range.stop)
        width = max(docs[d][0].size for d in doc_range)
        m = len(self.rows)
        self.idx = np.zeros((m, width), dtype=np.int64)
        self.cts = np.zeros((m, width))
        for i, d in enumerate(doc_range):
            idx, cts = docs[d]
            self.idx[i, :idx.size] = idx
            self.cts[i, :idx.size] = cts
        self.totals = self.cts.sum(axis=1)


def _batch_value(eta, mu, sigma_inv, b, cts, totals):
    """Objective values for a batch, with the pieces the gradient reuses;
    padding columns carry zero counts."""
    full = np.concatenate([eta, np.zeros((eta.shape[0], 1))], axis=1)
    full -= full.max(axis=1, keepdims=True)
    w = np.exp(full)
    wsum = w.sum(axis=1)
    den = (w[:, None, :] @ b)[:, 0, :]
    diff = eta - mu
    quad = np.einsum("mi,ij,mj->m", diff, sigma_inv, diff)
    value = ((cts * np.log(den)).sum(axis=1) - totals * np.log(wsum)
             - 0.5 * quad)
    return value, w, wsum, den, diff


def _batch_state(eta, mu, sigma_inv, b, cts, totals):
    value, w, wsum, den, diff = _batch_value(eta, mu, sigma_inv, b, cts, totals)
    theta = w / wsum[:, None]
    q = (b @ (cts / den)[:, :, None])[:, :, 0] * w
    grad = (q - totals[:, None] * theta)[:, :-1] - diff @ sigma_inv
    return value, grad, w, den, q, theta


def _batch_neg_hessian(q, theta, w, den, b, cts, sigma_inv, totals):
    s = b * (np.sqrt(cts) / den)[:, None, :]
    a = s @ s.transpose(0, 2, 1)
    a *= w[:, :, None] * w[:, None, :]
    a -= totals[:, None, None] * theta[:, :, None] * theta[:, None, :]
    k = a.shape[1]
    diag = np.arange(k)
    a[:, diag, diag] -= q - totals[:, None] * theta
    return sigma_inv[None, :, :] + a[:, :-1, :-1]


def _damped_cholesky(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack of symmetric matrices.

    Returns (factors, matrices actually factored). One batched call serves
    when every block is positive definite; otherwise each failing block is
    damped by ``lam * I``, ``lam`` growing tenfold from 1e-10 x max(1, its
    largest |diagonal|). Raises HessianNotPD for a non-finite block (batched
    LAPACK returns NaN factors for it) or one 40 dampings leave indefinite.
    """
    try:
        factors = np.linalg.cholesky(mats)
        if np.isfinite(factors).all():
            return factors, mats
    except np.linalg.LinAlgError:
        pass
    factors = np.empty_like(mats)
    fixed = mats.copy()
    eye = np.eye(mats.shape[-1])
    for i, mat in enumerate(mats):
        if not np.isfinite(mat).all():
            raise HessianNotPD(f"curvature block {i} is not finite")
        lam = 1e-10 * max(float(np.abs(np.diag(mat)).max()), 1.0)
        for _ in range(41):
            try:
                factors[i] = np.linalg.cholesky(fixed[i])
                break
            except np.linalg.LinAlgError:
                fixed[i] = mat + lam * eye
                lam *= 10.0
        else:
            raise HessianNotPD(f"curvature block {i} could not be regularized")
    return factors, fixed


def _scatter_counts(phi_c: np.ndarray, idx: np.ndarray, n_terms: int) -> np.ndarray:
    """K x V sums of a chunk's m x K x width expected counts by term id.

    One bincount per topic adds each term's entries in the same (document,
    position) order as ``np.add.at``, so the sums are bit-identical to it.
    """
    terms = idx.ravel()
    return np.stack([np.bincount(terms, weights=phi_c[:, j].ravel(),
                                 minlength=n_terms)
                     for j in range(phi_c.shape[1])])


def _estep_chunk(chunk: _Chunk, eta_all, nu_all, mu_all, sigma_inv, beta,
                 *, max_iter: int = 200, grad_tol: float = 1e-8):
    """Newton ascent for every document of one chunk, batched.

    Updates eta_all/nu_all rows in place; returns (expected counts
    contribution, bound contribution).
    """
    rows = chunk.rows
    b = np.ascontiguousarray(beta[:, chunk.idx].transpose(1, 0, 2))
    cts = chunk.cts
    totals = chunk.totals
    eta = eta_all[rows].copy()
    mu = mu_all[rows]
    tol = grad_tol * np.maximum(1.0, totals)

    active = np.arange(len(rows))
    value, grad, w, den, q, theta = _batch_state(eta, mu, sigma_inv, b, cts, totals)
    for _ in range(max_iter):
        live = np.abs(grad).max(axis=1) >= tol[active]
        if not live.any():
            break
        if not live.all():
            active = active[live]
            value, grad = value[live], grad[live]
            w, den, q, theta = w[live], den[live], q[live], theta[live]
        eta_a = eta[active]
        b_a, cts_a, tot_a, mu_a = b[active], cts[active], totals[active], mu[active]

        neg_h = _batch_neg_hessian(q, theta, w, den, b_a, cts_a, sigma_inv, tot_a)
        _, neg_h = _damped_cholesky(neg_h)
        step = np.linalg.solve(neg_h, grad[:, :, None])[:, :, 0]
        slope = (grad * step).sum(axis=1)
        t = np.ones(len(active))
        accepted = np.zeros(len(active), dtype=bool)
        cand = eta_a.copy()
        for _ in range(31):
            trial = eta_a + t[:, None] * step
            trial_value = _batch_value(trial, mu_a, sigma_inv, b_a, cts_a, tot_a)[0]
            ok = trial_value >= value + 1e-4 * t * slope
            newly = ok & ~accepted
            cand[newly] = trial[newly]
            accepted |= ok
            if accepted.all():
                break
            t[~accepted] *= 0.5
        if not accepted.any():
            break
        eta[active[accepted]] = cand[accepted]
        active = active[accepted]  # line-search failures freeze in place
        value, grad, w, den, q, theta = _batch_state(
            eta[active], mu[active], sigma_inv, b[active], cts[active],
            totals[active])

    # Laplace pieces at the modes, for every document of the chunk
    value, grad, w, den, q, theta = _batch_state(eta, mu, sigma_inv, b, cts, totals)
    neg_h = _batch_neg_hessian(q, theta, w, den, b, cts, sigma_inv, totals)
    chols, neg_h = _damped_cholesky(neg_h)
    k_free = neg_h.shape[1]
    eye = np.broadcast_to(np.eye(k_free), neg_h.shape)
    nu = np.linalg.solve(neg_h, eye)
    nu = 0.5 * (nu + nu.transpose(0, 2, 1))
    logdet_nu = -2.0 * np.log(np.einsum("mii->mi", chols)).sum(axis=1)
    bound = float((value + 0.5 * logdet_nu).sum())

    eta_all[rows] = eta
    nu_all[rows] = nu
    phi_c = b * (w[:, :, None] / den[:, None, :]) * cts[:, None, :]
    return _scatter_counts(phi_c, chunk.idx, beta.shape[1]), bound


def e_step_doc(counts_d: np.ndarray, mu_d: np.ndarray, sigma_inv: np.ndarray,
               beta: np.ndarray) -> DocPosterior:
    """Laplace posterior for one document given a dense V-vector of counts.

    Runs the fit's batched E-step on a one-document chunk, with Newton
    ascent starting from the prior mean ``mu_d``.
    """
    counts_d = np.asarray(counts_d, dtype=float)
    idx = np.nonzero(counts_d)[0]
    if idx.size == 0:
        raise DimensionMismatch("document has no tokens")
    k_free = beta.shape[0] - 1
    sigma_inv = np.asarray(sigma_inv, dtype=float)
    if sigma_inv.shape != (k_free, k_free):
        raise DimensionMismatch("sigma_inv shape does not match topic count")
    if not (np.isfinite(sigma_inv).all() and np.allclose(sigma_inv, sigma_inv.T)):
        raise DimensionMismatch("sigma_inv must be finite and symmetric")
    if np.linalg.eigvalsh(sigma_inv).min() <= 0:
        raise HessianNotPD("sigma_inv is not positive definite")
    mu = np.asarray(mu_d, dtype=float).reshape(1, k_free)
    eta = mu.copy()
    nu = np.zeros((1, k_free, k_free))
    chunk = _Chunk(range(1), [(idx, counts_d[idx])])
    beta_ss, _ = _estep_chunk(chunk, eta, nu, mu, sigma_inv, beta)
    return DocPosterior(eta=eta[0], nu=nu[0], phi_sums=beta_ss.sum(axis=1))


# -- the EM loop -------------------------------------------------------------


def fit(corpus: Corpus, design: PrevalenceDesign, config: FitConfig,
        threads: int = 1) -> FittedModel:
    """Variational EM until the relative change of the approximate bound
    falls below ``config.rel_tol`` or ``config.max_em_iters`` is reached.

    Deterministic given the seed: document order, chunk partitioning, and
    reduction order are fixed regardless of ``threads``.
    """
    design.validate()
    x = np.asarray(design.x, dtype=float)
    if x.shape[0] != corpus.n_docs:
        raise DimensionMismatch(
            f"design has {x.shape[0]} rows for {corpus.n_docs} documents")
    k = config.k
    beta, eta = init_params(corpus, config)
    n_docs, n_terms = corpus.n_docs, corpus.n_terms
    docs = [(idx, cts.astype(float)) for idx, cts in corpus.docs]
    gamma = np.zeros((x.shape[1], k - 1))
    sigma = np.eye(k - 1)
    nu = np.zeros((n_docs, k - 1, k - 1))
    bound_trace: list[float] = []

    chunks = [_Chunk(range(start, min(start + _CHUNK, n_docs)), docs)
              for start in range(0, n_docs, _CHUNK)]
    pool = (concurrent.futures.ThreadPoolExecutor(max_workers=threads)
            if threads > 1 else None)
    try:
        prev_bound = None
        for iteration in range(config.max_em_iters):
            chol_sigma = np.linalg.cholesky(sigma)
            sigma_inv = _chol_solve(chol_sigma, np.eye(k - 1))
            sigma_inv = 0.5 * (sigma_inv + sigma_inv.T)
            logdet_sigma = 2.0 * float(np.log(np.diag(chol_sigma)).sum())
            mu = x @ gamma

            run = (lambda c: _estep_chunk(c, eta, nu, mu, sigma_inv, beta))
            partials = map(run, chunks) if pool is None else pool.map(run, chunks)
            beta_ss = np.zeros((k, n_terms))
            bound = 0.0
            for part_ss, part_bound in partials:  # fixed chunk order
                beta_ss += part_ss
                bound += part_bound
            bound -= 0.5 * n_docs * logdet_sigma

            if not np.isfinite(bound):
                raise NonFiniteObjective(iteration)
            bound_trace.append(bound)
            if (prev_bound is not None
                    and abs(bound - prev_bound) < config.rel_tol * abs(prev_bound)):
                break
            if iteration == config.max_em_iters - 1:
                break
            beta, gamma, sigma = m_step(eta, nu.mean(axis=0), x, config,
                                        beta_ss)
            prev_bound = bound
    finally:
        if pool is not None:
            pool.shutdown()

    return FittedModel(beta=beta, gamma=gamma, sigma=sigma, eta=eta, nu=nu,
                       bound_trace=bound_trace, config=config,
                       vocabulary=list(corpus.vocabulary),
                       design_column_names=list(design.column_names),
                       doc_ids=list(corpus.doc_ids))
