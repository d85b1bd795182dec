"""Covariate-prevalence topic model.

Documents draw a (K-1)-dimensional logistic-normal prevalence vector whose
mean is a linear function of document covariates; token topics follow the
softmax-with-pinned-zero proportions. Fitting alternates a Laplace E-step
(Newton ascent to each document's posterior mode, inverse curvature as the
posterior covariance) with closed-form M-step updates. The E-step is batched
over 64-document chunks of the documents sorted by decreasing distinct-term
count (a stable sort), so a chunk pads its documents little; the partition,
and so the order in which chunk results are summed, depends on the corpus
alone and never on the thread count.

``fit`` keeps only the posterior covariances' sum, which is all the M-step
reads, and stops after an E-step, so each saved posterior mode is the mode
under the saved parameters; :func:`posterior_covariances` recomputes the
covariances at those modes, bit for bit, from the model and its corpus.
"""

from __future__ import annotations

import concurrent.futures
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, csr_take
from .errors import (CorruptArtifact, DimensionMismatch, HessianNotPD,
                     KExceedsVocabulary, NonFiniteObjective, SingularDesign)
from .jsonio import malformed_as_corrupt, read_json, write_json

logger = logging.getLogger(__name__)

BETA_FLOOR = 1e-12
_CHUNK = 64  # E-step chunk size; reduction order never depends on thread count
_DECREMENT_TOL = 1e-8  # Newton stop: lambda^2 / 2 < this x max(1, tokens)


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
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError("rel_tol must be a finite number > 0")
        if not (math.isfinite(self.ridge_gamma) and self.ridge_gamma >= 0):
            raise ValueError("ridge_gamma must be a finite number >= 0")
        if not (math.isfinite(self.sigma_floor) and self.sigma_floor > 0):
            raise ValueError("sigma_floor must be a finite number > 0")


@dataclass
class PrevalenceDesign:
    """Design matrix for the prevalence regression, intercept first."""

    x: np.ndarray
    column_names: list[str]

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

    @property
    def converged(self) -> bool:
        """Whether the last EM iteration met ``fit``'s stopping test; False
        for a fit that ran to ``config.max_em_iters`` without meeting it."""
        trace = self.bound_trace
        return len(trace) >= 2 and _bound_settled(trace[-2], trace[-1],
                                                  self.config.rel_tol)

    def save(self, path: str | Path) -> Path:
        """Write every field to ``path`` as JSON; returns ``path``."""
        return write_json(path, self)

    @classmethod
    def load(cls, path: str | Path) -> "FittedModel":
        """The model at ``path``; an array whose shape
        does not fit K, the vocabulary, the documents or the design columns
        raises :class:`DimensionMismatch` naming its file; one with a NaN or
        infinite entry, or a ``sigma`` that is not symmetric positive
        definite, :class:`CorruptArtifact`."""
        obj = read_json(path)
        with malformed_as_corrupt(path):
            model = cls(beta=np.array(obj["beta"], dtype=float),
                        gamma=np.array(obj["gamma"], dtype=float),
                        sigma=np.array(obj["sigma"], dtype=float),
                        eta=np.array(obj["eta"], dtype=float),
                        bound_trace=list(obj["bound_trace"]),
                        config=FitConfig(**obj["config"]),
                        vocabulary=list(obj["vocabulary"]),
                        design_column_names=list(obj["design_column_names"]),
                        doc_ids=list(obj["doc_ids"]))
            k = len(obj["beta"])
        k_free, n_docs = k - 1, len(model.doc_ids)
        for name, expected in (("beta", (k, len(model.vocabulary))),
                               ("eta", (n_docs, k_free)),
                               ("gamma", (len(model.design_column_names), k_free)),
                               ("sigma", (k_free, k_free))):
            array = getattr(model, name)
            if array.shape != expected:
                raise DimensionMismatch(f"{path}: {name} has shape {array.shape}; "
                                        f"expected {expected}")
            if not np.isfinite(array).all():
                raise CorruptArtifact(str(path), f"{name} has a non-finite entry")
        if not np.array_equal(model.sigma, model.sigma.T):
            raise CorruptArtifact(str(path), "sigma is not symmetric")
        try:  # the factor is discarded: factoring is the positive-definite check
            np.linalg.cholesky(model.sigma)
        except np.linalg.LinAlgError:
            raise CorruptArtifact(str(path), "sigma is not positive definite") from None
        return model


def _bound_settled(prev: float, bound: float, rel_tol: float) -> bool:
    """EM stopping test: the bound moved by less than ``rel_tol`` relative."""
    return abs(bound - prev) < rel_tol * abs(prev)


def softmax_with_zero(eta: np.ndarray) -> np.ndarray:
    """Map (..., K-1) real vectors to (..., K) simplex points; the last
    coordinate is the pinned reference."""
    eta = np.asarray(eta, dtype=float)
    full = np.concatenate([eta, np.zeros(eta.shape[:-1] + (1,))], axis=-1)
    full -= full.max(axis=-1, keepdims=True)
    np.exp(full, out=full)
    full /= full.sum(axis=-1, keepdims=True)
    return full


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
    try:  # the factor is discarded: factoring is the positive-definite check
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise SingularDesign("X'X + ridge penalty is not invertible") from None
    gamma = np.linalg.solve(a, x.T @ eta)

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
    """Zero-padded counts for the documents ``rows`` of a CSR triple, in
    the order given; row i of ``idx``/``cts`` is document ``rows[i]``."""

    def __init__(self, rows, indptr, indices, counts):
        self.rows = np.asarray(rows, dtype=np.int64)
        lengths, take = csr_take(indptr, self.rows)
        filled = np.arange(lengths.max()) < lengths[:, None]  # row-major = CSR order
        self.idx = np.zeros(filled.shape, dtype=np.int64)
        self.cts = np.zeros(filled.shape)
        self.idx[filled] = indices[take]
        self.cts[filled] = counts[take]
        self.totals = self.cts.sum(axis=1)


def _batch_value(eta, mu, sigma_inv, b, cts, totals):
    """Objective values for a batch, with the pieces the gradient reuses;
    padding columns carry zero counts. A row's pieces come from that row
    alone (``dsi`` by one vector-matrix product per row, since a 2-D GEMM
    can round a one-row product differently), so they do not depend on
    which other rows are evaluated with it."""
    full = np.concatenate([eta, np.zeros((eta.shape[0], 1))], axis=1)
    full -= full.max(axis=1, keepdims=True)
    w = np.exp(full)
    wsum = w.sum(axis=1)
    den = (w[:, None, :] @ b)[:, 0, :]
    diff = eta - mu
    dsi = (diff[:, None, :] @ sigma_inv)[:, 0]  # diff @ sigma_inv, row by row
    value = ((cts * np.log(den)).sum(axis=1) - totals * np.log(wsum)
             - 0.5 * (dsi * diff).sum(axis=1))
    return value, w, wsum, den, dsi


def _batch_grad(w, wsum, den, dsi, b, cts, totals):
    """(grad, q, theta) from :func:`_batch_value`'s pieces at the same points."""
    theta = w / wsum[:, None]
    q = (b @ (cts / den)[:, :, None])[:, :, 0] * w
    grad = (q - totals[:, None] * theta)[:, :-1] - dsi
    return grad, q, theta


def _batch_state(eta, mu, sigma_inv, b, cts, totals):
    value, w, wsum, den, dsi = _batch_value(eta, mu, sigma_inv, b, cts, totals)
    grad, q, theta = _batch_grad(w, wsum, den, dsi, b, cts, totals)
    return value, grad, w, den, q, theta


def _batch_neg_hessian(rows, q, theta, w, den, b, cts, sigma_inv, totals):
    """Negative Hessians, undamped, of the batch rows ``rows`` (an index
    array) from their carried state. ``s`` is those rows of ``b``, gathered
    once and scaled in place, so the only array of ``b``'s size formed
    here is sized by ``rows``."""
    s = b.take(rows, axis=0)
    s *= (np.sqrt(cts[rows]) / den[rows])[:, None, :]
    a = s @ s.transpose(0, 2, 1)
    q, theta, w, totals = q[rows], theta[rows], w[rows], totals[rows]
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


def _half_logdet(chols: np.ndarray) -> np.ndarray:
    """Half the log-determinant of each matrix from its Cholesky factor."""
    return np.log(np.einsum("mii->mi", chols)).sum(axis=1)


def _expected_counts(beta, w, den, cts, idx):
    """K x V expected token counts of a chunk: ``b * (w / den) * cts``
    summed by term, where ``b[d, j, pos] = beta[j, idx[d, pos]]``.

    So the sum is ``beta * (w.T @ r)``, one GEMM, with ``r`` the m x V
    matrix holding ``cts / den`` at each document's terms and zeros
    elsewhere. ``r`` is filled by one flat scatter into an m x (V + 1)
    buffer whose last column takes the padding positions (term 0, count
    0); a document's terms are distinct and its filled positions are those
    with ``cts > 0``, so no position is written twice but padding's, and the
    GEMM reads the first V columns.
    """
    n_terms = beta.shape[1]
    r = np.zeros((cts.shape[0], n_terms + 1))
    target = np.where(cts > 0, idx, n_terms)
    target += np.arange(0, r.size, n_terms + 1)[:, None]
    r.ravel()[target.ravel()] = (cts / den).ravel()
    return beta * (w.T @ r[:, :n_terms])


def _estep_chunk(chunk: _Chunk, eta_all, mu_all, sigma_inv, beta,
                 *, max_iter: int = 200, counts: bool = True):
    """Newton ascent for every document of one chunk, batched, from its
    rows of ``eta_all``.

    Each document's state (value, gradient and mixture pieces) is carried at
    its current mode estimate and updated only for the rows a step moves; an
    accepted step takes its state from its line-search trial. Each pass
    forms the damped curvature block of every moving document at its
    current point and keeps it, with half its log-determinant, as that
    document's Laplace block. A document stops, before its line search,
    when half its squared Newton decrement ``grad . step`` falls below
    ``_DECREMENT_TOL`` x max(1, tokens), or when its line search fails;
    after ``max_iter`` steps one more pass forms blocks only and stops the
    rest. So each Laplace block is formed once, at the document's final
    point. Returns (modes, Laplace covariance blocks, expected counts or
    None without ``counts``, bound contribution), rows in ``chunk.rows``
    order.
    """
    rows = chunk.rows
    m = len(rows)
    b = np.empty((m, beta.shape[0], chunk.idx.shape[1]))
    for j, beta_j in enumerate(beta):  # one gather per topic row
        b[:, j] = beta_j[chunk.idx]
    cts = chunk.cts
    totals = chunk.totals
    eta = eta_all[rows]  # a copy: fancy indexing
    mu = mu_all[rows]
    stop_slope = 2.0 * _DECREMENT_TOL * np.maximum(1.0, totals)

    value, grad, w, den, q, theta = _batch_state(eta, mu, sigma_inv, b, cts, totals)
    active = np.arange(m)
    # neg_h and half_logdet hold each document's damped curvature block and
    # half its log-determinant: the first pass forms every document's, and
    # each later pass replaces those of the documents still moving
    for n_steps in range(max_iter + 1):
        chols_a, neg_h_a = _damped_cholesky(_batch_neg_hessian(
            active, q, theta, w, den, b, cts, sigma_inv, totals))
        if n_steps:
            neg_h[active], half_logdet[active] = neg_h_a, _half_logdet(chols_a)
        else:
            neg_h, half_logdet = neg_h_a, _half_logdet(chols_a)
        if n_steps == max_iter:  # the step limit: blocks only
            break
        grad_a = grad[active]
        step = np.linalg.solve(neg_h_a, grad_a[:, :, None])[:, :, 0]
        del chols_a, neg_h_a  # kept above, so not held through the line search
        slope = (grad_a * step).sum(axis=1)
        done = slope < stop_slope[active]
        if done.any():  # these stop here, with this block as their Laplace block
            active, step, slope = active[~done], step[~done], slope[~done]
            if not active.size:
                break
        # the rows that search, copied out after the blocks are formed
        whole = len(active) == m
        eta_a, value_a, b_a, cts_a, tot_a, mu_a = (
            (a if whole else a[active]) for a in (eta, value, b, cts, totals, mu))
        # Armijo backtracking: the first round tries every row at t = 1;
        # each later round halves t and tries only the rows still pending
        t, pending, kept = 1.0, slice(None), None
        for _ in range(31):
            trial = eta_a[pending] + t * step[pending]
            pieces = (trial,) + _batch_value(trial, mu_a[pending], sigma_inv,
                                             b_a[pending], cts_a[pending], tot_a[pending])
            ok = pieces[1] >= value_a[pending] + 1e-4 * t * slope[pending]
            if kept is None:
                kept, pending = pieces, np.flatnonzero(~ok)
            else:
                for dst, src in zip(kept, pieces):
                    dst[pending[ok]] = src[ok]
                pending = pending[~ok]
            if not pending.size:
                break
            t *= 0.5
        # line-search failures freeze in place, with this pass's block
        if pending.size == len(active):
            break
        if pending.size:
            accepted = np.ones(len(active), dtype=bool)
            accepted[pending] = False
            active = active[accepted]
            kept = [a[accepted] for a in kept]
            b_a, cts_a, tot_a = b_a[accepted], cts_a[accepted], tot_a[accepted]
        eta_m, value_m, w_m, wsum_m, den_m, dsi_m = kept
        grad_m, q_m, theta_m = _batch_grad(w_m, wsum_m, den_m, dsi_m, b_a, cts_a, tot_a)
        del b_a  # not held while the next step forms its blocks
        if len(active) == m:
            eta, value, grad, w, den, q, theta = (eta_m, value_m, grad_m, w_m,
                                                  den_m, q_m, theta_m)
        else:
            eta[active], value[active], grad[active] = eta_m, value_m, grad_m
            w[active], den[active], q[active], theta[active] = w_m, den_m, q_m, theta_m

    eye = np.broadcast_to(np.eye(neg_h.shape[1]), neg_h.shape)
    nu = np.linalg.solve(neg_h, eye)
    nu = 0.5 * (nu + nu.transpose(0, 2, 1))
    bound = float((value - half_logdet).sum())
    return (eta, nu, _expected_counts(beta, w, den, cts, chunk.idx) if counts else None,
            bound)


def e_step_doc(counts_d: np.ndarray, mu_d: np.ndarray, sigma_inv: np.ndarray,
               beta: np.ndarray) -> DocPosterior:
    """Laplace posterior for one document given a dense V-vector of counts.

    Runs the fit's batched E-step on a one-document chunk, with Newton
    ascent starting from the prior mean ``mu_d``.
    """
    counts_d = np.asarray(counts_d, dtype=float)
    if counts_d.shape != (beta.shape[1],):
        raise DimensionMismatch(f"counts_d has shape {counts_d.shape}; expected "
                                f"({beta.shape[1]},), one count per term of beta")
    if not (np.isfinite(counts_d).all() and (counts_d >= 0).all()):
        raise DimensionMismatch("counts_d must be finite and non-negative")
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
    mu = np.asarray(mu_d, dtype=float)
    if mu.shape != (k_free,):
        raise DimensionMismatch(f"mu_d has shape {mu.shape}; expected ({k_free},), "
                                "one prior mean per free topic of beta")
    if not np.isfinite(mu).all():
        raise DimensionMismatch("mu_d must be finite")
    mu = mu.reshape(1, k_free)
    chunk = _Chunk([0], np.array([0, idx.size]), idx, counts_d[idx])
    eta, nu, beta_ss, _ = _estep_chunk(chunk, mu, mu, sigma_inv, beta)
    return DocPosterior(eta=eta[0], nu=nu[0], phi_sums=beta_ss.sum(axis=1))


# -- the EM loop -------------------------------------------------------------


def _chunks(corpus: Corpus) -> list[_Chunk]:
    """The E-step partition: longest documents first, so chunks pad little
    and a pool does not end on its heaviest chunk; it depends on the corpus
    alone."""
    order = np.argsort(-np.diff(corpus.indptr), kind="stable")
    return [_Chunk(order[start:start + _CHUNK], corpus.indptr, corpus.indices,
                   corpus.counts)
            for start in range(0, corpus.n_docs, _CHUNK)]


def _prior(sigma: np.ndarray):
    """(sigma_inv, log det sigma) of the prevalence prior."""
    chol_sigma = np.linalg.cholesky(sigma)
    sigma_inv = np.linalg.solve(sigma, np.eye(sigma.shape[0]))
    sigma_inv = 0.5 * (sigma_inv + sigma_inv.T)
    logdet_sigma = 2.0 * float(np.log(np.diag(chol_sigma)).sum())
    return sigma_inv, logdet_sigma


def fit(corpus: Corpus, design: PrevalenceDesign, config: FitConfig,
        threads: int = 1) -> FittedModel:
    """Variational EM until the relative change of the approximate bound
    falls below ``config.rel_tol`` or ``config.max_em_iters`` is reached.

    Deterministic given the seed: document order, the length-sorted chunk
    partition, and reduction order are fixed regardless of ``threads``.
    """
    design.validate()
    x = np.asarray(design.x, dtype=float)
    if x.shape[0] != corpus.n_docs:
        raise DimensionMismatch(
            f"design has {x.shape[0]} rows for {corpus.n_docs} documents")
    k = config.k
    beta, eta = init_params(corpus, config)
    n_docs, n_terms = corpus.n_docs, corpus.n_terms
    gamma = np.zeros((x.shape[1], k - 1))
    sigma = np.eye(k - 1)
    bound_trace: list[float] = []

    chunks = _chunks(corpus)
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        chunk_map = pool.map if threads > 1 else map  # one thread: no worker starts
        for iteration in range(config.max_em_iters):
            if iteration:  # so the loop ends on an E-step, whatever stops it
                beta, gamma, sigma = m_step(eta, nu_sum / n_docs, x, config, beta_ss)
            sigma_inv, logdet_sigma = _prior(sigma)
            mu = x @ gamma
            partials = chunk_map(lambda c: _estep_chunk(c, eta, mu, sigma_inv, beta), chunks)
            beta_ss = np.zeros((k, n_terms))
            nu_sum = np.zeros((k - 1, k - 1))
            bound = 0.0
            for chunk, (eta_c, nu_c, ss, bound_c) in zip(chunks, partials):  # fixed order
                eta[chunk.rows] = eta_c  # rows that no other chunk reads
                nu_sum += nu_c.sum(axis=0)
                beta_ss += ss
                bound += bound_c
            bound -= 0.5 * n_docs * logdet_sigma

            if not np.isfinite(bound):
                raise NonFiniteObjective(iteration)
            bound_trace.append(bound)
            if len(bound_trace) > 1 and _bound_settled(*bound_trace[-2:], config.rel_tol):
                break

    model = FittedModel(beta=beta, gamma=gamma, sigma=sigma, eta=eta,
                        bound_trace=bound_trace, config=config,
                        vocabulary=list(corpus.vocabulary),
                        design_column_names=list(design.column_names),
                        doc_ids=list(corpus.doc_ids))
    if not model.converged:
        change = (abs(bound_trace[-1] - bound_trace[-2]) / abs(bound_trace[-2])
                  if len(bound_trace) >= 2 else float("nan"))
        logger.warning("fit stopped at max_em_iters=%d without converging: "
                       "last relative bound change %.3g, rel_tol %g",
                       len(bound_trace), change, config.rel_tol)
    return model


def posterior_covariances(corpus: Corpus, model: FittedModel,
                          threads: int = 1) -> np.ndarray:
    """The D x (K-1) x (K-1) posterior covariances of ``model``, fitted to
    ``corpus``: the inverse damped curvature at each saved mode under the
    saved parameters, exactly symmetric. This is ``fit``'s E-step on
    ``fit``'s chunks with ``max_iter=0``: its block-only pass forms each
    block at the saved mode, as the pass that stopped the document there
    did, so it gives the blocks of ``fit``'s last E-step, bit for bit, at
    any ``threads``; the model keeps none. The curvature reads the prior
    only through sigma's inverse, never through its mean, so neither the
    design nor gamma enters."""
    if model.eta.shape[0] != corpus.n_docs or model.beta.shape[1] != corpus.n_terms:
        raise DimensionMismatch("the model does not fit the corpus's documents and terms")
    sigma_inv, _ = _prior(model.sigma)
    nu = np.empty(model.eta.shape + model.eta.shape[1:])
    chunks = _chunks(corpus)
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        blocks = (pool.map if threads > 1 else map)(
            # the modes stand in for the prior mean, which no block reads
            lambda c: _estep_chunk(c, model.eta, model.eta, sigma_inv, model.beta,
                                   max_iter=0, counts=False)[1], chunks)
        for chunk, nu_c in zip(chunks, blocks):
            nu[chunk.rows] = nu_c
    return nu
