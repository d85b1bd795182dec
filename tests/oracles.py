"""Independent reference implementations used only to check the package.

Each oracle recomputes a quantity by the most literal route available
(document scans, dense grids, textbook recursions, closed forms) without
touching the code paths under test.
"""

from __future__ import annotations

import math

import numpy as np


def padded_chunk_reference(docs: list[tuple[np.ndarray, np.ndarray]]):
    """(idx, cts, totals) of an E-step chunk, padded one document at a
    time: row i holds document i's term indices and float counts, then
    zeros (term 0, count 0) up to the longest document."""
    width = max(idx.size for idx, _ in docs)
    idx_out = np.zeros((len(docs), width), dtype=np.int64)
    cts_out = np.zeros((len(docs), width))
    for i, (idx, cts) in enumerate(docs):
        idx_out[i, :idx.size] = idx
        cts_out[i, :idx.size] = cts
    return idx_out, cts_out, cts_out.sum(axis=1)


def coherence_brute_force(beta_row: np.ndarray, doc_term_lists: list[set[int]],
                          m: int) -> float:
    """Double-loop coherence over the top-m terms of one topic.

    Top terms by descending probability, ties by ascending index; pair
    (i, j) with j < i contributes log((D(vi,vj)+1)/D(vj)); documents are
    scanned directly for every count. Accumulation order matches the
    documented order: i ascending outer, j ascending inner.
    """
    order = sorted(range(len(beta_row)), key=lambda v: (-beta_row[v], v))
    top = order[:m]
    total = 0.0
    for i in range(1, m):
        for j in range(i):
            d_j = sum(1 for terms in doc_term_lists if top[j] in terms)
            d_ij = sum(1 for terms in doc_term_lists
                       if top[i] in terms and top[j] in terms)
            total += math.log((d_ij + 1.0) / d_j)
    return total


def cox_de_boor(x: float, degree: int, i: int, knots: np.ndarray) -> float:
    """Textbook Cox-de Boor recursion for basis function B_{i,degree}."""
    if degree == 0:
        if knots[i] <= x < knots[i + 1]:
            return 1.0
        # right-closed top interval so the basis covers the right endpoint
        if x == knots[-1] and knots[i] < knots[i + 1] == knots[-1]:
            return 1.0
        return 0.0
    left_den = knots[i + degree] - knots[i]
    right_den = knots[i + degree + 1] - knots[i + 1]
    left = 0.0 if left_den == 0.0 else ((x - knots[i]) / left_den
                                        * cox_de_boor(x, degree - 1, i, knots))
    right = 0.0 if right_den == 0.0 else ((knots[i + degree + 1] - x) / right_den
                                          * cox_de_boor(x, degree - 1, i + 1, knots))
    return left + right


def bspline_basis_matrix(x: np.ndarray, knots: np.ndarray, degree: int) -> np.ndarray:
    n_basis = len(knots) - degree - 1
    out = np.zeros((len(x), n_basis))
    for r, val in enumerate(x):
        for i in range(n_basis):
            out[r, i] = cox_de_boor(float(val), degree, i, knots)
    return out


def grid_search_eta(counts: np.ndarray, mu: float, sigma_inv: float,
                    beta: np.ndarray, lo: float = -8.0, hi: float = 8.0) -> float:
    """Dense 1-D grid maximization of the document objective for K=2.

    Coarse pass then two refinements; final resolution well below 1e-5.
    """
    def objective(eta):
        theta = np.array([math.exp(eta), 1.0])
        theta /= theta.sum()
        probs = theta @ beta
        nz = counts > 0
        return float(counts[nz] @ np.log(probs[nz])
                     - 0.5 * sigma_inv * (eta - mu) ** 2)

    best = None
    span = (lo, hi)
    for _ in range(3):
        grid = np.linspace(span[0], span[1], 4001)
        values = [objective(g) for g in grid]
        best = float(grid[int(np.argmax(values))])
        width = (span[1] - span[0]) / 4000
        span = (best - 2 * width, best + 2 * width)
    return best


def ridge_closed_form(x: np.ndarray, y: np.ndarray, penalty: float) -> np.ndarray:
    """(X'X + diag(0, penalty, ...))^-1 X'y via explicit inverse."""
    pen = np.full(x.shape[1], penalty)
    pen[0] = 0.0
    return np.linalg.inv(x.T @ x + np.diag(pen)) @ (x.T @ y)


def ols_closed_form(x_vals: np.ndarray, y_vals: np.ndarray):
    """Simple-regression slope/intercept/residuals from the textbook formulas."""
    n = len(x_vals)
    sx, sy = x_vals.sum(), y_vals.sum()
    sxx = (x_vals * x_vals).sum()
    sxy = (x_vals * y_vals).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return slope, intercept, y_vals - (intercept + slope * x_vals)


# -- the E-step kernel as it was before the carried-state rewrite ------------
#
# A verbatim copy of the earlier stm._estep_chunk and its helpers: the
# transposed fancy-index gather, a whole-state recompute after every
# accepted step and once more for the whole chunk, and the m x K x width
# count block. It adds only ``events``, a counter of the branches taken, so
# a test can show that its chunk exercises the branch it names. The current
# kernel must match it bit for bit in eta, nu and the bound, and in the
# expected counts to rtol 1e-14, since it sums them with one GEMM.


def _ref_batch_value(eta, mu, sigma_inv, b, cts, totals):
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


def _ref_batch_state(eta, mu, sigma_inv, b, cts, totals):
    value, w, wsum, den, diff = _ref_batch_value(eta, mu, sigma_inv, b, cts, totals)
    theta = w / wsum[:, None]
    q = (b @ (cts / den)[:, :, None])[:, :, 0] * w
    grad = (q - totals[:, None] * theta)[:, :-1] - diff @ sigma_inv
    return value, grad, w, den, q, theta


def _ref_batch_neg_hessian(q, theta, w, den, b, cts, sigma_inv, totals):
    s = b * (np.sqrt(cts) / den)[:, None, :]
    a = s @ s.transpose(0, 2, 1)
    a *= w[:, :, None] * w[:, None, :]
    a -= totals[:, None, None] * theta[:, :, None] * theta[:, None, :]
    k = a.shape[1]
    diag = np.arange(k)
    a[:, diag, diag] -= q - totals[:, None] * theta
    return sigma_inv[None, :, :] + a[:, :-1, :-1]


def _ref_damped_cholesky(mats, events):
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
            raise ValueError(f"curvature block {i} is not finite")
        lam = 1e-10 * max(float(np.abs(np.diag(mat)).max()), 1.0)
        for _ in range(41):
            try:
                factors[i] = np.linalg.cholesky(fixed[i])
                break
            except np.linalg.LinAlgError:
                fixed[i] = mat + lam * eye
                lam *= 10.0
                events["damped"] += 1
        else:
            raise ValueError(f"curvature block {i} could not be regularized")
    return factors, fixed


def estep_chunk_reference(chunk, eta_all, nu_all, mu_all, sigma_inv, beta,
                          events, *, max_iter=200, grad_tol=1e-8):
    """The earlier batched Newton E-step for one chunk: updates eta_all and
    nu_all rows in place and returns (K x V expected counts, bound)."""
    rows = chunk.rows
    b = np.ascontiguousarray(beta[:, chunk.idx].transpose(1, 0, 2))
    cts = chunk.cts
    totals = chunk.totals
    eta = eta_all[rows].copy()
    mu = mu_all[rows]
    tol = grad_tol * np.maximum(1.0, totals)

    active = np.arange(len(rows))
    value, grad, w, den, q, theta = _ref_batch_state(eta, mu, sigma_inv, b, cts, totals)
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

        neg_h = _ref_batch_neg_hessian(q, theta, w, den, b_a, cts_a, sigma_inv, tot_a)
        _, neg_h = _ref_damped_cholesky(neg_h, events)
        step = np.linalg.solve(neg_h, grad[:, :, None])[:, :, 0]
        slope = (grad * step).sum(axis=1)
        t = np.ones(len(active))
        accepted = np.zeros(len(active), dtype=bool)
        cand = eta_a.copy()
        for _ in range(31):
            trial = eta_a + t[:, None] * step
            trial_value = _ref_batch_value(trial, mu_a, sigma_inv, b_a, cts_a, tot_a)[0]
            ok = trial_value >= value + 1e-4 * t * slope
            newly = ok & ~accepted
            cand[newly] = trial[newly]
            accepted |= ok
            if accepted.all():
                break
            t[~accepted] *= 0.5
            events["halved"] += int((~accepted).sum())
        if not accepted.any():
            events["all_frozen"] += 1
            break
        events["frozen"] += int((~accepted).sum())
        eta[active[accepted]] = cand[accepted]
        active = active[accepted]
        value, grad, w, den, q, theta = _ref_batch_state(
            eta[active], mu[active], sigma_inv, b[active], cts[active],
            totals[active])

    value, grad, w, den, q, theta = _ref_batch_state(eta, mu, sigma_inv, b, cts, totals)
    neg_h = _ref_batch_neg_hessian(q, theta, w, den, b, cts, sigma_inv, totals)
    chols, neg_h = _ref_damped_cholesky(neg_h, events)
    k_free = neg_h.shape[1]
    eye = np.broadcast_to(np.eye(k_free), neg_h.shape)
    nu = np.linalg.solve(neg_h, eye)
    nu = 0.5 * (nu + nu.transpose(0, 2, 1))
    logdet_nu = -2.0 * np.log(np.einsum("mii->mi", chols)).sum(axis=1)
    bound = float((value + 0.5 * logdet_nu).sum())

    eta_all[rows] = eta
    nu_all[rows] = nu
    phi_c = b * (w[:, :, None] / den[:, None, :]) * cts[:, None, :]
    terms = chunk.idx.ravel()
    counts = np.stack([np.bincount(terms, weights=phi_c[:, j].ravel(),
                                   minlength=beta.shape[1])
                       for j in range(phi_c.shape[1])])
    return counts, bound
