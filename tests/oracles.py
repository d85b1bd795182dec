"""Independent reference implementations used only to check the package.

Each oracle recomputes a quantity by the most literal route available
(document scans, dense grids, textbook recursions, closed forms) without
touching the code paths under test.
"""

from __future__ import annotations

import math
import re
from collections import Counter

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


# -- Porter stemmer and ingest ------------------------------------------------
#
# The stemmer as the package wrote it before its rule tables were built once
# per module, kept rule for rule; then tokenizing and corpus building by
# regex and one Counter per document.

_PORTER_VOWELS = frozenset("aeiou")


def _porter_cons_flags(word: str) -> list[bool]:
    """True where the letter acts as a consonant.

    'y' is a consonant at the word start or after a vowel, a vowel after a
    consonant.
    """
    flags: list[bool] = []
    for i, c in enumerate(word):
        if c in _PORTER_VOWELS:
            flags.append(False)
        elif c == "y":
            flags.append(True if i == 0 else not flags[i - 1])
        else:
            flags.append(True)
    return flags


def _porter_measure(stem: str) -> int:
    """Number of vowel-consonant sequences: the m of [C](VC)^m[V]."""
    flags = _porter_cons_flags(stem)
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


def _porter_has_vowel(stem: str) -> bool:
    return not all(_porter_cons_flags(stem))


def _porter_ends_double_consonant(stem: str) -> bool:
    if len(stem) < 2 or stem[-1] != stem[-2]:
        return False
    return _porter_cons_flags(stem)[-1] and _porter_cons_flags(stem)[-2]


def _porter_ends_cvc(stem: str) -> bool:
    """*o condition: ends consonant-vowel-consonant, final not w, x or y."""
    if len(stem) < 3:
        return False
    flags = _porter_cons_flags(stem)
    return flags[-3] and not flags[-2] and flags[-1] and stem[-1] not in "wxy"


# (suffix, replacement) pairs; condition m > threshold applies to the stem
# left after removing the suffix.
_PORTER_STEP2_RULES = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
)

_PORTER_STEP3_RULES = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)

_PORTER_STEP4_SUFFIXES = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)


def _porter_longest_match(word: str, suffixes: tuple[str, ...]) -> str | None:
    best = None
    for sfx in suffixes:
        if word.endswith(sfx) and (best is None or len(sfx) > len(best)):
            best = sfx
    return best


def _porter_step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _porter_step1b(word: str) -> str:
    if word.endswith("eed"):
        if _porter_measure(word[:-3]) > 0:
            return word[:-1]
        return word
    stripped = None
    if word.endswith("ed") and _porter_has_vowel(word[:-2]):
        stripped = word[:-2]
    elif word.endswith("ing") and _porter_has_vowel(word[:-3]):
        stripped = word[:-3]
    if stripped is None:
        return word
    if stripped.endswith(("at", "bl", "iz")):
        return stripped + "e"
    if _porter_ends_double_consonant(stripped) and not stripped.endswith(("l", "s", "z")):
        return stripped[:-1]
    if _porter_measure(stripped) == 1 and _porter_ends_cvc(stripped):
        return stripped + "e"
    return stripped


def _porter_step1c(word: str) -> str:
    if word.endswith("y") and _porter_has_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _porter_step2(word: str) -> str:
    match = _porter_longest_match(word, tuple(s for s, _ in _PORTER_STEP2_RULES))
    if match is None:
        return word
    stem = word[: -len(match)]
    if _porter_measure(stem) > 0:
        repl = dict(_PORTER_STEP2_RULES)[match]
        return stem + repl
    return word


def _porter_step3(word: str) -> str:
    match = _porter_longest_match(word, tuple(s for s, _ in _PORTER_STEP3_RULES))
    if match is None:
        return word
    stem = word[: -len(match)]
    if _porter_measure(stem) > 0:
        return stem + dict(_PORTER_STEP3_RULES)[match]
    return word


def _porter_step4(word: str) -> str:
    match = _porter_longest_match(word, _PORTER_STEP4_SUFFIXES)
    if match is None:
        return word
    stem = word[: -len(match)]
    if _porter_measure(stem) > 1:
        if match == "ion" and not stem.endswith(("s", "t")):
            return word
        return stem
    return word


def _porter_step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _porter_measure(stem)
        if m > 1 or (m == 1 and not _porter_ends_cvc(stem)):
            return stem
    return word


def _porter_step5b(word: str) -> str:
    if (_porter_measure(word) > 1 and _porter_ends_double_consonant(word)
            and word.endswith("l")):
        return word[:-1]
    return word


def porter_stem_reference(word: str) -> str:
    """The Porter stem as the package computed it before its rule tables
    were built once: every step rebuilds its tables and scans all rules."""
    if len(word) <= 2:
        return word
    for step in (_porter_step1a, _porter_step1b, _porter_step1c, _porter_step2,
                 _porter_step3, _porter_step4, _porter_step5a, _porter_step5b):
        word = step(word)
    return word


def tokenize_reference(text: str, stopwords: frozenset[str],
                       min_term_len: int) -> list[str]:
    """Regex words of the lowercased text, stopwords dropped, reference
    stems shorter than min_term_len dropped, order kept."""
    out = []
    for token in re.findall("[a-z]+", text.lower()):
        if token in stopwords:
            continue
        term = porter_stem_reference(token)
        if len(term) >= min_term_len:
            out.append(term)
    return out


def build_corpus_reference(docs, covs, stopwords: frozenset[str],
                           min_term_len: int, min_doc_freq: int) -> dict:
    """Vocabulary, CSR triple, kept rows and drop report of a corpus built
    with one Counter of term indices per document."""
    token_lists = [tokenize_reference(d.text, stopwords, min_term_len) for d in docs]
    doc_freq: Counter[str] = Counter()
    for terms in token_lists:
        doc_freq.update(set(terms))
    vocabulary = sorted(t for t, df in doc_freq.items() if df >= min_doc_freq)
    term_index = {t: i for i, t in enumerate(vocabulary)}
    cov_by_id = {rec.doc_id: rec for rec in covs}
    out = {"vocabulary": vocabulary, "doc_ids": [], "indptr": [0], "indices": [],
           "counts": [], "covariates": [], "years": [], "emptied_docs": [],
           "docs_without_covariates": []}
    for doc, terms in zip(docs, token_lists):
        counts = Counter(term_index[t] for t in terms if t in term_index)
        if not counts:
            out["emptied_docs"].append(doc.doc_id)
            continue
        if doc.doc_id not in cov_by_id:
            out["docs_without_covariates"].append(doc.doc_id)
            continue
        out["doc_ids"].append(doc.doc_id)
        out["indices"].extend(sorted(counts))
        out["counts"].extend(counts[i] for i in sorted(counts))
        out["indptr"].append(len(out["indices"]))
        out["covariates"].append(cov_by_id[doc.doc_id])
        out["years"].append(doc.year)
    out["unmatched_covariates"] = sorted(set(cov_by_id) - set(out["doc_ids"]))
    return out
