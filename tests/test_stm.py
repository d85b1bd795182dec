"""Model fitting: initialization, E-step, M-step, EM invariants."""

import collections
import logging
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import agendascope
import agendascope.stm as stm_mod
from agendascope.corpus import PreprocessConfig, build_corpus, load_ungdc_layout
from agendascope.design import build_design
from agendascope.errors import (CorruptArtifact, DimensionMismatch, HessianNotPD,
                                KExceedsVocabulary, NonFiniteObjective, SingularDesign)
from agendascope.jsonio import dumps_canonical, read_json, write_json
from agendascope.stm import (FitConfig, FittedModel, PrevalenceDesign,
                             _batch_neg_hessian, _batch_state, _batch_value,
                             _Chunk, _damped_cholesky, _estep_chunk,
                             _expected_counts, e_step_doc, fit, init_params, m_step,
                             posterior_covariances, softmax_with_zero)
from oracles import (batch_value_einsum, estep_chunk_reference,
                     grid_search_eta, padded_chunk_reference, ridge_closed_form)
from synth import (counts_dense, csr, greedy_align, model_draw, tiny_corpus,
                   two_block_corpus)


class TestInitParams:
    def corpus(self):
        return tiny_corpus([["alpha", "beta", "gamma"], ["beta", "delta"],
                            ["alpha", "delta", "eps"]])

    def test_same_seed_identical(self):
        c = self.corpus()
        b1, e1 = init_params(c, FitConfig(k=2, seed=7))
        b2, e2 = init_params(c, FitConfig(k=2, seed=7))
        assert np.array_equal(b1, b2) and np.array_equal(e1, e2)

    def test_different_seed_differs(self):
        c = self.corpus()
        b1, _ = init_params(c, FitConfig(k=2, seed=7))
        b2, _ = init_params(c, FitConfig(k=2, seed=8))
        assert not np.array_equal(b1, b2)

    def test_rows_normalized(self):
        c = self.corpus()
        b, e = init_params(c, FitConfig(k=3, seed=0))
        assert np.allclose(b.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(b > 0)
        assert np.array_equal(e, np.zeros((3, 2)))

    def test_no_em_iterations_rejected(self):
        with pytest.raises(ValueError, match="max_em_iters"):
            FitConfig(k=2, max_em_iters=0)

    @pytest.mark.parametrize("key, value", [
        ("rel_tol", 0.0), ("rel_tol", float("nan")), ("rel_tol", float("inf")),
        ("ridge_gamma", -1.0), ("ridge_gamma", float("nan")),
        ("ridge_gamma", float("inf")), ("sigma_floor", 0.0),
        ("sigma_floor", -1e-6), ("sigma_floor", float("nan")),
        ("sigma_floor", float("inf"))])
    def test_non_finite_or_out_of_range_setting_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            FitConfig(k=2, **{key: value})

    def test_k_exceeds_vocabulary(self):
        with pytest.raises(KExceedsVocabulary):
            init_params(self.corpus(), FitConfig(k=99, seed=0))


class TestEStepDoc:
    def test_identical_beta_rows_returns_prior_mean(self):
        beta = np.tile(np.array([0.5, 0.3, 0.2]), (2, 1))
        counts = np.array([3.0, 1.0, 2.0])
        mu = np.array([0.4])
        sigma_inv = np.array([[2.0]])
        post = e_step_doc(counts, mu, sigma_inv, beta)
        assert post.eta == pytest.approx(mu, abs=1e-9)

    def test_tiny_prior_variance_pins_to_mean(self):
        rng = np.random.default_rng(0)
        beta = rng.dirichlet([1, 1, 1, 1], size=3)
        counts = np.array([4.0, 0.0, 1.0, 2.0])
        mu = np.array([0.3, -0.2])
        sigma_inv = 1e8 * np.eye(2)
        post = e_step_doc(counts, mu, sigma_inv, beta)
        assert np.abs(post.eta - mu).max() < 1e-4

    def test_single_token_mode_matches_grid_oracle(self):
        beta = np.array([[0.7, 0.2, 0.1],
                         [0.1, 0.3, 0.6]])
        counts = np.array([0.0, 0.0, 1.0])
        mu = np.array([0.25])
        sigma_inv = np.array([[1.5]])
        post = e_step_doc(counts, mu, sigma_inv, beta)
        oracle = grid_search_eta(counts, float(mu[0]), 1.5, beta)
        assert post.eta[0] == pytest.approx(oracle, abs=1e-4)

    def test_multi_token_mode_matches_grid_oracle(self):
        beta = np.array([[0.6, 0.3, 0.1],
                         [0.05, 0.15, 0.8]])
        counts = np.array([5.0, 2.0, 7.0])
        mu = np.array([-0.4])
        sigma_inv = np.array([[0.8]])
        post = e_step_doc(counts, mu, sigma_inv, beta)
        oracle = grid_search_eta(counts, -0.4, 0.8, beta)
        assert post.eta[0] == pytest.approx(oracle, abs=1e-4)

    def test_phi_sums_conserve_tokens(self):
        rng = np.random.default_rng(3)
        beta = rng.dirichlet(np.ones(6), size=4)
        counts = np.array([2.0, 0.0, 3.0, 1.0, 0.0, 4.0])
        post = e_step_doc(counts, np.zeros(3), np.eye(3), beta)
        assert post.phi_sums.sum() == pytest.approx(counts.sum(), abs=1e-6)

    def test_nu_symmetric_psd(self):
        rng = np.random.default_rng(4)
        beta = rng.dirichlet(np.ones(8), size=3)
        counts = rng.integers(0, 5, size=8).astype(float)
        counts[0] = max(counts[0], 1.0)
        post = e_step_doc(counts, np.zeros(2), np.eye(2), beta)
        assert np.allclose(post.nu, post.nu.T)
        assert np.linalg.eigvalsh(post.nu).min() >= -1e-12

    def test_empty_document_rejected(self):
        beta = np.full((2, 3), 1 / 3)
        with pytest.raises(DimensionMismatch):
            e_step_doc(np.zeros(3), np.zeros(1), np.eye(1), beta)

    @pytest.mark.parametrize("counts_d", [
        [1.0, 2.0, 0.0, 1.0, 3.0, 1.0],   # longer than the vocabulary
        [1.0, 2.0, 0.0, 1.0],             # shorter than the vocabulary
        [1.0, -2.0, 0.0, 1.0, 3.0],       # a negative count
        [1.0, np.nan, 0.0, 1.0, 3.0],     # a NaN count
    ], ids=["long", "short", "negative", "nan"])
    def test_bad_counts_rejected(self, counts_d):
        beta = np.full((3, 5), 0.2)
        with pytest.raises(DimensionMismatch):
            e_step_doc(np.array(counts_d), np.zeros(2), np.eye(2), beta)

    @pytest.mark.parametrize("mu_d", [
        [0.0, 0.0, 0.0],                  # one entry per topic, not per free topic
        [np.nan, 0.0],                    # a NaN prior mean
    ], ids=["long", "nan"])
    def test_bad_mu_rejected(self, mu_d):
        beta = np.full((3, 5), 0.2)
        with pytest.raises(DimensionMismatch):
            e_step_doc(np.array([1.0, 2.0, 0.0, 1.0, 3.0]), np.array(mu_d),
                       np.eye(2), beta)

    @pytest.mark.parametrize("sigma_inv, error", [
        (np.eye(3), DimensionMismatch),                           # wrong shape
        (np.array([[1.0, 0.5], [0.0, 1.0]]), DimensionMismatch),  # asymmetric
        (np.full((2, 2), np.nan), DimensionMismatch),             # non-finite
        (np.array([[1.0, 0.0], [0.0, -1.0]]), HessianNotPD),      # indefinite
    ])
    def test_bad_sigma_inv_rejected(self, sigma_inv, error):
        beta = np.full((3, 4), 0.25)
        with pytest.raises(error):
            e_step_doc(np.array([1.0, 2.0, 0.0, 1.0]), np.zeros(2),
                       sigma_inv, beta)


class TestKernel:
    """The batched E-step's pieces against independent references."""

    @staticmethod
    def chunk():
        # three documents of different lengths: the shorter two get padding
        # columns (term 0, count 0) next to a real count for term 0
        docs = [(np.array([0, 3, 5]), np.array([2.0, 1.0, 4.0])),
                (np.array([0, 1]), np.array([1.0, 3.0])),
                (np.array([0, 2, 4, 6, 7]), np.array([1.0, 2.0, 1.0, 5.0, 2.0]))]
        return _Chunk(range(3), *csr(docs))

    def test_chunk_from_csr_equals_padded_reference(self):
        # chunks from the middle of a CSR triple and from rows anywhere in
        # it, in any order; the documents are of lengths 1..12 in random
        # order, the counts int64 as in a Corpus
        rng = np.random.default_rng(5)
        docs = []
        for n in rng.permutation(np.arange(1, 13)):
            docs.append((np.sort(rng.choice(40, n, replace=False)),
                         rng.integers(1, 9, n)))
        indptr, indices, counts = csr(docs)
        for rows in (range(3, 10), [9, 2, 11, 5, 0]):
            chunk = _Chunk(rows, indptr, indices, counts)
            idx, cts, totals = padded_chunk_reference([docs[d] for d in rows])
            assert chunk.rows.tolist() == list(rows)
            assert chunk.idx.dtype == idx.dtype and chunk.cts.dtype == cts.dtype
            assert np.array_equal(chunk.idx, idx)
            assert np.array_equal(chunk.cts, cts)
            assert np.array_equal(chunk.totals, totals)

    @pytest.mark.parametrize("k", [2, 5, 30])
    def test_neg_hessian_matches_finite_differences(self, k):
        rng = np.random.default_rng(k)
        chunk = self.chunk()
        beta = rng.dirichlet(np.ones(8), size=k)
        b = np.ascontiguousarray(beta[:, chunk.idx].transpose(1, 0, 2))
        eta = rng.normal(scale=0.5, size=(3, k - 1))
        mu = rng.normal(scale=0.5, size=(3, k - 1))
        root = rng.normal(size=(k - 1, k - 1))
        sigma_inv = 0.1 * (root @ root.T / k + np.eye(k - 1))
        args = (mu, sigma_inv, b, chunk.cts, chunk.totals)

        _, _, w, den, q, theta = _batch_state(eta, *args)
        neg_h = _batch_neg_hessian(np.arange(3), q, theta, w, den, b, chunk.cts,
                                   sigma_inv, chunk.totals)

        h = 1e-3
        step = h * np.eye(k - 1)
        fd = np.empty_like(neg_h)
        for i in range(k - 1):
            for j in range(i, k - 1):
                f = [_batch_value(eta + si * step[i] + sj * step[j], *args)[0]
                     for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
                fd[:, i, j] = fd[:, j, i] = -(f[0] - f[1] - f[2] + f[3]) / (4 * h * h)
        assert np.abs(neg_h - fd).max() <= 1e-5 * np.abs(fd).max()

    def test_counts_gemm_equals_add_at(self):
        # documents of lengths 1..20 in random order, so most rows are
        # padded with (term 0, count 0) and some also hold a real term 0
        rng = np.random.default_rng(3)
        k, n_terms = 4, 30
        docs = []
        for n in rng.permutation(np.arange(1, 21)):
            terms = np.sort(rng.choice(n_terms, n, replace=False))
            docs.append((terms, rng.integers(1, 5, n)))
        chunk = _Chunk(range(len(docs)), *csr(docs))
        assert (chunk.idx[chunk.cts > 0] == 0).any() and (chunk.cts == 0).any()
        # magnitudes over 16 decades, with w and den as the E-step forms them
        beta = rng.random((k, n_terms)) * 10.0 ** rng.integers(-8, 8, (k, n_terms))
        w = rng.random((len(docs), k)) + 0.1
        b = beta[:, chunk.idx].transpose(1, 0, 2)
        den = (w[:, None, :] @ b)[:, 0, :]
        phi_c = b * (w[:, :, None] / den[:, None, :]) * chunk.cts[:, None, :]
        reference = np.zeros((k, n_terms))
        np.add.at(reference, (slice(None), chunk.idx), phi_c.transpose(1, 0, 2))

        counts = _expected_counts(beta, w, den, chunk.cts, chunk.idx)
        np.testing.assert_allclose(counts, reference, rtol=1e-14, atol=0)
        assert np.array_equal(counts == 0, reference == 0)
        assert counts.sum() == pytest.approx(chunk.cts.sum(), rel=1e-13)


class TestKernelMatchesReference:
    """The E-step kernel against the earlier one, copied into ``oracles``:
    the Newton loop does the same floating-point operations in the same
    order, so the rows it returns (eta and nu) and the bound are bit-equal
    to those the reference writes in place, on chunks that take each branch
    of it; the expected counts agree to a few ulps."""

    # (prior precision, its coupling, start spread around mu, count scale,
    # the reference's grad_tol, the Newton decrement tolerance) and the first
    # seed at K = 3, 8, 30 whose chunk takes the case's branch. The prior
    # precision is prior * (I + coupling * 1 1'); "coupled" halves like
    # "halve" under a dense one, so the bit-equality sees how the
    # pending-only line search forms diff @ sigma_inv. "frozen" turns every
    # stopping test off, so Newton ascent runs until a line search fails;
    # "decrement" stops every row on its decrement, so the reference's
    # Laplace tail forms no block.
    CASES = {
        "accept": ((5.0, 0.0, 0.0, 1.0, 1e-8, 1e-8), {3: 0, 8: 0, 30: 0}),
        "halve": ((2.0, 0.0, 3.0, 1.0, 1e-8, 1e-8), {3: 1, 8: 0, 30: 0}),
        "coupled": ((2.0, 0.3, 3.0, 1.0, 1e-8, 1e-8), {3: 1, 8: 1, 30: 0}),
        "frozen": ((1.0, 0.0, 0.0, 1e4, 0.0, 0.0), {3: 7, 8: 28, 30: 1}),
        "decrement": ((2.0, 0.0, 3.0, 1.0, 1e-8, 1e-8), {3: 2, 8: 0, 30: 3}),
    }

    @classmethod
    def case(cls, name, k, m=8, v=40):
        if name == "damped":
            # words shared by topics 0 and 1 only, from a start where the
            # other topics dominate: the log-likelihood is convex along
            # eta_0 - eta_1 and the weak prior cannot make up for it
            rng = np.random.default_rng(k)
            beta = np.full((k, v), 1e-3)
            beta[:2, :v // 2] = beta[2:, v // 2:] = 1.0
            beta /= beta.sum(axis=1, keepdims=True)
            docs = [(np.arange(6 + d), np.full(6 + d, 3.0)) for d in range(m)]
            mu = rng.normal(scale=0.3, size=(m, k - 1))
            eta = -8.0 + rng.normal(scale=0.5, size=(m, k - 1))
            return (_Chunk(range(m), *csr(docs)), eta, mu, 1e-3 * np.eye(k - 1), beta,
                    {"grad_tol": 1e-8, "decrement_tol": 1e-8})
        (prior, coupling, spread, scale, grad_tol, decrement_tol), seeds = cls.CASES[name]
        rng = np.random.default_rng(seeds[k])
        beta = rng.dirichlet(np.full(v, 0.5), size=k)
        docs = []
        for _ in range(m):
            n = rng.integers(1, 10)
            docs.append((np.sort(rng.choice(v, n, replace=False)),
                         rng.integers(1, 6, n) * scale))
        mu = rng.normal(scale=0.3, size=(m, k - 1))
        eta = mu + rng.normal(scale=spread, size=(m, k - 1)) if spread else mu.copy()
        sigma_inv = prior * (np.eye(k - 1) + coupling)
        return (_Chunk(range(m), *csr(docs)), eta, mu, sigma_inv, beta,
                {"grad_tol": grad_tol, "decrement_tol": decrement_tol})

    @staticmethod
    def kernel(monkeypatch, chunk, eta, mu, sigma_inv, beta, tols, **kwargs):
        """``_estep_chunk`` under the case's decrement tolerance, a module
        constant, not a parameter; the kernel has no gradient test, so the
        case's ``grad_tol`` is the reference's alone."""
        monkeypatch.setattr(stm_mod, "_DECREMENT_TOL", tols["decrement_tol"])
        return _estep_chunk(chunk, eta, mu, sigma_inv, beta, **kwargs)

    @pytest.mark.parametrize("k", [3, 8, 30])
    @pytest.mark.parametrize("name", ["accept", "halve", "coupled", "frozen", "damped",
                                      "decrement"])
    def test_bit_equal_to_reference(self, monkeypatch, name, k):
        """At the default step limit, where the case takes its branch, and
        at ``max_iter`` 0 and 2, where the block-only pass stops the rows
        still moving."""
        chunk, eta0, mu, sigma_inv, beta, tols = self.case(name, k)
        m = len(chunk.rows)
        start = eta0.copy()
        blocks = []
        neg_hessian = stm_mod._batch_neg_hessian
        monkeypatch.setattr(stm_mod, "_batch_neg_hessian",
                            lambda rows, *args: (blocks.append(len(rows))
                                                 or neg_hessian(rows, *args)))
        for max_iter in (200, 0, 2):
            events = collections.Counter()
            ref_eta, ref_nu = eta0.copy(), np.zeros((m, k - 1, k - 1))
            ref_counts, ref_bound = estep_chunk_reference(
                chunk, ref_eta, ref_nu, mu, sigma_inv, beta, events, max_iter=max_iter,
                **tols)
            blocks.clear()
            eta, nu, counts, bound = self.kernel(monkeypatch, chunk, eta0, mu, sigma_inv,
                                                 beta, tols, max_iter=max_iter)

            if max_iter == 200:
                taken = {"accept": not (events["halved"] or events["damped"]
                                        or events["frozen"] or events["all_frozen"]),
                         "halve": 0 < events["halved"] and not events["damped"],
                         "coupled": 0 < events["halved"] and not events["damped"],
                         "frozen": events["frozen"] > 0 and not events["decrement"],
                         "damped": events["damped"] > 0,
                         "decrement": events["decrement"] == m}
                assert taken[name], dict(events)
            # one block per Newton step, then one per row the block-only pass
            # stops: every row's Laplace block is formed once, at its final
            # point, where the reference forms a frozen row's block again
            assert sum(blocks) == events["steps"] + events["tail"] - events["frozen"]
            assert np.array_equal(eta0, start)  # the caller's array is left alone
            assert np.array_equal(eta, ref_eta)
            assert np.array_equal(nu, ref_nu)
            assert bound == ref_bound
            # the counts are one GEMM, not the reference's per-term sums, so
            # they round differently
            np.testing.assert_allclose(counts, ref_counts, rtol=1e-14, atol=0)
            assert np.array_equal(counts == 0, ref_counts == 0)

    @pytest.mark.parametrize("k", [3, 8, 30])
    @pytest.mark.parametrize("name", ["accept", "halve", "coupled", "frozen", "damped"])
    def test_value_matches_einsum_form(self, name, k):
        """The value at the chunk's start against the earlier kernel's form,
        a three-operand einsum for the prior term, to 1e-12 of each row's
        value."""
        chunk, eta, mu, sigma_inv, beta, _ = self.case(name, k)
        b = np.ascontiguousarray(beta[:, chunk.idx].transpose(1, 0, 2))
        args = (mu, sigma_inv, b, chunk.cts, chunk.totals)
        value = _batch_value(eta, *args)[0]
        ref_value = batch_value_einsum(eta, *args)[0]
        assert (np.abs(value - ref_value) <= 1e-12 * np.abs(ref_value)).all()

    def test_line_search_evaluates_pending_rows_only(self, monkeypatch):
        """Each line-search round after the first evaluates only the rows no
        round has accepted, so each halving costs one row evaluation; the
        reference evaluates every row of the batch in every round. A row
        that stops on its Newton decrement takes no line search."""
        chunk, eta0, mu, sigma_inv, beta, tols = self.case("halve", 8)
        m, k_free = len(chunk.rows), beta.shape[0] - 1
        events = collections.Counter()
        estep_chunk_reference(chunk, eta0.copy(), np.zeros((m, k_free, k_free)), mu,
                              sigma_inv, beta, events, **tols)
        assert events["halved"] and not (events["frozen"] or events["all_frozen"])
        assert events["decrement"]
        rows = []
        value = stm_mod._batch_value
        monkeypatch.setattr(stm_mod, "_batch_value",
                            lambda eta, *args: rows.append(len(eta)) or value(eta, *args))
        self.kernel(monkeypatch, chunk, eta0, mu, sigma_inv, beta, tols)
        # the start state, the first round of each Newton step not stopped
        # on its decrement, then one row per halving
        searched = events["steps"] - events["decrement"]
        assert sum(rows) == m + searched + events["halved"]
        assert events["halved"] < events["trials"] - searched


class TestMStep:
    def test_zero_residuals_intercept_only(self):
        eta = np.array([[0.7], [0.7], [0.7]])
        nu_mean = np.array([[0.04]])
        x = np.ones((3, 1))
        cfg = FitConfig(k=2, sigma_floor=1e-6)
        counts = np.array([[3.0, 1.0], [1.0, 3.0]])
        beta, gamma, sigma = m_step(eta, nu_mean, x, cfg, counts)
        assert gamma == pytest.approx(np.array([[0.7]]))
        assert sigma == pytest.approx(np.array([[0.04]]), abs=1e-12)
        assert beta == pytest.approx(counts / counts.sum(axis=1, keepdims=True))

    def test_huge_ridge_shrinks_slopes_to_zero(self):
        rng = np.random.default_rng(1)
        x = np.column_stack([np.ones(20), rng.normal(size=20)])
        eta = rng.normal(size=(20, 1))
        cfg = FitConfig(k=2, ridge_gamma=1e12)
        _, gamma, _ = m_step(eta, np.zeros((1, 1)), x, cfg,
                             np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert abs(gamma[1, 0]) < 1e-9
        assert gamma[0, 0] == pytest.approx(eta.mean(), abs=1e-9)

    def test_matches_closed_form_ridge(self):
        x = np.array([[1.0, 0.2], [1.0, -1.1], [1.0, 0.9]])
        eta = np.array([[0.5], [-0.3], [1.2]])
        cfg = FitConfig(k=2, ridge_gamma=1.7)
        _, gamma, _ = m_step(eta, np.zeros((1, 1)), x, cfg,
                             np.array([[1.0, 1.0], [1.0, 1.0]]))
        oracle = ridge_closed_form(x, eta[:, 0], 1.7)
        assert gamma[:, 0] == pytest.approx(oracle, abs=1e-10)

    def test_beta_floor_and_normalization(self):
        counts = np.array([[0.0, 5.0], [2.0, 0.0]])
        beta, _, _ = m_step(np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1)),
                            FitConfig(k=2), counts)
        assert np.all(beta > 0)
        assert beta.sum(axis=1) == pytest.approx(np.ones(2), abs=1e-12)

    def test_singular_design_without_ridge(self):
        x = np.column_stack([np.ones(4), np.ones(4), np.zeros(4)])
        cfg = FitConfig(k=2, ridge_gamma=0.0)
        with pytest.raises(SingularDesign):
            m_step(np.zeros((4, 1)), np.zeros((1, 1)), x, cfg,
                   np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_sigma_eigenvalue_floor(self):
        eta = np.zeros((5, 2))  # zero residuals, zero nu
        cfg = FitConfig(k=3, sigma_floor=1e-4)
        _, _, sigma = m_step(eta, np.zeros((2, 2)), np.ones((5, 1)), cfg,
                             np.ones((3, 4)))
        assert np.linalg.eigvalsh(sigma).min() >= 1e-4 - 1e-12


@pytest.fixture(scope="module")
def sample_design():
    """The bundled sample's 50 x 12 design; its spline block sums to the
    intercept, so the rank is 11."""
    sample = Path(agendascope.__file__).parent / "data" / "sample"
    docs, covs, _ = load_ungdc_layout(sample / "speeches", sample / "metadata.csv")
    corpus, _ = build_corpus(docs, covs, PreprocessConfig(min_doc_freq=5))
    x = build_design("s(year,df=4) + region + conflict",
                     corpus.covariate_table()).x
    assert x.shape == (50, 12) and np.linalg.matrix_rank(x) == 11
    return x


class TestMStepSampleDesign:
    counts = np.ones((4, 6))

    def eta(self, n):
        return np.random.default_rng(12).normal(size=(n, 3))

    def test_default_ridge_matches_augmented_least_squares(self, sample_design):
        x = sample_design
        eta = self.eta(x.shape[0])
        _, gamma, _ = m_step(eta, np.zeros((3, 3)), x, FitConfig(k=4), self.counts)
        root_penalty = np.diag(np.r_[0.0, np.ones(x.shape[1] - 1)])
        reference = np.linalg.lstsq(np.vstack([x, root_penalty]),
                                    np.vstack([eta, np.zeros((x.shape[1], 3))]),
                                    rcond=None)[0]
        assert np.abs(gamma - reference).max() < 1e-12 * np.abs(reference).max()

    def test_no_ridge_fits_the_least_squares_projection(self, sample_design):
        # gamma's null-space part is not unique, so compare fitted values
        x = sample_design
        eta = self.eta(x.shape[0])
        _, gamma, _ = m_step(eta, np.zeros((3, 3)), x,
                             FitConfig(k=4, ridge_gamma=0.0), self.counts)
        projection = x @ np.linalg.lstsq(x, eta, rcond=None)[0]
        assert (np.abs(x @ gamma - projection).max()
                < 1e-10 * np.abs(projection).max())

    def test_failed_cholesky_raises_singular_design(self, sample_design):
        x = np.column_stack([sample_design, np.zeros(sample_design.shape[0])])
        with pytest.raises(SingularDesign):
            m_step(self.eta(x.shape[0]), np.zeros((3, 3)), x,
                   FitConfig(k=4, ridge_gamma=0.0), self.counts)


class TestFit:
    def test_two_block_concentration(self):
        corpus = two_block_corpus(seed=1)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        model = fit(corpus, design, FitConfig(k=2, seed=5, max_em_iters=80,
                                              rel_tol=1e-6))
        half = corpus.n_terms // 2
        first_half_mass = model.beta[:, :half].sum(axis=1)
        assert (first_half_mass.max() >= 0.95        # one topic on block one
                and first_half_mass.min() <= 0.05)   # the other on block two

    def test_simplex_invariants(self):
        corpus = two_block_corpus(seed=2, n_docs=30)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        model = fit(corpus, design, FitConfig(k=3, seed=1, max_em_iters=25))
        assert np.allclose(model.beta.sum(axis=1), 1.0, atol=1e-8)
        assert np.allclose(model.theta.sum(axis=1), 1.0, atol=1e-8)
        assert np.all(model.beta > 0)

    def test_theta_is_exact_softmax_of_eta(self):
        corpus = two_block_corpus(seed=3, n_docs=20)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        model = fit(corpus, design, FitConfig(k=3, seed=2, max_em_iters=10))
        assert np.array_equal(model.theta, softmax_with_zero(model.eta))

    def test_bound_trace_monotone_within_slack(self):
        corpus = two_block_corpus(seed=4, n_docs=40)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        model = fit(corpus, design, FitConfig(k=3, seed=3, max_em_iters=60,
                                              rel_tol=1e-8))
        trace = np.array(model.bound_trace)
        steps = np.diff(trace)
        assert np.all(steps >= -1e-6 * np.abs(trace[:-1]))
        for start in range(len(trace) - 10):
            assert trace[start + 10] - trace[start] >= 0.0

    def test_seeded_reproducibility_bytes(self):
        corpus = two_block_corpus(seed=5, n_docs=24)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        cfg = FitConfig(k=2, seed=11, max_em_iters=15)
        m1 = fit(corpus, design, cfg)
        m2 = fit(corpus, design, cfg)
        assert dumps_canonical(m1) == dumps_canonical(m2)

    def test_thread_count_does_not_change_result(self):
        corpus = two_block_corpus(seed=6, n_docs=130)  # spans 3 chunks
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        cfg = FitConfig(k=2, seed=4, max_em_iters=10)
        serial = fit(corpus, design, cfg, threads=1)
        threaded = fit(corpus, design, cfg, threads=4)
        assert dumps_canonical(serial) == dumps_canonical(threaded)

    def test_chunks_sorted_by_length(self, monkeypatch):
        # 150 documents of 40 tokens, so 20-31 distinct terms with ties:
        # three chunks, the last one partial
        corpus, design, _, _ = model_draw(12, n_docs=150, n_terms=300, doc_len=40)
        lengths = np.diff(corpus.indptr)

        def partition(threads):
            made = []

            class Recording(_Chunk):
                def __init__(self, rows, *args):
                    super().__init__(rows, *args)
                    made.append(self.rows.tolist())

            monkeypatch.setattr(stm_mod, "_Chunk", Recording)
            fit(corpus, design, FitConfig(k=3, seed=0, max_em_iters=1),
                threads=threads)
            return made

        chunks = partition(1)
        assert chunks == partition(2)
        order = [d for rows in chunks for d in rows]
        assert sorted(order) == list(range(corpus.n_docs))
        assert [len(rows) for rows in chunks] == [64, 64, 22]
        assert np.all(np.diff(lengths[order]) <= 0)
        # ties keep document order
        assert order == sorted(range(corpus.n_docs), key=lambda d: (-lengths[d], d))

    def test_constant_design_column_rejected(self):
        corpus = two_block_corpus(seed=7, n_docs=10)
        x = np.column_stack([np.ones(10), np.full(10, 2.5)])
        design = PrevalenceDesign(x=x, column_names=["(intercept)", "flat"])
        with pytest.raises(DimensionMismatch):
            fit(corpus, design, FitConfig(k=2, seed=0))

    def test_row_count_mismatch_rejected(self):
        corpus = two_block_corpus(seed=8, n_docs=10)
        design = PrevalenceDesign.intercept_only(9)
        with pytest.raises(DimensionMismatch):
            fit(corpus, design, FitConfig(k=2, seed=0))

    def test_phi_count_conservation_through_fit(self):
        corpus = two_block_corpus(seed=9, n_docs=16)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        model = fit(corpus, design, FitConfig(k=3, seed=5, max_em_iters=8))
        sigma_inv = np.linalg.inv(model.sigma)
        dense = counts_dense(corpus).astype(float)
        mu = design.x @ model.gamma
        for d in range(corpus.n_docs):
            post = e_step_doc(dense[d], mu[d], sigma_inv, model.beta)
            assert post.phi_sums.sum() == pytest.approx(dense[d].sum(), abs=1e-6)

    def test_non_finite_objective_names_iteration(self, monkeypatch):
        corpus = two_block_corpus(seed=11, n_docs=8)
        design = PrevalenceDesign.intercept_only(8)

        def bad_chunk(chunk, eta, mu, sigma_inv, beta, **kw):
            m = len(chunk.rows)
            return (eta[chunk.rows], np.zeros((m, 1, 1)), np.zeros((2, corpus.n_terms)),
                    float("nan"))

        monkeypatch.setattr(stm_mod, "_estep_chunk", bad_chunk)
        with pytest.raises(NonFiniteObjective) as err:
            fit(corpus, design, FitConfig(k=2, seed=0, max_em_iters=3))
        assert err.value.iteration == 0

    def test_damped_cholesky_damps_indefinite_curvature(self):
        pd = np.array([[2.0, 0.3], [0.3, 1.0]])
        indefinite = np.array([[1.0, 0.0], [0.0, -2.0]])
        chols, fixed = _damped_cholesky(np.stack([pd, indefinite]))
        assert np.array_equal(chols[0], np.linalg.cholesky(pd))
        assert np.array_equal(fixed[0], pd)
        assert np.allclose(chols[1] @ chols[1].T, fixed[1])
        assert np.linalg.eigvalsh(fixed[1]).min() > 0
        with pytest.raises(HessianNotPD):
            _damped_cholesky(np.stack([pd, indefinite, np.full((2, 2), np.nan)]))

    def test_serialization_round_trip(self, tmp_path):
        corpus = two_block_corpus(seed=10, n_docs=12)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        model = fit(corpus, design, FitConfig(k=2, seed=6, max_em_iters=6))
        path = model.save(tmp_path / "model.json")
        back = FittedModel.load(path)
        assert dumps_canonical(back) == dumps_canonical(model)

    def test_legacy_model_with_k_loads(self, tmp_path):
        corpus = two_block_corpus(seed=10, n_docs=12)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        model = fit(corpus, design, FitConfig(k=2, seed=6, max_em_iters=6))
        path = tmp_path / "model.json"
        write_json(path, {**read_json(model.save(path)), "k": 2})
        assert dumps_canonical(FittedModel.load(path)) == dumps_canonical(model)

    def test_load_without_nu_opens_no_sidecar(self, tmp_path):
        corpus = two_block_corpus(seed=10, n_docs=12)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        model = fit(corpus, design, FitConfig(k=3, seed=6, max_em_iters=2))
        path = model.save(tmp_path / "model.json")
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
        assert "nu" not in read_json(path)
        assert "nu" not in {f.name for f in fields(FittedModel)}
        assert np.array_equal(FittedModel.load(path).eta, model.eta)

    @pytest.mark.parametrize("edit, name", [
        (lambda o: o["vocabulary"].pop(), "beta"),
        (lambda o: o["eta"].pop(), "eta"),
        (lambda o: o["design_column_names"].append("extra"), "gamma"),
        (lambda o: o["sigma"].pop(), "sigma"),
    ], ids=["vocabulary_short", "eta_short", "extra_design_column", "sigma_short"])
    def test_inconsistent_model_json_is_dimension_mismatch(self, tmp_path, edit, name):
        corpus = two_block_corpus(seed=10, n_docs=12)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        model = fit(corpus, design, FitConfig(k=3, seed=6, max_em_iters=2))
        path = model.save(tmp_path / "model.json")
        obj = read_json(path)
        edit(obj)
        write_json(path, obj)
        with pytest.raises(DimensionMismatch, match=f"model.json: {name} has shape"):
            FittedModel.load(path)

    @pytest.mark.parametrize("edit, reason", [
        (lambda s: s[0].__setitem__(1, s[0][1] + 1e-3), "sigma is not symmetric"),
        (lambda s: s[0].__setitem__(0, -s[0][0]), "sigma is not positive definite"),
    ], ids=["asymmetric", "indefinite"])
    def test_sigma_not_spd_is_corrupt(self, tmp_path, edit, reason):
        """A fitted sigma is exactly symmetric and eigenvalue-floored, so a
        saved one that is not symmetric positive definite was altered."""
        corpus = two_block_corpus(seed=10, n_docs=12)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        model = fit(corpus, design, FitConfig(k=3, seed=6, max_em_iters=2))
        path = model.save(tmp_path / "model.json")
        obj = read_json(path)
        edit(obj["sigma"])
        write_json(path, obj)
        with pytest.raises(CorruptArtifact, match=f"model.json: {reason}"):
            FittedModel.load(path)

    def test_converged_flags_capped_fit_and_warns(self, caplog):
        corpus = two_block_corpus(seed=5, n_docs=24)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        with caplog.at_level(logging.WARNING, logger="agendascope.stm"):
            capped = fit(corpus, design, FitConfig(k=2, seed=11, max_em_iters=2))
        assert not capped.converged
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "max_em_iters=2" in record.getMessage()
        assert "rel_tol 1e-05" in record.getMessage()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="agendascope.stm"):
            done = fit(corpus, design, FitConfig(k=2, seed=11, max_em_iters=200))
        assert done.converged and len(done.bound_trace) < 200
        assert not caplog.records

    @pytest.mark.parametrize("max_em_iters", [3, 200], ids=["capped", "converged"])
    def test_fit_ends_on_an_estep(self, monkeypatch, max_em_iters):
        """One M-step between each two E-steps and none after the last, so
        the saved modes are the modes under the saved parameters."""
        corpus = two_block_corpus(seed=5, n_docs=24)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        calls = []
        monkeypatch.setattr(stm_mod, "m_step", lambda *a: calls.append(1) or m_step(*a))
        model = fit(corpus, design, FitConfig(k=2, seed=11, max_em_iters=max_em_iters))
        assert model.converged == (max_em_iters == 200)
        assert len(model.bound_trace) > 2
        assert len(calls) == len(model.bound_trace) - 1


def fit_with_last_blocks(monkeypatch, corpus, design, config, threads=1):
    """``fit``, the covariance blocks its last E-step returned, placed in
    document order, and that E-step's inputs, one (chunk, its rows of eta,
    mu, sigma_inv, beta) per chunk: ``stm._estep_chunk`` is wrapped during
    the fit, as ``test_fit_ends_on_an_estep`` wraps ``stm.m_step``."""
    kernel = stm_mod._estep_chunk
    k_free = config.k - 1
    nu = np.full((corpus.n_docs, k_free, k_free), np.nan)
    inputs = {}

    def capturing(chunk, eta_all, mu, sigma_inv, beta, **kwargs):
        # each E-step overwrites the one before
        inputs[chunk.rows[0]] = (chunk, eta_all[chunk.rows], mu, sigma_inv, beta)
        out = kernel(chunk, eta_all, mu, sigma_inv, beta, **kwargs)
        nu[chunk.rows] = out[1]
        return out

    with monkeypatch.context() as patch:
        patch.setattr(stm_mod, "_estep_chunk", capturing)
        model = fit(corpus, design, config, threads=threads)
    return model, nu, list(inputs.values())


class TestPosteriorCovariances:
    """``posterior_covariances`` gives the covariance blocks of ``fit``'s
    last E-step, bit for bit, from the saved model, its corpus and its
    design."""

    @staticmethod
    def last_estep_events(model, fit_nu, inputs, **tols):
        """Branches taken by the fit's last E-step, replayed from its
        captured inputs by the reference kernel, which must reach the fit's
        modes and blocks."""
        events = collections.Counter()
        eta, nu = np.zeros_like(model.eta), np.zeros_like(fit_nu)
        for chunk, eta_rows, mu, sigma_inv, beta in inputs:
            eta[chunk.rows] = eta_rows
            estep_chunk_reference(chunk, eta, nu, mu, sigma_inv, beta, events, **tols)
        assert np.array_equal(eta, model.eta)
        assert np.array_equal(nu, fit_nu)
        return events

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("k", [2, 5, 30])
    def test_equals_fit_nu(self, tmp_path, monkeypatch, k, threads):
        corpus, design, _, _ = model_draw(3, n_docs=150, n_terms=300, doc_len=80)
        model, fit_nu, _ = fit_with_last_blocks(
            monkeypatch, corpus, design, FitConfig(k=k, seed=1, max_em_iters=6), threads)
        loaded = FittedModel.load(model.save(tmp_path / "model.json"))
        for recompute_threads in (1, 2):
            nu = posterior_covariances(corpus, design, loaded, threads=recompute_threads)
            assert np.array_equal(nu, fit_nu)
        assert np.array_equal(loaded.eta, model.eta)  # the recompute writes no mode

    @pytest.mark.parametrize("threads", [1, 2])
    def test_equals_blocks_kept_on_the_decrement(self, monkeypatch, threads):
        """A document that stopped on its Newton decrement in the fit's last
        E-step kept the block of that step; the recompute forms it again
        from the saved mode, bit for bit."""
        corpus, design, _, _ = model_draw(3, n_docs=150, n_terms=300, doc_len=80)
        model, fit_nu, inputs = fit_with_last_blocks(
            monkeypatch, corpus, design, FitConfig(k=5, seed=1, max_em_iters=6), threads)
        events = self.last_estep_events(model, fit_nu, inputs)
        assert events["decrement"] > corpus.n_docs // 2
        for recompute_threads in (1, 2):
            assert np.array_equal(
                posterior_covariances(corpus, design, model, recompute_threads), fit_nu)

    def test_documents_dropped_for_missing_covariates(self, monkeypatch):
        corpus, _, _, _ = model_draw(4, n_docs=150, n_terms=300, doc_len=80)
        corpus.covariates = [replace(rec, conflict=None) if d % 9 == 4 else rec
                             for d, rec in enumerate(corpus.covariates)]
        built = build_design("conflict", corpus.covariate_table())
        sub = corpus.subset(built.kept_rows)
        assert built.kept_rows.size == sub.n_docs == corpus.n_docs - 17
        for threads in (1, 2):
            model, fit_nu, _ = fit_with_last_blocks(
                monkeypatch, sub, built, FitConfig(k=4, seed=2, max_em_iters=5), threads)
            assert np.array_equal(posterior_covariances(sub, built, model, threads),
                                  fit_nu)
        with pytest.raises(DimensionMismatch, match="does not fit"):
            posterior_covariances(corpus, PrevalenceDesign.intercept_only(corpus.n_docs),
                                  model)

    def test_design_width_differs_from_gamma(self):
        corpus, design, _, _ = model_draw(4, n_docs=60, n_terms=120, doc_len=40)
        model = fit(corpus, design, FitConfig(k=3, seed=2, max_em_iters=2))
        with pytest.raises(DimensionMismatch, match=f"design has 1 columns for the "
                           f"model's {design.x.shape[1]} rows of gamma"):
            posterior_covariances(corpus, PrevalenceDesign.intercept_only(corpus.n_docs),
                                  model)

    def test_last_estep_damped(self, monkeypatch):
        corpus = two_block_corpus(seed=3, n_docs=40)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        for threads in (1, 2):
            model, fit_nu, inputs = fit_with_last_blocks(
                monkeypatch, corpus, design, FitConfig(k=8, seed=2, max_em_iters=1),
                threads)
            assert self.last_estep_events(model, fit_nu, inputs)["damped"] > 0
            assert np.array_equal(posterior_covariances(corpus, design, model, threads),
                                  fit_nu)

    def test_last_estep_froze_documents(self, monkeypatch):
        """With the decrement test off, Newton ascent runs until a line
        search fails, which freezes its document."""
        monkeypatch.setattr(stm_mod, "_DECREMENT_TOL", 0.0)
        corpus = two_block_corpus(seed=3, n_docs=100)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        for threads in (1, 2):
            model, fit_nu, inputs = fit_with_last_blocks(
                monkeypatch, corpus, design, FitConfig(k=3, seed=2, max_em_iters=1),
                threads)
            events = self.last_estep_events(model, fit_nu, inputs, grad_tol=0.0,
                                            decrement_tol=0.0)
            assert events["frozen"] > 0
            assert np.array_equal(posterior_covariances(corpus, design, model, threads),
                                  fit_nu)


class TestRecovery:
    def test_small_scale_recovery(self):
        corpus, design, beta_true, _ = model_draw(
            22, n_docs=250, n_terms=300, k=3, doc_len=250, topic_conc=0.015)
        model = fit(corpus, design, FitConfig(k=3, seed=10, max_em_iters=200,
                                              rel_tol=1e-7))
        mapping = greedy_align(beta_true, model.beta)
        assert min(ov for _, ov in mapping.values()) >= 7
