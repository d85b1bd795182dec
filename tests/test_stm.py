"""Model fitting: initialization, E-step, M-step, EM invariants."""

import numpy as np
import pytest

import agendascope.stm as stm_mod
from agendascope.errors import (DimensionMismatch, HessianNotPD,
                                KExceedsVocabulary, NonFiniteObjective,
                                SingularDesign)
from agendascope.jsonio import dumps_canonical
from agendascope.stm import (FitConfig, FittedModel, PrevalenceDesign,
                             _batch_neg_hessian, _batch_state, _batch_value,
                             _Chunk, _damped_cholesky, _scatter_counts,
                             e_step_doc, fit, init_params, m_step,
                             softmax_with_zero)
from oracles import grid_search_eta, ridge_closed_form
from synth import (counts_dense, greedy_align, model_draw, tiny_corpus,
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
        return _Chunk(range(3), docs)

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
        neg_h = _batch_neg_hessian(q, theta, w, den, b, chunk.cts, sigma_inv,
                                   chunk.totals)

        h = 1e-3
        step = h * np.eye(k - 1)
        fd = np.empty_like(neg_h)
        for i in range(k - 1):
            for j in range(i, k - 1):
                f = [_batch_value(eta + si * step[i] + sj * step[j], *args)[0]
                     for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
                fd[:, i, j] = fd[:, j, i] = -(f[0] - f[1] - f[2] + f[3]) / (4 * h * h)
        assert np.abs(neg_h - fd).max() <= 1e-5 * np.abs(fd).max()

    def test_scatter_equals_add_at(self):
        rng = np.random.default_rng(3)
        m, k, width, n_terms = 20, 4, 50, 12
        idx = rng.integers(0, n_terms, size=(m, width))
        idx[:, 40:] = 0  # padding columns, as in _Chunk
        # magnitudes over 16 decades, so another summation order would
        # round differently; padding entries are zero, as in the E-step
        phi_c = rng.random((m, k, width)) * 10.0 ** rng.integers(-8, 8, (m, k, width))
        phi_c[:, :, 40:] = 0.0
        reference = np.zeros((k, n_terms))
        np.add.at(reference, (slice(None), idx), phi_c.transpose(1, 0, 2))
        assert np.array_equal(_scatter_counts(phi_c, idx, n_terms), reference)


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
        assert dumps_canonical(m1.to_json_obj()) == dumps_canonical(m2.to_json_obj())

    def test_thread_count_does_not_change_result(self):
        corpus = two_block_corpus(seed=6, n_docs=130)  # spans 3 chunks
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        cfg = FitConfig(k=2, seed=4, max_em_iters=10)
        serial = fit(corpus, design, cfg, threads=1)
        threaded = fit(corpus, design, cfg, threads=4)
        assert dumps_canonical(serial.to_json_obj()) == \
            dumps_canonical(threaded.to_json_obj())

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

        def bad_chunk(chunk, eta, nu, mu, sigma_inv, beta, **kw):
            return np.zeros((2, corpus.n_terms)), float("nan")

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
        assert dumps_canonical(back.to_json_obj()) == \
            dumps_canonical(model.to_json_obj())


class TestRecovery:
    def test_small_scale_recovery(self):
        corpus, design, beta_true, _ = model_draw(
            22, n_docs=250, n_terms=300, k=3, doc_len=250, topic_conc=0.015)
        model = fit(corpus, design, FitConfig(k=3, seed=10, max_em_iters=200,
                                              rel_tol=1e-7))
        mapping = greedy_align(beta_true, model.beta)
        assert min(ov for _, ov in mapping.values()) >= 7
