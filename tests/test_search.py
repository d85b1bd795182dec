"""Model search: OLS line, residual selection, full grid runs."""

import types
from dataclasses import replace

import numpy as np
import pytest

import agendascope.search as search_mod
from agendascope.errors import CandidateFailed, DegenerateX, NonFiniteObjective
from agendascope.search import (CandidatePoint, ModelSearchResult, ols_line,
                                rank_candidates, search)
from agendascope.stm import FitConfig, PrevalenceDesign, fit
from oracles import ols_closed_form
from synth import two_block_corpus


def test_import_binds_the_module():
    # the package re-exports no name that shadows its submodule
    assert isinstance(search_mod, types.ModuleType)


class TestOlsLine:
    def test_exact_line(self):
        points = [(x, 2.0 * x - 1.0) for x in (0.0, 1.0, 2.0, 5.0)]
        slope, intercept, residuals = ols_line(points)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert intercept == pytest.approx(-1.0, abs=1e-12)
        assert np.abs(residuals).max() < 1e-12

    def test_two_points_interpolate(self):
        _, _, residuals = ols_line([(0.0, 3.0), (1.0, 7.0)])
        assert np.abs(residuals).max() < 1e-12

    def test_hand_computed_case(self):
        slope, intercept, residuals = ols_line([(0, 0), (1, 1), (2, 0)])
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert intercept == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert residuals == pytest.approx([-1 / 3, 2 / 3, -1 / 3], abs=1e-12)

    def test_degenerate_x(self):
        with pytest.raises(DegenerateX):
            ols_line([(1.0, 0.0), (1.0, 2.0), (1.0, 5.0)])

    def test_residual_properties(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        _, _, residuals = ols_line(list(zip(x, y)))
        assert abs(residuals.sum()) < 1e-9
        assert abs((residuals * x).sum()) < 1e-9


def hand_candidates():
    # five hand-placed (coherence, exclusivity) points
    coords = [(-80.0, 9.1), (-70.0, 9.8), (-60.0, 9.3), (-50.0, 9.9),
              (-40.0, 9.5)]
    return [CandidatePoint(k=k, mean_coherence=c, mean_exclusivity=e,
                           fit_ref=f"seed:{k}")
            for k, (c, e) in zip((3, 5, 8, 13, 21), coords)]


class TestRankCandidates:
    def test_matches_closed_form_ols(self):
        candidates = hand_candidates()
        result = rank_candidates(candidates)
        x = np.array([c.mean_coherence for c in candidates])
        y = np.array([c.mean_exclusivity for c in candidates])
        slope, intercept, residuals = ols_closed_form(x, y)
        assert result.slope == pytest.approx(slope, abs=1e-10)
        assert result.intercept == pytest.approx(intercept, abs=1e-10)
        assert result.residuals == pytest.approx(residuals, abs=1e-10)
        assert result.selected_k == candidates[int(np.argmax(residuals))].k

    def test_point_above_line_selected(self):
        candidates = [
            CandidatePoint(k=3, mean_coherence=-10.0, mean_exclusivity=1.0,
                           fit_ref="seed:3"),
            CandidatePoint(k=4, mean_coherence=-5.0, mean_exclusivity=4.0,
                           fit_ref="seed:4"),
            CandidatePoint(k=5, mean_coherence=0.0, mean_exclusivity=2.0,
                           fit_ref="seed:5"),
        ]
        # middle point sits far above the line through the outer two
        assert rank_candidates(candidates).selected_k == 4

    def test_selection_invariant_to_exclusivity_shift(self):
        candidates = hand_candidates()
        base = rank_candidates(candidates).selected_k
        shifted = [CandidatePoint(k=c.k, mean_coherence=c.mean_coherence,
                                  mean_exclusivity=c.mean_exclusivity + 123.456,
                                  fit_ref=c.fit_ref)
                   for c in candidates]
        assert rank_candidates(shifted).selected_k == base

    def test_residual_tie_prefers_smaller_k(self):
        # symmetric V shape: equal residuals at the two ends
        candidates = [
            CandidatePoint(k=4, mean_coherence=-2.0, mean_exclusivity=2.0,
                           fit_ref="a"),
            CandidatePoint(k=6, mean_coherence=-1.0, mean_exclusivity=0.0,
                           fit_ref="b"),
            CandidatePoint(k=8, mean_coherence=0.0, mean_exclusivity=2.0,
                           fit_ref="c"),
        ]
        result = rank_candidates(candidates)
        assert result.residuals[0] == pytest.approx(result.residuals[2])
        assert result.selected_k == 4

    def test_round_trip(self, tmp_path):
        result = rank_candidates(hand_candidates())
        path = result.save(tmp_path / "search.json")
        back = ModelSearchResult.load(path)
        assert back.selected_k == result.selected_k
        assert back.residuals == pytest.approx(result.residuals)
        assert back.plot_rows() == result.plot_rows()


class TestSearch:
    def test_grid_run_and_refit(self):
        corpus = two_block_corpus(seed=12, n_docs=40, n_terms=30)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        config = FitConfig(k=2, seed=17, max_em_iters=15)
        result = search(corpus, design, [2, 3, 4], config, coherence_m=5)
        assert [c.k for c in result.candidates] == [2, 3, 4]
        assert result.selected_k in (2, 3, 4)
        assert abs(result.residuals.sum()) < 1e-9
        # per-candidate seeds derive from the master seed
        assert result.candidates[0].fit_ref == f"seed:{17 ^ 2}"
        model = fit(corpus, design, replace(config, k=result.selected_k))
        assert model.k == result.selected_k
        assert model.config.seed == 17

    def test_deterministic_selection(self):
        corpus = two_block_corpus(seed=13, n_docs=30, n_terms=24)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        config = FitConfig(k=2, seed=3, max_em_iters=10)
        r1 = search(corpus, design, [2, 3, 4], config, coherence_m=4)
        r2 = search(corpus, design, [2, 3, 4], config, coherence_m=4)
        assert r1.selected_k == r2.selected_k
        assert r1.residuals == pytest.approx(r2.residuals, abs=0)

    def test_small_grid_rejected(self):
        corpus = two_block_corpus(seed=14, n_docs=10)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        with pytest.raises(ValueError):
            search(corpus, design, [2, 3], FitConfig(k=2, seed=0))

    @pytest.mark.parametrize("tol", [0.0, -1e-4, float("nan"), float("inf")])
    def test_bad_candidate_rel_tol_rejected(self, tol):
        corpus = two_block_corpus(seed=14, n_docs=10)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        with pytest.raises(ValueError, match="candidate_rel_tol"):
            search(corpus, design, [2, 3, 4], FitConfig(k=2, seed=0),
                   candidate_rel_tol=tol)

    def test_candidate_failure_names_k(self):
        corpus = two_block_corpus(seed=15, n_docs=10, n_terms=12)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        with pytest.raises(Exception, match="k=99"):
            search(corpus, design, [2, 3, 99], FitConfig(k=2, seed=0))

    def test_candidate_failure_keeps_cause(self, monkeypatch):
        corpus = two_block_corpus(seed=16, n_docs=10, n_terms=12)
        design = PrevalenceDesign.intercept_only(corpus.n_docs)
        real_fit = search_mod.fit

        def fit_failing_at_k3(corpus, design, config, threads=1):
            if config.k == 3:
                raise NonFiniteObjective(3)
            return real_fit(corpus, design, config, threads=threads)

        monkeypatch.setattr(search_mod, "fit", fit_failing_at_k3)
        with pytest.raises(CandidateFailed) as err:
            search(corpus, design, [2, 3, 4], FitConfig(k=2, seed=0))
        assert err.value.k == 3
        assert err.value.__cause__.iteration == 3
        assert "NonFiniteObjective" in str(err.value)
