"""Method-of-composition effects: collapse, antisymmetry, detection."""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import agendascope
import agendascope.effects as effects_mod
from agendascope.cli import _design_and_subset, main
from agendascope.config import load_config
from agendascope.corpus import (Corpus, PreprocessConfig, build_corpus,
                                load_ungdc_layout)
from agendascope.design import build_design
from agendascope.effects import (EffectDraws, _factor_stack, estimate_contrast,
                                 estimate_effect, quantile_pair)
from agendascope.errors import DimensionMismatch, HessianNotPD
from agendascope.jsonio import dumps_canonical
from agendascope.stm import FitConfig, FittedModel, posterior_covariances
from oracles import coefficient_draws_reference

SAMPLE = Path(agendascope.__file__).parent / "data" / "sample"


def fake_model(eta: np.ndarray) -> FittedModel:
    n_docs, k_free = eta.shape
    k = k_free + 1
    beta = np.full((k, 6), 1.0 / 6.0)
    return FittedModel(beta=beta, gamma=np.zeros((1, k_free)),
                       sigma=np.eye(k_free), eta=eta,
                       bound_trace=[0.0], config=FitConfig(k=k, seed=0),
                       vocabulary=[f"v{i}" for i in range(6)],
                       design_column_names=["(intercept)"],
                       doc_ids=[f"D{i:04d}" for i in range(n_docs)])


def planted_binary_model(seed: int, n_docs: int = 160, shift: float = 0.8,
                         noise: float = 0.15, nu_scale: float = 1e-3):
    """(model, nu, covariates): topic-0 prevalence rises with a binary
    covariate."""
    rng = np.random.default_rng(seed)
    x = (np.arange(n_docs) % 2).astype(float)
    eta = (-0.2 + shift * x + rng.normal(0.0, noise, n_docs))[:, None]
    return fake_model(eta), np.full((n_docs, 1, 1), nu_scale), {"x": list(x)}


def random_model(seed: int, n_docs: int = 400, k: int = 6):
    """(model, nu, covariates): random modes, positive definite covariance
    blocks and a numeric and a categorical covariate."""
    rng = np.random.default_rng(seed)
    eta = rng.normal(0.0, 0.5, (n_docs, k - 1))
    a = rng.normal(0.0, 0.2, (n_docs, k - 1, k - 1))
    nu = a @ np.swapaxes(a, 1, 2) + 1e-3 * np.eye(k - 1)
    covs = {"x": list(rng.normal(size=n_docs)),
            "g": [("a", "b", "c")[i % 3] for i in range(n_docs)]}
    return fake_model(eta), nu, covs


class TestBlockedDraws:
    """The draw loop runs blocks of draws, each draw from its own
    generator, and matches the one-draw-at-a-time loop in ``oracles``."""

    def test_matches_per_draw_loop(self):
        model, nu, covs = random_model(0)
        n_draws = 150
        block = effects_mod.draws_per_block(*model.eta.shape)
        assert 1 < block < n_draws and n_draws % block
        draws = EffectDraws(model, build_design("x + g", covs), nu,
                            n_draws=n_draws, seed=4)
        ref = coefficient_draws_reference(draws, model.eta, _factor_stack(nu), 4)
        np.testing.assert_allclose(draws.coef, ref, rtol=1e-12, atol=0)

    def test_prefix_of_more_draws(self, monkeypatch):
        """Draw i does not depend on how many draws follow it or on the
        block it falls in, one draw per block included."""
        model, nu, covs = random_model(1)
        built = build_design("x + g", covs)
        many = EffectDraws(model, built, nu, n_draws=250, seed=8)
        few = EffectDraws(model, built, nu, n_draws=100, seed=8)
        np.testing.assert_allclose(many.coef[:100], few.coef, rtol=1e-12, atol=0)
        monkeypatch.setattr(effects_mod, "DRAW_BLOCK_BYTES", 1)
        single = EffectDraws(model, built, nu, n_draws=100, seed=8)
        np.testing.assert_allclose(single.coef, few.coef, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("block_bytes", [effects_mod.DRAW_BLOCK_BYTES, 1])
    def test_same_bits_at_any_thread_count(self, monkeypatch, block_bytes):
        """The blocks on a pool of threads give the serial loop's draws,
        bit for bit, with several draws a block and with one; 3 threads
        and a short switch interval interleave the blocks' writes."""
        monkeypatch.setattr(effects_mod, "DRAW_BLOCK_BYTES", block_bytes)
        model, nu, covs = random_model(0)
        built = build_design("x + g", covs)
        assert effects_mod.draws_per_block(*model.eta.shape) < 150
        serial = EffectDraws(model, built, nu, n_draws=150, seed=4, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (2, 3):
                pooled = EffectDraws(model, built, nu, n_draws=150, seed=4, threads=threads)
                assert np.array_equal(pooled.coef, serial.coef), threads
        finally:
            sys.setswitchinterval(interval)


class TestDegenerateCollapse:
    def test_zero_posterior_and_zero_residual_gives_zero_width(self):
        # eta = 0 puts every document exactly at theta = 0.5, so the
        # regression residual is exactly zero and, with nu = 0, every draw
        # is bit-identical: the interval collapses to the mean exactly.
        x = np.array([0.0, 1.0] * 32)
        eta = np.zeros((len(x), 1))
        nu = np.zeros((len(x), 1, 1))
        model = fake_model(eta)
        draws = EffectDraws(model, build_design("x", {"x": list(x)}), nu, n_draws=120, seed=5)
        est = estimate_effect(draws, topic=0, target="x")
        assert est.grid == [0.0, 1.0]
        assert np.array_equal(est.ci_lower, est.mean)
        assert np.array_equal(est.ci_upper, est.mean)
        assert est.mean == pytest.approx([0.5, 0.5], abs=0)

    def test_sloped_degenerate_case_collapses_numerically(self):
        x = np.array([0.0, 0.0, 1.0, 1.0] * 10)
        p = 0.3 + 0.2 * x  # linear in x up to float rounding
        eta = np.log(p / (1.0 - p))[:, None]
        nu = np.zeros((len(x), 1, 1))
        model = fake_model(eta)
        draws = EffectDraws(model, build_design("x", {"x": list(x)}), nu, n_draws=120, seed=5)
        est = estimate_effect(draws, topic=0, target="x")
        width = est.ci_upper - est.ci_lower
        assert np.abs(width).max() < 1e-12
        assert est.mean == pytest.approx([0.3, 0.5], abs=1e-12)


class TestContrast:
    def test_identical_levels_give_exact_zero(self):
        model, nu, covs = planted_binary_model(0)
        draws = EffectDraws(model, build_design("x", covs), nu, n_draws=120, seed=3)
        est = estimate_contrast(draws, 0, "x", 1.0, 1.0)
        assert est.point == 0.0
        assert est.ci == (0.0, 0.0)

    def test_level_swap_negates_exactly(self):
        model, nu, covs = planted_binary_model(1)
        draws = EffectDraws(model, build_design("x", covs), nu, n_draws=150, seed=9)
        fwd = estimate_contrast(draws, 0, "x", 1.0, 0.0)
        rev = estimate_contrast(draws, 0, "x", 0.0, 1.0)
        assert rev.point == -fwd.point
        assert rev.ci == (-fwd.ci[1], -fwd.ci[0])

    def test_planted_effect_detected(self):
        detected = 0
        for rep in range(20):
            model, nu, covs = planted_binary_model(100 + rep)
            draws = EffectDraws(model, build_design("x", covs), nu, n_draws=150, seed=500 + rep)
            est = estimate_contrast(draws, 0, "x", 1.0, 0.0)
            assert est.ci[0] <= est.point <= est.ci[1]
            if est.ci[0] > 0.0:
                detected += 1
        assert detected >= 18

    def test_planted_region_ordering(self):
        rng = np.random.default_rng(7)
        regions = ["EAS", "ECS", "LCN", "MEA", "NAC", "SAS", "SSA"]
        offsets = {r: -0.9 + 0.3 * i for i, r in enumerate(regions)}
        labels = [regions[i % 7] for i in range(210)]
        eta = np.array([offsets[r] for r in labels])[:, None]
        eta += rng.normal(0, 0.05, eta.shape)
        model, nu = fake_model(eta), np.full((210, 1, 1), 1e-4)
        draws = EffectDraws(model, build_design("region", {"region": labels}), nu,
                            n_draws=150, seed=11)
        est = estimate_effect(draws, 0, "region")
        assert est.grid == regions  # alphabetical levels
        assert np.all(np.diff(est.mean) > 0)  # planted increasing ordering


class TestEffectEstimate:
    def test_ci_brackets_mean_and_values_in_unit_interval(self):
        model, nu, covs = planted_binary_model(2, noise=0.4, nu_scale=0.05)
        est = estimate_effect(EffectDraws(model, build_design("x", covs), nu, n_draws=200, seed=1),
                              0, "x")
        assert np.all(est.ci_lower <= est.mean + 1e-15)
        assert np.all(est.mean <= est.ci_upper + 1e-15)
        assert np.all((est.mean >= 0.0) & (est.mean <= 1.0))
        assert np.all((est.ci_lower >= 0.0) & (est.ci_upper <= 1.0))

    def test_bit_reproducible_given_seed(self):
        model, nu, covs = planted_binary_model(3)
        a = estimate_effect(EffectDraws(model, build_design("x", covs), nu, n_draws=130, seed=21),
                            0, "x")
        b = estimate_effect(EffectDraws(model, build_design("x", covs), nu, n_draws=130, seed=21),
                            0, "x")
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.ci_lower, b.ci_lower)
        c = estimate_effect(EffectDraws(model, build_design("x", covs), nu, n_draws=130, seed=22),
                            0, "x")
        assert not np.array_equal(a.mean, c.mean)

    def test_continuous_grid_strictly_increasing(self):
        rng = np.random.default_rng(4)
        n = 150
        z = rng.uniform(-2, 2, n)
        eta = (0.3 * z + rng.normal(0, 0.1, n))[:, None]
        model, nu = fake_model(eta), np.full((n, 1, 1), 1e-3)
        draws = EffectDraws(model, build_design("z", {"z": list(z)}), nu, n_draws=120, seed=2)
        est = estimate_effect(draws, 0, "z", grid_points=25)
        grid = np.array(est.grid)
        assert grid.size == 25
        assert np.all(np.diff(grid) > 0)

    def test_gdp_grid_is_log_spaced(self):
        rng = np.random.default_rng(5)
        n = 150
        gdp = rng.uniform(100.0, 80000.0, n)
        eta = rng.normal(0, 0.2, (n, 1))
        model, nu = fake_model(eta), np.full((n, 1, 1), 1e-3)
        draws = EffectDraws(model, build_design("s(gdp_pc,df=4)", {"gdp_pc": list(gdp)}), nu,
                            n_draws=120, seed=2)
        est = estimate_effect(draws, 0, "gdp_pc", grid_points=20)
        ratios = np.diff(np.log(np.array(est.grid)))
        assert np.allclose(ratios, ratios[0], rtol=1e-9)

    def test_monte_carlo_error_shrinks_with_more_draws(self):
        model, nu, covs = planted_binary_model(6, noise=0.3, nu_scale=0.05)

        def grid_point_means(n_draws):
            built = build_design("x", covs)
            return [estimate_effect(EffectDraws(model, built, nu, n_draws=n_draws,
                                                seed=3000 + r), 0, "x").mean[1]
                    for r in range(20)]

        spread_small = np.std(grid_point_means(100))
        spread_large = np.std(grid_point_means(200))
        assert spread_large < spread_small

    def test_observed_hold_averages_over_rows(self):
        # with a single-term formula the two hold strategies coincide on a
        # binary covariate; both must produce ordered, bounded intervals
        model, nu, covs = planted_binary_model(12, noise=0.3, nu_scale=0.02)
        draws = EffectDraws(model, build_design("x", covs), nu, n_draws=150, seed=31)
        typical = estimate_effect(draws, 0, "x", hold="typical")
        observed = estimate_effect(draws, 0, "x", hold="observed")
        assert np.allclose(typical.mean, observed.mean, atol=1e-12)
        rng = np.random.default_rng(13)
        n = 160
        z = rng.uniform(-1, 1, n)
        x = (np.arange(n) % 2).astype(float)
        eta = (0.5 * x + 0.4 * z + rng.normal(0, 0.1, n))[:, None]
        model2, nu2 = fake_model(eta), np.full((n, 1, 1), 1e-3)
        covs2 = {"x": list(x), "z": list(z)}
        draws2 = EffectDraws(model2, build_design("x + z", covs2), nu2, n_draws=150, seed=32)
        obs = estimate_effect(draws2, 0, "x", hold="observed")
        typ = estimate_effect(draws2, 0, "x", hold="typical")
        for est in (obs, typ):
            assert np.all(est.ci_lower <= est.mean)
            assert np.all(est.mean <= est.ci_upper)
        # z is symmetric around its mean here, so the two strategies agree
        # closely but need not match exactly
        assert np.allclose(obs.mean, typ.mean, atol=5e-3)

    def test_table_rows_match_arrays(self):
        model, nu, covs = planted_binary_model(8)
        est = estimate_effect(EffectDraws(model, build_design("x", covs), nu, n_draws=110, seed=4),
                              0, "x")
        rows = est.table_rows()
        assert rows[0][0] == est.grid[0]
        assert rows[0][1] == pytest.approx(float(est.mean[0]))

    def test_row_count_mismatch_rejected(self):
        model, nu, covs = planted_binary_model(9)  # 160 documents
        with pytest.raises(DimensionMismatch, match="100 rows for 160 documents"):
            EffectDraws(model, build_design("x", {"x": covs["x"][:100]}), nu,
                        n_draws=120, seed=0)

    @pytest.mark.parametrize("block", [-1e-3, np.nan], ids=["indefinite", "nan"])
    def test_bad_nu_block_names_its_document(self, block):
        model, nu, covs = planted_binary_model(9)
        nu[3] = block
        with pytest.raises(HessianNotPD, match="nu of document 'D0003'"):
            EffectDraws(model, build_design("x", covs), nu, n_draws=120, seed=0)

    def test_draw_floor_enforced(self):
        model, nu, covs = planted_binary_model(10)
        with pytest.raises(ValueError):
            EffectDraws(model, build_design("x", covs), nu, n_draws=50, seed=0)

    def test_topic_out_of_range_rejected(self):
        model, nu, covs = planted_binary_model(11)
        with pytest.raises(ValueError, match="out of range"):
            estimate_effect(EffectDraws(model, build_design("x", covs), nu, n_draws=120, seed=0),
                            2, "x")

    def test_unknown_target_rejected(self):
        model, nu, covs = planted_binary_model(11)
        with pytest.raises(ValueError):
            estimate_effect(EffectDraws(model, build_design("x", covs), nu, n_draws=120, seed=0),
                            0, "zzz")

    def test_unknown_hold_rejected(self):
        model, nu, covs = planted_binary_model(11)
        draws = EffectDraws(model, build_design("x", covs), nu, n_draws=120, seed=0)
        with pytest.raises(ValueError, match="hold must be 'typical' or 'observed', "
                                             "not 'observd'"):
            estimate_effect(draws, 0, "x", hold="observd")

    @pytest.mark.parametrize("grid_points", [1, 0, -3])
    def test_grid_points_below_two_rejected(self, grid_points):
        rng = np.random.default_rng(4)
        z = rng.uniform(-2, 2, 150)
        model, nu = fake_model(rng.normal(0, 0.2, (150, 1))), np.full((150, 1, 1), 1e-3)
        draws = EffectDraws(model, build_design("z", {"z": list(z)}), nu, n_draws=120, seed=2)
        with pytest.raises(ValueError, match=f"grid_points must be at least 2, "
                                             f"not {grid_points}"):
            estimate_effect(draws, 0, "z", grid_points=grid_points)


class TestQuantilePair:
    def test_mirror_symmetry_exact(self):
        rng = np.random.default_rng(0)
        draws = rng.normal(size=501)
        lo, hi = quantile_pair(draws)
        nlo, nhi = quantile_pair(-draws)
        assert nlo == -hi and nhi == -lo

    def test_brackets_bulk_of_draws(self):
        rng = np.random.default_rng(1)
        draws = rng.normal(size=4000)
        lo, hi = quantile_pair(draws)
        inside = np.mean((draws >= lo) & (draws <= hi))
        assert 0.94 <= inside <= 0.96


class TestSharedDraws:
    """The effects stage serves every estimate from one draw loop seeded
    with ``seed + 7919``; a topic's draws do not depend on which other
    topics the stage estimates."""

    TOPIC1_FILES = ("effect_year_topic1.json", "effect_year_topic1.csv",
                    "contrast_conflict_topic1.json")

    @pytest.fixture(scope="class")
    def stage_runs(self, tmp_path_factory):
        """The sample fitted at k=4, then its effects stage run once with
        topics [0, 1] (the shipped config) and once with topics [1]."""
        work = tmp_path_factory.mktemp("shared_draws")
        shutil.copytree(SAMPLE, work / "sample")
        both = work / "sample" / "config.json"
        cfg = json.loads(both.read_text())
        cfg["paths"]["out_dir"] = str(work / "both")
        del cfg["fit"]["k_grid"]
        cfg["fit"]["k"] = 4
        both.write_text(json.dumps(cfg))
        for target in cfg["effects"]["targets"]:
            target["topics"] = [1]
        cfg["paths"]["out_dir"] = str(work / "one")
        one = work / "sample" / "topic1.json"
        one.write_text(json.dumps(cfg))
        for stage in ("ingest", "fit"):
            assert main([stage, "--config", str(both)]) == 0
        shutil.copytree(work / "both", work / "one")
        for config in (both, one):
            assert main(["effects", "--config", str(config)]) == 0
        return load_config(both), work / "both", work / "one"

    def test_topic_draws_independent_of_requested_topics(self, stage_runs):
        _, both, one = stage_runs
        assert sorted(p.name for p in (one / "effects").iterdir()) == sorted(
            self.TOPIC1_FILES)
        for name in self.TOPIC1_FILES:
            assert (both / "effects" / name).read_bytes() == \
                (one / "effects" / name).read_bytes(), name

    def test_stage_equals_direct_calls(self, stage_runs):
        cfg, both, _ = stage_runs
        model = FittedModel.load(both / "model.json")
        built, sub = _design_and_subset(cfg, Corpus.load(both / "corpus.json"))
        nu = posterior_covariances(sub, model)
        year, conflict = cfg.targets
        seed = cfg.seed + 7919
        draws = EffectDraws(model, built, nu, n_draws=cfg.n_draws, seed=seed)
        effect = estimate_effect(draws, 1, "year",
                                 grid_points=year.grid_points, hold=year.hold)
        contrast = estimate_contrast(draws, 1, "conflict", *conflict.contrast)
        effects = both / "effects"
        assert dumps_canonical(effect) == \
            (effects / "effect_year_topic1.json").read_text(encoding="utf-8")
        assert dumps_canonical(contrast) == \
            (effects / "contrast_conflict_topic1.json").read_text(encoding="utf-8")

    def test_nu_one_row_short_rejected(self, stage_runs, monkeypatch):
        """A ``nu`` that is not one (K-1) x (K-1) block per document is a
        DimensionMismatch, raised before any block is factored."""
        cfg, both, _ = stage_runs
        model = FittedModel.load(both / "model.json")
        built, sub = _design_and_subset(cfg, Corpus.load(both / "corpus.json"))
        nu = posterior_covariances(sub, model)
        factored = []
        monkeypatch.setattr(effects_mod, "_factor_stack",
                            lambda mats: factored.append(1) or _factor_stack(mats))
        with pytest.raises(DimensionMismatch, match=r"nu has shape \(49, 3, 3\); "
                           r"expected \(50, 3, 3\)"):
            EffectDraws(model, built, nu[1:], n_draws=cfg.n_draws, seed=0)
        assert not factored
        EffectDraws(model, built, nu, n_draws=cfg.n_draws, seed=0)
        assert factored


class TestRegressionSolve:
    def test_spline_overlap_dropped_even_when_cholesky_succeeds(self):
        # The sample's spline block sums to the intercept column, so X'X has
        # rank p - 1, yet rounding lets np.linalg.cholesky factor it. The
        # solve must still see the overlap: residual dof n - rank and a
        # coefficient factor that does not blow up along the null direction.
        docs, covs, _ = load_ungdc_layout(SAMPLE / "speeches", SAMPLE / "metadata.csv")
        corpus, _ = build_corpus(docs, covs, PreprocessConfig(min_doc_freq=5))
        n = corpus.n_docs
        model, nu = fake_model(np.zeros((n, 2))), np.tile(np.eye(2) * 1e-3, (n, 1, 1))
        built = build_design("s(year,df=4) + region + conflict", corpus.covariate_table())
        draws = EffectDraws(model, built, nu, n_draws=100, seed=0)
        assert draws.dof == draws.n - (draws.p - 1)
        assert np.abs(draws.coef_factor).max() < 1e3


class TestFactorStack:
    def test_positive_definite_stack_matches_per_block_cholesky(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(40, 5, 5))
        mats = a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(5)
        expected = np.stack([np.linalg.cholesky(m) for m in mats])
        assert np.array_equal(_factor_stack(mats), expected)

    def test_zero_stack_gives_zero_factors(self):
        factors = _factor_stack(np.zeros((6, 3, 3)))
        assert factors.shape == (6, 3, 3)
        assert np.array_equal(factors, np.zeros((6, 3, 3)))

    def test_singular_block_factor_reproduces_it(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=(4, 3, 1))
        mats = v @ np.swapaxes(v, 1, 2)  # rank one: Cholesky fails
        factors = _factor_stack(mats)
        assert np.allclose(factors @ np.swapaxes(factors, 1, 2), mats, atol=1e-12)

    def test_indefinite_block_raises_with_its_row(self):
        mats = np.stack([np.eye(3)] * 4)
        mats[2, 1, 1] = -1e-6  # one negative variance: not clamped to 0
        with pytest.raises(HessianNotPD) as info:
            _factor_stack(mats)
        assert info.value.row == 2
