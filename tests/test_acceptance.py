"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line. Criterion 8 (full UNGDC run) needs a
local download and is skipped unless AGENDASCOPE_UNGDC_DIR and
AGENDASCOPE_UNGDC_META point at it; it is explicitly non-gating on the
paper's K=16.
"""

import json
import os
import shutil
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from agendascope.cli import main as cli_main
from agendascope.design import build_design
from agendascope.effects import EffectDraws, estimate_contrast, estimate_effect
from agendascope.manifest import file_sha256
from agendascope.metrics import exclusivity_frex, rank_terms, score, semantic_coherence
from agendascope.search import CandidatePoint, rank_candidates
from agendascope.stm import (FitConfig, FittedModel, PrevalenceDesign,
                             e_step_doc, fit, softmax_with_zero)
from oracles import coherence_brute_force, ols_closed_form
from synth import (counts_dense, greedy_align, model_draw, tiny_corpus,
                   two_block_corpus)


def _report(name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_coherence_oracle():
    """semantic_coherence equals the brute-force oracle exactly on 10
    randomized toy corpora (D <= 10, V <= 20); runtime < 1 s."""
    rng = np.random.default_rng(20240201)
    start = time.perf_counter()
    exact = True
    for _ in range(10):
        n_docs = int(rng.integers(2, 11))
        n_terms = int(rng.integers(5, 21))
        doc_terms = []
        for _ in range(n_docs):
            size = int(rng.integers(1, n_terms + 1))
            picks = sorted(rng.choice(n_terms, size=size, replace=False))
            doc_terms.append([f"w{t:02d}" for t in picks])
        corpus = tiny_corpus(doc_terms)
        beta = rng.random((3, corpus.n_terms)) + 1e-3
        beta /= beta.sum(axis=1, keepdims=True)
        m = int(rng.integers(2, min(6, corpus.n_terms) + 1))
        ours = semantic_coherence(beta, corpus, m=m)
        doc_sets = [set(idx.tolist())
                    for idx in np.split(corpus.indices, corpus.indptr[1:-1])]
        for k in range(3):
            oracle = coherence_brute_force(beta[k], doc_sets, m)
            exact = exact and (ours[k] == oracle)
    elapsed = time.perf_counter() - start
    _report(f"criterion 1: coherence oracle exact on 10 corpora "
            f"({elapsed:.2f}s < 1s)", exact and elapsed < 1.0)


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_metric_limits():
    """FREX limit rankings on 100 random betas; exclusivity column sums
    within 1e-9 of 1; score rows vanish within 1e-12 for identical rows."""
    rng = np.random.default_rng(20240202)
    ok = True
    for _ in range(100):
        k = int(rng.integers(2, 7))
        v = int(rng.integers(8, 40))
        beta = rng.random((k, v)) + 1e-4
        beta /= beta.sum(axis=1, keepdims=True)
        at_zero = exclusivity_frex(beta, w=0.0)
        at_one = exclusivity_frex(beta, w=1.0)
        for t in range(k):
            ok = ok and np.array_equal(rank_terms(at_zero.frex[t]),
                                       rank_terms(beta[t]))
            ok = ok and np.array_equal(rank_terms(at_one.frex[t]),
                                       rank_terms(at_zero.exclusivity[t]))
        ok = ok and np.abs(at_zero.exclusivity.sum(axis=0) - 1.0).max() <= 1e-9
    flat = np.tile(rng.dirichlet(np.ones(25)), (6, 1))
    ok = ok and np.abs(score(flat)).max() <= 1e-12
    _report("criterion 2: FREX limits, exclusivity normalization, "
            "score degeneracy on 100 random betas", ok)


# -- criterion 3 -------------------------------------------------------------

def _check_fit_invariants(model: FittedModel) -> bool:
    ok = np.abs(model.beta.sum(axis=1) - 1.0).max() <= 1e-8
    ok = ok and np.abs(model.theta.sum(axis=1) - 1.0).max() <= 1e-8
    trace = np.array(model.bound_trace)
    steps = np.diff(trace)
    ok = ok and bool(np.all(steps >= -1e-6 * np.abs(trace[:-1])))
    for start in range(len(trace) - 10):
        ok = ok and trace[start + 10] - trace[start] >= 0.0
    return bool(ok)


def test_criterion_3_inference_invariants():
    """Simplex sums within 1e-8, bound trend with 1e-6 slack and 10-step
    net gain, phi count conservation within 1e-6, on every test fit."""
    ok = True
    fits = []
    corpus_a = two_block_corpus(seed=31, n_docs=60)
    design_a = PrevalenceDesign.intercept_only(corpus_a.n_docs)
    fits.append((corpus_a, design_a,
                 fit(corpus_a, design_a, FitConfig(k=2, seed=1, max_em_iters=80,
                                                   rel_tol=1e-7))))
    corpus_b, design_b, _, _ = model_draw(32, n_docs=120, n_terms=120, k=3,
                                          doc_len=80)
    fits.append((corpus_b, design_b,
                 fit(corpus_b, design_b, FitConfig(k=3, seed=2, max_em_iters=60,
                                                   rel_tol=1e-6))))
    for corpus, design, model in fits:
        ok = ok and _check_fit_invariants(model)
    # phi conservation re-checked through the public per-document step
    corpus, design, model = fits[1]
    sigma_inv = np.linalg.inv(model.sigma)
    mu = design.x @ model.gamma
    dense = counts_dense(corpus).astype(float)
    for d in range(0, corpus.n_docs, 7):
        post = e_step_doc(dense[d], mu[d], sigma_inv, model.beta)
        ok = ok and abs(post.phi_sums.sum() - dense[d].sum()) <= 1e-6
    _report("criterion 3: simplex/bound/count invariants on test fits", ok)


# -- criterion 4 -------------------------------------------------------------

def test_criterion_4_synthetic_recovery():
    """D=400, V=500, K=5, binary covariate with logit shift 1.0 on topic 0:
    top-10 overlap >= 7/10 per topic on the designated seeded run, and the
    covariate's prevalence effect sign on the aligned topic recovered in at
    least 19 of 20 seeded runs. Total runtime < 5 min."""
    start = time.perf_counter()

    corpus, design, beta_true, _ = model_draw(1)
    model = fit(corpus, design, FitConfig(k=5, seed=101, max_em_iters=400,
                                          rel_tol=1e-7))
    mapping = greedy_align(beta_true, model.beta, m=10)
    overlaps = [mapping[i][1] for i in range(5)]
    overlap_ok = min(overlaps) >= 7

    signs = 0
    for rep in range(20):
        corpus, design, beta_true, x_bin = model_draw(1000 + rep)
        model = fit(corpus, design, FitConfig(k=5, seed=2000 + rep,
                                              max_em_iters=300, rel_tol=1e-7))
        aligned = greedy_align(beta_true, model.beta, m=10)[0][0]
        xs = design.x[:, 1]
        mu_lo = np.array([1.0, xs.min()]) @ model.gamma
        mu_hi = np.array([1.0, xs.max()]) @ model.gamma
        contrast = (softmax_with_zero(mu_hi[None])[0, aligned]
                    - softmax_with_zero(mu_lo[None])[0, aligned])
        signs += int(contrast > 0)
    elapsed = time.perf_counter() - start
    _report(f"criterion 4: recovery overlaps={overlaps} (all >= 7), "
            f"sign {signs}/20 (>= 19), {elapsed:.0f}s < 300s",
            overlap_ok and signs >= 19 and elapsed < 300.0)


# -- criterion 5 -------------------------------------------------------------

def test_criterion_5_model_search_selection():
    """Residuals match closed-form OLS to 1e-10 on 5 hand-placed points;
    selected k is the residual argmax; selection invariant to a constant
    exclusivity shift."""
    coords = [(-88.0, 9.12), (-74.0, 9.77), (-61.0, 9.34), (-52.5, 9.91),
              (-40.0, 9.48)]
    candidates = [CandidatePoint(k=k, mean_coherence=c, mean_exclusivity=e,
                                 fit_ref=f"seed:{k}")
                  for k, (c, e) in zip((3, 7, 12, 16, 24), coords)]
    result = rank_candidates(candidates)
    x = np.array([c for c, _ in coords])
    y = np.array([e for _, e in coords])
    slope, intercept, residuals = ols_closed_form(x, y)
    ok = (abs(result.slope - slope) <= 1e-10
          and abs(result.intercept - intercept) <= 1e-10
          and np.abs(result.residuals - residuals).max() <= 1e-10)
    ok = ok and result.selected_k == candidates[int(np.argmax(residuals))].k
    shifted = [CandidatePoint(k=c.k, mean_coherence=c.mean_coherence,
                              mean_exclusivity=c.mean_exclusivity + 77.7,
                              fit_ref=c.fit_ref) for c in candidates]
    ok = ok and rank_candidates(shifted).selected_k == result.selected_k
    _report("criterion 5: search residuals vs closed-form OLS, argmax "
            "selection, shift invariance", ok)


# -- criterion 6 -------------------------------------------------------------

def _degenerate_model():
    x = np.array([0.0, 1.0] * 32)
    n = len(x)
    return (FittedModel(beta=np.full((2, 6), 1 / 6),
                        gamma=np.zeros((1, 1)), sigma=np.eye(1),
                        eta=np.zeros((n, 1)), nu=np.zeros((n, 1, 1)),
                        bound_trace=[0.0], config=FitConfig(k=2, seed=0),
                        vocabulary=[f"v{i}" for i in range(6)],
                        design_column_names=["(intercept)"],
                        doc_ids=[f"D{i}" for i in range(n)]),
            {"x": list(x)})


def _planted_model(seed: int):
    rng = np.random.default_rng(seed)
    n = 160
    x = (np.arange(n) % 2).astype(float)
    eta = (-0.2 + 0.8 * x + rng.normal(0.0, 0.15, n))[:, None]
    nu = np.full((n, 1, 1), 1e-3)
    model, _ = _degenerate_model()
    model = FittedModel(beta=model.beta, gamma=model.gamma, sigma=model.sigma,
                        eta=eta, nu=nu, bound_trace=[0.0],
                        config=model.config, vocabulary=model.vocabulary,
                        design_column_names=model.design_column_names,
                        doc_ids=[f"D{i}" for i in range(n)])
    return model, {"x": list(x)}


def test_criterion_6_effects_engine():
    """Degenerate collapse to zero width; exact contrast antisymmetry under
    level swap with a shared seed; planted binary effect detected in >= 18
    of 20 replications at n_draws=500; B-spline partition of unity within
    1e-9 on every design row."""
    model, covs = _degenerate_model()
    est = estimate_effect(EffectDraws(model, build_design("x", covs), n_draws=500, seed=7),
                          0, "x")
    collapse_ok = (np.array_equal(est.ci_lower, est.mean)
                   and np.array_equal(est.ci_upper, est.mean))

    model, covs = _planted_model(61)
    draws = EffectDraws(model, build_design("x", covs), n_draws=500, seed=17)
    fwd = estimate_contrast(draws, 0, "x", 1.0, 0.0)
    rev = estimate_contrast(draws, 0, "x", 0.0, 1.0)
    antisym_ok = (rev.point == -fwd.point
                  and rev.ci == (-fwd.ci[1], -fwd.ci[0]))

    detected = 0
    for rep in range(20):
        model, covs = _planted_model(600 + rep)
        draws = EffectDraws(model, build_design("x", covs), n_draws=500, seed=6000 + rep)
        est = estimate_contrast(draws, 0, "x", 1.0, 0.0)
        detected += int(est.ci[0] > 0.0)
    detect_ok = detected >= 18

    rng = np.random.default_rng(20240206)
    table = {"gdp_pc": list(rng.uniform(120.0, 65000.0, 80)),
             "year": list(float(y) for y in rng.integers(1970, 2017, 80))}
    built = build_design("s(gdp_pc,df=10) + s(year,df=5)", table)
    gdp_block = built.x[:, 1:11]
    year_block = built.x[:, 11:16]
    unity_ok = (np.abs(gdp_block.sum(axis=1) - 1.0).max() <= 1e-9
                and np.abs(year_block.sum(axis=1) - 1.0).max() <= 1e-9)

    _report(f"criterion 6: collapse={collapse_ok}, antisymmetry={antisym_ok}, "
            f"detection {detected}/20, spline unity={unity_ok}",
            collapse_ok and antisym_ok and detect_ok and unity_ok)


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_pipeline_determinism(tmp_path):
    """cmd_all on the bundled 50-document sample: byte-identical outputs
    across two runs in deterministic mode, each completing < 60 s."""
    sample = Path(str(resources.files("agendascope").joinpath("data/sample")))
    work = tmp_path / "sample"
    shutil.copytree(sample, work)
    cfg = json.loads((work / "config.json").read_text())
    out = tmp_path / "out"
    cfg["paths"]["out_dir"] = str(out)
    (work / "config.json").write_text(json.dumps(cfg))

    start = time.perf_counter()
    assert cli_main(["all", "--config", str(work / "config.json")]) == 0
    first_elapsed = time.perf_counter() - start
    first = {p.relative_to(out): file_sha256(p)
             for p in out.rglob("*") if p.is_file()}
    assert cli_main(["all", "--config", str(work / "config.json")]) == 0
    second = {p.relative_to(out): file_sha256(p)
              for p in out.rglob("*") if p.is_file()}
    identical = first == second
    _report(f"criterion 7: byte-identical rerun of cmd_all "
            f"({first_elapsed:.1f}s < 60s)",
            identical and first_elapsed < 60.0)


# -- criterion 8 (optional, non-gating) ---------------------------------------

@pytest.mark.skipif("AGENDASCOPE_UNGDC_DIR" not in os.environ
                    or "AGENDASCOPE_UNGDC_META" not in os.environ,
                    reason="needs a local UNGDC download "
                           "(AGENDASCOPE_UNGDC_DIR, AGENDASCOPE_UNGDC_META)")
def test_criterion_8_ungdc_end_to_end(tmp_path):
    """Full pipeline with K grid 3..50 on a local UNGDC download. Whether
    the selected K matches the paper's 16 is reported, not required."""
    out = tmp_path / "out"
    config = {
        "paths": {"corpus_dir": os.environ["AGENDASCOPE_UNGDC_DIR"],
                  "metadata": os.environ["AGENDASCOPE_UNGDC_META"],
                  "out_dir": str(out)},
        "preprocess": {"min_doc_freq": 10, "min_term_len": 3},
        "fit": {"k_grid": list(range(3, 51))},
        "formula": ("s(gdp_pc,df=10) + s(year,df=10) + region + conflict "
                    "+ polity"),
        "effects": {"n_draws": 500, "targets": []},
        "report": {"perspectives": [], "wordcloud_topics": []},
        "seed": 1,
        "deterministic": True,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["all", "--config", str(path)]) == 0
    selected = json.loads((out / "search.json").read_text())["selected_k"]
    assert (out / "search_points.csv").exists()
    _report(f"criterion 8: UNGDC run completed; selected K={selected} "
            f"(paper reports 16; match not required)", True)
