"""The runtime needs numpy only: every stage works with scipy unimportable,
and an effect estimate does not import numpy.ma."""

import subprocess
import sys
import textwrap
from pathlib import Path

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src"

SCRIPT = textwrap.dedent("""
    import sys

    class BlockScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"scipy is blocked: {name}")
            return None

    sys.meta_path.insert(0, BlockScipy())
    sys.path[:0] = [sys.argv[1], sys.argv[2]]

    import numpy as np
    import agendascope
    import agendascope.cli
    from agendascope.design import build_design
    from agendascope.effects import EffectDraws, estimate_effect
    from agendascope.metrics import exclusivity_frex
    from agendascope.stm import FitConfig, fit, m_step, posterior_covariances
    from synth import model_draw

    n = 40
    table = {"year": [1970.0 + (7 * i) % 47 for i in range(n)],
             "region": [("EAS", "SSA", "LCN")[i % 3] for i in range(n)]}
    built = build_design("s(year,df=4) + region", table)
    assert built.x.shape == (n, 7)

    rng = np.random.default_rng(0)
    beta = rng.dirichlet(np.ones(50), size=4)
    assert np.isfinite(exclusivity_frex(beta).frex).all()

    _, gamma, _ = m_step(rng.normal(size=(n, 3)), np.zeros((3, 3)), built.x,
                         FitConfig(k=4), rng.random((4, 50)))
    assert gamma.shape == (7, 3)

    corpus, design, _, _ = model_draw(1, n_docs=60, n_terms=80, k=3)
    model = fit(corpus, design, FitConfig(k=3, max_em_iters=2, seed=1))
    assert len(model.bound_trace) == 2

    # a continuous target, as both bench workloads estimate for year
    covs = {"year": [1970.0 + (7 * i) % 47 for i in range(corpus.n_docs)]}
    nu = posterior_covariances(corpus, model)
    draws = EffectDraws(model, build_design("s(year,df=4)", covs), nu, n_draws=100, seed=0)
    assert len(estimate_effect(draws, 0, "year", grid_points=10).grid) == 10
    assert "numpy.ma" not in sys.modules

    loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
    assert not loaded, loaded
    print("ok")
""")


def test_stages_run_with_scipy_blocked():
    proc = subprocess.run(
        [sys.executable, "-P", "-c", SCRIPT, str(SRC), str(TESTS)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
