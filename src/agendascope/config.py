"""Run configuration: one JSON file drives the whole pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, FormulaSyntaxError
from .formula import parse_formula
from .jsonio import read_json


@dataclass
class EffectTarget:
    covariate: str
    topics: list[int]
    contrast: list | None = None  # [level_a, level_b] switches to a contrast
    grid_points: int = 50
    hold: str = "typical"


@dataclass
class RunConfig:
    corpus_dir: str
    metadata: str
    out_dir: str
    formula: str
    k: int | None = None
    k_grid: list[int] | None = None
    min_doc_freq: int = 10
    min_term_len: int = 3
    stopword_file: str | None = None
    max_em_iters: int = 200
    rel_tol: float = 1e-5
    ridge_gamma: float = 1.0
    sigma_floor: float = 1e-6
    candidate_rel_tol: float = 1e-4
    coherence_m: int = 10
    frex_w: float = 0.7
    top_words: int = 20
    effects_targets: list[EffectTarget] = field(default_factory=list)
    n_draws: int = 500
    perspectives: list[list[int]] = field(default_factory=list)
    wordcloud_topics: list[int] = field(default_factory=list)
    wordcloud_n: int = 50
    graph_threshold: float = 0.05
    seed: int = 0
    deterministic: bool = True
    threads: int | None = None  # None defers to the CLI fallback chain


def _get(obj: dict, section: str, key: str, default):
    return obj.get(section, {}).get(key, default)


def _is_int(value, low: int) -> bool:
    return isinstance(value, int) and value >= low


def _is_number(value) -> bool:
    return isinstance(value, (int, float))


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a run-configuration file.

    Every violation is collected; a single ConfigError reports them all.
    Relative corpus/metadata paths resolve against the config file's
    directory; a relative out_dir resolves against the working directory.
    """
    path = Path(path)
    obj = read_json(path)
    violations: list[str] = []

    paths = obj.get("paths", {})
    for key in ("corpus_dir", "metadata", "out_dir"):
        if not paths.get(key):
            violations.append(f"paths.{key} is required")

    fit_obj = obj.get("fit", {})
    k = fit_obj.get("k")
    k_grid = fit_obj.get("k_grid")
    if (k is None) == (k_grid is None):
        violations.append("fit must set exactly one of 'k' or 'k_grid'")
    if k is not None and (not isinstance(k, int) or k < 2):
        violations.append("fit.k must be an integer >= 2")
    if k_grid is not None:
        if (not isinstance(k_grid, list) or len(set(k_grid)) < 3
                or any(not isinstance(v, int) or v < 2 for v in k_grid)):
            violations.append("fit.k_grid needs >= 3 distinct integers >= 2")

    max_em_iters = fit_obj.get("max_em_iters", 200)
    if not _is_int(max_em_iters, 1):
        violations.append("fit.max_em_iters must be an integer >= 1")
    for key, zero_ok in (("rel_tol", False), ("ridge_gamma", True),
                         ("sigma_floor", False), ("candidate_rel_tol", False)):
        if key not in fit_obj:
            continue
        value = fit_obj[key]
        if not (_is_number(value) and (value >= 0 if zero_ok else value > 0)):
            violations.append(
                f"fit.{key} must be a number {'>=' if zero_ok else '>'} 0")

    pre = obj.get("preprocess", {})
    min_doc_freq = pre.get("min_doc_freq", 10)
    if not _is_int(min_doc_freq, 1):
        violations.append("preprocess.min_doc_freq must be an integer >= 1")

    coherence_m = _get(obj, "metrics", "coherence_m", 10)
    if not _is_int(coherence_m, 2):
        violations.append("metrics.coherence_m must be an integer >= 2")
    frex_w = _get(obj, "metrics", "frex_w", 0.7)
    if not (_is_number(frex_w) and 0 <= frex_w <= 1):
        violations.append("metrics.frex_w must be a number in [0, 1]")

    formula_text = obj.get("formula", "")
    if not formula_text:
        violations.append("formula is required")
    else:
        try:
            parse_formula(formula_text)
        except FormulaSyntaxError as exc:
            violations.append(f"formula does not parse: {exc}")

    effects_obj = obj.get("effects", {})
    n_draws = effects_obj.get("n_draws", 500)
    if not isinstance(n_draws, int) or n_draws < 100:
        violations.append("effects.n_draws must be an integer >= 100")
    targets: list[EffectTarget] = []
    for i, t in enumerate(effects_obj.get("targets", [])):
        if not t.get("covariate"):
            violations.append(f"effects.targets[{i}].covariate is required")
            continue
        topics = t.get("topics", [])
        if (not isinstance(topics, list) or not topics
                or any(not _is_int(v, 0) for v in topics)):
            violations.append(f"effects.targets[{i}].topics must be non-negative integers")
        contrast = t.get("contrast")
        if contrast is not None and not (isinstance(contrast, list) and len(contrast) == 2):
            violations.append(f"effects.targets[{i}].contrast must have two levels")
        grid_points = t.get("grid_points", 50)
        if not _is_int(grid_points, 2):
            violations.append(f"effects.targets[{i}].grid_points must be an integer >= 2")
        if t.get("hold", "typical") not in ("typical", "observed"):
            violations.append(
                f"effects.targets[{i}].hold must be 'typical' or 'observed'")
        targets.append(EffectTarget(covariate=t["covariate"], topics=topics,
                                    contrast=contrast, grid_points=grid_points,
                                    hold=t.get("hold", "typical")))

    seed = obj.get("seed", 0)
    if not isinstance(seed, int):
        violations.append("seed must be an integer")

    report_obj = obj.get("report", {})
    threshold = report_obj.get("graph_threshold", 0.05)
    if not (_is_number(threshold) and -1.0 < threshold < 1.0):
        violations.append("report.graph_threshold must be a number in (-1, 1)")

    out_dir = paths.get("out_dir")
    if out_dir:
        try:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            probe = Path(out_dir) / ".write_probe"
            probe.write_text("")
            probe.unlink()
        except OSError as exc:
            violations.append(f"paths.out_dir is not writable: {exc}")

    if violations:
        raise ConfigError(violations)

    def _near_config(p: str) -> str:
        candidate = Path(p)
        return str(candidate if candidate.is_absolute()
                   else path.parent / candidate)

    return RunConfig(
        corpus_dir=_near_config(paths["corpus_dir"]),
        metadata=_near_config(paths["metadata"]),
        out_dir=paths["out_dir"], formula=formula_text,
        k=k, k_grid=list(k_grid) if k_grid else None,
        min_doc_freq=min_doc_freq,
        min_term_len=pre.get("min_term_len", 3),
        stopword_file=(_near_config(pre["stopword_file"])
                       if pre.get("stopword_file") else None),
        max_em_iters=fit_obj.get("max_em_iters", 200),
        rel_tol=fit_obj.get("rel_tol", 1e-5),
        ridge_gamma=fit_obj.get("ridge_gamma", 1.0),
        sigma_floor=fit_obj.get("sigma_floor", 1e-6),
        candidate_rel_tol=fit_obj.get("candidate_rel_tol", 1e-4),
        coherence_m=coherence_m, frex_w=frex_w,
        top_words=_get(obj, "metrics", "top_words", 20),
        effects_targets=targets, n_draws=n_draws,
        perspectives=[list(p) for p in report_obj.get("perspectives", [])],
        wordcloud_topics=list(report_obj.get("wordcloud_topics", [])),
        wordcloud_n=report_obj.get("wordcloud_n", 50),
        graph_threshold=threshold,
        seed=seed,
        deterministic=obj.get("deterministic", True),
        threads=obj.get("threads"))
