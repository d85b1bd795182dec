"""Run configuration: one JSON file drives the whole pipeline.

Each file key is declared once, in ``_SETTINGS`` (the keys of an effects
target in ``_TARGET_SETTINGS``), with its check and what a valid value must
be. The key's last dotted part names the dataclass field it fills; a field's
default is the key's default, and a field without one is a required key.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .effects import DEFAULT_DRAWS, DEFAULT_GRID_POINTS, MIN_DRAWS
from .errors import ConfigError, CorruptArtifact, FormulaSyntaxError
from .formula import parse_formula
from .jsonio import read_json
from .metrics import DEFAULT_FREX_WEIGHT
from .search import CANDIDATE_REL_TOL
from .stm import FitConfig

THREADS_ENV = "AGENDASCOPE_THREADS"


@dataclass
class EffectTarget:
    covariate: str
    topics: list[int]
    contrast: list | None = None  # [level_a, level_b] switches to a contrast
    grid_points: int = DEFAULT_GRID_POINTS
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
    max_em_iters: int = FitConfig.max_em_iters
    rel_tol: float = FitConfig.rel_tol
    ridge_gamma: float = FitConfig.ridge_gamma
    sigma_floor: float = FitConfig.sigma_floor
    candidate_rel_tol: float = CANDIDATE_REL_TOL
    coherence_m: int = 10
    frex_w: float = DEFAULT_FREX_WEIGHT
    top_words: int = 20
    targets: list[EffectTarget] = field(default_factory=list)
    n_draws: int = DEFAULT_DRAWS
    perspectives: list[list[int]] = field(default_factory=list)
    wordcloud_topics: list[int] = field(default_factory=list)
    wordcloud_n: int = 50
    graph_threshold: float = 0.05
    seed: int = 0
    deterministic: bool = True
    threads: int = 1


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int, or a finite float: JSON's Infinity and NaN are not numbers."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value)))


def _is_topics(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) and v >= 0 for v in value)


def _int_at_least(low: int):
    return lambda v: _is_int(v) and v >= low, f"an integer >= {low}"


_TEXT = (lambda v: isinstance(v, str) and v != "", "a non-empty string")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a number > 0")

# dotted file key -> (check, what a valid value must be)
_SETTINGS = {
    "paths.corpus_dir": _TEXT,
    "paths.metadata": _TEXT,
    "paths.out_dir": _TEXT,
    "preprocess.min_doc_freq": _int_at_least(1),
    "preprocess.min_term_len": _int_at_least(1),
    "preprocess.stopword_file": _TEXT,
    "fit.k": _int_at_least(2),
    "fit.k_grid": (lambda v: isinstance(v, list) and all(_is_int(k) and k >= 2 for k in v)
                   and len(set(v)) >= 3, "a list of >= 3 distinct integers >= 2"),
    "fit.max_em_iters": _int_at_least(1),
    "fit.rel_tol": _POSITIVE,
    "fit.ridge_gamma": (lambda v: _is_number(v) and v >= 0, "a number >= 0"),
    "fit.sigma_floor": _POSITIVE,
    "fit.candidate_rel_tol": _POSITIVE,
    "formula": _TEXT,
    "metrics.coherence_m": _int_at_least(2),
    "metrics.frex_w": (lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "metrics.top_words": _int_at_least(1),
    "effects.n_draws": _int_at_least(MIN_DRAWS),
    "effects.targets": (lambda v: isinstance(v, list) and all(isinstance(t, dict) for t in v),
                        "a list of objects"),
    "report.perspectives": (lambda v: isinstance(v, list)
                            and all(_is_topics(p) and len(set(p)) == len(p) == 2
                                    for p in v),
                            "a list of pairs [a, b] of distinct topics"),
    "report.wordcloud_topics": (_is_topics, "a list of integers >= 0"),
    "report.wordcloud_n": _int_at_least(1),
    "report.graph_threshold": (lambda v: _is_number(v) and -1 < v < 1,
                               "a number in (-1, 1)"),
    "seed": _int_at_least(0),
    "deterministic": (lambda v: isinstance(v, bool), "true or false"),
    "threads": _int_at_least(1),
}

_TARGET_SETTINGS = {
    "covariate": _TEXT,
    "topics": (lambda v: _is_topics(v) and v != [], "a non-empty list of integers >= 0"),
    "contrast": (lambda v: isinstance(v, list) and len(v) == 2, "a list of two levels"),
    "grid_points": _int_at_least(2),
    "hold": (lambda v: v in ("typical", "observed"), "'typical' or 'observed'"),
}

_SECTIONS = {key.partition(".")[0] for key in _SETTINGS if "." in key}


def _field(key: str) -> str:
    return key.rpartition(".")[2]


def _flatten(obj: dict, violations: list[str]) -> dict:
    """The file object with each section's keys raised to dotted keys."""
    flat = {}
    for key, value in obj.items():
        if key not in _SECTIONS:
            flat[key] = value
        elif isinstance(value, dict):
            flat.update((f"{key}.{k}", v) for k, v in value.items())
        else:
            violations.append(f"{key} must be an object")
    return flat


def _checked(cls, table: dict, obj: dict, prefix: str, violations: list[str]) -> dict:
    """The values in ``obj`` that pass their ``table`` check, keyed by ``cls``
    field. Adds a violation for every unknown key, failed check and missing
    required key; null leaves a field whose default is None unset."""
    defaults = {f.name: f.default for f in fields(cls)}
    values = {}
    for key, value in obj.items():
        if key not in table:
            violations.append(f"{prefix}{key} is not a known setting")
        elif value is None and defaults[_field(key)] is None:
            continue
        elif table[key][0](value):
            values[_field(key)] = value
        else:
            violations.append(f"{prefix}{key} must be {table[key][1]}")
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    violations.extend(f"{prefix}{key} is required" for key in table
                      if _field(key) in required and key not in obj)
    return values


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a run-configuration file.

    ``overrides`` maps dotted keys to values that replace the file's before
    anything is checked, so an override is checked like a file value.
    Threads come from the override, else the file, else the
    AGENDASCOPE_THREADS environment variable, else 1.

    Every violation is collected; a single ConfigError reports them all.
    Relative corpus_dir/metadata/stopword_file paths resolve against the
    config file's directory; a relative out_dir resolves against the working
    directory. The output directory is created if it is missing.
    """
    path = Path(path)
    try:
        obj = read_json(path)
    except CorruptArtifact as exc:
        raise ConfigError([f"the config file is not valid JSON: {exc.reason}"]) from None
    if not isinstance(obj, dict):
        raise ConfigError(["the config file must hold a JSON object"])
    violations: list[str] = []
    flat = {**_flatten(obj, violations), **(overrides or {})}
    env = os.environ.get(THREADS_ENV)
    if env and "threads" not in flat:
        try:
            flat["threads"] = int(env)
        except ValueError:
            violations.append(f"{THREADS_ENV} is not an integer: {env!r}")
    values = _checked(RunConfig, _SETTINGS, flat, "", violations)
    targets = [_checked(EffectTarget, _TARGET_SETTINGS, t, f"effects.targets[{i}].", violations)
               for i, t in enumerate(values.get("targets", []))]

    given = {_field(key) for key in _SETTINGS if flat.get(key) is not None}
    if ("k" in given) == ("k_grid" in given):
        violations.append("fit must set exactly one of 'k' or 'k_grid'")
    if "formula" in values:
        try:
            terms = parse_formula(values["formula"]).term_names()
        except FormulaSyntaxError as exc:
            violations.append(f"formula does not parse: {exc}")
        else:
            violations.extend(
                f"effects.targets[{i}].covariate {t['covariate']!r} does not "
                f"appear in the formula" for i, t in enumerate(targets)
                if "covariate" in t and t["covariate"] not in terms)
    if "out_dir" in values:
        try:
            Path(values["out_dir"]).mkdir(parents=True, exist_ok=True)
            probe = Path(values["out_dir"]) / ".write_probe"
            probe.write_text("")
            probe.unlink()
        except OSError as exc:
            violations.append(f"paths.out_dir is not writable: {exc}")

    if violations:
        raise ConfigError(violations)
    for name in ("corpus_dir", "metadata", "stopword_file"):
        if name in values:
            values[name] = str(path.parent / values[name])
    values["targets"] = [EffectTarget(**t) for t in targets]
    return RunConfig(**values)
