"""Run configuration: one JSON file drives the whole pipeline.

Each setting is declared once, by :func:`_setting`, on the field it fills
of :class:`RunConfig` (of :class:`EffectTarget` for an effects target's
keys): its dotted file key, its check, and its default, which is taken from
the library object that owns it. A field without a default is a required key.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .corpus import PreprocessConfig
from .effects import DEFAULT_DRAWS, DEFAULT_GRID_POINTS, MIN_DRAWS
from .errors import ConfigError, CorruptArtifact, FormulaSyntaxError
from .formula import parse_formula
from .jsonio import read_json
from .metrics import DEFAULT_FREX_WEIGHT, DEFAULT_SUMMARY_WORDS, DEFAULT_TOP_WORDS
from .report import DEFAULT_GRAPH_THRESHOLD
from .search import CANDIDATE_REL_TOL
from .stm import FitConfig

THREADS_ENV = "AGENDASCOPE_THREADS"


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


def _setting(key: str, rule: tuple, default=MISSING):
    """The field that file key ``key`` fills when its value passes ``rule``,
    a (check, what a valid value must be) pair. Without a default the key
    is required; an empty-list default is a fresh list per config."""
    kwargs = {"default_factory": list} if default == [] else {"default": default}
    return field(**kwargs, metadata={"key": key, "check": rule[0], "must_be": rule[1]})


@dataclass
class EffectTarget:
    covariate: str = _setting("covariate", _TEXT)
    topics: list[int] = _setting("topics", (lambda v: _is_topics(v) and v != [],
                                            "a non-empty list of integers >= 0"))
    contrast: list | None = _setting(  # [level_a, level_b] switches to a contrast
        "contrast", (lambda v: isinstance(v, list) and len(v) == 2, "a list of two levels"), None)
    grid_points: int = _setting("grid_points", _int_at_least(2), DEFAULT_GRID_POINTS)
    hold: str = _setting("hold", (lambda v: v in ("typical", "observed"),
                                  "'typical' or 'observed'"), "typical")


@dataclass
class RunConfig:
    corpus_dir: str = _setting("paths.corpus_dir", _TEXT)
    metadata: str = _setting("paths.metadata", _TEXT)
    out_dir: str = _setting("paths.out_dir", _TEXT)
    formula: str = _setting("formula", _TEXT)
    k: int | None = _setting("fit.k", _int_at_least(2), None)
    k_grid: list[int] | None = _setting(
        "fit.k_grid", (lambda v: isinstance(v, list) and all(_is_int(k) and k >= 2 for k in v)
                       and len(set(v)) >= 3, "a list of >= 3 distinct integers >= 2"), None)
    min_doc_freq: int = _setting("preprocess.min_doc_freq", _int_at_least(1),
                                 PreprocessConfig.min_doc_freq)
    min_term_len: int = _setting("preprocess.min_term_len", _int_at_least(1),
                                 PreprocessConfig.min_term_len)
    stopword_file: str | None = _setting("preprocess.stopword_file", _TEXT, None)
    max_em_iters: int = _setting("fit.max_em_iters", _int_at_least(1), FitConfig.max_em_iters)
    rel_tol: float = _setting("fit.rel_tol", _POSITIVE, FitConfig.rel_tol)
    ridge_gamma: float = _setting("fit.ridge_gamma", (lambda v: _is_number(v) and v >= 0,
                                                      "a number >= 0"), FitConfig.ridge_gamma)
    sigma_floor: float = _setting("fit.sigma_floor", _POSITIVE, FitConfig.sigma_floor)
    candidate_rel_tol: float = _setting("fit.candidate_rel_tol", _POSITIVE, CANDIDATE_REL_TOL)
    coherence_m: int = _setting("metrics.coherence_m", _int_at_least(2), DEFAULT_TOP_WORDS)
    frex_w: float = _setting("metrics.frex_w", (lambda v: _is_number(v) and 0 <= v <= 1,
                                                "a number in [0, 1]"), DEFAULT_FREX_WEIGHT)
    top_words: int = _setting("metrics.top_words", _int_at_least(1), DEFAULT_SUMMARY_WORDS)
    targets: list[EffectTarget] = _setting(
        "effects.targets", (lambda v: isinstance(v, list) and all(isinstance(t, dict) for t in v),
                            "a list of objects"), [])
    n_draws: int = _setting("effects.n_draws", _int_at_least(MIN_DRAWS), DEFAULT_DRAWS)
    perspectives: list[list[int]] = _setting("report.perspectives", (
        lambda v: isinstance(v, list) and all(_is_topics(p) and len(set(p)) == len(p) == 2
                                              for p in v),
        "a list of pairs [a, b] of distinct topics"), [])
    wordcloud_topics: list[int] = _setting("report.wordcloud_topics",
                                           (_is_topics, "a list of integers >= 0"), [])
    wordcloud_n: int = _setting("report.wordcloud_n", _int_at_least(1), 50)
    graph_threshold: float = _setting("report.graph_threshold", (
        lambda v: _is_number(v) and -1 < v < 1, "a number in (-1, 1)"), DEFAULT_GRAPH_THRESHOLD)
    seed: int = _setting("seed", _int_at_least(0), FitConfig.seed)
    deterministic: bool = _setting("deterministic", (lambda v: isinstance(v, bool),
                                                     "true or false"), True)
    threads: int = _setting("threads", _int_at_least(1), 1)


# dotted file key -> the field it fills
_SETTINGS = {f.metadata["key"]: f for f in fields(RunConfig)}
_TARGET_SETTINGS = {f.metadata["key"]: f for f in fields(EffectTarget)}
_SECTIONS = {key.partition(".")[0] for key in _SETTINGS if "." in key}


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


def _checked(table: dict, obj: dict, prefix: str, violations: list[str]) -> dict:
    """The values in ``obj`` that pass their ``table`` field's check, keyed
    by field name. Adds a violation for every unknown key, failed check and
    missing required key; null leaves a field whose default is None unset."""
    values = {}
    for key, value in obj.items():
        f = table.get(key)
        if f is None:
            violations.append(f"{prefix}{key} is not a known setting")
        elif value is None and f.default is None:
            continue
        elif f.metadata["check"](value):
            values[f.name] = value
        else:
            violations.append(f"{prefix}{key} must be {f.metadata['must_be']}")
    violations.extend(f"{prefix}{key} is required" for key, f in table.items() if key not in obj
                      and f.default is MISSING and f.default_factory is MISSING)
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
    except OSError as exc:
        raise ConfigError([f"the config file cannot be read: {exc}"]) from None
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
    values = _checked(_SETTINGS, flat, "", violations)
    targets = [_checked(_TARGET_SETTINGS, t, f"effects.targets[{i}].", violations)
               for i, t in enumerate(values.get("targets", []))]

    if (flat.get("fit.k") is None) == (flat.get("fit.k_grid") is None):
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
