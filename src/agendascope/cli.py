"""Pipeline CLI.

Subcommands ingest, search, fit, metrics, effects, report, all operate on a
shared output directory of JSON artifacts, plus three ``.npy`` sidecars,
``corpus.indptr.npy``, ``corpus.indices.npy`` and ``corpus.counts.npy``,
that hold the term counts of ``corpus.json``. The posterior covariances are
not saved: the effects stage recomputes them from ``model.json`` and the
corpus. Every stage writes a manifest with content hashes of its inputs and
outputs, sidecars included. All randomness flows from the single config seed:
the final fit uses it directly, search candidate k uses ``seed ^ k``, and
the effects stage draws once from ``seed + 7919``, for every topic, and
serves each estimate from those draws.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import sys
import time
from dataclasses import fields
from pathlib import Path

from .config import EffectTarget, RunConfig, load_config
from .corpus import Corpus, PreprocessConfig, build_corpus, load_ungdc_layout
from .design import BuiltDesign, CategoricalSpec, build_design
from .effects import EffectDraws, estimate_contrast, estimate_effect
from .errors import AgendascopeError, ConfigError, DimensionMismatch, MissingArtifact
from .formula import parse_formula
from .jsonio import write_json
from .manifest import write_manifest
from .metrics import model_quality, summarize_topics, top_words_table
from .report import perspective_contrast, topic_graph, wordcloud_data
from .search import ModelSearchResult, search
from .stm import FitConfig, FittedModel, fit, posterior_covariances

CORPUS_FILE = "corpus.json"
INGEST_REPORT_FILE = "ingest_report.json"
SEARCH_FILE = "search.json"
SEARCH_POINTS_FILE = "search_points.csv"
MODEL_FILE = "model.json"
SUMMARIES_FILE = "topic_summaries.json"
QUALITY_FILE = "model_quality.json"
TOP_WORDS_FILE = "top_words.txt"

_EFFECT_SEED_OFFSET = 7919


def _require(out_dir: Path, name: str, stage: str) -> Path:
    path = out_dir / name
    if not path.exists():
        raise MissingArtifact(stage, str(path))
    return path


def _load_corpus(out_dir: Path) -> tuple[Corpus, dict[str, Path]]:
    """The corpus, and its files as manifest inputs: ``corpus.json`` and
    the sidecars of its CSR triple, as ``corpus_indptr`` and so on."""
    corpus_path = _require(out_dir, CORPUS_FILE, "ingest")
    corpus = Corpus.load(corpus_path)
    return corpus, {"corpus": corpus_path,
                    **{f"corpus_{name}": sidecar for name, sidecar
                       in Corpus.sidecar_paths(corpus_path).items()}}


def _load_model(out_dir: Path) -> tuple[FittedModel, dict[str, Path]]:
    """The fitted model, and ``model.json`` as its manifest input."""
    model_path = _require(out_dir, MODEL_FILE, "fit")
    return FittedModel.load(model_path), {"model": model_path}


def _check_settings(n_terms: int, k: int, *, sizes: dict[str, int] | None = None,
                    topics: dict[str, list[int]] | None = None) -> None:
    """Raise one ConfigError naming, by its config setting, every top-n count
    in ``sizes`` larger than the ``n_terms`` vocabulary and every topic in
    ``topics`` that ``k`` topics do not have."""
    violations = [f"{key} is {n}, but the vocabulary has {n_terms} terms"
                  for key, n in (sizes or {}).items() if n > n_terms]
    violations += [f"{key} names topic {t}, but the model has k={k}"
                   for key, ts in (topics or {}).items() for t in ts if t >= k]
    if violations:
        raise ConfigError(violations)


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> Path:
    lines = [",".join(header)]
    lines += [",".join(_cell(c) for c in row) for row in rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _from_settings(cls, cfg: RunConfig, **given):
    """A ``cls`` (``FitConfig``, ``PreprocessConfig``) whose fields not
    ``given`` are the run settings of the same name."""
    return cls(**given, **{f.name: getattr(cfg, f.name)
                           for f in fields(cls) if f.name not in given})


def _design_and_subset(cfg: RunConfig, corpus: Corpus):
    built = build_design(parse_formula(cfg.formula), corpus.covariate_table())
    return built, corpus.subset(built.kept_rows)


Stage = tuple[dict[str, str | Path], list[Path]]  # (manifest inputs, outputs)


def run_ingest(cfg: RunConfig) -> Stage:
    out_dir = Path(cfg.out_dir)
    docs, covs, skipped = load_ungdc_layout(cfg.corpus_dir, cfg.metadata)
    stopwords = (PreprocessConfig.load_stopword_file(cfg.stopword_file)
                 if cfg.stopword_file else None)
    corpus, report = build_corpus(docs, covs,
                                  _from_settings(PreprocessConfig, cfg, stopwords=stopwords))
    corpus_path = corpus.save(out_dir / CORPUS_FILE)
    report_path = write_json(out_dir / INGEST_REPORT_FILE, {
        "skipped_files": skipped, **vars(report),
        "n_docs": corpus.n_docs, "n_terms": corpus.n_terms})
    return {"metadata": cfg.metadata}, [corpus_path,
                                        *Corpus.sidecar_paths(corpus_path).values(),
                                        report_path]


def run_search(cfg: RunConfig) -> Stage:
    out_dir = Path(cfg.out_dir)
    if cfg.k_grid is None:
        raise ConfigError(["search stage requires fit.k_grid"])
    corpus, inputs = _load_corpus(out_dir)
    _check_settings(corpus.n_terms, max(cfg.k_grid),
                    sizes={"metrics.coherence_m": cfg.coherence_m})
    built, sub = _design_and_subset(cfg, corpus)
    result = search(sub, built.design, cfg.k_grid,
                    _from_settings(FitConfig, cfg, k=cfg.k_grid[0]),
                    coherence_m=cfg.coherence_m, frex_w=cfg.frex_w,
                    candidate_rel_tol=cfg.candidate_rel_tol,
                    threads=cfg.threads)
    search_path = result.save(out_dir / SEARCH_FILE)
    points_path = _write_csv(out_dir / SEARCH_POINTS_FILE,
                             ["k", "coherence", "exclusivity", "residual"],
                             result.plot_rows())
    return inputs, [search_path, points_path]


def run_fit(cfg: RunConfig) -> Stage:
    out_dir = Path(cfg.out_dir)
    corpus, inputs = _load_corpus(out_dir)
    if cfg.k is not None:
        k = cfg.k
    else:
        search_path = _require(out_dir, SEARCH_FILE, "search")
        inputs["search"] = search_path
        k = ModelSearchResult.load(search_path).selected_k
    built, sub = _design_and_subset(cfg, corpus)
    model = fit(sub, built.design, _from_settings(FitConfig, cfg, k=k), threads=cfg.threads)
    return inputs, [model.save(out_dir / MODEL_FILE)]


def run_metrics(cfg: RunConfig) -> Stage:
    out_dir = Path(cfg.out_dir)
    model, _, sub, inputs = _load_fitted(
        cfg, sizes={"metrics.coherence_m": cfg.coherence_m})
    summaries = summarize_topics(model.beta, model.vocabulary, sub,
                                 n_words=cfg.top_words, frex_w=cfg.frex_w)
    quality = model_quality(model.beta, sub, m=cfg.coherence_m,
                            frex_w=cfg.frex_w)
    summaries_path = write_json(out_dir / SUMMARIES_FILE, {"topics": summaries})
    quality_path = write_json(out_dir / QUALITY_FILE, quality)
    table = top_words_table(summaries)
    print(table)
    table_path = out_dir / TOP_WORDS_FILE
    table_path.write_text(table, encoding="utf-8")
    return inputs, [summaries_path, quality_path, table_path]


def _check_fitted_to(model: FittedModel, inputs: dict[str, Path], sub: Corpus,
                     column_names: list[str]) -> None:
    """Raise unless ``model`` was fitted to ``sub``, the corpus rows that
    the formula keeps, under the formula's design columns."""
    if model.design_column_names != column_names:
        raise ConfigError([f"formula gives the design columns {column_names}, but "
                           f"{inputs['model']} was fitted with {model.design_column_names}"])
    for what, fitted, kept in (("vocabulary", model.vocabulary, sub.vocabulary),
                               ("documents the formula keeps", model.doc_ids, sub.doc_ids)):
        if fitted != kept:
            raise DimensionMismatch(f"{inputs['model']} and {inputs['corpus']} "
                                    f"disagree on the {what}")


def _load_fitted(cfg: RunConfig, **settings):
    """The model, the design it was fitted with and the corpus rows it was
    fitted to, with ``corpus.json``, its sidecars and ``model.json`` as
    manifest inputs. Raises unless the run settings ``settings`` (as
    :func:`_check_settings` takes them) suit the model and the model was
    fitted to those rows under the formula's design columns."""
    out_dir = Path(cfg.out_dir)
    corpus, inputs = _load_corpus(out_dir)
    model, model_inputs = _load_model(out_dir)
    inputs.update(model_inputs)
    _check_settings(len(model.vocabulary), model.k, **settings)
    built, sub = _design_and_subset(cfg, corpus)
    _check_fitted_to(model, inputs, sub, built.design.column_names)
    return model, built, sub, inputs


def _check_contrasts(targets: list[EffectTarget], built: BuiltDesign) -> None:
    """Raise one ConfigError naming every contrast level that the fitted
    design cannot encode: a categorical level it never saw, or a
    non-numeric level of a numeric covariate."""
    specs = {spec.name: spec for spec in built.specs}
    violations = []
    for i, target in enumerate(targets):
        spec = specs[target.covariate]
        for level in target.contrast or ():
            if isinstance(spec, CategoricalSpec):
                if level not in spec.levels:
                    violations.append(f"effects.targets[{i}].contrast level {level!r} is "
                                      f"not a level of {spec.name!r} in the fitted design")
            elif not (isinstance(level, (int, float)) and math.isfinite(level)):
                violations.append(f"effects.targets[{i}].contrast level {level!r} "
                                  f"is not a number, but {spec.name!r} is numeric")
    if violations:
        raise ConfigError(violations)


def run_effects(cfg: RunConfig) -> Stage:
    out_dir = Path(cfg.out_dir)
    model, built, sub, inputs = _load_fitted(
        cfg, topics={f"effects.targets[{i}].topics": t.topics
                     for i, t in enumerate(cfg.targets)})
    _check_contrasts(cfg.targets, built)
    draws = None
    if cfg.targets:
        model.nu = posterior_covariances(sub, built.design, model, threads=cfg.threads)
        draws = EffectDraws(model, built, cfg.n_draws, cfg.seed + _EFFECT_SEED_OFFSET)
    effects_dir = out_dir / "effects"
    effects_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[Path] = []
    for target in cfg.targets:
        for topic in target.topics:
            if target.contrast is not None:
                est = estimate_contrast(draws, topic, target.covariate,
                                        *target.contrast)
                outputs.append(write_json(
                    effects_dir / f"contrast_{target.covariate}_topic{topic}.json",
                    est))
            else:
                est = estimate_effect(draws, topic, target.covariate,
                                      grid_points=target.grid_points,
                                      hold=target.hold)
                stem = f"effect_{target.covariate}_topic{topic}"
                outputs.append(write_json(effects_dir / f"{stem}.json", est))
                outputs.append(_write_csv(effects_dir / f"{stem}.csv",
                                          ["grid", "mean", "lo", "hi"],
                                          est.table_rows()))
    return inputs, outputs


def run_report(cfg: RunConfig) -> Stage:
    out_dir = Path(cfg.out_dir)
    model, model_inputs = _load_model(out_dir)
    _check_settings(len(model.vocabulary), model.k,
                    sizes={"report.wordcloud_n": cfg.wordcloud_n},
                    topics={"report.wordcloud_topics": cfg.wordcloud_topics,
                            **{f"report.perspectives[{i}]": pair
                               for i, pair in enumerate(cfg.perspectives)}})
    report_dir = out_dir / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[Path] = []
    for a, b in cfg.perspectives:
        outputs.append(write_json(report_dir / f"perspective_{a}_{b}.json",
                                  perspective_contrast(model, a, b)))
    graph = topic_graph(model, threshold=cfg.graph_threshold)
    outputs.append(write_json(report_dir / "topic_graph.json", graph))
    dot_path = report_dir / "topic_graph.dot"
    dot_path.write_text(graph.to_dot(), encoding="utf-8")
    outputs.append(dot_path)
    for topic in cfg.wordcloud_topics:
        outputs.append(write_json(
            report_dir / f"wordcloud_topic{topic}.json",
            {"topic_index": topic,
             "entries": wordcloud_data(model, topic, cfg.wordcloud_n)}))
    return model_inputs, outputs


_STAGES = {"ingest": run_ingest, "search": run_search, "fit": run_fit,
           "metrics": run_metrics, "effects": run_effects,
           "report": run_report}


def _run_stage(name: str, cfg: RunConfig) -> list[Path]:
    """Run one stage and write its manifest; returns the stage outputs."""
    start = time.perf_counter()
    inputs, outputs = _STAGES[name](cfg)
    write_manifest(cfg.out_dir, name, inputs=inputs, outputs=outputs,
                   seed=cfg.seed,
                   timings={"total": time.perf_counter() - start},
                   deterministic=cfg.deterministic)
    return outputs


def run_all(cfg: RunConfig) -> list[Path]:
    names = [name for name in _STAGES if name != "search" or cfg.k_grid is not None]
    return [path for name in names for path in _run_stage(name, cfg)]


def build_parser() -> argparse.ArgumentParser:
    """Each override flag's dest is the config key it replaces; a flag left
    unset stays out of the parsed namespace."""
    parser = argparse.ArgumentParser(
        prog="agendascope",
        description="Topic-model pipeline over speech corpora")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*_STAGES, "all"]:
        cmd = sub.add_parser(name, help=f"run the {name} stage",
                             argument_default=argparse.SUPPRESS)
        cmd.add_argument("--config", required=True, help="run-config JSON")
        cmd.add_argument("--seed", type=int, help="override the config seed")
        cmd.add_argument("--threads", type=int,
                         help="intra-stage parallelism (env AGENDASCOPE_THREADS as fallback)")
        cmd.add_argument("--out", dest="paths.out_dir", metavar="DIR",
                         help="override the output dir")
        cmd.add_argument("--deterministic", action=argparse.BooleanOptionalAction,
                         help="override deterministic mode")
    return parser


def main(argv: list[str] | None = None) -> int:
    # At exit, move every object into the permanent generation, so that
    # interpreter teardown skips the cyclic collector's pass over numpy and
    # the package. Registered here, not at import, so that importing the
    # module changes nothing; unregistered first, so that repeated calls
    # in one process register it once.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    overrides = vars(build_parser().parse_args(argv))
    command, config = overrides.pop("command"), overrides.pop("config")
    try:
        cfg = load_config(config, overrides)
        outputs = (run_all(cfg) if command == "all"
                   else _run_stage(command, cfg))
    except (AgendascopeError, OSError) as exc:  # OSError: an unreadable input file
        report = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ConfigError):
            report["violations"] = exc.violations
        print(json.dumps(report, indent=2), file=sys.stderr)
        return 1
    for path in outputs:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
