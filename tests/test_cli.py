"""Pipeline CLI: stage wiring, manifests, determinism, config validation."""

import importlib.util
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import MISSING, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from agendascope import cli, effects
from agendascope.cli import _design_and_subset, main
from agendascope.config import (_SETTINGS, _TARGET_SETTINGS, RunConfig,
                                _flatten, load_config)
from agendascope.corpus import Corpus, PreprocessConfig
from agendascope.errors import ConfigError
from agendascope.jsonio import dumps_canonical, read_json
from agendascope.manifest import file_sha256
from agendascope.metrics import model_quality, summarize_topics
from agendascope.report import topic_graph
from agendascope.search import ModelSearchResult
from agendascope.stm import FitConfig, FittedModel, fit

SAMPLE = Path(str(resources.files("agendascope").joinpath("data/sample")))
ROOT = Path(__file__).resolve().parents[1]


def copy_sample(tmp_path: Path) -> tuple[Path, Path]:
    """Copy of the bundled sample with a tmp output directory."""
    work = tmp_path / "sample"
    shutil.copytree(SAMPLE, work)
    cfg = json.loads((work / "config.json").read_text())
    cfg["paths"]["out_dir"] = str(tmp_path / "out")
    (work / "config.json").write_text(json.dumps(cfg))
    return work / "config.json", tmp_path / "out"


@pytest.fixture()
def sample_run(tmp_path):
    return copy_sample(tmp_path)


@pytest.fixture(scope="module")
def sample_all(tmp_path_factory):
    """The bundled sample after one ``all`` run; tests must not modify it."""
    config, out = copy_sample(tmp_path_factory.mktemp("sample_all"))
    assert main(["all", "--config", str(config)]) == 0
    return config, out


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def set_setting(config: Path, name: str, value) -> None:
    """Set the config file's value at a dotted name such as
    ``effects.targets[0].topics``."""
    obj = json.loads(config.read_text())
    *keys, last = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", name)]
    parent = obj
    for key in keys:
        parent = parent[key]
    parent[last] = value
    config.write_text(json.dumps(obj))


class TestStages:
    def test_fit_without_ingest_reports_missing_artifact(self, sample_run, capsys):
        config, _ = sample_run
        code = run_cli("fit", "--config", config)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MissingArtifact"
        assert "ingest" in err["message"]

    def test_fit_with_grid_needs_search_artifact(self, sample_run, capsys):
        config, _ = sample_run
        assert run_cli("ingest", "--config", config) == 0
        code = run_cli("fit", "--config", config)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "search" in err["message"]

    def test_stagewise_equals_all(self, sample_run, tmp_path):
        config, out = sample_run
        for stage in ("ingest", "search", "fit", "metrics", "effects", "report"):
            assert run_cli(stage, "--config", config) == 0
        stagewise = {p.relative_to(out): file_sha256(p)
                     for p in out.rglob("*") if p.is_file()}
        out2 = tmp_path / "out2"
        assert run_cli("all", "--config", config, "--out", out2) == 0
        allrun = {p.relative_to(out2): file_sha256(p)
                  for p in out2.rglob("*") if p.is_file()}
        # artifacts identical; manifests differ only via the input paths they record
        for rel, digest in stagewise.items():
            if rel.name.endswith(".manifest.json"):
                continue
            assert allrun[rel] == digest, rel

    def test_threads_do_not_change_artifacts(self, sample_run, tmp_path, monkeypatch):
        """``all`` at one and at two threads writes the same bytes. The
        sample's 300 draws fit in one block of draws, so the block cap is
        cut to one draw a block for the effects pool to run many."""
        config, _ = sample_run
        monkeypatch.setattr(effects, "DRAW_BLOCK_BYTES", 1)
        runs = {}
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            assert run_cli("all", "--config", config, "--out", out,
                           "--threads", threads) == 0
            runs[threads] = {p.relative_to(out): file_sha256(p) for p in out.rglob("*")
                             if p.is_file() and not p.name.endswith(".manifest.json")}
        assert runs[1] == runs[2]

    def test_manifest_lists_every_output_with_hash(self, sample_run):
        config, out = sample_run
        assert run_cli("ingest", "--config", config) == 0
        manifest = read_json(out / "ingest.manifest.json")
        assert set(manifest["outputs"]) == {
            "corpus.json", "corpus.indptr.npy", "corpus.indices.npy",
            "corpus.counts.npy", "ingest_report.json"}
        for rel, digest in manifest["outputs"].items():
            assert file_sha256(out / rel) == digest
        assert manifest["timings_s"]["total"] == 0.0  # deterministic mode

    def test_timings_recorded_when_not_deterministic(self, sample_run):
        config, out = sample_run
        assert run_cli("ingest", "--config", config, "--no-deterministic") == 0
        manifest = read_json(out / "ingest.manifest.json")
        assert manifest["timings_s"]["total"] > 0.0

    def test_seed_override_changes_model(self, sample_run, tmp_path):
        config, out = sample_run
        assert run_cli("all", "--config", config) == 0
        model_a = file_sha256(out / "model.json")
        out_b = tmp_path / "out_b"
        assert run_cli("all", "--config", config, "--out", out_b,
                       "--seed", 999) == 0
        assert file_sha256(out_b / "model.json") != model_a

    def test_fit_continues_the_selected_candidate(self, sample_all, tmp_path):
        """With k from search.json, fit uses the selected candidate's own
        seed, so model.json is that candidate run on to ``fit.rel_tol``."""
        config, out = sample_all
        cfg = load_config(config)
        result = ModelSearchResult.load(out / "search.json")
        k = result.selected_k
        [chosen] = [c for c in result.candidates if c.k == k]
        model = read_json(out / "model.json")
        assert f"seed:{model['config']['seed']}" == chosen.fit_ref
        built, sub = _design_and_subset(cfg, Corpus.load(out / "corpus.json"))
        direct = fit(sub, built, FitConfig(k, cfg.seed ^ k, cfg.max_em_iters, cfg.rel_tol,
                                           cfg.ridge_gamma, cfg.sigma_floor))
        assert direct.save(tmp_path / "model.json").read_bytes() == \
            (out / "model.json").read_bytes()

    def test_fit_under_another_seed_than_search_rejected(self, sample_all, tmp_path,
                                                         capsys):
        """search.json scored its candidates under the config's seed, so a
        fit with k from it under another seed would be none of them: it
        exits 1 before fitting and names both seeds."""
        config, out = sample_all
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        k = ModelSearchResult.load(copy / "search.json").selected_k
        scored = load_config(config).seed ^ k
        before = (copy / "model.json").read_bytes()
        capsys.readouterr()
        assert run_cli("fit", "--config", config, "--out", copy, "--seed", 5) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["violations"] == [
            f"{copy / 'search.json'} scored k={k} with seed:{scored}, but seed 5 "
            f"continues it with seed:{5 ^ k}; rerun search"]
        assert (copy / "model.json").read_bytes() == before


def effects_bytes(out: Path) -> dict[str, bytes]:
    """Every file the effects stage wrote to ``out``, manifest included."""
    written = [*sorted((out / "effects").iterdir()), out / "effects.manifest.json"]
    return {path.name: path.read_bytes() for path in written}


class TestModelSidecar:
    """``nu`` is not saved: fit writes ``model.json`` alone, and no stage
    reads a ``model.nu.npy`` left in the output directory, such as one an
    earlier version wrote."""

    def test_fit_writes_model_json_only(self, sample_all):
        _, out = sample_all
        outputs = read_json(out / "fit.manifest.json")["outputs"]
        assert set(outputs) == {"model.json"}
        assert not (out / "model.nu.npy").exists()
        for stage in ("metrics", "effects", "report"):
            inputs = read_json(out / f"{stage}.manifest.json")["inputs"]
            assert "model" in inputs and "model_nu" not in inputs

    def test_metrics_and_report_do_not_read_sidecar(self, sample_all, tmp_path):
        config, out = sample_all
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        (copy / "model.nu.npy").write_bytes(b"not an array")
        for stage in ("metrics", "report"):
            assert run_cli(stage, "--config", config, "--out", copy) == 0
            manifest = read_json(copy / f"{stage}.manifest.json")
            assert "model_nu" not in manifest["inputs"]
            assert "model" in manifest["inputs"]
            for rel, digest in manifest["outputs"].items():
                assert file_sha256(out / rel) == digest, rel

    @pytest.mark.parametrize("sidecar", [
        lambda n_docs: b"not an array",
        lambda n_docs: np.full((n_docs, 3), np.nan),            # corrupt
        lambda n_docs: np.tile([2.0, 0.0, 2.0], (n_docs, 1)),  # stale: another nu
    ], ids=["garbage", "nan", "stale"])
    def test_sidecar_leaves_effects_unchanged(self, sample_all, tmp_path, sidecar):
        """The effects stage recomputes ``nu`` from ``model.json`` and the
        corpus, so its outputs and manifest are those of a run without the
        file, byte for byte."""
        config, out = sample_all
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        value = sidecar(len(read_json(copy / "model.json")["doc_ids"]))
        if isinstance(value, bytes):
            (copy / "model.nu.npy").write_bytes(value)
        else:
            np.save(copy / "model.nu.npy", value)
        shutil.rmtree(copy / "effects")
        assert run_cli("effects", "--config", config, "--out", copy) == 0
        expected = effects_bytes(out)
        manifest = json.loads(expected.pop("effects.manifest.json"))
        manifest["inputs"] = {name: {**entry, "path": entry["path"].replace(str(out), str(copy))}
                              for name, entry in manifest["inputs"].items()}
        actual = effects_bytes(copy)
        assert json.loads(actual.pop("effects.manifest.json")) == manifest
        assert actual == expected

    @pytest.mark.parametrize("name, stage", [
        ("model.json", "report"),
        ("corpus.json", "metrics"),
        ("corpus.indices.npy", "fit"),
    ])
    def test_truncated_artifact_exit_is_structured(self, sample_all, tmp_path,
                                                   capsys, name, stage):
        """A file cut to half its bytes fails as CorruptArtifact naming it,
        not as a decoder traceback."""
        config, out = sample_all
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        data = (copy / name).read_bytes()
        (copy / name).write_bytes(data[:len(data) // 2])
        capsys.readouterr()
        assert run_cli(stage, "--config", config, "--out", copy) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CorruptArtifact"
        assert str(copy / name) in err["message"]


class TestModelAgainstCorpus:
    """The effects stage recomputes ``nu`` from the model and the corpus, so
    a model that was not fitted to the corpus rows the formula keeps, under
    the formula's design columns, fails before anything is drawn or
    written."""

    @staticmethod
    def edit_model(copy: Path, key: str) -> None:
        obj = read_json(copy / "model.json")
        obj[key][0] = "ZZZ_1_1999" if key == "doc_ids" else "zzzz"
        (copy / "model.json").write_text(json.dumps(obj))

    @pytest.mark.parametrize("fault, error, named", [
        ("vocabulary", "DimensionMismatch", "vocabulary"),
        ("doc_ids", "DimensionMismatch", "documents the formula keeps"),
        ("formula", "ConfigError", "formula gives the design columns"),
    ], ids=["vocabulary", "doc_ids", "formula"])
    def test_mismatch_exit_is_structured(self, sample_all, tmp_path, capsys,
                                         fault, error, named):
        config, out = sample_all
        shutil.copytree(config.parent, tmp_path / "sample")
        config = tmp_path / "sample" / "config.json"
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        set_setting(config, "paths.out_dir", str(copy))
        if fault == "formula":
            set_setting(config, "formula", "s(year,df=5) + region + conflict")
        else:
            self.edit_model(copy, fault)
        before = effects_bytes(copy)
        capsys.readouterr()
        assert run_cli("effects", "--config", config) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error
        assert named in err["message"]
        if fault != "formula":
            assert str(copy / "model.json") in err["message"]
            assert str(copy / "corpus.json") in err["message"]
        assert effects_bytes(copy) == before

    def test_reingested_corpus_fails_metrics(self, sample_all, tmp_path, capsys):
        """A corpus re-ingested under other settings after the fit is a
        DimensionMismatch in metrics too, before any metrics file is
        written."""
        config, out = sample_all
        shutil.copytree(config.parent, tmp_path / "sample")
        config = tmp_path / "sample" / "config.json"
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        set_setting(config, "paths.out_dir", str(copy))
        set_setting(config, "preprocess.min_term_len", 7)
        assert run_cli("ingest", "--config", config) == 0
        metrics_files = ["topic_summaries.json", "model_quality.json",
                         "top_words.txt", "metrics.manifest.json"]
        for name in metrics_files:
            (copy / name).unlink()
        capsys.readouterr()
        assert run_cli("metrics", "--config", config) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DimensionMismatch"
        assert "vocabulary" in err["message"]
        assert not [name for name in metrics_files if (copy / name).exists()]


class TestMetricsStage:
    def test_scores_rows_the_model_was_fitted_to(self, tmp_path):
        """With one document's covariate blank, the formula drops it, so
        the model never saw it and metrics does not score it."""
        config, out = copy_sample(tmp_path)
        meta = config.parent / "metadata.csv"
        header, first, *rest = meta.read_text().splitlines()
        cells = first.split(",")
        cells[header.split(",").index("conflict")] = ""
        meta.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        obj = json.loads(config.read_text())
        del obj["fit"]["k_grid"]
        obj["fit"].update(k=3, max_em_iters=5)
        config.write_text(json.dumps(obj))
        for stage in ("ingest", "fit", "metrics"):
            assert run_cli(stage, "--config", config) == 0
        cfg = load_config(config)
        corpus = Corpus.load(out / "corpus.json")
        _, sub = _design_and_subset(cfg, corpus)
        assert sub.n_docs == corpus.n_docs - 1
        beta = FittedModel.load(out / "model.json").beta
        written = (out / "model_quality.json").read_text(encoding="utf-8")
        assert written == dumps_canonical(
            model_quality(beta, sub, m=cfg.coherence_m, frex_w=cfg.frex_w))
        assert written != dumps_canonical(
            model_quality(beta, corpus, m=cfg.coherence_m, frex_w=cfg.frex_w))

    def test_term_held_only_by_dropped_rows(self, tmp_path):
        """The sample with ``conflict`` blank for every speech holding
        ``mediat``: the formula drops them all, so no scored row holds the
        term. Its lift is 0, not inf, and ``all`` exits 0."""
        config, out = copy_sample(tmp_path)
        assert run_cli("ingest", "--config", config) == 0
        corpus = Corpus.load(out / "corpus.json")
        term = corpus.vocabulary.index("mediat")
        holders = {corpus.doc_ids[d] for d in range(corpus.n_docs)
                   if term in corpus.indices[corpus.indptr[d]:corpus.indptr[d + 1]]}
        assert len(holders) == 15
        meta = config.parent / "metadata.csv"
        header, *lines = meta.read_text().splitlines()
        col = header.split(",").index("conflict")
        rows = [line.split(",") for line in lines]
        for cells in rows:
            if cells[0] in holders:
                cells[col] = ""
        meta.write_text("\n".join([header] + [",".join(c) for c in rows]) + "\n")
        assert run_cli("all", "--config", config) == 0
        topics = read_json(out / "topic_summaries.json")["topics"]
        ranked = [pair for topic in topics for pair in topic["top_lift"]]
        assert all(math.isfinite(value) for _, value in ranked)
        assert "mediat" not in {word for word, _ in ranked}

    def test_non_finite_value_exit_is_structured(self, sample_all, tmp_path, capsys,
                                                 monkeypatch):
        """A NaN that reaches ``write_json`` through a stage fails as
        NonFiniteArtifact naming the file, which is not written, not as an
        encoder traceback."""
        config, out = sample_all
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        (copy / "model_quality.json").unlink()
        quality = cli.model_quality
        monkeypatch.setattr(cli, "model_quality", lambda *a, **kw: replace(
            quality(*a, **kw), mean_coherence=float("nan")))
        capsys.readouterr()
        assert run_cli("metrics", "--config", config, "--out", copy) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NonFiniteArtifact"
        assert str(copy / "model_quality.json") in err["message"]
        assert not (copy / "model_quality.json").exists()


class TestCorpusSidecars:
    """The CSR triple of ``corpus.json`` lives in three ``.npy`` sidecars;
    ingest lists them as outputs and every stage that loads the corpus
    hashes them as inputs."""

    SIDECARS = {"corpus_indptr": "corpus.indptr.npy",
                "corpus_indices": "corpus.indices.npy",
                "corpus_counts": "corpus.counts.npy"}
    STAGES = ("search", "fit", "metrics", "effects")

    def test_ingest_lists_sidecars_as_outputs(self, sample_all):
        _, out = sample_all
        outputs = read_json(out / "ingest.manifest.json")["outputs"]
        for name in self.SIDECARS.values():
            assert outputs[name] == file_sha256(out / name)

    def test_downstream_stages_hash_sidecars(self, sample_all):
        _, out = sample_all
        for stage in self.STAGES:
            inputs = read_json(out / f"{stage}.manifest.json")["inputs"]
            assert Path(inputs["corpus"]["path"]) == out / "corpus.json"
            for key, name in self.SIDECARS.items():
                assert Path(inputs[key]["path"]) == out / name
                assert inputs[key]["sha256"] == file_sha256(out / name)
        assert not set(self.SIDECARS) & set(
            read_json(out / "report.manifest.json")["inputs"])

    @pytest.mark.parametrize("name, stage", [
        ("corpus.indptr.npy", "search"),
        ("corpus.indices.npy", "fit"),
        ("corpus.counts.npy", "effects"),
    ])
    def test_missing_sidecar_exit_is_structured(self, sample_all, tmp_path, capsys,
                                                name, stage):
        config, out = sample_all
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        (copy / name).unlink()
        capsys.readouterr()
        assert run_cli(stage, "--config", config, "--out", copy) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MissingArtifact"
        assert str(copy / name) in err["message"]


class TestEffectsStage:
    def test_posterior_factored_once_per_stage(self, sample_all, tmp_path,
                                               monkeypatch):
        """The sample's four estimates share one draw loop, so the stage
        factors the documents' posterior covariances once."""
        config, out = sample_all
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        calls = []
        factor_stack = effects._factor_stack

        def counting(mats):
            calls.append(mats.shape)
            return factor_stack(mats)

        monkeypatch.setattr(effects, "_factor_stack", counting)
        assert run_cli("effects", "--config", config, "--out", copy) == 0
        estimates = list((copy / "effects").glob("*.json"))
        assert len(estimates) == 4
        assert len(calls) == 1

    def test_design_built_once_per_stage(self, sample_all, tmp_path, monkeypatch):
        """The draws reuse the design the stage built to check and
        recompute the model, so the stage builds it once."""
        config, out = sample_all
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        calls = []
        build_design = cli.build_design

        def counting(formula, table):
            calls.append(formula)
            return build_design(formula, table)

        # under both names bench/tracer.py wraps; effects.py itself binds none
        monkeypatch.setattr(cli, "build_design", counting)
        monkeypatch.setattr(effects, "build_design", counting, raising=False)
        assert run_cli("effects", "--config", config, "--out", copy) == 0
        assert len(calls) == 1


class TestContrastLevels:
    """A contrast level the fitted design cannot encode is a ConfigError
    before any draw, and the stage writes nothing."""

    REGION = {"covariate": "region", "topics": [0], "contrast": ["Narnia", "EAS"]}
    CONFLICT = {"covariate": "conflict", "topics": [0], "contrast": ["yes", 0]}
    REGION_ERROR = ("effects.targets[{i}].contrast level 'Narnia' is not a level "
                    "of 'region' in the fitted design")
    CONFLICT_ERROR = ("effects.targets[{i}].contrast level 'yes' is not a number, "
                      "but 'conflict' is numeric")

    @pytest.mark.parametrize("targets, errors", [
        ([REGION], [REGION_ERROR]),
        ([CONFLICT], [CONFLICT_ERROR]),
        ([REGION, CONFLICT], [REGION_ERROR, CONFLICT_ERROR]),
    ], ids=["unseen-level", "non-numeric", "both"])
    def test_exit_is_structured(self, sample_all, tmp_path, capsys, targets, errors):
        config, out = TestTopicsAgainstModel.copy_run(sample_all, tmp_path)
        obj = json.loads(config.read_text())
        obj["effects"]["targets"] = [obj["effects"]["targets"][0], *targets]
        config.write_text(json.dumps(obj))
        before = effects_bytes(out)
        capsys.readouterr()
        assert run_cli("effects", "--config", config) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["violations"] == [e.format(i=i + 1) for i, e in enumerate(errors)]
        assert effects_bytes(out) == before


class TestTopicsAgainstModel:
    """A configured topic the fitted model does not have is a ConfigError
    once the stage has loaded the model, before it writes anything."""

    @staticmethod
    def copy_run(sample_all, tmp_path):
        config, out = sample_all
        shutil.copytree(config.parent, tmp_path / "sample")
        shutil.copytree(out, tmp_path / "out")
        config = tmp_path / "sample" / "config.json"
        set_setting(config, "paths.out_dir", str(tmp_path / "out"))
        return config, tmp_path / "out"

    @pytest.mark.parametrize("stage, name, value, key", [
        ("effects", "effects.targets[0].topics", [0, 9], "effects.targets[0].topics"),
        ("report", "report.wordcloud_topics", [0, 9], "report.wordcloud_topics"),
        ("report", "report.perspectives", [[0, 9]], "report.perspectives[0]")])
    def test_topic_beyond_k_exit_is_structured(self, sample_all, tmp_path, capsys,
                                               stage, name, value, key):
        config, out = self.copy_run(sample_all, tmp_path)
        k = read_json(out / "search.json")["selected_k"]
        assert k < 9
        set_setting(config, name, value)
        shutil.rmtree(out / stage)
        capsys.readouterr()
        assert run_cli(stage, "--config", config) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["violations"] == [f"{key} names topic 9, but the model has k={k}"]
        assert not (out / stage).exists()

    def test_covariate_absent_from_formula_exit_is_structured(self, sample_run, capsys):
        config, _ = sample_run
        set_setting(config, "effects.targets[0].covariate", "gdp_pc")
        assert run_cli("effects", "--config", config) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["violations"] == [
            "effects.targets[0].covariate 'gdp_pc' does not appear in the formula"]


def test_spline_on_text_column_exit_is_structured(sample_run, capsys):
    # doc_id is a text column that the formula grammar does not know, so only
    # the design build, at search, can see that it holds text
    config, out = sample_run
    set_setting(config, "formula", "s(doc_id,df=4) + year + conflict")
    assert run_cli("ingest", "--config", config) == 0
    capsys.readouterr()
    assert run_cli("search", "--config", config) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "NonNumericSpline",
                   "message": "spline term on non-numeric column 'doc_id'"}
    assert not (out / "search.json").exists()


def test_spline_on_categorical_covariate_rejected_before_ingest(sample_run, capsys):
    config, out = sample_run
    set_setting(config, "formula", "s(region,df=4) + year + conflict")
    assert run_cli("ingest", "--config", config) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["violations"] == ["formula has a spline term on 'region', which is "
                                 "categorical"]
    assert not (out / "corpus.json").exists()


class TestTopNAgainstVocabulary:
    """A top-n count larger than the vocabulary is a ConfigError once the
    stage knows the vocabulary: before search fits anything, and before
    metrics or report writes a file."""

    @pytest.mark.parametrize("stage, name, outputs", [
        ("search", "metrics.coherence_m", ["search.json", "search_points.csv"]),
        ("metrics", "metrics.coherence_m",
         ["topic_summaries.json", "model_quality.json", "top_words.txt"]),
        ("report", "report.wordcloud_n", ["report"])])
    def test_exit_is_structured(self, sample_all, tmp_path, capsys, monkeypatch,
                                stage, name, outputs):
        config, out = TestTopicsAgainstModel.copy_run(sample_all, tmp_path)
        n_terms = len(read_json(out / "corpus.json")["vocabulary"])
        set_setting(config, name, 100000)
        for output in outputs:
            path = out / output
            shutil.rmtree(path) if path.is_dir() else path.unlink()
        # a candidate fit would fail as CandidateFailed, not as ConfigError
        monkeypatch.setattr(importlib.import_module("agendascope.search"), "fit", None)
        capsys.readouterr()
        assert run_cli(stage, "--config", config) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["violations"] == [
            f"{name} is 100000, but the vocabulary has {n_terms} terms"]
        assert not any((out / output).exists() for output in outputs)

    def test_k_grid_above_vocabulary_before_any_fit(self, sample_all, tmp_path, capsys,
                                                    monkeypatch):
        """A fit.k_grid value above the vocabulary size fails before the
        first candidate fit, not as CandidateFailed after the smaller ones."""
        config, out = TestTopicsAgainstModel.copy_run(sample_all, tmp_path)
        n_terms = len(read_json(out / "corpus.json")["vocabulary"])
        set_setting(config, "fit.k_grid", [3, 4, 500])
        for name in ("search.json", "search_points.csv"):
            (out / name).unlink()
        search_module = importlib.import_module("agendascope.search")
        calls = []
        fit = search_module.fit
        monkeypatch.setattr(search_module, "fit",
                            lambda *a, **kw: calls.append(a) or fit(*a, **kw))
        capsys.readouterr()
        assert run_cli("search", "--config", config) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["violations"] == [
            f"fit.k_grid is 500, but the vocabulary has {n_terms} terms"]
        assert not (out / "search.json").exists()
        assert calls == []

    def test_top_words_one_above_vocabulary(self, sample_all, tmp_path, capsys):
        """metrics.top_words one above the vocabulary size fails before
        the metrics stage writes a file, not as lists padded with blanks."""
        config, out = TestTopicsAgainstModel.copy_run(sample_all, tmp_path)
        n_terms = len(read_json(out / "corpus.json")["vocabulary"])
        set_setting(config, "metrics.top_words", n_terms + 1)
        (out / "topic_summaries.json").unlink()
        capsys.readouterr()
        assert run_cli("metrics", "--config", config) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["violations"] == [
            f"metrics.top_words is {n_terms + 1}, but the vocabulary has {n_terms} terms"]
        assert not (out / "topic_summaries.json").exists()


def _index_out_of_range(copy: Path, obj: dict) -> str:
    """Write a term index equal to the vocabulary size into the indices
    sidecar of ``obj``, the corpus.json value; returns the sidecar's name."""
    sidecar = copy / "corpus.indices.npy"
    indices = np.load(sidecar).astype(np.int64)
    indices[0] = len(obj["vocabulary"])
    np.save(sidecar, indices)
    return sidecar.name


class TestMalformedArtifacts:
    """An artifact with a missing key or counts that do not fit the corpus
    fails as CorruptArtifact naming the file, not as a KeyError; a
    corpus.json of an older layout, without sidecars, as MissingArtifact."""

    @pytest.mark.parametrize("name, stage, edit, reason", [
        ("corpus.json", "metrics", lambda c, o: o.pop("docs"), "missing key 'docs'"),
        ("corpus.json", "metrics", lambda c, o: _index_out_of_range(c, o),
         "a term index lies outside [0, "),
        ("corpus.json", "metrics", lambda c, o: o["covariates"].reverse(),
         "covariate record 0 is for 'ZWE_67_2012', not document 'AFG_56_2001'"),
        ("model.json", "report", lambda c, o: o.pop("beta"), "missing key 'beta'"),
        ("search.json", "fit", lambda c, o: o.pop("selected_k"), "missing key 'selected_k'"),
        ("model.json", "effects", lambda c, o: o["sigma"][0].__setitem__(0, -o["sigma"][0][0]),
         "sigma is not positive definite"),
        ("model.json", "effects", lambda c, o: o["sigma"][0].__setitem__(1, o["sigma"][0][1] + 1e-3),
         "sigma is not symmetric"),
    ])
    def test_exit_is_structured(self, sample_all, tmp_path, capsys, name, stage,
                                edit, reason):
        """``edit`` changes the JSON value of ``name``, or rewrites a
        sidecar and returns its name; the error names that file."""
        config, out = sample_all
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        obj = read_json(copy / name)
        edited = edit(copy, obj)
        (copy / name).write_text(json.dumps(obj))
        capsys.readouterr()
        assert run_cli(stage, "--config", config, "--out", copy) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CorruptArtifact"
        named = copy / (edited if isinstance(edited, str) else name)
        assert err["message"].startswith(f"corrupt artifact {named}: {reason}")

    @staticmethod
    def csr_lists(obj: dict, indptr: list, indices: list, counts: list) -> None:
        """The layout before the sidecars: the CSR triple as flat int lists."""
        obj.update(indptr=indptr, indices=indices, counts=counts)

    @staticmethod
    def per_document_pairs(obj: dict, indptr: list, indices: list, counts: list) -> None:
        """The layout before that: per-document [[term, count], ...] pairs."""
        for d, entry in enumerate(obj["docs"]):
            span = range(indptr[d], indptr[d + 1])
            entry["terms"] = [[indices[i], counts[i]] for i in span]

    @pytest.mark.parametrize("layout", [csr_lists, per_document_pairs],
                             ids=["csr_lists", "pairs"])
    def test_older_layout_is_missing_artifact(self, sample_all, tmp_path,
                                              capsys, layout):
        """A corpus.json that holds its counts in the JSON, with no
        sidecars, fails as MissingArtifact naming the first sidecar."""
        config, out = sample_all
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        obj = read_json(copy / "corpus.json")
        sidecars = [copy / f"corpus.{key}.npy" for key in ("indptr", "indices", "counts")]
        layout(obj, *(np.load(sidecar).tolist() for sidecar in sidecars))
        (copy / "corpus.json").write_text(json.dumps(obj))
        for sidecar in sidecars:
            sidecar.unlink()
        capsys.readouterr()
        assert run_cli("metrics", "--config", config, "--out", copy) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MissingArtifact"
        assert err["message"] == ("missing upstream artifact from stage 'ingest' "
                                  f"(expected at {sidecars[0]})")


class TestConfig:
    def test_all_violations_reported_at_once(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "paths": {"corpus_dir": "x"},
            "fit": {"k": 1, "k_grid": [2, 3, 4]},
            "formula": "s(gdp_pc,df=2)",
            "effects": {"n_draws": 5},
            "seed": "not-an-int",
        }))
        with pytest.raises(ConfigError) as err:
            load_config(bad)
        text = str(err.value)
        assert "paths.metadata" in text
        assert "paths.out_dir" in text
        assert "exactly one" in text
        assert "formula" in text
        assert "n_draws" in text
        assert "seed" in text

    def test_misspelled_hold_rejected(self, sample_run):
        config, _ = sample_run
        obj = json.loads(config.read_text())
        obj["effects"]["targets"][0]["hold"] = "observerd"
        config.write_text(json.dumps(obj))
        with pytest.raises(ConfigError) as err:
            load_config(config)
        assert any("targets[0].hold" in v for v in err.value.violations)

    @pytest.mark.parametrize("key, value", [
        ("max_em_iters", 0), ("max_em_iters", 2.5), ("rel_tol", 0),
        ("rel_tol", "1e-5"), ("ridge_gamma", -1.0), ("sigma_floor", 0.0),
        ("candidate_rel_tol", -1e-4), ("rel_tol", float("inf")),
        ("rel_tol", float("nan")), ("ridge_gamma", float("inf")),
        ("ridge_gamma", float("nan")), ("sigma_floor", float("inf")),
        ("sigma_floor", float("nan")), ("candidate_rel_tol", float("inf")),
        ("candidate_rel_tol", float("nan"))])
    def test_out_of_range_fit_value_rejected(self, sample_run, key, value):
        config, _ = sample_run
        obj = json.loads(config.read_text())
        obj["fit"][key] = value
        config.write_text(json.dumps(obj))
        with pytest.raises(ConfigError) as err:
            load_config(config)
        assert [v for v in err.value.violations if v.startswith(f"fit.{key} ")]

    @pytest.mark.parametrize("name, value", [
        ("report.graph_threshold", "0.1"), ("effects.targets[0].topics", 1),
        ("effects.targets[1].contrast", 1), ("metrics.frex_w", 2.0),
        ("metrics.coherence_m", 1), ("effects.targets[0].grid_points", 0),
        ("preprocess.min_doc_freq", "5"), ("threads", "2"),
        ("preprocess.min_term_len", "3"), ("metrics.top_words", 0),
        ("report.wordcloud_n", "50"), ("report.wordcloud_topics", [0, "1"]),
        ("report.perspectives", [[0]]), ("deterministic", "yes"), ("seed", -1),
        ("report.perspectives", [[1, 1]])])
    def test_bad_value_collected(self, sample_run, name, value):
        config, _ = sample_run
        set_setting(config, name, value)
        with pytest.raises(ConfigError) as err:
            load_config(config)
        [violation] = err.value.violations
        assert violation.startswith(f"{name} ")

    @pytest.mark.parametrize("name, value", [
        ("fit.max_em_iter", 200), ("sead", 1), ("metric", {"top_words": 12}),
        ("effects.targets[0].grid_point", 25)])
    def test_unknown_key_rejected(self, sample_run, name, value):
        config, _ = sample_run
        set_setting(config, name, value)
        with pytest.raises(ConfigError) as err:
            load_config(config)
        assert err.value.violations == [f"{name} is not a known setting"]

    def test_zero_rel_tol_exit_is_structured(self, sample_run, capsys):
        config, _ = sample_run
        obj = json.loads(config.read_text())
        obj["fit"] = {"k": 5, "rel_tol": 0}
        config.write_text(json.dumps(obj))
        assert run_cli("fit", "--config", config) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["violations"] == ["fit.rel_tol must be a number > 0"]

    def test_search_with_fixed_k_exit_is_structured(self, sample_run, capsys):
        config, _ = sample_run
        set_setting(config, "fit", {"k": 3})
        assert run_cli("search", "--config", config) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["violations"] == ["search stage requires fit.k_grid"]

    def test_relative_paths_resolve_against_config(self, sample_run):
        config, _ = sample_run
        cfg = load_config(config)
        assert Path(cfg.corpus_dir).is_dir()
        assert Path(cfg.metadata).is_file()

    def test_threads_env_fallback(self, sample_run, monkeypatch):
        """Threads come from the flag, else the file, else the env, else 1."""
        config, _ = sample_run
        monkeypatch.setenv("AGENDASCOPE_THREADS", "3")
        assert load_config(config).threads == 3
        assert load_config(config, {"threads": 2}).threads == 2
        set_setting(config, "threads", 4)
        assert load_config(config).threads == 4
        assert load_config(config, {"threads": 2}).threads == 2
        monkeypatch.delenv("AGENDASCOPE_THREADS")
        assert load_config(config).threads == 4
        obj = json.loads(config.read_text())
        del obj["threads"]
        config.write_text(json.dumps(obj))
        assert load_config(config).threads == 1

    def test_non_integer_threads_env_reported_with_others(self, sample_run, monkeypatch):
        config, _ = sample_run
        set_setting(config, "seed", -1)
        monkeypatch.setenv("AGENDASCOPE_THREADS", "two")
        with pytest.raises(ConfigError) as err:
            load_config(config)
        assert err.value.violations == ["AGENDASCOPE_THREADS is not an integer: 'two'",
                                        "seed must be an integer >= 0"]

    @pytest.mark.parametrize("source", ["flag", "file", "env"])
    def test_threads_below_one_rejected(self, sample_run, monkeypatch, capsys, source):
        config, _ = sample_run
        args = ["ingest", "--config", config]
        if source == "flag":
            args += ["--threads", 0]
        elif source == "file":
            set_setting(config, "threads", -1)
        else:
            monkeypatch.setenv("AGENDASCOPE_THREADS", "0")
        assert run_cli(*args) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["violations"] == ["threads must be an integer >= 1"]

    def test_out_override_leaves_config_out_dir_alone(self, tmp_path, monkeypatch):
        work = tmp_path / "sample"
        shutil.copytree(SAMPLE, work)
        monkeypatch.chdir(tmp_path)
        assert run_cli("ingest", "--config", work / "config.json", "--out", "o2") == 0
        assert (tmp_path / "o2" / "corpus.json").is_file()
        assert not (tmp_path / "out").exists()  # the config file's out_dir

    def test_unwritable_out_is_violation(self, sample_run, tmp_path, capsys):
        config, out = sample_run
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert run_cli("ingest", "--config", config, "--out", blocker / "o") == 1
        [violation] = json.loads(capsys.readouterr().err)["violations"]
        assert violation.startswith("paths.out_dir is not writable: ")
        assert not out.exists()

    def test_readme_config_block_loads(self, tmp_path, monkeypatch):
        """The README's run-configuration block shows every key of the
        settings table at its default, so the two cannot drift apart."""
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"### Run configuration\s+```json\n(.*?)```", readme, re.S)[1]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(block)
        cfg = load_config(tmp_path / "config.json")
        obj = json.loads(block)
        shown = set(_flatten(obj, []))
        assert shown | {"fit.k"} == set(_SETTINGS)  # fit.k excludes fit.k_grid
        assert {key for t in obj["effects"]["targets"] for key in t} == set(_TARGET_SETTINGS)
        for f in fields(RunConfig):
            if f.default not in (MISSING, None):
                assert getattr(cfg, f.name) == f.default, f.name

    def test_config_error_exit_is_structured(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"paths": {}}))
        code = run_cli("ingest", "--config", bad)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert isinstance(err["violations"], list)

    def test_non_object_config_is_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1]")
        code = run_cli("ingest", "--config", bad)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["violations"] == ["the config file must hold a JSON object"]

    def test_non_json_config_is_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": 1')
        assert run_cli("ingest", "--config", bad) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        [violation] = err["violations"]
        assert violation.startswith("the config file is not valid JSON: ")

    @pytest.mark.parametrize("make", [lambda path: None, Path.mkdir],
                             ids=["missing", "directory"])
    def test_unreadable_config_is_violation(self, tmp_path, capsys, make):
        path = tmp_path / "config.json"
        make(path)
        assert run_cli("ingest", "--config", path) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        [violation] = err["violations"]
        assert violation.startswith("the config file cannot be read: ")
        assert str(path) in violation

    @pytest.mark.parametrize("name", ["paths.metadata", "preprocess.stopword_file"])
    def test_unreadable_input_exit_is_structured(self, sample_run, capsys, name):
        """An input file that cannot be opened exits 1 with the error's type
        and message as JSON, not a traceback."""
        config, _ = sample_run
        set_setting(config, name, "absent.txt")
        assert run_cli("ingest", "--config", config) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "FileNotFoundError", "message": err["message"]}
        assert str(config.parent / "absent.txt") in err["message"]

    def test_each_setting_declared_once(self):
        """Every fit setting but k, and every preprocessing setting but the
        stopwords, is the run setting of the same name with the same
        default, so the stages pass it on; and the other run defaults that
        stand for a library default are that default."""
        run = {f.name: f.default for f in fields(RunConfig)}
        for cls, given in ((FitConfig, "k"), (PreprocessConfig, "stopwords")):
            for f in fields(cls):
                if f.name != given:
                    assert f.name in run and run[f.name] == f.default, f.name

        def default(func, name):
            return inspect.signature(func).parameters[name].default

        assert {name: run[name] for name in ("coherence_m", "top_words",
                                             "graph_threshold")} == {
            "coherence_m": default(model_quality, "m"),
            "top_words": default(summarize_topics, "n_words"),
            "graph_threshold": default(topic_graph, "threshold"),
        }


def test_readme_library_block_runs(sample_all, tmp_path, monkeypatch):
    """The README's library example runs as shown, in a copy of the sample
    beside the output of a CLI ``all`` run, so the public API it shows
    cannot drift."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\s+```python\n(.*?)```", readme, re.S)[1]
    config, out = sample_all
    shutil.copytree(config.parent, tmp_path / "sample")
    shutil.copytree(out, tmp_path / "sample" / "out")
    monkeypatch.chdir(tmp_path / "sample")
    names: dict = {}
    exec(compile(block, "README.md", "exec"), names)
    loaded, model = names["loaded"], names["model"]
    assert names["loaded_nu"].shape == (names["sub"].n_docs, loaded.k - 1, loaded.k - 1)
    assert model.k == names["result"].selected_k


def test_sample_generator_reproduces_the_fixture(tmp_path, monkeypatch):
    """tools/make_sample_fixture.py rewrites the committed sample byte for
    byte, so the fixture can be regenerated without a diff."""
    spec = importlib.util.spec_from_file_location(
        "make_sample_fixture", ROOT / "tools" / "make_sample_fixture.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "SAMPLE", tmp_path)
    tool.main()
    committed = {p.relative_to(SAMPLE): p.read_bytes() for p in SAMPLE.rglob("*") if p.is_file()}
    written = {p.relative_to(tmp_path): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert sorted(written) == sorted(committed)
    assert [rel for rel in committed if written[rel] != committed[rel]] == []


def test_tracer_sees_every_layer(sample_run, tmp_path):
    """The benchmark tracer wraps module globals of the program; a refactor
    that bypasses them would silently zero its layer metrics."""
    config, _ = sample_run
    spans_path = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans_path),
         "all", "--config", str(config)],
        env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(spans_path.read_text())
    names = {span["name"] for span in payload["spans"]}
    assert {"corpus.load_ungdc_layout", "corpus.build_corpus", "corpus.tokenize",
            "jsonio.corpus_save", "jsonio.corpus_load", "jsonio.model_save",
            "jsonio.model_load", "manifest.write_manifest", "stm.fit",
            "search.search"} <= names
    assert payload["counters"].get("porter.stem.calls", 0) > 0


# Registers an exit handler before anything of the package is imported.
# atexit runs handlers last-in, first-out, so this one runs after any that
# the import or ``main`` registers, and sees their effect.
FREEZE_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("freeze count", gc.get_freeze_count()))
import agendascope.cli
if sys.argv[1:]:
    sys.exit(agendascope.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("run_main", [False, True], ids=["import", "main"])
def test_main_freezes_heap_at_exit(tmp_path, run_main):
    """``main`` leaves the heap frozen for interpreter teardown, even when
    its stage fails; importing ``agendascope.cli`` alone registers nothing."""
    config = tmp_path / "config.json"
    config.write_text("[]")
    args = ["ingest", "--config", str(config)] if run_main else []
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", FREEZE_PROBE, *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == (1 if run_main else 0), proc.stderr
    count = int(proc.stdout.split()[-1])
    assert count > 0 if run_main else count == 0
