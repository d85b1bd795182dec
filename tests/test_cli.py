"""Pipeline CLI: stage wiring, manifests, determinism, config validation."""

import json
import shutil
from importlib import resources
from pathlib import Path

import pytest

from agendascope.cli import main
from agendascope.config import load_config
from agendascope.errors import ConfigError
from agendascope.jsonio import read_json
from agendascope.manifest import file_sha256

SAMPLE = Path(str(resources.files("agendascope").joinpath("data/sample")))


@pytest.fixture()
def sample_run(tmp_path):
    """Copy of the bundled sample with a tmp output directory."""
    work = tmp_path / "sample"
    shutil.copytree(SAMPLE, work)
    cfg = json.loads((work / "config.json").read_text())
    cfg["paths"]["out_dir"] = str(tmp_path / "out")
    (work / "config.json").write_text(json.dumps(cfg))
    return work / "config.json", tmp_path / "out"


def run_cli(*args) -> int:
    return main([str(a) for a in args])


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

    def test_manifest_lists_every_output_with_hash(self, sample_run):
        config, out = sample_run
        assert run_cli("ingest", "--config", config) == 0
        manifest = read_json(out / "ingest.manifest.json")
        assert set(manifest["outputs"]) == {"corpus.json", "ingest_report.json"}
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
        ("candidate_rel_tol", -1e-4)])
    def test_out_of_range_fit_value_rejected(self, sample_run, key, value):
        config, _ = sample_run
        obj = json.loads(config.read_text())
        obj["fit"][key] = value
        config.write_text(json.dumps(obj))
        with pytest.raises(ConfigError) as err:
            load_config(config)
        assert [v for v in err.value.violations if v.startswith(f"fit.{key} ")]

    def test_zero_rel_tol_exit_is_structured(self, sample_run, capsys):
        config, _ = sample_run
        obj = json.loads(config.read_text())
        obj["fit"] = {"k": 5, "rel_tol": 0}
        config.write_text(json.dumps(obj))
        assert run_cli("fit", "--config", config) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["violations"] == ["fit.rel_tol must be a number > 0"]

    def test_relative_paths_resolve_against_config(self, sample_run):
        config, _ = sample_run
        cfg = load_config(config)
        assert Path(cfg.corpus_dir).is_dir()
        assert Path(cfg.metadata).is_file()

    def test_threads_env_fallback(self, sample_run, monkeypatch):
        config, _ = sample_run
        monkeypatch.setenv("AGENDASCOPE_THREADS", "3")
        cfg = load_config(config)
        assert cfg.threads is None  # config leaves it to the fallback chain
        from agendascope.cli import _resolve_threads
        assert _resolve_threads(None, cfg.threads) == 3
        assert _resolve_threads(2, cfg.threads) == 2
        monkeypatch.delenv("AGENDASCOPE_THREADS")
        assert _resolve_threads(None, cfg.threads) == 1

    def test_config_error_exit_is_structured(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"paths": {}}))
        code = run_cli("ingest", "--config", bad)
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert isinstance(err["violations"], list)
