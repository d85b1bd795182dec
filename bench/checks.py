"""Output checks for one pipeline run, read from the artifacts on disk.

Every check returns a list of failure messages (empty when it passes). The
checks read the JSON artifacts directly and never import agendascope, so a
change to the program cannot change what they test. They assert invariants
that every correct fit satisfies, never values a legitimate algorithm change
could move, such as the selected K or the final bound.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

SIMPLEX_TOL = 1e-9
RECOVERY_TOP = 10


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def file_hashes(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under out_dir, keyed by relative path."""
    return {str(p.relative_to(out_dir)): sha256_file(p)
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def hash_differences(reference: dict[str, str], hashes: dict[str, str]) -> list[str]:
    """Artifacts must be byte-identical across runs of the same code."""
    differ = sorted(k for k in reference.keys() | hashes.keys()
                    if reference.get(k) != hashes.get(k))
    return [f"{', '.join(differ[:5])} differ from the first run"] if differ else []


def check_beta_simplex(model: dict) -> list[str]:
    beta = np.array(model["beta"], dtype=float)
    problems = []
    if beta.ndim != 2 or beta.size == 0:
        return [f"beta has shape {beta.shape}"]
    if (beta < 0).any() or not np.isfinite(beta).all():
        problems.append("beta has negative or non-finite entries")
    worst = float(np.abs(beta.sum(axis=1) - 1.0).max())
    if worst > SIMPLEX_TOL:
        problems.append(f"a beta row sums to 1 {worst:+.3g}")
    return problems


def check_bound_trace(model: dict) -> list[str]:
    trace = model["bound_trace"]
    if not trace:
        return ["bound_trace is empty"]
    if not all(isinstance(b, (int, float)) and math.isfinite(b) for b in trace):
        return ["bound_trace has a non-finite value"]
    return []


def check_doc_ids(model: dict, corpus: dict) -> list[str]:
    """Every generated document has complete covariates, so the model keeps
    exactly the corpus documents, in corpus order."""
    corpus_ids = [d["id"] for d in corpus["docs"]]
    problems = []
    if model["doc_ids"] != corpus_ids:
        problems.append("model.json doc_ids differ from corpus.json")
    if len(model["eta"]) != len(model["doc_ids"]):
        problems.append("model.json has eta rows for a different document count")
    return problems


def check_effects(out_dir: Path) -> list[str]:
    problems = []
    files = sorted((out_dir / "effects").glob("*.json"))
    if not files:
        return ["no effects files"]
    for path in files:
        obj = _load(path)
        if "ci" in obj:  # contrast
            rows = [(obj["ci"][0], obj["point"], obj["ci"][1])]
        else:
            rows = list(zip(obj["ci_lower"], obj["mean"], obj["ci_upper"]))
        if not rows:
            problems.append(f"{path.name}: no rows")
        for lo, mean, hi in rows:
            if not lo <= mean <= hi:
                problems.append(f"{path.name}: mean {mean} outside [{lo}, {hi}]")
                break
    return problems


def check_selected_k(search: dict, k_grid: list[int]) -> list[str]:
    selected = search["selected_k"]
    if selected not in k_grid:
        return [f"selected K {selected} not in grid {k_grid}"]
    return []


def check_manifests(out_dir: Path, stages: list[str]) -> list[str]:
    """Every stage wrote a manifest, and every hash in it matches its file."""
    problems = []
    for stage in stages:
        path = out_dir / f"{stage}.manifest.json"
        if not path.is_file():
            problems.append(f"{path.name} missing")
            continue
        manifest = _load(path)
        if not manifest["outputs"]:
            problems.append(f"{path.name}: no outputs listed")
        for rel, digest in manifest["outputs"].items():
            target = out_dir / rel
            if not target.is_file() or sha256_file(target) != digest:
                problems.append(f"{path.name}: hash of {rel} does not match")
        for name, entry in manifest["inputs"].items():
            target = Path(entry["path"])
            if target.is_file() and sha256_file(target) != entry["sha256"]:
                problems.append(f"{path.name}: hash of input {name} does not match")
    return problems


def greedy_overlap(true_tops: list[set], fit_tops: list[set]) -> int:
    """Total top-word overlap after greedily pairing true and fitted topics,
    largest overlap first (ties to the lower indices)."""
    overlap = np.array([[len(t & f) for f in fit_tops] for t in true_tops])
    total = 0
    rows, cols = set(range(len(true_tops))), set(range(len(fit_tops)))
    while rows and cols:
        i, j = max(((i, j) for i in rows for j in cols),
                   key=lambda p: (overlap[p], -p[0], -p[1]))
        total += int(overlap[i, j])
        rows.discard(i)
        cols.discard(j)
    return total


def topic_recovery(model: dict, truth: dict) -> float:
    """Share of the generating topics' top-10 words found in the fitted
    topics' top-10 words, after greedy alignment. Topic words pass through
    stemming unchanged, so fitted terms compare to the truth by spelling."""
    true_beta = np.array(truth["beta"])
    fit_beta = np.array(model["beta"])
    true_tops = [{truth["vocabulary"][i] for i in np.argsort(-row, kind="stable")[:RECOVERY_TOP]}
                 for row in true_beta]
    fit_tops = [{model["vocabulary"][i] for i in np.argsort(-row, kind="stable")[:RECOVERY_TOP]}
                for row in fit_beta]
    return greedy_overlap(true_tops, fit_tops) / (RECOVERY_TOP * len(true_tops))


def check_recovery(recovery: float, floor: float) -> list[str]:
    if not recovery >= floor:
        return [f"topic recovery {recovery:.3f} below floor {floor}"]
    return []


def output_checks(out_dir: Path, truth: dict, stages: list[str],
                  k_grid: list[int], recovery_floor: float
                  ) -> tuple[dict[str, list[str]], float]:
    """Run every artifact check on one pipeline's output directory.

    Returns ({check name: failure messages}, topic recovery). A check whose
    artifact is missing or unreadable fails with that reason.
    """
    parsed: dict[str, dict] = {}

    def art(name):
        if name not in parsed:
            parsed[name] = _load(out_dir / name)
        return parsed[name]

    recovery = 0.0

    def recovery_check():
        nonlocal recovery
        recovery = topic_recovery(art("model.json"), truth)
        return check_recovery(recovery, recovery_floor)

    checks = {
        "beta_simplex": lambda: check_beta_simplex(art("model.json")),
        "bound_trace_finite": lambda: check_bound_trace(art("model.json")),
        "doc_ids_match_corpus": lambda: check_doc_ids(art("model.json"), art("corpus.json")),
        "effects_interval_order": lambda: check_effects(out_dir),
        "selected_k_in_grid": lambda: check_selected_k(art("search.json"), k_grid),
        "manifest_hashes": lambda: check_manifests(out_dir, stages),
        "topic_recovery_floor": recovery_check,
    }
    results = {}
    for name, check in checks.items():
        try:
            results[name] = check()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            results[name] = [f"{type(exc).__name__}: {exc}"]
    return results, recovery
