"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Run from the root of a source checkout. It checks that:

- the generator is deterministic for a fixed seed, differs across seeds,
  never imports agendascope, and emits topic words that Porter stemming
  leaves unchanged;
- every output check passes on a real pipeline's artifacts and fails on a
  copy corrupted on purpose (a beta row off the simplex, a NaN bound, a
  manifest hash that no longer matches, ...);
- a stage exiting non-zero is counted as a failure;
- the speedometer samples every CPU, sees a busy process on the CPU it is
  pinned to, scales by the weighted mean chunk time inside a window, and
  stops its threads.

Exits 0 when everything holds, 1 otherwise. Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import run
import speed

SEED = 7
WORKLOAD = "speech_search"
SCRATCH = run.WORK / "selftest"


def _edit_json(path: Path, change) -> None:
    obj = json.loads(path.read_text(encoding="utf-8"))
    change(obj)
    path.write_text(json.dumps(obj), encoding="utf-8")


def _scale_beta_row(model):
    model["beta"][0] = [1.01 * v for v in model["beta"][0]]


def _nan_bound(model):
    model["bound_trace"][-1] = float("nan")


def _swap_doc_ids(model):
    model["doc_ids"][0], model["doc_ids"][1] = model["doc_ids"][1], model["doc_ids"][0]


def _uniform_beta(model):
    width = len(model["vocabulary"])
    model["beta"] = [[1.0 / width] * width for _ in model["beta"]]


def _swap_interval(effect):
    effect["ci_lower"], effect["ci_upper"] = effect["ci_upper"], effect["ci_lower"]


def _append_byte(path: Path) -> None:
    with open(path, "ab") as fh:
        fh.write(b" ")


# check name -> corruption applied to a copy of a passing output directory
CORRUPTIONS = {
    "beta_simplex": lambda out: _edit_json(out / "model.json", _scale_beta_row),
    "bound_trace_finite": lambda out: _edit_json(out / "model.json", _nan_bound),
    "doc_ids_match_corpus": lambda out: _edit_json(out / "model.json", _swap_doc_ids),
    "effects_interval_order": lambda out: _edit_json(
        out / "effects" / "effect_year_topic0.json", _swap_interval),
    "selected_k_in_grid": lambda out: _edit_json(
        out / "search.json", lambda s: s.update(selected_k=99)),
    "manifest_hashes": lambda out: _append_byte(out / "top_words.txt"),
    "topic_recovery_floor": lambda out: _edit_json(out / "model.json", _uniform_beta),
}


def test_generator(problems: list[str]) -> None:
    for workload in gen.WORKLOADS:
        first = gen.write_inputs(workload, SEED, SCRATCH / f"{workload}-a")
        again = gen.write_inputs(workload, SEED, SCRATCH / f"{workload}-b")
        other = gen.write_inputs(workload, SEED + 1, SCRATCH / f"{workload}-c")
        if gen.tree_digest(first) != gen.tree_digest(again):
            problems.append(f"{workload}: same seed gave different inputs")
        if gen.tree_digest(first) == gen.tree_digest(other):
            problems.append(f"{workload}: different seeds gave the same inputs")
    if any(name.startswith("agendascope") for name in sys.modules):
        problems.append("the generator imported agendascope")

    sys.path.insert(0, str(run.SRC))
    from agendascope import porter
    from agendascope.corpus import PreprocessConfig

    stopwords = PreprocessConfig().stopword_set()
    words = gen.topic_vocabulary(max(w["topic_words"] for w in gen.WORKLOADS.values()))
    changed = [w for w in words if porter.stem(w) != w or w in stopwords]
    if changed:
        problems.append(f"topic words changed by preprocessing: {changed[:5]}")
    fillers = {porter.stem(w) for w in gen.filler_vocabulary()}
    if fillers & set(words):
        problems.append("a filler stem collides with a topic word")


def test_checks(problems: list[str]) -> None:
    bench = run.Run(WORKLOAD, SEED, 1, traced=False)
    inputs = bench.prepare()
    bench.pipeline(inputs, 0)
    if bench.failures:
        problems += [f"clean pipeline: {f}" for f in bench.failures]
        return
    grid = bench.spec["search"]["k_grid"]
    for name, corrupt in CORRUPTIONS.items():
        copy = SCRATCH / f"corrupt-{name}"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(bench.out_dir, copy)
        corrupt(copy)
        results, _ = checks.output_checks(copy, bench.truth, list(run.STAGES),
                                          grid, bench.floor)
        if not results[name]:
            problems.append(f"{name} passed on a corrupted artifact")
    reference = checks.file_hashes(bench.out_dir)
    copy = SCRATCH / "corrupt-manifest_hashes"
    if not checks.hash_differences(reference, checks.file_hashes(copy)):
        problems.append("byte-identity check missed a changed artifact")
    if checks.hash_differences(reference, checks.file_hashes(bench.out_dir)):
        problems.append("byte-identity check flagged identical artifacts")

    proc = run.run_process([sys.executable, "-c", "raise SystemExit(3)"],
                           run.ROOT, SCRATCH / "exit.log", bench.budget,
                           os.sched_getaffinity(0))
    if proc.code != 3 or not proc.problems("selftest"):
        problems.append(f"a stage exiting 3 was seen as exit {proc.code}")


def test_speedometer(problems: list[str]) -> None:
    """Every CPU gets samples, the samples on a watched busy process's CPU
    count it, a window's scale is the reference over the weighted mean chunk
    time inside it, stretched by the CPU's steal share, and no sampler
    thread outlives the block."""
    cpu = max(os.sched_getaffinity(0))
    busy = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        os.sched_setaffinity(busy.pid, {cpu})
        with speed.Speedometer() as meter:
            meter.pid = busy.pid
            start = time.monotonic()
            time.sleep(0.6)
            end = time.monotonic()
    finally:
        busy.kill()
        busy.wait()
    if any(not meter.samples[c] for c in meter.cpus):
        problems.append("speedometer: a CPU got no samples")
        return
    mine = [x for x in meter.samples[cpu] if start <= x[0] <= end]
    if not any(w for _, _, w, _ in mine):
        problems.append("speedometer: no sample saw the busy process on its CPU")
        return
    keep = 1 - min((mine[-1][3] - mine[0][3]) / (mine[-1][0] - mine[0][0]), speed.MAX_STEAL)
    expected = (speed.REFERENCE_S * keep * sum(w for _, _, w, _ in mine)
                / sum(s * w for _, s, w, _ in mine))
    if abs(meter.scale(start, end, {cpu}) - expected) > 1e-9 * expected:
        problems.append("speedometer: scale is not the reference over the mean chunk time")
    if any(thread.is_alive() for thread in meter.threads):
        problems.append("speedometer: a sampler thread is still running")


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    problems: list[str] = []
    test_generator(problems)
    test_checks(problems)
    test_speedometer(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
