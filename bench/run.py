"""The agendascope benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark generates the
workload's inputs from the seed (bench/gen.py, cached under .bench_work/),
then runs the six CLI stages, each as its own process as a user would:

    ingest, search, fit, metrics, effects, report

With ``--trace 0`` it repeats the whole pipeline for about S seconds (at
least twice when there is time), checks every pipeline's outputs
(bench/checks.py), and reports the end-to-end metrics: each stage's median
wall time over the pipelines, their sums, and the median set-up time over
every stage process. Each stage process is pinned to as many CPUs as it has
threads, and its times are scaled to a reference machine speed by the
sampler threads of bench/speed.py on those CPUs; the raw wall times are in
the result file. With ``--trace 1`` it runs every stage twice in a row,
once plainly and once through bench/tracer.py, which records a span around
each layer call, and reports the per-layer metrics, the 2-thread against
1-thread fit speed-up and the tracing overhead as paired differences.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A human-readable
table, the machine facts and the path of the full result file come before
it. Everything written goes under .bench_work/ in the working directory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import gen
import speed
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LAYERS = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

STAGES = ("ingest", "search", "fit", "metrics", "effects", "report")
ANALYSIS = ("metrics", "effects", "report")
MIN_PIPELINES = 2  # untraced; a traced run makes one paired pass, more if time allows
SCIPY_PROBES = 3
# A run must exit within 180 s. No stage starts once this many seconds have
# passed, and a stage still running then is killed; optional work is only
# started when its expected time fits before it.
EXIT_LIMIT_S = 165
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# -P keeps the working directory (or the script's directory) off sys.path,
# as for the installed console script; with the inputs directory first on
# the path, every stage process measured about 0.1-0.2 s slower on a
# 2-vCPU x86-64 VM
PYTHON = (sys.executable, "-P")
IMPORT_PROGRAM = "import agendascope.cli as c; print(c.__file__)"
IMPORTED = "bench-imported"
# what the installed ``agendascope`` console script runs, plus one stderr
# line with the moment agendascope.cli has finished importing
ENTRY_POINT = ("import sys, time; from agendascope.cli import main; "
               f"print('{IMPORTED}', repr(time.monotonic()), file=sys.stderr, flush=True); "
               "sys.exit(main())")


class Budget:
    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def fits(self, seconds: float) -> bool:
        return seconds < self.left()


@dataclass
class Proc:
    """One finished process: when it started (monotonic clock), its wall
    time, peak RSS, exit code, whether the run's time limit killed it, the
    CPUs it was pinned to, and (for stage processes) its set-up time."""
    start: float
    wall_s: float
    rss_mb: float
    code: int
    killed: bool
    cpus: set[int]
    setup_s: float | None = None

    def problems(self, label: str) -> list[str]:
        if self.killed:
            return [f"timed out: killed at the run's {EXIT_LIMIT_S} s limit ({label})"]
        return [] if self.code == 0 else [f"exit {self.code} ({label})"]


def child_env() -> dict[str, str]:
    """The stage processes' environment: the checkout's source on the path,
    BLAS pinned to one thread, no thread-count fallback from the caller."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    env.pop("AGENDASCOPE_THREADS", None)
    return env


def import_stamp(log: Path) -> float | None:
    """The monotonic clock reading a stage process logged once
    agendascope.cli was imported (the first lines of its log)."""
    with open(log, "rb") as fh:
        for _ in range(20):
            line = fh.readline()
            if not line:
                break
            if line.startswith(IMPORTED.encode()):
                return float(line.split()[1])
    return None


def run_process(argv: list[str], cwd: Path, log: Path, budget: Budget,
                cpus: set[int], meter: speed.Speedometer | None = None) -> Proc:
    """Run argv pinned to ``cpus`` to completion, killing it at the
    budget's deadline, and have ``meter`` watch it. Peak RSS comes from the
    kernel's per-child resource usage; set-up time is the interval from
    just before the spawn to the child's import stamp."""
    if budget.left() <= 0:
        return Proc(time.monotonic(), 0.0, 0.0, -signal.SIGKILL, killed=True, cpus=cpus)
    killed = threading.Event()
    everywhere = os.sched_getaffinity(0)
    with open(log, "wb") as out:
        # the child inherits the affinity of the thread that spawns it
        os.sched_setaffinity(0, cpus)
        start = time.monotonic()
        try:
            proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                    stderr=subprocess.STDOUT)
        finally:
            os.sched_setaffinity(0, everywhere)
        if meter is not None:
            meter.pid = proc.pid

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(budget.left(), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            if meter is not None:
                meter.pid = None
    stamp = import_stamp(log)
    return Proc(start, elapsed, usage.ru_maxrss * 1024 / 1e6, proc.returncode,
                killed.is_set(), cpus, None if stamp is None else stamp - start)


def speed_scale(meter: speed.Speedometer, proc: Proc) -> float:
    """The factor that turns a stage process's times into times at the
    reference speed, from the chunk times on its CPUs while it ran
    (bench/speed.py)."""
    return meter.scale(proc.start, proc.start + proc.wall_s, proc.cpus)


def cli_args(stage: str, inputs: Path, out_dir: Path, threads: int) -> list[str]:
    config = inputs / ("search_config.json" if stage == "search" else "fit_config.json")
    return [stage, "--config", str(config), "--out", str(out_dir),
            "--threads", str(threads)]


class Run:
    """Everything one benchmark invocation measures and checks."""

    def __init__(self, workload: str, seed: int, seconds: int, traced: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.traced = traced
        self.spec = gen.WORKLOADS[workload]
        self.floor = LAYERS["recovery_floor"][workload]
        self.budget = Budget(EXIT_LIMIT_S)
        tag = f"{workload}-{seed}"
        self.scratch = WORK / "runs" / tag
        self.out_dir = self.scratch / "out"
        self.logs = self.scratch / "logs"
        self.result_path = WORK / "results" / f"{tag}-trace{int(traced)}.json"
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.reference_hashes: dict[str, str] | None = None
        self.recovery: list[float] = []
        self.timed_out = False
        self.meter: speed.Speedometer | None = None  # set while the stages run

    # -- bookkeeping ---------------------------------------------------------

    def record(self, name: str, problems: list[str]) -> None:
        """Count one attempted operation, failed if it has any problem."""
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{name}: {p}" for p in problems]

    def check_identical(self, label: str, hashes: dict[str, str]) -> None:
        """Artifacts must be byte-identical across runs of the same code."""
        if self.reference_hashes is None:
            self.reference_hashes = hashes
            return
        self.record(f"byte_identical[{label}]",
                    checks.hash_differences(self.reference_hashes, hashes))

    # -- stages --------------------------------------------------------------

    def prepare(self) -> Path:
        inputs = gen.cached_inputs(self.workload, self.seed, WORK / "inputs")
        self.truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.logs.mkdir(parents=True)
        return inputs

    def stage(self, stage: str, inputs: Path, label: str, threads: int | None = None,
              spans: Path | None = None) -> Proc:
        """Run one CLI stage as its own process, pinned to as many CPUs as
        it has threads, and record whether it ran."""
        threads = threads or self.spec["threads"]
        args = cli_args(stage, inputs, self.out_dir, threads)
        if spans is None:
            argv = [*PYTHON, "-c", ENTRY_POINT, *args]
        else:
            argv = [*PYTHON, str(BENCH / "tracer.py"), str(spans), *args]
        cpus = set(sorted(os.sched_getaffinity(0))[-threads:])
        proc = run_process(argv, inputs, self.logs / f"{label}-{stage}.log", self.budget,
                           cpus, self.meter)
        self.timed_out |= proc.killed
        self.record(f"stage[{stage}]", proc.problems(label))
        return proc

    def warm_up(self, inputs: Path) -> None:
        """Untimed: import the program once (which fills the bytecode cache
        and shows it is the checkout's own source), then run one ingest
        stage. On the 2-vCPU machine the benchmark was built on, the first
        seconds of each run measured 15-25% faster than the rest, so nothing
        is timed until they have passed."""
        result = subprocess.run([*PYTHON, "-c", IMPORT_PROGRAM], cwd=ROOT,
                                env=child_env(), capture_output=True, text=True,
                                timeout=self.budget.left())
        where = Path(result.stdout.strip() or ".").resolve()
        if result.returncode != 0 or SRC.resolve() not in where.parents:
            sys.exit(f"bench: cannot import agendascope from {SRC}:\n{result.stderr}")
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.stage("ingest", inputs, "warm-up")

    def scipy_import_seconds(self) -> float:
        """Cumulative -X importtime of every scipy.* module."""
        result = subprocess.run([*PYTHON, "-X", "importtime", "-c", IMPORT_PROGRAM],
                                cwd=ROOT, env=child_env(), capture_output=True,
                                text=True, timeout=max(1.0, self.budget.left()))
        self.record("scipy_importtime", [] if result.returncode == 0 else ["import failed"])
        total_us = 0
        for line in result.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("scipy"):
                total_us += int(parts[0].split(":")[1])
        return total_us / 1e6

    def check_outputs(self, label: str) -> None:
        """The artifact checks on the output directory, and byte identity
        with the first pipeline of the run."""
        results, recovery = checks.output_checks(
            self.out_dir, self.truth, list(STAGES), self.spec["search"]["k_grid"], self.floor)
        for name, problems in results.items():
            self.record(name, problems)
        self.recovery.append(recovery)
        self.check_identical(label, checks.file_hashes(self.out_dir))

    def fresh_out_dir(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)

    def pipeline(self, inputs: Path, index: int) -> dict | None:
        """One pass of the six stages into a fresh output directory, then
        the output checks. Returns the stage processes, or None when the
        run's time limit cut the pass short."""
        label = f"rep{index}"
        self.fresh_out_dir()
        procs = {}
        for stage in STAGES:
            procs[stage] = self.stage(stage, inputs, label)
            if self.timed_out:
                return None
        artifact_bytes = sum(p.stat().st_size for p in self.out_dir.rglob("*") if p.is_file())
        self.check_outputs(label)
        return {"procs": procs, "artifact_mb": artifact_bytes / 1e6}

    def paired_pipeline(self, inputs: Path, index: int, spans_dir: Path) -> dict | None:
        """One pass of the six stages into a fresh output directory, each
        stage run plainly and traced back to back (the order alternating),
        then the output checks. Tracing must not change any artifact."""
        label = f"pair{index}"
        self.fresh_out_dir()
        plain, traced, spans = {}, {}, {}
        for i, stage in enumerate(STAGES):
            spans[stage] = spans_dir / f"{label}-{stage}.json"
            order = ("plain", "traced") if (i + index) % 2 == 0 else ("traced", "plain")
            hashes = []
            for kind in order:
                if kind == "plain":
                    plain[stage] = self.stage(stage, inputs, label)
                else:
                    traced[stage] = self.stage(stage, inputs, f"{label}-traced",
                                               spans=spans[stage])
                if self.timed_out:
                    return None
                hashes.append(checks.file_hashes(self.out_dir))
            self.record(f"byte_identical[traced {stage}]",
                        checks.hash_differences(hashes[0], hashes[1]))
        self.check_outputs(label)
        payloads = {stage: json.loads(path.read_text(encoding="utf-8"))
                    for stage, path in spans.items() if path.is_file()}
        return {"plain": plain, "traced": traced, "payloads": payloads}

    def rounds(self, one_round, min_rounds: int) -> list[dict]:
        """Repeat ``one_round(index)`` until starting another would overrun
        --seconds (after ``min_rounds``) or the run's time limit (always)."""
        done: list[dict] = []
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            result = one_round(len(done))
            if result is None:
                return done
            done.append(result)
            now = time.monotonic()
            last = now - round_start
            if len(done) >= min_rounds and (now - start) + last > self.seconds:
                return done
            if not self.budget.fits(1.5 * last):
                return done

    # -- the two modes -------------------------------------------------------

    def end_to_end(self, inputs: Path) -> tuple[dict, dict]:
        self.warm_up(inputs)
        with speed.Speedometer() as self.meter:
            reps = self.rounds(lambda index: self.pipeline(inputs, index), MIN_PIPELINES)
        meter, self.meter = self.meter, None
        if not reps:
            return {}, {}
        # each stage's wall and set-up time at the reference speed
        scale = {s: [speed_scale(meter, r["procs"][s]) for r in reps] for s in STAGES}
        stage_s = {s: [r["procs"][s].wall_s * k for r, k in zip(reps, scale[s])] for s in STAGES}
        med = {s: statistics.median(v) for s, v in stage_s.items()}
        setup = [r["procs"][s].setup_s * k for s in STAGES for r, k in zip(reps, scale[s])
                 if r["procs"][s].setup_s is not None]
        metrics = {
            "pipeline_s": sum(med.values()),
            "ingest_s": med["ingest"],
            "search_s": med["search"],
            "fit_s": med["fit"],
            "analysis_s": sum(med[s] for s in ANALYSIS),
            "setup_s": statistics.median(setup) if setup else 0.0,
            "peak_rss_mb": statistics.median(max(p.rss_mb for p in r["procs"].values())
                                             for r in reps),
            "artifact_mb": statistics.median(r["artifact_mb"] for r in reps),
        }
        series = {"stage_s": stage_s, "setup_s": setup, "speed_scale": scale,
                  "raw_stage_s": {s: [r["procs"][s].wall_s for r in reps] for s in STAGES},
                  "topic_recovery": self.recovery}
        return metrics, series

    def other_threads_fit(self, inputs: Path, pairs: list[dict],
                          spans_dir: Path) -> tuple[dict | None, Proc] | None:
        """The traced fit once more at the other thread count, when it fits
        in the time left; its model must be byte-identical. Returns its span
        payload and process."""
        other = 1 if self.spec["threads"] == 2 else 2
        expected = max(p["traced"]["fit"].wall_s for p in pairs) * (2 if other == 1 else 1)
        if not self.budget.fits(expected):
            self.record(f"stage[fit --threads {other}]", ["not run: too little time left"])
            return None
        alt_spans = spans_dir / f"fit-threads{other}.json"
        proc = self.stage("fit", inputs, f"threads{other}", threads=other, spans=alt_spans)
        self.check_identical(f"fit --threads {other}", checks.file_hashes(self.out_dir))
        payload = (json.loads(alt_spans.read_text(encoding="utf-8"))
                   if alt_spans.is_file() else None)
        return payload, proc

    def per_layer(self, inputs: Path) -> tuple[dict, dict]:
        self.warm_up(inputs)
        scipy_s = statistics.median(self.scipy_import_seconds() for _ in range(SCIPY_PROBES))
        spans_dir = self.scratch / "spans"
        spans_dir.mkdir()
        with speed.Speedometer() as self.meter:
            pairs = self.rounds(lambda index: self.paired_pipeline(inputs, index, spans_dir), 1)
            alt = self.other_threads_fit(inputs, pairs, spans_dir) if pairs else None
        meter, self.meter = self.meter, None
        if not pairs:
            return {}, {}
        for p in pairs:
            for kind in ("plain", "traced"):
                p[f"{kind}_s"] = {s: proc.wall_s * speed_scale(meter, proc)
                                  for s, proc in p[kind].items()}
        per_round = [tracer.layer_metrics(list(p["payloads"].values())) for p in pairs]
        metrics = {name: statistics.median(m.get(name, 0.0) for m in per_round)
                   for name in per_round[0]}

        # the 2-thread against 1-thread speed-up of stm.fit, each fit's span
        # time scaled like its process's wall time
        threads = self.spec["threads"]
        other = 1 if threads == 2 else 2

        def fit_span_s(payload: dict | None, proc: Proc | None) -> float:
            if payload is None or proc is None:
                return 0.0
            return tracer.layer_metrics([payload])["stm.fit.s"] * speed_scale(meter, proc)

        main_fit_s = statistics.median(fit_span_s(p["payloads"].get("fit"), p["traced"].get("fit"))
                                       for p in pairs)
        alt_fit_s = fit_span_s(*alt) if alt else 0.0
        fit_s = {threads: main_fit_s, other: alt_fit_s}
        metrics["stm.fit.thread_speedup"] = fit_s[1] / fit_s[2] if fit_s[2] else 0.0

        # tracing overhead: the median over every back-to-back (plain,
        # traced) stage pair of the traced time's excess, so that one stage
        # caught in a slow or fast phase of the machine does not decide it
        excess = [p["traced_s"][s] / p["plain_s"][s] - 1.0
                  for p in pairs for s in STAGES if p["plain_s"].get(s) and s in p["traced_s"]]
        plain_pipeline_s = statistics.median(sum(p["plain_s"].values()) for p in pairs)
        metrics["stm.fit.topic_recovery"] = statistics.median(self.recovery)
        metrics["setup.scipy_import_s"] = scipy_s
        metrics["trace.overhead_frac"] = statistics.median(excess)
        metrics["trace.overhead_s"] = metrics["trace.overhead_frac"] * plain_pipeline_s

        spans_file = WORK / "results" / f"{self.workload}-{self.seed}-spans.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps({"rounds": [p["payloads"] for p in pairs],
                                          f"fit_threads{other}": alt and alt[0]}),
                              encoding="utf-8")
        series = {"plain_stage_s": [p["plain_s"] for p in pairs],
                  "traced_stage_s": [p["traced_s"] for p in pairs],
                  "trace_excess": excess, "spans_file": str(spans_file)}
        return metrics, series


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": 1, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": importlib.metadata.version("scipy")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps the stage it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "agendascope" / "cli.py").is_file():
        sys.exit(f"bench: no agendascope source at {SRC}; run from a checkout root")

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    inputs = run.prepare()
    if run.traced:
        metrics, series = run.per_layer(inputs)
        specs = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    else:
        metrics, series = run.end_to_end(inputs)
        specs = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    if not metrics:
        sys.exit("bench: not one pipeline finished before the run's time limit:\n"
                 + "\n".join(run.failures))
    facts = machine_facts()
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in specs.items()}}
    run.result_path.parent.mkdir(parents=True, exist_ok=True)
    run.result_path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "machine": facts, "series": series,
         "failures": run.failures, **result}, indent=2), encoding="utf-8")
    if run.failed == 0:  # keep the artifacts only when they show a failure
        shutil.rmtree(run.out_dir, ignore_errors=True)

    for name, entry in result["metrics"].items():
        print(f"{name:36s} {entry['value']:>14.6g} {entry['unit']}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    print("machine " + json.dumps(facts))
    print(f"result file {run.result_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
