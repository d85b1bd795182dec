"""Machine-speed calibration for the agendascope benchmark.

On the 2-vCPU VM this benchmark was built on, each vCPU's speed wanders by
up to 2x over seconds to minutes, and each on its own: a fixed loop took
0.036-0.065 s within a single minute. On top of that the host takes 0-15%
of a vCPU's time as steal time, again per vCPU and changing from minute to
minute. The median stage time of a 54 s run moved by 15-35% from run to
run.

``Speedometer`` runs one sampler thread per usable CPU, pinned to it. Every
``PERIOD_S`` each times ``chunk``, a fixed piece of work made of what the
stages spend their time on: regex tokenizing with dict counts, unmarshalling
code objects (as module imports do) and small numpy solves (as the EM
steps do). A stage process is pinned to the CPUs it needs, so the samplers
on those CPUs see the speed the stage saw while it ran. Dividing the
stage's wall time by the mean chunk time over its lifetime, and multiplying
by ``REFERENCE_S``, gives the stage's time on a machine where one chunk
takes exactly ``REFERENCE_S``: a time that moves with the program and not
with the machine's phase. A chunk is timed in thread CPU time, which leaves
out steal time, so each chunk time is divided by one minus the steal share
of its CPU (from /proc/stat) over the stage's lifetime: the wall time the
chunk would have taken there.

The parts were chosen by measurement on that VM. Over 18 pipelines, the
log wall time of single stages against the log CPU time of each kind of
work, sampled on the stage's own CPU while it ran, had a correlation of
0.8-0.98 and a slope of 0.75-0.98 for the regex and numpy parts and of
1.1-1.5 for unmarshalling; their mix is weighted so that its slope comes
near 1. A tight integer and dict loop tracked the stages with a slope of
only 0.65-0.75, so it over-corrected, and a sampler on the other vCPU
barely tracked them at all.

The calibration never imports agendascope, so no change to the program can
move it. A sampler costs its CPU about ``chunk time / PERIOD_S`` (4%).
"""

from __future__ import annotations

import marshal
import os
import re
import statistics
import threading
import time

import numpy as np

# a chunk's median time on the machine the benchmark was built on (2-vCPU
# x86-64 VM, CPython 3); calibrated times are seconds on a machine where a
# chunk takes exactly this long
REFERENCE_S = 0.0025
PERIOD_S = 0.06

_TEXT = " ".join(f"The Assembly {w}s the {w}ing of nations, {i}; peace and {w}ed cooperation."
                 for i, w in enumerate(["develop", "disarm", "affirm", "commit", "sustain",
                                        "recogniz", "strengthen", "question"] * 12))
_WORD = re.compile(r"[a-z]+")
_CODE = marshal.dumps(compile("\n".join(
    f"def f{i}(x, y=({i}, 'k{i}')):\n    return [x * {i}, y, {{'a': x}}]"
    for i in range(450)), "<calibration>", "exec"))
_MATRIX = np.random.default_rng(0).random((20, 20)) + 20 * np.eye(20)
_TICK_S = 1 / os.sysconf("SC_CLK_TCK")
MAX_STEAL = 0.9  # a steal share read from 10 ms ticks, capped so it cannot divide by 0


def steal_s() -> dict[int, float]:
    """Cumulative steal time of each CPU in seconds (/proc/stat; empty
    where the kernel does not report it)."""
    steal = {}
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                name, *fields = line.split()
                if name.startswith("cpu") and name != "cpu" and len(fields) > 7:
                    steal[int(name[3:])] = int(fields[7]) * _TICK_S
    except OSError:
        pass
    return steal


def chunk() -> float:
    """CPU time of one fixed piece of work shaped like the stages'. CPU
    time, not wall time: a sampler shares its CPU with a stage, and wall
    time would count the stretches the scheduler gave to the stage."""
    start = time.thread_time()
    for _ in range(2):
        counts: dict[str, int] = {}
        for word in _WORD.findall(_TEXT.lower()):
            counts[word] = counts.get(word, 0) + 1
        marshal.loads(_CODE)
    x = _MATRIX[0]
    for _ in range(50):
        x = np.linalg.solve(_MATRIX, x)
    return time.thread_time() - start


def running_threads_on(pid: int, cpu: int) -> int:
    """How many threads of process ``pid`` are runnable and last ran on
    ``cpu`` (field 39 of /proc/PID/task/TID/stat); 0 once it is gone."""
    count = 0
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            count += fields[0] == "R" and int(fields[36]) == cpu
    except (OSError, IndexError, ValueError):
        pass
    return count


class Speedometer:
    """Chunk timings on every usable CPU, taken while the benchmark runs.

    Each sample also counts the threads of the watched process (``pid``,
    the running stage) that are runnable on the sampler's CPU, so that a
    stage allowed on several CPUs is scaled by the speed of the CPUs it
    actually ran on. Use as a context manager; the sampler threads stop and
    are joined on exit, whichever way the block is left."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.pid: int | None = None
        # per CPU: (monotonic time, chunk CPU time, watched threads on it,
        # the CPU's cumulative steal time)
        self.samples: dict[int, list[tuple[float, float, int, float]]] = {
            c: [] for c in self.cpus}
        self._stop = threading.Event()
        self.threads = [threading.Thread(target=self._sample, args=(cpu,), daemon=True)
                        for cpu in self.cpus]

    def __enter__(self) -> "Speedometer":
        for thread in self.threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self.threads:
            thread.join()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._stop.wait(PERIOD_S):
            pid = self.pid
            seconds = chunk()
            weight = 0 if pid is None else running_threads_on(pid, cpu)
            steal = steal_s().get(cpu, 0.0)
            self.samples[cpu].append((time.monotonic(), seconds, weight, steal))

    def chunk_s(self, start: float, end: float, cpus: set[int]) -> float:
        """Mean wall-equivalent chunk time on ``cpus`` over the monotonic
        interval [start, end]: each chunk's CPU time over one minus its
        CPU's steal share in the interval, each sample weighted by the
        watched threads on its CPU. Falls back to the plain mean when no
        sample saw a watched thread, and to the median of all samples on
        ``cpus`` when none finished inside."""
        inside: list[tuple[float, int]] = []
        for cpu in cpus:
            mine = [x for x in self.samples[cpu] if start <= x[0] <= end]
            if len(mine) > 1:
                share = (mine[-1][3] - mine[0][3]) / (mine[-1][0] - mine[0][0])
            else:
                share = 0.0
            keep = 1 - min(max(share, 0.0), MAX_STEAL)
            inside += [(s / keep, w) for _, s, w, _ in mine]
        if sum(w for _, w in inside):
            return sum(s * w for s, w in inside) / sum(w for _, w in inside)
        if inside:
            return statistics.fmean(s for s, _ in inside)
        return statistics.median(x[1] for cpu in cpus for x in self.samples[cpu])

    def scale(self, start: float, end: float, cpus: set[int]) -> float:
        """Factor that turns a wall time over [start, end] on ``cpus`` into
        a time at the reference speed."""
        return REFERENCE_S / self.chunk_s(start, end, cpus)


if __name__ == "__main__":
    samples = sorted(chunk() for _ in range(500))
    print(f"chunk: median {statistics.median(samples):.5f} s, "
          f"min {samples[0]:.5f} s, max {samples[-1]:.5f} s")
