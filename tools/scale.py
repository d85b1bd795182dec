#!/usr/bin/env python3
"""Time the corpus layer on a corpus the size of the UN General Debate corpus.

    PYTHONPATH=src python3 tools/scale.py

Draws a corpus from the model with ``tests/synth.py``'s ``model_draw(0,
n_docs=7500, n_terms=8000, k=50, doc_len=1200)`` (7,500 documents, as in
UNGDC 1970-2016), then times one call each of ``Corpus.save``,
``Corpus.load``, ``subset`` (every document but each tenth) and
``presence_matrix``. Prints one JSON object with those seconds, the size of
the saved ``corpus.json`` and the peak RSS of the process, which includes
the draw. The calls are single-threaded; the JSON names the CPUs the
process could use, because nothing here measures more cores than that. EM
iterations at this scale are not timed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from synth import model_draw  # noqa: E402

from agendascope.corpus import Corpus  # noqa: E402


def timed(call):
    start = time.perf_counter()
    result = call()
    return result, round(time.perf_counter() - start, 3)


def main() -> None:
    corpus = model_draw(0, n_docs=7500, n_terms=8000, k=50, doc_len=1200)[0]
    seconds = {}
    with tempfile.TemporaryDirectory() as tmp:
        path, seconds["save"] = timed(lambda: corpus.save(Path(tmp) / "corpus.json"))
        file_mb = os.path.getsize(path) / 1e6
        loaded, seconds["load"] = timed(lambda: Corpus.load(path))
    rows = np.flatnonzero(np.arange(loaded.n_docs) % 10 != 0)
    _, seconds["subset"] = timed(lambda: loaded.subset(rows))
    _, seconds["presence_matrix"] = timed(loaded.presence_matrix)
    cpus = len(os.sched_getaffinity(0))
    print(json.dumps({
        "n_docs": loaded.n_docs, "n_terms": loaded.n_terms,
        "seconds": seconds, "file_mb": round(file_mb, 1),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "cpus": cpus,
        "note": f"measured on the {cpus} CPUs this process could use, no more"}))


if __name__ == "__main__":
    main()
