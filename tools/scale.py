#!/usr/bin/env python3
"""Time ingest, the corpus layer, EM iterations and the effects draws on a
corpus the size of the UN General Debate corpus.

    PYTHONPATH=src python3 tools/scale.py

Draws a corpus from the model with ``tests/synth.py``'s ``model_draw(0,
n_docs=7500, n_terms=8000, k=50, doc_len=1200)`` (7,500 documents, as in
UNGDC 1970-2016), then times one call each of ``Corpus.save``,
``Corpus.load``, ``subset`` (every document but each tenth, and every
document) and ``presence_matrix``, and reports the bytes of every file the
save wrote (``corpus.json`` and its sidecars) and the peak RSS of a fresh
Python process that only loads that corpus. It then fits the loaded corpus,
with the draw's two-column design, at K = 10, 30 and 50 for 2 EM iterations
each (``max_em_iters=2``, ``threads=2``, BLAS limited to one thread) and
reports half of each fit's wall time as the seconds per EM iteration, with
the size of the fitted ``nu``. Keeping the K=50 model, it times the effects
draws over the design of the formula ``conflict``, built beforehand
(``EffectDraws`` with ``n_draws=100``, ``seed=0``), and reports seconds
per draw. It then saves that model and
reports the bytes of ``model.json``, the bytes of the packed ``nu`` file
that the fit no longer writes, and the time of one ``FittedModel.save``,
one ``FittedModel.load``, and then of one ``posterior_covariances`` of the
loaded model (``threads=2``), which it checks is bit-equal to the fit's
``nu``.
Last, it renders each document as
a speech, writing each term occurrence as a fixed word for its term id
followed by a stopword, and times ``build_corpus`` on the speeches with the
default preprocessing, in words per second. Prints one JSON object with
those figures and the peak RSS of this process, which includes the corpus
draw, before and after the effects draws and at the end. The JSON names the
CPUs the process could use, because nothing here measures more cores than
that. It runs in about two minutes on a 2-vCPU x86-64 VM.
"""

from __future__ import annotations

import json
import logging
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")  # before numpy loads BLAS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from synth import model_draw  # noqa: E402

import agendascope  # noqa: E402
from agendascope.corpus import (Corpus, PreprocessConfig, RawDocument,  # noqa: E402
                                build_corpus)
from agendascope.design import build_design  # noqa: E402
from agendascope.effects import EffectDraws  # noqa: E402
from agendascope.stm import (FitConfig, FittedModel, fit,  # noqa: E402
                             posterior_covariances)

EM_KS = (10, 30, 50)
EM_ITERS = 2
EM_THREADS = 2
EFFECT_DRAWS = 100
# stopwords of the built-in list, written after every term word
SPEECH_STOPWORDS = ("the", "of", "and", "to", "in", "that", "we", "our", "is", "for")
_ONSETS, _VOWELS = "bdfgklmnprstvz", "aeiou"
_SUFFIXES = ("", "s", "ing", "ation", "ment", "ness", "ed", "al")


# Run in a fresh process: loads the corpus at argv[1] and prints the peak
# RSS of its own address space in KiB. That is VmHWM, not ru_maxrss, which
# execve carries over from the forking process, here the size of this one.
LOAD_ONLY = """
import sys
sys.path.insert(0, sys.argv[2])
from agendascope.corpus import Corpus
Corpus.load(sys.argv[1])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def load_only_peak_rss_mb(path: Path) -> float:
    """Peak RSS of a new Python process that only loads the corpus at path."""
    package_root = str(Path(agendascope.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", LOAD_ONLY, str(path), package_root],
                         capture_output=True, text=True, check=True).stdout
    return round(int(out) / 1024, 1)


def peak_rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def timed(call):
    start = time.perf_counter()
    result = call()
    return result, round(time.perf_counter() - start, 3)


def term_word(v: int) -> str:
    """The fixed word for term id v: three consonant-vowel syllables that
    spell v in base 70, then one of eight suffixes, so the stemmer has work
    and no two term ids share a word."""
    letters = []
    n = v
    for _ in range(3):
        n, r = divmod(n, len(_ONSETS) * len(_VOWELS))
        letters += [_ONSETS[r // len(_VOWELS)], _VOWELS[r % len(_VOWELS)]]
    return "".join(letters) + _SUFFIXES[v % len(_SUFFIXES)]


def speech_text(terms: np.ndarray, counts: np.ndarray, words: list[str]) -> str:
    """Each term occurrence as its word and a stopword, with a full stop
    after every twelfth pair."""
    occurrences = np.repeat(terms, counts).tolist()
    return " ".join(
        f"{words[t]} {SPEECH_STOPWORDS[i % len(SPEECH_STOPWORDS)]}{'.' if i % 12 == 11 else ''}"
        for i, t in enumerate(occurrences))


def time_ingest(corpus: Corpus) -> dict:
    """Render ``corpus`` as speeches and time build_corpus on them."""
    words = [term_word(v) for v in range(corpus.n_terms)]
    docs = [RawDocument(doc_id, "AFG", year,
                        speech_text(corpus.indices[lo:hi], corpus.counts[lo:hi], words))
            for doc_id, year, lo, hi in zip(corpus.doc_ids, corpus.years,
                                            corpus.indptr[:-1], corpus.indptr[1:])]
    n_words = sum(len(doc.text.split()) for doc in docs)
    (built, _), wall = timed(lambda: build_corpus(docs, corpus.covariates,
                                                  PreprocessConfig()))
    return {"n_docs": built.n_docs, "n_terms": built.n_terms, "words": n_words,
            "s": wall, "words_per_s": round(n_words / wall)}


def main() -> None:
    corpus, design = model_draw(0, n_docs=7500, n_terms=8000, k=50, doc_len=1200)[:2]
    seconds = {}
    with tempfile.TemporaryDirectory() as tmp:
        path, seconds["save"] = timed(lambda: corpus.save(Path(tmp) / "corpus.json"))
        files = {p.name: round(p.stat().st_size / 1e6, 1) for p in sorted(Path(tmp).iterdir())}
        corpus_mb = sum(p.stat().st_size for p in Path(tmp).iterdir()) / 1e6
        loaded, seconds["load"] = timed(lambda: Corpus.load(path))
        load_rss_mb = load_only_peak_rss_mb(path)
    rows = np.flatnonzero(np.arange(loaded.n_docs) % 10 != 0)
    _, seconds["subset"] = timed(lambda: loaded.subset(rows))
    _, seconds["subset_all"] = timed(lambda: loaded.subset(np.arange(loaded.n_docs)))
    _, seconds["presence_matrix"] = timed(loaded.presence_matrix)
    logging.getLogger("agendascope.stm").setLevel(logging.ERROR)  # capped on purpose
    em, model = {}, None
    for k in EM_KS:
        model = None  # free the previous K's model before this fit
        config = FitConfig(k=k, max_em_iters=EM_ITERS)
        model, wall = timed(lambda: fit(loaded, design, config, threads=EM_THREADS))
        em[k] = {"s_per_em_iter": round(wall / EM_ITERS, 3),
                 "nu_mb": round(model.nu.nbytes / 1e6, 1)}
    rss_before_effects = peak_rss_mb()  # the K=50 model is still held
    built = build_design("conflict", loaded.covariate_table())
    _, wall = timed(lambda: EffectDraws(model, built, n_draws=EFFECT_DRAWS, seed=0))
    effects = {"k": EM_KS[-1], "formula": "conflict", "n_draws": EFFECT_DRAWS,
               "s_per_draw": round(wall / EFFECT_DRAWS, 4),
               "peak_rss_mb_before": rss_before_effects,
               "peak_rss_mb_after": peak_rss_mb()}
    with tempfile.TemporaryDirectory() as tmp:
        path, seconds["model_save"] = timed(lambda: model.save(Path(tmp) / "model.json"))
        model_files = {p.name: round(p.stat().st_size / 1e6, 2)
                       for p in sorted(Path(tmp).iterdir())}
        loaded_model, seconds["model_load"] = timed(lambda: FittedModel.load(path))
    nu, wall = timed(lambda: posterior_covariances(loaded, design, loaded_model,
                                                   threads=EM_THREADS))
    k_free = model.nu.shape[1]
    recompute = {"k": EM_KS[-1], "threads": EM_THREADS, "s": wall,
                 "bit_equal": bool(np.array_equal(nu, model.nu)),
                 # the .npy of each document's packed upper triangle, its
                 # 128-byte header included, that fit wrote before nu was
                 # recomputed
                 "bytes_not_written": 128 + 8 * model.n_docs * k_free * (k_free + 1) // 2}
    model = loaded_model = nu = None
    ingest = time_ingest(loaded)  # last, so its text does not raise the peaks above
    cpus = len(os.sched_getaffinity(0))
    print(json.dumps({
        "n_docs": loaded.n_docs, "n_terms": loaded.n_terms,
        "ingest": ingest, "seconds": seconds,
        "corpus_files_mb": files, "corpus_mb": round(corpus_mb, 1),
        "load_only_peak_rss_mb": load_rss_mb,
        "em": {"iterations": EM_ITERS, "threads": EM_THREADS, "by_k": em},
        "effects": effects, "model_files_mb": {"k": EM_KS[-1], **model_files},
        "posterior_covariances": recompute,
        "peak_rss_mb": peak_rss_mb(),
        "cpus": cpus,
        "note": f"measured on the {cpus} CPUs this process could use, no more"}))


if __name__ == "__main__":
    main()
