#!/usr/bin/env python3
"""Time ingest, the corpus layer, EM iterations and the effects draws on a
corpus the size of the UN General Debate corpus.

    PYTHONPATH=src python3 tools/scale.py

Draws a corpus from the model with ``tests/synth.py``'s ``model_draw(0,
n_docs=7500, n_terms=8000, k=50, doc_len=1200)`` (7,500 documents, as in
UNGDC 1970-2016), then times one call each of ``Corpus.save``,
``Corpus.load`` and ``subset`` (every document but each tenth, and every
document), and reports the bytes of every file the
save wrote (``corpus.json`` and its sidecars) and the peak RSS of a fresh
Python process that only loads that corpus. It then fits the loaded corpus,
with the draw's two-column design, at K = 10 and 30 for 2 EM iterations and
at K = 50 for 7 (``max_em_iters``, ``threads=2``, BLAS limited to one
thread), and reports the mean seconds of EM iterations 1-2 at each K, and
of iterations 6-7 at K = 50, after a warm-up of 5. An iteration is timed
from the M-step before its E-step (the fit's start, for the first) to the
M-step after it (the fit's end, for the last). Next to each span it reports
the curvature blocks per document per E-step, the Newton steps' and the
Laplace blocks', counted as the rows each ``stm._batch_neg_hessian`` call
forms, which is wrapped for the count. The K = 50 fit also runs
under ``tracemalloc``, whose peak over the fit it reports, and its last
E-step's posterior covariance blocks are captured by wrapping
``stm._estep_chunk``, into an array allocated before tracing starts. It
then saves that model and reports the bytes of ``model.json``, the bytes
of the packed covariance file that the fit no longer writes, and the time
of one ``FittedModel.save``, one ``FittedModel.load``, and then of one
``posterior_covariances`` of the loaded model (``threads=2``), which it
checks is bit-equal to the captured blocks. With those covariances it
times the effects draws over the design of the formula ``conflict``,
built beforehand (``EffectDraws`` with ``n_draws=100``, ``seed=0``), at
``threads=1`` and at ``threads=2``, checks that the two runs' draws are
bit-equal, and reports seconds per draw at each thread count, the draws
per block (1 at this size) and the peak RSS after both runs. Then it
times the metrics stage's kernels on that model's beta: one
``summarize_topics`` (20 words), one ``model_quality`` (10 words) and one
``semantic_coherence`` (10 words), the last also under ``tracemalloc``,
whose peak over the call it reports.
Last, it renders each document as
a speech, writing each term occurrence as a fixed word for its term id
followed by a stopword, and times ``build_corpus`` on the speeches with the
default preprocessing, in words per second. Prints one JSON object with
those figures and the peak RSS of this process, which includes the corpus
draw, before and after the effects draws and at the end. The JSON names the
CPUs the process could use, because nothing here measures more cores than
that. It runs in about a minute and a half on a 2-vCPU x86-64 VM.
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
import tracemalloc
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")  # before numpy loads BLAS

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from synth import model_draw  # noqa: E402

import agendascope  # noqa: E402
import agendascope.stm as stm  # noqa: E402
from agendascope.corpus import (Corpus, PreprocessConfig, RawDocument,  # noqa: E402
                                build_corpus)
from agendascope.design import build_design  # noqa: E402
from agendascope.effects import EffectDraws, draws_per_block  # noqa: E402
from agendascope.metrics import (model_quality, semantic_coherence,  # noqa: E402
                                 summarize_topics)
from agendascope.stm import (FitConfig, FittedModel, fit,  # noqa: E402
                             posterior_covariances)

EM_KS = (10, 30, 50)
EM_ITERS = 2
LATE_ITERS = (6, 7)  # 1-based, timed at the last K only
EM_THREADS = 2
EFFECT_DRAWS = 100
EFFECT_THREADS = (1, 2)
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


def timed_em(corpus: Corpus, design, config: FitConfig, last_blocks=None):
    """(model, seconds of each EM iteration, curvature blocks per document
    of each E-step) of one fit: an iteration ends where the M-step after its
    E-step begins, the last where the fit returns. Blocks are the rows that
    ``stm._batch_neg_hessian`` calls form, Newton steps and Laplace blocks
    alike. Given ``last_blocks``, a D x (K-1) x (K-1) array, each E-step
    writes its covariance blocks into it in document order, so it ends
    holding the last E-step's."""
    stamps, marks, blocks = [time.perf_counter()], [0], []
    m_step, kernel, neg_hessian = stm.m_step, stm._estep_chunk, stm._batch_neg_hessian

    def stamped(*args):
        stamps.append(time.perf_counter())
        marks.append(len(blocks))
        return m_step(*args)

    def counting(rows, *args):
        blocks.append(len(rows))  # one append, so the pool's threads lose none
        return neg_hessian(rows, *args)

    def capturing(chunk, *args, **kwargs):
        out = kernel(chunk, *args, **kwargs)
        last_blocks[chunk.rows] = out[1]
        return out

    stm.m_step, stm._batch_neg_hessian = stamped, counting
    if last_blocks is not None:
        stm._estep_chunk = capturing
    try:
        model = fit(corpus, design, config, threads=EM_THREADS)
    finally:
        stm.m_step, stm._estep_chunk, stm._batch_neg_hessian = m_step, kernel, neg_hessian
    stamps.append(time.perf_counter())
    marks.append(len(blocks))
    per_doc = [sum(blocks[a:b]) / corpus.n_docs for a, b in zip(marks, marks[1:])]
    return model, np.diff(stamps), np.array(per_doc)


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
    logging.getLogger("agendascope.stm").setLevel(logging.ERROR)  # capped on purpose
    em, model = {}, None
    k_free = EM_KS[-1] - 1
    last_blocks = np.full((loaded.n_docs, k_free, k_free), np.nan)  # before tracing
    for k in EM_KS:
        model = None  # free the previous K's model before this fit
        iters = LATE_ITERS[-1] if k == EM_KS[-1] else EM_ITERS
        config = FitConfig(k=k, max_em_iters=iters)
        if k == EM_KS[-1]:
            tracemalloc.start()
            model, seconds_per_iter, blocks = timed_em(loaded, design, config,
                                                       last_blocks)
            fit_peak_traced_mb = round(tracemalloc.get_traced_memory()[1] / 1e6, 1)
            tracemalloc.stop()
        else:
            model, seconds_per_iter, blocks = timed_em(loaded, design, config)
        if len(seconds_per_iter) != iters:
            raise RuntimeError(f"timed {len(seconds_per_iter)} of the K={k} fit's "
                               f"{iters} EM iterations")
        em[k] = {"s_per_em_iter": round(float(seconds_per_iter[:EM_ITERS].mean()), 3),
                 "blocks_per_doc": round(float(blocks[:EM_ITERS].mean()), 3)}
    late = slice(LATE_ITERS[0] - 1, None)
    em_late = {"k": EM_KS[-1], "iterations": list(LATE_ITERS),
               "s_per_em_iter": round(float(seconds_per_iter[late].mean()), 3),
               "blocks_per_doc": round(float(blocks[late].mean()), 3)}
    with tempfile.TemporaryDirectory() as tmp:
        path, seconds["model_save"] = timed(lambda: model.save(Path(tmp) / "model.json"))
        model_files = {p.name: round(p.stat().st_size / 1e6, 2)
                       for p in sorted(Path(tmp).iterdir())}
        loaded_model, seconds["model_load"] = timed(lambda: FittedModel.load(path))
    nu, wall = timed(lambda: posterior_covariances(loaded, loaded_model,
                                                   threads=EM_THREADS))
    recompute = {"k": EM_KS[-1], "threads": EM_THREADS, "s": wall,
                 "bit_equal": bool(np.array_equal(nu, last_blocks)),
                 # the .npy of each document's packed upper triangle, its
                 # 128-byte header included, that fit wrote before the
                 # covariances were recomputed
                 "bytes_not_written": 128 + 8 * model.n_docs * k_free * (k_free + 1) // 2}
    last_blocks = None
    rss_before_effects = peak_rss_mb()  # the K=50 model and its covariances are held
    built = build_design("conflict", loaded.covariate_table())
    coef, s_per_draw = None, {}
    for threads in EFFECT_THREADS:
        draws, wall = timed(lambda: EffectDraws(model, built, nu, n_draws=EFFECT_DRAWS,
                                                seed=0, threads=threads))
        if coef is not None and not np.array_equal(draws.coef, coef):
            raise RuntimeError(f"the effects draws at threads={threads} differ from "
                               f"those at threads={EFFECT_THREADS[0]}")
        coef, s_per_draw[threads] = draws.coef, round(wall / EFFECT_DRAWS, 4)
    effects = {"k": EM_KS[-1], "formula": "conflict", "n_draws": EFFECT_DRAWS,
               "s_per_draw_by_threads": s_per_draw,
               "draws_per_block": draws_per_block(*model.eta.shape),
               "peak_rss_mb_before": rss_before_effects,
               "peak_rss_mb_after": peak_rss_mb()}
    _, summarize_s = timed(lambda: summarize_topics(model.beta, loaded))
    _, quality_s = timed(lambda: model_quality(model.beta, loaded))
    _, coherence_s = timed(lambda: semantic_coherence(model.beta, loaded, 10))
    tracemalloc.start()
    semantic_coherence(model.beta, loaded, 10)
    coherence_peak_traced_mb = round(tracemalloc.get_traced_memory()[1] / 1e6, 1)
    tracemalloc.stop()
    metrics = {"k": EM_KS[-1], "n_terms": loaded.n_terms,
               "summarize_topics_s": summarize_s, "model_quality_s": quality_s,
               "semantic_coherence_s": coherence_s,
               "semantic_coherence_peak_traced_mb": coherence_peak_traced_mb}
    model = loaded_model = nu = None
    ingest = time_ingest(loaded)  # last, so its text does not raise the peaks above
    cpus = len(os.sched_getaffinity(0))
    print(json.dumps({
        "n_docs": loaded.n_docs, "n_terms": loaded.n_terms,
        "ingest": ingest, "seconds": seconds,
        "corpus_files_mb": files, "corpus_mb": round(corpus_mb, 1),
        "load_only_peak_rss_mb": load_rss_mb,
        "em": {"iterations": EM_ITERS, "threads": EM_THREADS, "by_k": em,
               "late": em_late,
               "peak_traced_mb": {"k": EM_KS[-1], "mb": fit_peak_traced_mb}},
        "effects": effects, "metrics": metrics, "model_files_mb": {"k": EM_KS[-1], **model_files},
        "posterior_covariances": recompute,
        "peak_rss_mb": peak_rss_mb(),
        "cpus": cpus,
        "note": f"measured on the {cpus} CPUs this process could use, no more"}))


if __name__ == "__main__":
    main()
