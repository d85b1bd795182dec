"""Run one agendascope CLI stage in-process with spans around layer calls.

    python bench/tracer.py SPANS.json <stage> --config ... [cli flags]

The wrappers live here, in the benchmark, not in the program: they rebind
the public functions each module imports by name (``cli.fit``,
``search.model_quality``, ...) and wrap ``Corpus.save``/``load`` and
``FittedModel.save``/``load``. Each wrapped call records a span (name,
start, end, parent). ``porter.stem`` only counts calls and distinct inputs,
since a span per word would cost more than the stemming. Spans stay in
memory and are written to SPANS.json when the stage ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path


class Tracer:
    """Spans and counters for one stage process."""

    def __init__(self, stage: str):
        self.stage = stage
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.stem_inputs: set[str] = set()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; ``after(result, args,
        kwargs)`` runs once the span has closed, to update counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            record = {"id": span_id, "name": name,
                      "parent": self.stack[-1] if self.stack else None,
                      "start": time.perf_counter(), "end": None}
            self.spans.append(record)
            self.stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def dump(self, path: Path, exit_code: int) -> None:
        self.counters["porter.stem.distinct"] = len(self.stem_inputs)
        payload = {"stage": self.stage, "exit_code": exit_code,
                   "spans": self.spans, "counters": self.counters}
        path.write_text(json.dumps(payload), encoding="utf-8")


def _module(name: str):
    # the package re-exports functions under submodule names
    # (agendascope.search is the function), so go through importlib
    return importlib.import_module(f"agendascope.{name}")


def install(tracer: Tracer) -> None:
    cli, corpus, porter = _module("cli"), _module("corpus"), _module("porter")
    stm, search, effects = _module("stm"), _module("search"), _module("effects")
    manifest = _module("manifest")

    # corpus + porter (ingest)
    cli.load_ungdc_layout = tracer.span("corpus.load_ungdc_layout", cli.load_ungdc_layout)
    cli.build_corpus = tracer.span("corpus.build_corpus", cli.build_corpus)
    corpus.tokenize = tracer.span(
        "corpus.tokenize", corpus.tokenize,
        after=lambda r, a, k: tracer.count("corpus.tokenize.words", len(a[0].split())))
    stem = porter.stem

    def counted_stem(word):
        tracer.counters["porter.stem.calls"] = tracer.counters.get("porter.stem.calls", 0) + 1
        tracer.stem_inputs.add(word)
        return stem(word)

    porter.stem = counted_stem

    # jsonio: the corpus and model artifacts
    def wrap_io(cls, label):
        save, load = cls.save, cls.load.__func__
        cls.save = tracer.span(
            f"jsonio.{label}_save", save,
            after=lambda r, a, k: tracer.count(f"jsonio.{label}_save.mb", os.path.getsize(r) / 1e6))
        cls.load = classmethod(tracer.span(f"jsonio.{label}_load", load))

    wrap_io(corpus.Corpus, "corpus")
    wrap_io(stm.FittedModel, "model")

    # manifest
    cli.write_manifest = tracer.span("manifest.write_manifest", cli.write_manifest)
    sha = manifest.file_sha256

    def counted_sha(path):
        tracer.count("manifest.bytes_hashed", os.path.getsize(path))
        return sha(path)

    manifest.file_sha256 = counted_sha

    # stm
    def fit_done(model, args, kwargs):
        config = args[2] if len(args) > 2 else kwargs["config"]
        trace = model.bound_trace
        converged = (len(trace) >= 2 and abs(trace[-1] - trace[-2])
                     < config.rel_tol * abs(trace[-2]))
        tracer.count("stm.fit.em_iters", len(trace))
        tracer.count("stm.fit.doc_iters", len(trace) * model.n_docs)
        tracer.count("stm.fit.capped",
                      int(not converged and len(trace) >= config.max_em_iters))

    traced_fit = tracer.span("stm.fit", stm.fit, after=fit_done)
    cli.fit = search.fit = traced_fit

    # search and the metrics it calls
    cli.search = tracer.span(
        "search.search", cli.search,
        after=lambda r, a, k: tracer.count("search.candidates", len(r.candidates)))
    quality = tracer.span("metrics.model_quality", cli.model_quality)
    cli.model_quality = search.model_quality = quality
    cli.summarize_topics = tracer.span("metrics.summarize_topics", cli.summarize_topics)

    # effects and design
    def draws(r, a, k):
        tracer.count("effects.draws", k.get("n_draws", 0))

    cli.estimate_effect = tracer.span("effects.estimate_effect", cli.estimate_effect, after=draws)
    cli.estimate_contrast = tracer.span("effects.estimate_contrast", cli.estimate_contrast, after=draws)
    design = tracer.span("design.build_design", cli.build_design)
    cli.build_design = effects.build_design = design

    # report
    for name in ("perspective_contrast", "topic_graph", "wordcloud_data"):
        setattr(cli, name, tracer.span(f"report.{name}", getattr(cli, name)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(payloads: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the span files of one traced pipeline.

    ``X.s`` sums the durations of spans named X, ``X.calls`` counts them,
    and ``X.self_s`` subtracts the time covered by each span's direct
    children (calls are sequential, so children do not overlap).
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    for payload in payloads:
        spans = payload["spans"]
        child_s = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_s[span["parent"]] += span["end"] - span["start"]
        for span, inner in zip(spans, child_s):
            name, dur = span["name"], span["end"] - span["start"]
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - inner
        for name, value in payload["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def s(name):
        return total.get(name, 0.0)

    def n(name):
        return counters.get(name, 0)

    effects_s = s("effects.estimate_effect") + s("effects.estimate_contrast")
    out = {
        "corpus.load_ungdc_layout.s": s("corpus.load_ungdc_layout"),
        "corpus.tokenize.s": s("corpus.tokenize"),
        "corpus.tokenize.calls": calls.get("corpus.tokenize", 0),
        "corpus.tokenize.words_per_s": _ratio(n("corpus.tokenize.words"), s("corpus.tokenize")),
        "corpus.build_corpus.self_s": self_s.get("corpus.build_corpus", 0.0),
        "porter.stem.calls": n("porter.stem.calls"),
        "porter.stem.distinct_frac": _ratio(n("porter.stem.distinct"), n("porter.stem.calls")),
        "manifest.write_manifest.s": s("manifest.write_manifest"),
        "manifest.bytes_hashed": n("manifest.bytes_hashed"),
        "stm.fit.s": s("stm.fit"),
        "stm.fit.calls": calls.get("stm.fit", 0),
        "stm.fit.s_per_em_iter": _ratio(s("stm.fit"), n("stm.fit.em_iters")),
        "stm.fit.doc_iters_per_s": _ratio(n("stm.fit.doc_iters"), s("stm.fit")),
        "stm.fit.em_iters": n("stm.fit.em_iters"),
        "stm.fit.capped_frac": _ratio(n("stm.fit.capped"), calls.get("stm.fit", 0)),
        "search.search.s": s("search.search"),
        "search.search.self_s": self_s.get("search.search", 0.0),
        "search.candidates": n("search.candidates"),
        "metrics.model_quality.s": s("metrics.model_quality"),
        "metrics.model_quality.calls": calls.get("metrics.model_quality", 0),
        "metrics.summarize_topics.s": s("metrics.summarize_topics"),
        "effects.estimate_effect.s": s("effects.estimate_effect"),
        "effects.estimate_contrast.s": s("effects.estimate_contrast"),
        "effects.draws_per_s": _ratio(n("effects.draws"), effects_s),
        "design.build_design.s": s("design.build_design"),
        "report.s": sum(v for k, v in total.items() if k.startswith("report.")),
    }
    for label in ("corpus", "model"):
        out[f"jsonio.{label}_save.s"] = s(f"jsonio.{label}_save")
        out[f"jsonio.{label}_save.mb"] = n(f"jsonio.{label}_save.mb")
        out[f"jsonio.{label}_load.s"] = s(f"jsonio.{label}_load")
        out[f"jsonio.{label}_load.calls"] = calls.get(f"jsonio.{label}_load", 0)
    for payload in payloads:
        name = f"cli.{payload['stage']}"
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    return out


def main(argv: list[str]) -> int:
    spans_path, stage_argv = Path(argv[0]), argv[1:]
    tracer = Tracer(stage_argv[0])
    install(tracer)
    cli = _module("cli")
    run = tracer.span(f"cli.{tracer.stage}", cli.main)
    code = 1
    try:
        code = run(stage_argv)
    finally:
        tracer.dump(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
