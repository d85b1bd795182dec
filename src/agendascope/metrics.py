"""Per-topic quality metrics and keyword rankings.

Four keyword views of a fitted topic-word matrix: raw probability, FREX
(harmonic blend of frequency and exclusivity ranks), lift (probability over
corpus frequency), and score (probability times centered log probability).
Plus the document co-occurrence coherence used for model selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .errors import TermAbsentFromCorpus

DEFAULT_FREX_WEIGHT = 0.7
DEFAULT_TOP_WORDS = 10
DEFAULT_SUMMARY_WORDS = 20


def rank_terms(values: np.ndarray, m: int | None = None) -> np.ndarray:
    """Indices of the top-m entries, descending, ties broken by ascending
    vocabulary index (the single ranking source of truth for the toolkit)."""
    values = np.asarray(values)
    order = np.argsort(-values, kind="stable")
    return order if m is None else order[:m]


def semantic_coherence(beta: np.ndarray, corpus: Corpus, m: int = DEFAULT_TOP_WORDS) -> np.ndarray:
    """Document co-occurrence coherence of each topic's top-m terms.

    For top terms v1..vm (by beta), accumulates log((D(vi,vj)+1)/D(vj))
    over i = 2..m (outer, ascending) and j < i (inner, ascending), where
    D counts documents by binary term presence. The loop order and the
    per-pair expression are pinned so an independent double-loop oracle
    reproduces the result bit for bit.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if m > corpus.n_terms:
        raise ValueError("m exceeds vocabulary size")
    if beta.shape[1] != corpus.n_terms:
        raise ValueError("beta column count differs from corpus vocabulary")
    presence = corpus.presence_matrix()
    doc_freq = presence.sum(axis=0)
    out = np.zeros(beta.shape[0])
    for k in range(beta.shape[0]):
        top = rank_terms(beta[k], m)
        total = 0.0
        for i in range(1, m):
            col_i = presence[:, top[i]]
            for j in range(i):
                d_j = int(doc_freq[top[j]])
                if d_j == 0:
                    raise TermAbsentFromCorpus(corpus.vocabulary[top[j]])
                d_ij = int(np.count_nonzero(col_i & presence[:, top[j]]))
                total += math.log((d_ij + 1.0) / d_j)
        out[k] = total
    return out


def _max_ranks(values: np.ndarray) -> np.ndarray:
    """Per-row rank of each entry, ties taking the highest rank: the count
    of entries in its row that are less than or equal to it."""
    order = np.argsort(values, axis=1)
    ranks = np.empty(values.shape, dtype=np.int64)
    for row, idx in enumerate(order):
        # sorted keys let searchsorted resume from the previous match,
        # several times faster than looking up the row in its own order
        ordered = values[row, idx]
        ranks[row, idx] = np.searchsorted(ordered, ordered, side="right")
    return ranks


@dataclass
class FrexResult:
    """FREX matrix plus the per-topic exclusivity summary."""

    frex: np.ndarray          # K x V
    exclusivity: np.ndarray   # K x V, columns sum to 1
    scores: np.ndarray        # K, mean FREX over each topic's top-m beta terms


def exclusivity_frex(beta: np.ndarray, w: float = DEFAULT_FREX_WEIGHT,
                     m: int = DEFAULT_TOP_WORDS) -> FrexResult:
    """FREX_kv = 1 / (w / ecdf_k(excl_kv) + (1-w) / ecdf_k(beta_kv)).

    Exclusivity is the column-normalized beta; both ECDFs run over the
    vocabulary within each topic. w weights exclusivity: at w=0 the FREX
    ranking collapses to the beta ranking, at w=1 to the exclusivity
    ranking.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError("w must lie in [0, 1]")
    beta = np.asarray(beta, dtype=float)
    excl = beta / beta.sum(axis=0, keepdims=True)
    n_terms = beta.shape[1]
    ecdf_excl = _max_ranks(excl) / n_terms
    ecdf_beta = _max_ranks(beta) / n_terms
    frex = 1.0 / (w / ecdf_excl + (1.0 - w) / ecdf_beta)
    scores = np.empty(beta.shape[0])
    for k in range(beta.shape[0]):
        top = rank_terms(beta[k], m)
        scores[k] = float(frex[k, top].mean())
    return FrexResult(frex=frex, exclusivity=excl, scores=scores)


def lift(beta: np.ndarray, corpus: Corpus) -> np.ndarray:
    """beta_kv over the term's corpus-wide relative frequency."""
    if beta.shape[1] != corpus.n_terms:
        raise ValueError("beta column count differs from corpus vocabulary")
    totals = corpus.term_totals().astype(float)
    freq = totals / totals.sum()
    return beta / freq[None, :]


def score(beta: np.ndarray) -> np.ndarray:
    """beta_kv times its log deviation from the across-topic mean log."""
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0):
        raise ValueError("score requires strictly positive beta entries")
    log_beta = np.log(beta)
    return beta * (log_beta - log_beta.mean(axis=0, keepdims=True))


@dataclass
class TopicSummary:
    topic_index: int
    top_prob: list[tuple[str, float]]
    top_frex: list[tuple[str, float]]
    top_lift: list[tuple[str, float]]
    top_score: list[tuple[str, float]]
    n_words: int


@dataclass
class ModelQuality:
    k: int
    coherence_per_topic: np.ndarray
    exclusivity_per_topic: np.ndarray
    mean_coherence: float
    mean_exclusivity: float
    m_top_words: int


def model_quality(beta: np.ndarray, corpus: Corpus, m: int = DEFAULT_TOP_WORDS,
                  frex_w: float = DEFAULT_FREX_WEIGHT) -> ModelQuality:
    coherence = semantic_coherence(beta, corpus, m)
    excl = exclusivity_frex(beta, w=frex_w, m=m).scores
    return ModelQuality(k=beta.shape[0], coherence_per_topic=coherence,
                        exclusivity_per_topic=excl,
                        mean_coherence=float(coherence.mean()),
                        mean_exclusivity=float(excl.mean()),
                        m_top_words=m)


def summarize_topics(beta: np.ndarray, vocabulary: list[str], corpus: Corpus,
                     n_words: int = DEFAULT_SUMMARY_WORDS,
                     frex_w: float = DEFAULT_FREX_WEIGHT) -> list[TopicSummary]:
    """Ranked word lists per topic under all four keyword metrics."""
    frex = exclusivity_frex(beta, w=frex_w).frex
    lift_vals = lift(beta, corpus)
    score_vals = score(beta)

    def top(values_row):
        idx = rank_terms(values_row, n_words)
        return [(vocabulary[i], float(values_row[i])) for i in idx]

    return [TopicSummary(topic_index=k,
                         top_prob=top(beta[k]),
                         top_frex=top(frex[k]),
                         top_lift=top(lift_vals[k]),
                         top_score=top(score_vals[k]),
                         n_words=n_words)
            for k in range(beta.shape[0])]


def top_words_table(summaries: list[TopicSummary]) -> str:
    """Aligned text table of the four keyword rankings per topic."""
    lines = []
    metrics = ("prob", "frex", "lift", "score")
    for s in summaries:
        lists = {"prob": s.top_prob, "frex": s.top_frex,
                 "lift": s.top_lift, "score": s.top_score}
        widths = {m: max([len(m)] + [len(t) for t, _ in lists[m]]) for m in metrics}
        lines.append(f"topic {s.topic_index}")
        lines.append("  rank  " + "  ".join(m.ljust(widths[m]) for m in metrics))
        for r in range(s.n_words):
            row = [f"{r + 1:>5} "]
            for m in metrics:
                term = lists[m][r][0] if r < len(lists[m]) else ""
                row.append(term.ljust(widths[m]))
            lines.append("  ".join(row))
        lines.append("")
    return "\n".join(lines)
