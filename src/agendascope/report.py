"""Analysis artifacts: word-cloud data, two-topic contrasts, and the topic
correlation network."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import rank_terms
from .stm import FittedModel

DEFAULT_GRAPH_THRESHOLD = 0.05


@dataclass
class PerspectiveContrast:
    """Term-level contrast between two topics.

    delta is the probability difference normalized by the largest absolute
    difference over the vocabulary (so the extremes hit +/-1); size is the
    larger of the two probabilities.
    """

    topic_a: int
    topic_b: int
    entries: list[tuple[str, float, float]]  # (term, delta, size)


@dataclass
class TopicGraph:
    nodes: list[tuple[int, str]]              # (topic index, label)
    edges: list[tuple[int, int, float]]       # (i, j, correlation), i < j
    threshold: float

    def to_dot(self) -> str:
        lines = ["graph topics {"]
        for i, label in self.nodes:
            lines.append(f'  t{i} [label="{label}"];')
        for i, j, corr in self.edges:
            lines.append(f'  t{i} -- t{j} [weight={corr:.6f}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def wordcloud_data(model: FittedModel, topic: int, n: int) -> list[tuple[str, float]]:
    """Top-n terms of one topic by probability, ties by vocabulary index."""
    if not 0 <= topic < model.k:
        raise ValueError(f"topic {topic} out of range for k={model.k}")
    if n > len(model.vocabulary):
        raise ValueError("n exceeds vocabulary size")
    row = model.beta[topic]
    idx = rank_terms(row, n)
    return [(model.vocabulary[i], float(row[i])) for i in idx]


def perspective_contrast(model: FittedModel, a: int, b: int,
                         n: int = 50) -> PerspectiveContrast:
    if a == b:
        raise ValueError("perspective contrast needs two distinct topics")
    for t in (a, b):
        if not 0 <= t < model.k:
            raise ValueError(f"topic {t} out of range for k={model.k}")
    beta_a = model.beta[a]
    beta_b = model.beta[b]
    diff = beta_a - beta_b
    max_abs = float(np.abs(diff).max())
    deltas = diff / max_abs if max_abs > 0 else np.zeros_like(diff)
    sizes = np.maximum(beta_a, beta_b)
    idx = rank_terms(sizes, n)
    entries = [(model.vocabulary[i], float(deltas[i]), float(sizes[i]))
               for i in idx]
    return PerspectiveContrast(topic_a=a, topic_b=b, entries=entries)


def topic_graph(model: FittedModel,
                threshold: float = DEFAULT_GRAPH_THRESHOLD) -> TopicGraph:
    """Correlation network over topics: an edge joins two topics whose
    document-topic proportions correlate across documents above
    ``threshold``; each node is labelled with its topic's top 3 words."""
    if not -1.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (-1, 1)")
    k = model.k
    nodes = [(i, ", ".join(t for t, _ in wordcloud_data(model, i, 3)))
             for i in range(k)]
    edges: list[tuple[int, int, float]] = []
    theta = model.theta
    centered = theta - theta.mean(axis=0, keepdims=True)
    std = centered.std(axis=0)
    for i in range(k):
        for j in range(i + 1, k):
            if std[i] == 0.0 or std[j] == 0.0:
                continue
            corr = float((centered[:, i] * centered[:, j]).mean()
                         / (std[i] * std[j]))
            if corr > threshold:
                edges.append((i, j, min(corr, 1.0)))
    return TopicGraph(nodes=nodes, edges=edges, threshold=threshold)
