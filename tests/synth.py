"""Synthetic corpora drawn from the model's own generative process."""

from __future__ import annotations

import numpy as np

from agendascope.corpus import Corpus, CovariateRecord
from agendascope.stm import PrevalenceDesign, softmax_with_zero


def model_draw(seed: int, *, n_docs: int = 400, n_terms: int = 500,
               k: int = 5, shift: float = 1.0, doc_len: int = 200,
               topic_conc: float = 0.02, prevalence_var: float = 0.3):
    """Corpus from known (beta*, gamma*) with one binary covariate whose
    coefficient shifts topic 0 by ``shift`` on the logit scale.

    Returns (corpus, design, beta_true, x_binary).
    """
    rng = np.random.default_rng(seed)
    beta = rng.dirichlet(np.full(n_terms, topic_conc), size=k)
    beta = np.maximum(beta, 1e-12)
    beta /= beta.sum(axis=1, keepdims=True)
    x_bin = (np.arange(n_docs) % 2).astype(float)
    gamma = np.zeros((2, k - 1))
    gamma[1, 0] = shift
    mu = np.column_stack([np.ones(n_docs), x_bin]) @ gamma
    eta = mu + rng.multivariate_normal(np.zeros(k - 1),
                                       prevalence_var * np.eye(k - 1),
                                       size=n_docs)
    theta = softmax_with_zero(eta)
    vocab = [f"w{i:04d}" for i in range(n_terms)]
    docs, ids, covs, years = [], [], [], []
    for d in range(n_docs):
        counts = rng.multinomial(doc_len, theta[d] @ beta)
        idx = np.nonzero(counts)[0]
        docs.append((idx.astype(np.int64), counts[idx].astype(np.int64)))
        ids.append(f"D{d:04d}")
        covs.append(CovariateRecord(f"D{d:04d}", 1000.0, 1e6, 0.0, 0,
                                    bool(x_bin[d]), "EAS"))
        years.append(1990)
    corpus = Corpus.from_docs(vocab, ids, docs, covs, years)
    xs = (x_bin - x_bin.mean()) / x_bin.std()
    design = PrevalenceDesign(x=np.column_stack([np.ones(n_docs), xs]),
                              column_names=["(intercept)", "x"])
    return corpus, design, beta, x_bin


def two_block_corpus(seed: int = 0, n_docs: int = 60, n_terms: int = 40,
                     doc_len: int = 60) -> Corpus:
    """Documents drawing exclusively from one half of the vocabulary."""
    rng = np.random.default_rng(seed)
    vocab = [f"t{i:03d}" for i in range(n_terms)]
    docs, ids, covs, years = [], [], [], []
    for d in range(n_docs):
        lo, hi = (0, n_terms // 2) if d % 2 == 0 else (n_terms // 2, n_terms)
        idx, cts = np.unique(rng.integers(lo, hi, size=doc_len),
                             return_counts=True)
        docs.append((idx.astype(np.int64), cts.astype(np.int64)))
        ids.append(f"B{d:03d}")
        covs.append(CovariateRecord(f"B{d:03d}", 1.0, 1.0, 0.0, 0, False, "EAS"))
        years.append(1990)
    return Corpus.from_docs(vocab, ids, docs, covs, years)


def greedy_align(beta_true: np.ndarray, beta_fit: np.ndarray,
                 m: int = 10) -> dict[int, tuple[int, int]]:
    """Greedy matching of true to fitted topics by top-m word overlap.

    Returns {true topic: (fitted topic, overlap count)}.
    """
    k = beta_true.shape[0]
    true_tops = [set(np.argsort(-row)[:m]) for row in beta_true]
    fit_tops = [set(np.argsort(-row)[:m]) for row in beta_fit]
    overlap = np.array([[len(true_tops[i] & fit_tops[j]) for j in range(k)]
                        for i in range(k)], dtype=float)
    mapping: dict[int, tuple[int, int]] = {}
    rem_i, rem_j = set(range(k)), set(range(k))
    while rem_i:
        i, j = max(((i, j) for i in rem_i for j in rem_j),
                   key=lambda p: (overlap[p], -p[0], -p[1]))
        mapping[i] = (j, int(overlap[i, j]))
        rem_i.discard(i)
        rem_j.discard(j)
    return mapping


def csr(docs: list[tuple[np.ndarray, np.ndarray]]):
    """CSR triple (indptr, indices, counts) of per-document (term indices,
    counts) pairs; the counts keep their dtype."""
    return (np.cumsum([0] + [len(idx) for idx, _ in docs]),
            np.concatenate([idx for idx, _ in docs]),
            np.concatenate([cts for _, cts in docs]))


def counts_dense(corpus: Corpus) -> np.ndarray:
    """Dense D x V integer count matrix of a corpus."""
    out = np.zeros((corpus.n_docs, corpus.n_terms), dtype=np.int64)
    out[np.repeat(np.arange(corpus.n_docs), np.diff(corpus.indptr)),
        corpus.indices] = corpus.counts
    return out


def tiny_corpus(doc_terms: list[list[str]], doc_ids: list[str] | None = None) -> Corpus:
    """Corpus straight from term lists (no thresholding), for metric tests."""
    vocab = sorted({t for terms in doc_terms for t in terms})
    index = {t: i for i, t in enumerate(vocab)}
    docs, ids, covs, years = [], [], [], []
    for d, terms in enumerate(doc_terms):
        counts: dict[int, int] = {}
        for t in terms:
            counts[index[t]] = counts.get(index[t], 0) + 1
        idx = np.array(sorted(counts), dtype=np.int64)
        cts = np.array([counts[i] for i in idx], dtype=np.int64)
        doc_id = doc_ids[d] if doc_ids else f"T{d:03d}"
        docs.append((idx, cts))
        ids.append(doc_id)
        covs.append(CovariateRecord(doc_id, 1.0, 1.0, 0.0, 0, False, "EAS"))
        years.append(1990)
    return Corpus.from_docs(vocab, ids, docs, covs, years)
