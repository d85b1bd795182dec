"""Keyword metrics: coherence, FREX/exclusivity, lift, score."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from agendascope.errors import TermAbsentFromCorpus
from agendascope.metrics import (exclusivity_frex, lift, model_quality,
                                 rank_terms, score, semantic_coherence,
                                 summarize_topics, top_words_table)
from oracles import coherence_brute_force
from synth import tiny_corpus


def random_beta(rng, k, v):
    beta = rng.random((k, v)) + 1e-3
    return beta / beta.sum(axis=1, keepdims=True)


class TestSemanticCoherence:
    def test_perfect_cooccurrence_hand_value(self):
        # 3 docs all containing both top terms: D(v1,v2)=3, D(v2)=3
        corpus = tiny_corpus([["aaa", "bbb", "ccc"],
                              ["aaa", "bbb"],
                              ["aaa", "bbb", "ddd"]])
        beta = np.array([[0.5, 0.4, 0.05, 0.05]])  # top-2: aaa, bbb
        value = semantic_coherence(beta, corpus, m=2)
        assert value[0] == pytest.approx(math.log(4.0 / 3.0), abs=0)

    def test_no_cooccurrence_singleton_docfreq(self):
        corpus = tiny_corpus([["aaa"], ["bbb"]])
        beta = np.array([[0.6, 0.4]])
        value = semantic_coherence(beta, corpus, m=2)
        assert value[0] == pytest.approx(math.log(1.0 / 1.0), abs=0)

    def test_top_terms_distinct_by_construction(self):
        corpus = tiny_corpus([["aaa", "bbb"], ["aaa", "bbb"]])
        beta = np.array([[0.5, 0.5]])  # tie broken by vocabulary index
        top = rank_terms(beta[0], 2)
        assert len(set(top.tolist())) == 2

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            n_docs = int(rng.integers(3, 11))
            n_terms = int(rng.integers(6, 21))
            doc_terms = []
            for d in range(n_docs):
                size = int(rng.integers(1, n_terms))
                terms = sorted(rng.choice(n_terms, size=size, replace=False))
                doc_terms.append([f"w{t:02d}" for t in terms])
            corpus = tiny_corpus(doc_terms)
            beta = random_beta(rng, 3, corpus.n_terms)
            m = int(rng.integers(2, min(6, corpus.n_terms) + 1))
            got = semantic_coherence(beta, corpus, m=m)
            doc_sets = [set(idx.tolist())
                        for idx in np.split(corpus.indices, corpus.indptr[1:-1])]
            for k in range(3):
                expected = coherence_brute_force(beta[k], doc_sets, m)
                assert got[k] == expected  # bit-exact, same expression order

    def test_term_absent_error(self):
        corpus = tiny_corpus([["aaa", "bbb"]])
        # strip term bbb
        corpus.indptr, corpus.indices, corpus.counts = (np.array([0, 1]), np.array([0]),
                                                        np.array([2]))
        beta = np.array([[0.3, 0.7]])
        with pytest.raises(TermAbsentFromCorpus):
            semantic_coherence(beta, corpus, m=2)


class TestFrex:
    def test_single_topic_degeneracy(self):
        rng = np.random.default_rng(0)
        beta = random_beta(rng, 1, 12)
        res = exclusivity_frex(beta)
        assert np.allclose(res.exclusivity, 1.0)
        # FREX must rank exactly like beta within the topic
        assert np.array_equal(rank_terms(res.frex[0]), rank_terms(beta[0]))

    def test_w_zero_matches_frequency_ranking(self):
        rng = np.random.default_rng(1)
        beta = random_beta(rng, 4, 30)
        res = exclusivity_frex(beta, w=0.0)
        for k in range(4):
            assert np.array_equal(rank_terms(res.frex[k]), rank_terms(beta[k]))

    def test_w_one_matches_exclusivity_ranking(self):
        rng = np.random.default_rng(2)
        beta = random_beta(rng, 4, 30)
        res = exclusivity_frex(beta, w=1.0)
        for k in range(4):
            assert np.array_equal(rank_terms(res.frex[k]),
                                  rank_terms(res.exclusivity[k]))

    def test_exclusivity_columns_sum_to_one(self):
        rng = np.random.default_rng(3)
        beta = random_beta(rng, 5, 40)
        res = exclusivity_frex(beta)
        assert np.allclose(res.exclusivity.sum(axis=0), 1.0, atol=1e-9)

    def test_score_is_mean_frex_over_top_beta_terms(self):
        rng = np.random.default_rng(4)
        beta = random_beta(rng, 3, 25)
        res = exclusivity_frex(beta, w=0.7, m=10)
        for k in range(3):
            top = rank_terms(beta[k], 10)
            assert res.scores[k] == pytest.approx(res.frex[k, top].mean())

    def test_ties_take_the_highest_rank(self):
        # a three-way tie in beta: each tied term's ECDF is 4/5, not 2/5,
        # 3/5 or their mean; one topic makes every exclusivity 1, ECDF 5/5
        beta = np.array([[0.1, 0.2, 0.2, 0.2, 0.3]])
        ecdf_beta = np.array([0.2, 0.8, 0.8, 0.8, 1.0])
        res = exclusivity_frex(beta, w=0.7)
        expected = 1.0 / (0.7 / 1.0 + (1.0 - 0.7) / ecdf_beta)
        assert np.array_equal(res.frex[0], expected)
        assert np.array_equal(exclusivity_frex(beta, w=0.0).frex[0], ecdf_beta)

    def test_matches_scipy_max_rank_with_tied_columns(self):
        rng = np.random.default_rng(6)
        beta = random_beta(rng, 30, 3000)
        beta[:, 1000:1400] = beta[:, 7:8]         # tied within every row
        beta[:, 2000:2300] = beta[:, 2300:2600]   # duplicated columns
        beta /= beta.sum(axis=1, keepdims=True)
        w, n_terms = 0.7, beta.shape[1]
        excl = beta / beta.sum(axis=0, keepdims=True)
        ecdf_excl = rankdata(excl, method="max", axis=1) / n_terms
        ecdf_beta = rankdata(beta, method="max", axis=1) / n_terms
        expected = 1.0 / (w / ecdf_excl + (1.0 - w) / ecdf_beta)
        assert np.array_equal(exclusivity_frex(beta, w=w).frex, expected)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_vocabulary_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        beta = random_beta(rng, 3, 12)
        perm = rng.permutation(12)
        res = exclusivity_frex(beta)
        res_perm = exclusivity_frex(beta[:, perm])
        assert np.allclose(res_perm.frex, res.frex[:, perm], atol=1e-12)


class TestLift:
    def test_uniform_symmetry(self):
        corpus = tiny_corpus([["aaa", "bbb"], ["aaa", "bbb"]])
        beta = np.full((2, 2), 0.5)
        values = lift(beta, corpus)
        assert np.allclose(values, values[0, 0])

    def test_rare_term_tops_ranking(self):
        corpus = tiny_corpus([["aaa"] * 9 + ["bbb"], ["aaa"] * 10])
        beta = np.array([[0.5, 0.5]])
        values = lift(beta, corpus)
        assert values[0, 1] > values[0, 0]
        assert rank_terms(values[0], 1)[0] == 1

    def test_hand_computed_ratios(self):
        # counts: aaa=3, bbb=1, ccc=4; totals=8
        corpus = tiny_corpus([["aaa", "aaa", "bbb", "ccc"],
                              ["aaa", "ccc", "ccc", "ccc"]])
        beta = np.array([[0.2, 0.5, 0.3],
                         [0.6, 0.1, 0.3]])
        values = lift(beta, corpus)
        freq = np.array([3 / 8, 1 / 8, 4 / 8])
        assert values == pytest.approx(beta / freq, abs=1e-12)


class TestScore:
    def test_identical_rows_vanish(self):
        beta = np.tile(np.array([0.5, 0.3, 0.2]), (4, 1))
        assert np.abs(score(beta)).max() < 1e-12

    def test_hand_example(self):
        beta = np.array([[0.8, 0.2], [0.2, 0.8]])
        expected_11 = 0.8 * (math.log(0.8) - 0.5 * (math.log(0.8) + math.log(0.2)))
        assert score(beta)[0, 0] == pytest.approx(expected_11, abs=1e-12)

    def test_topic_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        beta = random_beta(rng, 4, 9)
        perm = np.array([2, 0, 3, 1])
        assert np.allclose(score(beta[perm]), score(beta)[perm], atol=1e-12)

    def test_requires_positive_entries(self):
        with pytest.raises(ValueError):
            score(np.array([[0.0, 1.0]]))


class TestSummaries:
    def make(self):
        docs = [["war", "peace", "econom"], ["war", "growth", "econom"],
                ["peace", "growth", "econom", "war"]]
        corpus = tiny_corpus(docs)
        rng = np.random.default_rng(6)
        beta = random_beta(rng, 2, corpus.n_terms)
        return corpus, beta

    def test_summary_shapes_and_sorting(self):
        corpus, beta = self.make()
        summaries = summarize_topics(beta, corpus.vocabulary, corpus, n_words=3)
        assert len(summaries) == 2
        for s in summaries:
            for ranked in (s.top_prob, s.top_frex, s.top_lift, s.top_score):
                values = [v for _, v in ranked]
                assert values == sorted(values, reverse=True)
                assert all(term in corpus.vocabulary for term, _ in ranked)

    def test_model_quality_means(self):
        corpus, beta = self.make()
        quality = model_quality(beta, corpus, m=2)
        assert quality.mean_coherence == pytest.approx(
            quality.coherence_per_topic.mean())
        assert quality.mean_exclusivity == pytest.approx(
            quality.exclusivity_per_topic.mean())
        assert quality.k == 2

    def test_table_renders_every_topic(self):
        corpus, beta = self.make()
        summaries = summarize_topics(beta, corpus.vocabulary, corpus, n_words=2)
        table = top_words_table(summaries)
        assert "topic 0" in table and "topic 1" in table
        assert "prob" in table and "frex" in table
