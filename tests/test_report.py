"""Report artifacts: word clouds, perspective contrasts, topic graph."""

import numpy as np
import pytest

from agendascope.report import perspective_contrast, topic_graph, wordcloud_data
from agendascope.stm import FitConfig, FittedModel


def model_with(beta: np.ndarray, eta: np.ndarray | None = None,
               sigma: np.ndarray | None = None) -> FittedModel:
    k, v = beta.shape
    if eta is None:
        eta = np.zeros((4, k - 1))
    if sigma is None:
        sigma = np.eye(k - 1)
    n = eta.shape[0]
    return FittedModel(beta=beta, gamma=np.zeros((1, k - 1)), sigma=sigma,
                       eta=eta, nu=np.zeros((n, k - 1, k - 1)),
                       bound_trace=[0.0], config=FitConfig(k=k, seed=0),
                       vocabulary=[f"w{i:02d}" for i in range(v)],
                       design_column_names=["(intercept)"],
                       doc_ids=[f"D{i}" for i in range(n)])


class TestWordcloud:
    def test_full_row_sorted(self):
        beta = np.array([[0.1, 0.4, 0.2, 0.3], [0.25, 0.25, 0.25, 0.25]])
        model = model_with(beta)
        entries = wordcloud_data(model, 0, 4)
        assert [t for t, _ in entries] == ["w01", "w03", "w02", "w00"]
        values = [v for _, v in entries]
        assert values == sorted(values, reverse=True)

    def test_probability_sum_bounded(self):
        rng = np.random.default_rng(0)
        beta = rng.dirichlet(np.ones(30), size=3)
        model = model_with(beta)
        entries = wordcloud_data(model, 1, 10)
        assert sum(v for _, v in entries) <= 1.0 + 1e-12

    def test_ties_break_by_vocabulary_index(self):
        beta = np.array([[0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]])
        model = model_with(beta)
        entries = wordcloud_data(model, 0, 4)
        assert [t for t, _ in entries] == ["w00", "w01", "w02", "w03"]

    def test_n_exceeding_vocabulary_rejected(self):
        model = model_with(np.full((2, 3), 1 / 3))
        with pytest.raises(ValueError):
            wordcloud_data(model, 0, 99)


class TestPerspectiveContrast:
    def test_same_topic_rejected(self):
        model = model_with(np.full((2, 3), 1 / 3))
        with pytest.raises(ValueError):
            perspective_contrast(model, 1, 1)

    def test_identical_topics_give_zero_deltas(self):
        beta = np.tile(np.array([0.5, 0.3, 0.2]), (2, 1))
        model = model_with(beta)
        contrast = perspective_contrast(model, 0, 1, n=3)
        assert all(d == 0.0 for _, d, _ in contrast.entries)

    def test_hand_example_normalization(self):
        beta = np.array([[0.5, 0.3, 0.2], [0.1, 0.3, 0.6]])
        model = model_with(beta)
        contrast = perspective_contrast(model, 0, 1, n=3)
        by_term = {t: d for t, d, _ in contrast.entries}
        assert by_term["w00"] == pytest.approx(1.0)
        assert by_term["w01"] == pytest.approx(0.0)
        assert by_term["w02"] == pytest.approx(-1.0)
        sizes = [s for _, _, s in contrast.entries]
        assert sizes == sorted(sizes, reverse=True)

    def test_extremes_reached_whenever_topics_differ(self):
        rng = np.random.default_rng(1)
        beta = rng.dirichlet(np.ones(12), size=3)
        model = model_with(beta)
        contrast = perspective_contrast(model, 0, 2, n=12)
        deltas = [d for _, d, _ in contrast.entries]
        assert max(abs(d) for d in deltas) == pytest.approx(1.0)
        assert all(-1.0 <= d <= 1.0 for d in deltas)


class TestTopicGraph:
    def test_two_documents_give_unit_correlations(self):
        eta = np.array([[2.0, -1.0], [-2.0, 1.0]])
        beta = np.full((3, 4), 0.25)
        model = model_with(beta, eta=eta)
        graph = topic_graph(model, threshold=0.5)
        for _, _, corr in graph.edges:
            assert corr == pytest.approx(1.0)

    def test_planted_blocks_connect_within_only(self):
        rng = np.random.default_rng(2)
        n = 200
        drive_a = rng.normal(size=n)
        drive_b = rng.normal(size=n)
        eta = np.column_stack([
            drive_a + 0.05 * rng.normal(size=n),
            drive_a + 0.05 * rng.normal(size=n),
            drive_b + 0.05 * rng.normal(size=n),
        ])  # topics {0,1} move together, topic 2 with the pinned leftover
        beta = np.full((4, 5), 0.2)
        model = model_with(beta, eta=eta)
        graph = topic_graph(model, threshold=0.3)
        edge_pairs = {(i, j) for i, j, _ in graph.edges}
        assert (0, 1) in edge_pairs
        assert (0, 2) not in edge_pairs and (1, 2) not in edge_pairs

    def test_high_threshold_empties_graph(self):
        rng = np.random.default_rng(3)
        eta = rng.normal(size=(50, 3))
        model = model_with(np.full((4, 5), 0.2), eta=eta)
        graph = topic_graph(model, threshold=0.999)
        assert graph.edges == []

    def test_edges_ordered_and_bounded(self):
        rng = np.random.default_rng(4)
        eta = rng.normal(size=(40, 4))
        model = model_with(np.full((5, 6), 1 / 6), eta=eta)
        graph = topic_graph(model, threshold=-0.5)
        for i, j, corr in graph.edges:
            assert i < j
            assert -1.0 < corr <= 1.0

    def test_dot_output_deterministic(self):
        rng = np.random.default_rng(5)
        eta = rng.normal(size=(30, 2))
        model = model_with(np.full((3, 4), 0.25), eta=eta)
        a = topic_graph(model, threshold=0.0).to_dot()
        b = topic_graph(model, threshold=0.0).to_dot()
        assert a == b
        assert a.startswith("graph topics {")
        assert "t0" in a

    def test_threshold_bounds(self):
        model = model_with(np.full((2, 3), 1 / 3))
        with pytest.raises(ValueError):
            topic_graph(model, threshold=1.0)
