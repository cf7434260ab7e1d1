"""Tests for the end-to-end reorder -> HTB -> count pipeline."""

import pytest

from repro.core.counts import BicliqueQuery
from repro.core.pipeline import REORDER_METHODS, run_pipeline
from repro.core.verify import brute_force_count


@pytest.fixture(scope="module")
def graph():
    from repro.graph.generators import power_law_bipartite
    return power_law_bipartite(100, 80, 450, seed=13, name="pipe")


@pytest.fixture(scope="module")
def query():
    return BicliqueQuery(3, 2)


class TestPipeline:
    @pytest.mark.parametrize("method", REORDER_METHODS)
    def test_count_invariant_under_reordering(self, graph, query, method):
        pipe = run_pipeline(graph, query, reorder=method,
                            border_iterations=8)
        assert pipe.result.count == brute_force_count(graph, query)

    def test_unknown_method(self, graph, query):
        with pytest.raises(ValueError):
            run_pipeline(graph, query, reorder="sortofrandom")

    def test_components_reported(self, graph, query):
        pipe = run_pipeline(graph, query, reorder="border",
                            border_iterations=8, backend="sim")
        assert pipe.reorder_seconds > 0
        assert pipe.htb_transform_seconds > 0
        assert pipe.counting_seconds > 0

    def test_none_skips_reorder(self, graph, query):
        pipe = run_pipeline(graph, query, reorder="none")
        assert pipe.reordering is None
        assert pipe.reordered_graph is graph

    def test_reuse_reordered_graph(self, graph, query):
        first = run_pipeline(graph, query, reorder="border",
                             border_iterations=8)
        again = run_pipeline(graph, BicliqueQuery(2, 2), reorder="border",
                             reordered=first.reordered_graph)
        assert again.reorder_seconds == 0.0
        assert again.result.count == brute_force_count(graph,
                                                       BicliqueQuery(2, 2))
