"""Tests for the service-relationship graph."""

import pytest

from repro.exceptions import TopologyError
from repro.topology.graph import ServiceGraph

from .graphs import edges


def graph_of(*edges):
    graph = ServiceGraph()
    for source, target in edges:
        graph.add_edge(source, target)
    return graph


@pytest.fixture
def fig4_graph():
    """The paper's Fig. 4 topology: A-B, A-D, B-C."""
    return graph_of(("a", "b"), ("a", "d"), ("b", "c"))


class TestConstruction:
    def test_add_node_idempotent(self):
        g = ServiceGraph()
        g.add_node("x")
        g.add_node("x")
        assert len(g) == 1

    def test_add_edge_creates_nodes(self):
        g = ServiceGraph()
        g.add_edge("a", "b")
        assert "a" in g and "b" in g

    def test_self_loop_rejected(self):
        g = ServiceGraph()
        with pytest.raises(TopologyError):
            g.add_edge("a", "a")

    def test_edges_sorted(self, fig4_graph):
        assert edges(fig4_graph) == [("a", "b"), ("a", "d"), ("b", "c")]


class TestQueries:

    def test_unknown_node_raises(self, fig4_graph):
        with pytest.raises(TopologyError):
            fig4_graph.reachable("zzz")

    def test_iteration_and_len(self, fig4_graph):
        assert sorted(fig4_graph) == ["a", "b", "c", "d"]
        assert len(fig4_graph) == 4


class TestReachability:
    def test_fig4_affected_services(self, fig4_graph):
        """A change in A affects B, C and D (paper Fig. 4)."""
        assert fig4_graph.reachable("a") == {"b", "c", "d"}

    def test_reachable_excludes_start(self, fig4_graph):
        assert "a" not in fig4_graph.reachable("a")

    def test_directed_reachability(self, fig4_graph):
        assert fig4_graph.reachable("b", directed=True) == {"c"}
        assert fig4_graph.reachable("d", directed=True) == set()

    def test_max_hops(self):
        """There is no hop limit: a chain is reachable end to end."""
        g = graph_of(("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"))
        assert g.reachable("a") == {"b", "c", "d", "e"}
        assert g.reachable("e", directed=True) == set()

    def test_disconnected_components(self):
        g = graph_of(("a", "b"), ("x", "y"))
        assert g.reachable("a") == {"b"}
        assert g.reachable("y") == {"x"}

    def test_cycle_terminates(self):
        g = graph_of(("a", "b"), ("b", "c"), ("c", "a"))
        assert g.reachable("a") == {"b", "c"}
