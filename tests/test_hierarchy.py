"""Unit tests for the Figure 1 hierarchy graph."""

import networkx as nx
import pytest

from repro.interaction.hierarchy import (
    HIERARCHY_EDGES,
    OMISSION_AVOIDANCE,
    SPECIAL_CASE,
    edges_with_justification,
    hierarchy_graph,
    is_at_most_as_powerful,
    stronger_models,
    topological_order,
    weaker_models,
)


class TestGraphStructure:
    def test_all_ten_models_are_nodes(self):
        graph = hierarchy_graph()
        assert set(graph.nodes) == {
            "TW", "T1", "T2", "T3", "IT", "IO", "I1", "I2", "I3", "I4"}

    def test_graph_is_a_dag(self):
        assert nx.is_directed_acyclic_graph(hierarchy_graph())

    def test_every_edge_has_justification(self):
        graph = hierarchy_graph()
        for _, _, data in graph.edges(data=True):
            assert data["justification"] in (SPECIAL_CASE, OMISSION_AVOIDANCE)

    def test_tw_is_a_sink(self):
        """TW is the strongest model: no edge leaves it."""
        graph = hierarchy_graph()
        assert graph.out_degree("TW") == 0

    def test_every_model_reaches_tw(self):
        graph = hierarchy_graph()
        for node in graph.nodes:
            assert node == "TW" or nx.has_path(graph, node, "TW")

    def test_node_attributes(self):
        graph = hierarchy_graph()
        assert graph.nodes["IO"]["one_way"] is True
        assert graph.nodes["T3"]["allows_omissions"] is True
        assert graph.nodes["TW"]["allows_omissions"] is False


class TestQueries:
    def test_io_weaker_than_it_and_tw(self):
        assert is_at_most_as_powerful("IO", "IT")
        assert is_at_most_as_powerful("IO", "TW")

    def test_model_is_as_powerful_as_itself(self):
        assert is_at_most_as_powerful("I3", "I3")

    def test_tw_not_weaker_than_io(self):
        assert not is_at_most_as_powerful("TW", "IO")

    def test_t1_chain(self):
        assert is_at_most_as_powerful("T1", "T2")
        assert is_at_most_as_powerful("T1", "T3")
        assert is_at_most_as_powerful("T1", "TW")

    def test_omissive_one_way_weaker_than_it(self):
        for model in ("I1", "I2", "I3", "I4"):
            assert is_at_most_as_powerful(model, "IT")

    def test_weaker_models_of_tw_is_everything(self):
        assert set(weaker_models("TW")) == {
            "T1", "T2", "T3", "IT", "IO", "I1", "I2", "I3", "I4"}

    def test_stronger_models_of_io(self):
        assert "IT" in stronger_models("IO")
        assert "TW" in stronger_models("IO")

    def test_topological_order_ends_with_tw(self):
        order = topological_order()
        assert order[-1] == "TW"
        assert len(order) == 10

    def test_edges_with_justification_partition(self):
        special = edges_with_justification(SPECIAL_CASE)
        avoidance = edges_with_justification(OMISSION_AVOIDANCE)
        assert len(special) + len(avoidance) == len(HIERARCHY_EDGES)
        assert ("T3", "TW") in avoidance
        assert ("IO", "IT") in special

    def test_case_insensitive_lookup(self):
        assert is_at_most_as_powerful("io", "tw")


class TestQueriesMatchNetworkx:
    """The reachability queries walk the edge list; networkx is the reference."""

    MODELS = ("TW", "T1", "T2", "T3", "IT", "IO", "I1", "I2", "I3", "I4")

    def test_is_at_most_as_powerful(self):
        graph = hierarchy_graph()
        for weaker in self.MODELS:
            for stronger in self.MODELS:
                expected = weaker == stronger or nx.has_path(graph, weaker, stronger)
                assert is_at_most_as_powerful(weaker, stronger) == expected

    def test_weaker_and_stronger_models(self):
        graph = hierarchy_graph()
        for name in self.MODELS:
            assert weaker_models(name) == sorted(
                node for node in graph.nodes
                if node != name and nx.has_path(graph, node, name))
            assert stronger_models(name) == sorted(
                node for node in graph.nodes
                if node != name and nx.has_path(graph, name, node))

    def test_topological_order(self):
        assert topological_order() == list(nx.topological_sort(hierarchy_graph()))
