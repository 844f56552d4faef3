"""Redundant parallel-edge pruning (Section 4.2)."""

from repro.analysis.throughput import throughput
from repro.core.abstraction import abstract_graph
from repro.core.pruning import prune_redundant_edges
from repro.graphs.examples import (
    figure2_abstraction,
    figure2_graph,
    section41_abstraction,
    section41_example,
)
from repro.sdf.graph import SDFGraph


class TestBasics:
    def test_no_parallel_edges_is_identity(self, simple_ring):
        pruned = prune_redundant_edges(simple_ring)
        assert pruned.structurally_equal(simple_ring)

    def test_keeps_minimum_token_edge(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b", tokens=5)
        g.add_edge("a", "b", tokens=2)
        g.add_edge("a", "b", tokens=7)
        g.add_edge("b", "a", tokens=1)
        pruned = prune_redundant_edges(g)
        kept = [e for e in pruned.edges if e.source == "a"]
        assert len(kept) == 1 and kept[0].tokens == 2

    def test_different_rate_classes_not_merged(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b", production=2, consumption=1, tokens=5)
        g.add_edge("a", "b", production=1, consumption=2, tokens=0)
        pruned = prune_redundant_edges(g)
        assert pruned.edge_count() == 2

    def test_direction_matters(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b", tokens=1)
        g.add_edge("b", "a", tokens=1)
        assert prune_redundant_edges(g).edge_count() == 2

    def test_execution_times_preserved(self, simple_ring):
        assert (
            prune_redundant_edges(simple_ring).execution_times
            == simple_ring.execution_times
        )


class TestPaperExamples:
    def test_figure2_redundant_self_edge_removed(self):
        abstract = abstract_graph(figure2_graph(), figure2_abstraction())
        pruned = prune_redundant_edges(abstract)
        self_edges = [e for e in pruned.edges if e.source == e.target == "A"]
        # Of the six parallel A→A edges (delays 1,1,1,3,3,3) one remains.
        assert len(self_edges) == 1
        assert self_edges[0].tokens == 1

    def test_figure1_abstract_prunes_to_four_edges(self):
        abstract = abstract_graph(section41_example(), section41_abstraction())
        assert prune_redundant_edges(abstract).edge_count() == 4


class TestThroughputInvariance:
    def test_throughput_preserved_figure2(self):
        abstract = abstract_graph(figure2_graph(), figure2_abstraction())
        assert (
            throughput(prune_redundant_edges(abstract)).cycle_time
            == throughput(abstract).cycle_time
        )

    def test_throughput_preserved_figure1(self):
        abstract = abstract_graph(section41_example(), section41_abstraction())
        assert (
            throughput(prune_redundant_edges(abstract)).cycle_time
            == throughput(abstract).cycle_time
        )

    def test_simulation_agrees_after_pruning(self):
        abstract = abstract_graph(figure2_graph(), figure2_abstraction())
        pruned = prune_redundant_edges(abstract)
        assert (
            throughput(pruned, method="simulation").cycle_time
            == throughput(abstract, method="simulation").cycle_time
        )
