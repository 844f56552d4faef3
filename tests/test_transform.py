"""The traditional SDF-to-HSDF conversion (the paper's baseline)."""

import random

import pytest

from repro.analysis.throughput import throughput
from repro.graphs import TABLE1_CASES
from repro.graphs.examples import figure3_graph
from repro.graphs.random_sdf import random_consistent_sdf
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import iteration_length, repetition_vector
from repro.sdf.schedule import is_live
from repro.sdf.transform import firing_name, traditional_hsdf


class TestStructure:
    def test_actor_count_is_iteration_length(self, two_actor_multirate):
        h = traditional_hsdf(two_actor_multirate)
        assert h.actor_count() == iteration_length(two_actor_multirate)

    def test_result_is_homogeneous(self, two_actor_multirate):
        assert traditional_hsdf(two_actor_multirate).is_homogeneous()

    def test_execution_times_copied_to_copies(self, two_actor_multirate):
        h = traditional_hsdf(two_actor_multirate)
        assert h.execution_time(firing_name("A", 0)) == 3
        assert h.execution_time(firing_name("A", 1)) == 3
        assert h.execution_time(firing_name("B", 0)) == 1

    def test_homogeneous_graph_maps_to_itself_modulo_names(self, simple_ring):
        h = traditional_hsdf(simple_ring)
        assert h.actor_count() == simple_ring.actor_count()
        assert h.edge_count() == simple_ring.edge_count()
        assert h.total_tokens() == simple_ring.total_tokens()

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
    def test_table1_traditional_sizes(self, case):
        if case.paper_traditional > 2000:
            pytest.skip("large expansion covered by the benchmark harness")
        h = traditional_hsdf(case.build())
        assert h.actor_count() == case.paper_traditional

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
    def test_bulk_build_matches_incremental_build(self, case):
        """The expansion is built in one ``SDFGraph.from_tuples`` call;
        replaying it through ``add_actor``/``add_edge`` with auto-named
        edges gives the same pickled state, edge counter included."""
        h = traditional_hsdf(case.build())
        replay = SDFGraph(h.name)
        for actor in h.actors:
            replay.add_actor(actor.name, actor.execution_time)
        for edge in h.edges:
            replay.add_edge(edge.source, edge.target, 1, 1, edge.tokens)
        assert replay.__reduce__()[1] == h.__reduce__()[1]
        assert replay._in == h._in and replay._out == h._out


class TestDependencyFormula:
    def test_self_loop_serialises_copies(self):
        g = SDFGraph()
        g.add_actor("a", 1)
        g.add_actor("b", 1)
        g.add_edge("a", "b", production=1, consumption=3)
        g.add_edge("b", "a", production=3, consumption=1, tokens=3)
        g.add_edge("a", "a", tokens=1)
        h = traditional_hsdf(g)
        # a has γ=3: chain a#0 → a#1 → a#2 with wrap-around delay.
        assert any(
            e.source == "a#0" and e.target == "a#1" and e.tokens == 0
            for e in h.edges
        )
        assert any(
            e.source == "a#2" and e.target == "a#0" and e.tokens == 1
            for e in h.edges
        )

    def test_initial_tokens_create_iteration_delays(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b", tokens=1)
        g.add_edge("b", "a", tokens=1)
        h = traditional_hsdf(g)
        delays = {(e.source, e.target): e.tokens for e in h.edges}
        assert delays == {("a#0", "b#0"): 1, ("b#0", "a#0"): 1}

    def test_figure3_expansion(self):
        h = traditional_hsdf(figure3_graph())
        assert h.actor_count() == 3
        delays = {(e.source, e.target): e.tokens for e in h.edges}
        # L#1 consumes the self-loop token L#0 produced (same iteration).
        assert delays[("L#0", "L#1")] == 0
        # L#0 consumes the self-loop token of the previous iteration.
        assert delays[("L#1", "L#0")] == 1
        # R consumes both L outputs of the current iteration.
        assert delays[("L#0", "R#0")] == 0
        assert delays[("L#1", "R#0")] == 0
        # R→L channel: two tokens, consumed by this iteration's L firings.
        assert delays[("R#0", "L#0")] == 1
        assert delays[("R#0", "L#1")] == 1

    def test_rates_spanning_multiple_firings(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b", production=2, consumption=3)
        g.add_edge("b", "a", production=3, consumption=2, tokens=6)
        h = traditional_hsdf(g)  # γ = (3, 2)
        # b#0 consumes tokens 0,1,2 produced by a#0 (0,1) and a#1 (2).
        targets_of_b0 = {
            e.source for e in h.in_edges("b#0") if e.tokens == 0
        }
        assert targets_of_b0 == {"a#0", "a#1"}

    def test_parallel_sdf_edges_keep_min_delay(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b", tokens=0)
        g.add_edge("a", "b", tokens=5)
        g.add_edge("b", "a", tokens=1)
        h = traditional_hsdf(g)
        (edge,) = [e for e in h.edges if e.source == "a#0" and e.target == "b#0"]
        assert edge.tokens == 0


class TestSemanticEquivalence:
    def test_liveness_preserved(self, two_actor_multirate):
        assert is_live(traditional_hsdf(two_actor_multirate))

    def test_throughput_preserved_small(self, two_actor_multirate):
        original = throughput(two_actor_multirate, method="symbolic")
        expanded = throughput(traditional_hsdf(two_actor_multirate), method="hsdf")
        assert original.cycle_time == expanded.cycle_time

    def test_figure3_throughput_preserved(self):
        g = figure3_graph()
        assert (
            throughput(g, method="symbolic").cycle_time
            == throughput(traditional_hsdf(g), method="hsdf").cycle_time
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_throughput_preserved(self, seed):
        rng = random.Random(seed)
        g = random_consistent_sdf(rng, n_actors=4, extra_edges=2, max_repetition=4)
        original = throughput(g, method="symbolic")
        expanded = throughput(traditional_hsdf(g), method="hsdf")
        assert original.cycle_time == expanded.cycle_time

    def test_copies_fire_once_per_iteration(self, two_actor_multirate):
        h = traditional_hsdf(two_actor_multirate)
        assert set(repetition_vector(h).values()) == {1}
