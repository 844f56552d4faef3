"""Observed firings in the compact conversion (the paper's 'output actor'
remark in Section 6)."""

from fractions import Fraction

import pytest

from repro.analysis.latency import latency
from repro.analysis.throughput import throughput
from repro.core.hsdf_conversion import convert_to_hsdf
from repro.core.symbolic import symbolic_iteration
from repro.errors import ValidationError
from repro.graphs import modem
from repro.graphs.examples import figure3_graph, section41_example
from repro.maxplus.algebra import EPSILON


class TestObservers:
    def test_observer_actor_created(self):
        conv = convert_to_hsdf(figure3_graph(), observe=[("R", 0)])
        assert conv.observers == {"R#0": "obs_R#0"}
        assert conv.graph.has_actor("obs_R#0")
        assert conv.observer_actors >= 2  # sync + at least one coefficient

    def test_observer_latency_matches_original_firing(self):
        g = figure3_graph()
        conv = convert_to_hsdf(g, observe=[("R", 0), ("L", 1)])
        compact_latency = latency(conv.graph)
        original = latency(g)
        # R's first completion is 7, L's second is 6 (paper's stamps).
        assert compact_latency.of("obs_R#0") == original.last_completion["R"]
        assert compact_latency.of("obs_L#1") == Fraction(6)

    def test_observer_on_section41_output(self):
        g = section41_example()
        conv = convert_to_hsdf(g, observe=[("A6", 0)])
        assert latency(conv.graph).of("obs_A6#0") == 23

    def test_throughput_unchanged_by_observers(self):
        g = figure3_graph()
        plain = convert_to_hsdf(g)
        observed = convert_to_hsdf(g, observe=[("R", 0)])
        assert (
            throughput(plain.graph, method="hsdf").cycle_time
            == throughput(observed.graph, method="hsdf").cycle_time
        )

    def test_observer_coefficients_match_stamp(self):
        g = figure3_graph()
        iteration = symbolic_iteration(g)
        conv = convert_to_hsdf(g, iteration=iteration, observe=[("L", 0)])
        stamp = iteration.firing_completions[("L", 0)]
        for j, value in enumerate(stamp):
            name = f"obsg_L#0_{j}"
            if value == EPSILON:
                assert not conv.graph.has_actor(name)
            else:
                assert conv.graph.execution_time(name) == value

    def test_unknown_firing_rejected(self):
        with pytest.raises(ValidationError, match="no firing"):
            convert_to_hsdf(figure3_graph(), observe=[("L", 7)])
        with pytest.raises(ValidationError, match="no firing"):
            convert_to_hsdf(figure3_graph(), observe=[("ghost", 0)])

    def test_observer_forces_needed_demux(self):
        # Observing taps every token the firing depends on; their
        # demultiplexers must exist even where elision would remove them.
        g = figure3_graph()
        iteration = symbolic_iteration(g)
        conv = convert_to_hsdf(g, iteration=iteration, observe=[("R", 0)])
        stamp = iteration.firing_completions[("R", 0)]
        for j, value in enumerate(stamp):
            if value != EPSILON:
                assert conv.graph.has_actor(f"dmx_{j}")

    def test_simulated_observer_fires_periodically(self):
        g = figure3_graph()
        conv = convert_to_hsdf(g, observe=[("R", 0)])
        result = throughput(conv.graph, method="simulation")
        assert result.cycle_time == 7


class TestPaperBounds:
    """Section 6's N(N+2) / N(2N+1) / N bounds cover the base structure;
    observer chains come on top and are not counted."""

    def test_observed_conversion_is_within_bounds(self):
        g = modem()
        firings = list(symbolic_iteration(g).firing_completions)[:20]
        observed = convert_to_hsdf(g, observe=firings)
        plain = convert_to_hsdf(g)
        n = len(observed.token_ids)
        # The whole graph exceeds both bounds (14 tokens: 224 and 406)...
        assert (observed.actor_count, observed.edge_count) == (408, 735)
        assert observed.actor_count > n * (n + 2)
        assert observed.edge_count > n * (2 * n + 1)
        # ...its base structure is the unobserved conversion's.
        assert (observed.observer_actors, observed.observer_edges) == (224, 408)
        assert observed.actor_count - observed.observer_actors == plain.actor_count
        assert observed.edge_count - observed.observer_edges == plain.edge_count
        assert observed.within_paper_bounds()

    def test_unobserved_conversion_counts_unchanged(self):
        plain = convert_to_hsdf(modem())
        assert (plain.actor_count, plain.edge_count, plain.token_count) == (184, 327, 14)
        assert plain.observer_actors == plain.observer_edges == 0
        assert plain.within_paper_bounds()
