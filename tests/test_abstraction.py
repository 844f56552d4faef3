"""The abstraction transformation (Definitions 3 and 4)."""

import pytest

from repro.errors import NotAbstractableError
from repro.graphs.examples import (
    figure2_abstraction,
    figure2_graph,
    section41_abstraction,
    section41_example,
)
from repro.core.abstraction import Abstraction, abstract_graph
from repro.sdf.graph import SDFGraph


class TestValidation:
    def test_section41_abstraction_is_valid(self):
        section41_abstraction().validate(section41_example())

    def test_coverage_required(self):
        g = section41_example()
        ab = Abstraction(mapping={"A1": "A"}, index={"A1": 0})
        with pytest.raises(NotAbstractableError, match="cover"):
            ab.validate(g)

    def test_extraneous_actors_rejected(self, simple_ring):
        ab = Abstraction(
            mapping={"X": "G", "Y": "G", "Z": "G", "ghost": "G"},
            index={"X": 0, "Y": 1, "Z": 2, "ghost": 3},
        )
        with pytest.raises(NotAbstractableError, match="cover"):
            ab.validate(simple_ring)

    def test_duplicate_index_in_group_rejected(self, simple_ring):
        ab = Abstraction(
            mapping={"X": "G", "Y": "G", "Z": "G"},
            index={"X": 0, "Y": 0, "Z": 1},
        )
        with pytest.raises(NotAbstractableError, match="injective"):
            ab.validate(simple_ring)

    def test_negative_index_rejected(self, simple_ring):
        ab = Abstraction(
            mapping={"X": "G", "Y": "G", "Z": "G"},
            index={"X": -1, "Y": 0, "Z": 1},
        )
        with pytest.raises(NotAbstractableError, match="non-negative"):
            ab.validate(simple_ring)

    def test_mixed_repetition_entries_rejected(self, two_actor_multirate):
        ab = Abstraction(
            mapping={"A": "G", "B": "G"}, index={"A": 0, "B": 1}
        )
        with pytest.raises(NotAbstractableError, match="repetition"):
            ab.validate(two_actor_multirate)

    def test_backward_zero_delay_edge_rejected(self, simple_ring):
        # X→Y zero-delay but indices reversed.
        ab = Abstraction(
            mapping={"X": "G", "Y": "G", "Z": "H"},
            index={"X": 1, "Y": 0, "Z": 0},
        )
        with pytest.raises(NotAbstractableError, match="backward"):
            ab.validate(simple_ring)

    def test_backward_edge_with_delay_accepted(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b", tokens=1)
        g.add_edge("b", "a", tokens=1)
        ab = Abstraction(mapping={"a": "G", "b": "G"}, index={"a": 1, "b": 0})
        ab.validate(g)  # d > 0 allows I(a) > I(b)


class TestHelpers:
    def test_groups_ordered_by_phase(self):
        ab = section41_abstraction()
        groups = ab.groups()
        assert groups["A"] == [f"A{i}" for i in range(1, 7)]
        assert groups["B"] == [f"B{i}" for i in range(1, 5)]

    def test_phase_count(self):
        assert section41_abstraction().phase_count == 6
        assert figure2_abstraction().phase_count == 3

    def test_image(self):
        assert section41_abstraction().image("B3") == ("B", 2)

    def test_empty_abstraction_phase_count(self):
        assert Abstraction(mapping={}, index={}).phase_count == 0


class TestConstruction:
    def test_section41_abstract_graph_matches_figure1b(self):
        g = section41_example()
        abstract = abstract_graph(g, section41_abstraction())
        from repro.core.pruning import prune_redundant_edges

        pruned = prune_redundant_edges(abstract)
        expected = SDFGraph("figure1b")
        expected.add_actor("A", 5)  # slowest Ai
        expected.add_actor("B", 4)
        expected.add_edge("A", "A", tokens=1)
        expected.add_edge("B", "B", tokens=1)
        expected.add_edge("A", "B", tokens=0)
        expected.add_edge("B", "A", tokens=2)
        assert pruned.structurally_equal(expected)

    def test_execution_time_is_group_max(self):
        g = section41_example()
        abstract = abstract_graph(g, section41_abstraction())
        assert abstract.execution_time("A") == 5
        assert abstract.execution_time("B") == 4

    def test_delay_formula(self):
        g = figure2_graph()
        abstract = abstract_graph(g, figure2_abstraction())
        self_edges = sorted(
            e.tokens for e in abstract.edges if e.source == "A" and e.target == "A"
        )
        # Ring forward edges: 1 − 0 + 0 = 1 (twice); ring back edge:
        # 0 − 2 + 3·1 = 1; per-actor self-loops: 0 + 3·1 = 3 (thrice).
        assert self_edges == [1, 1, 1, 3, 3, 3]

    def test_identity_abstraction_is_lossless(self, simple_ring):
        names = simple_ring.actor_names
        identity = Abstraction(mapping={a: a for a in names},
                               index={a: 0 for a in names})
        abstract = abstract_graph(simple_ring, identity)
        assert abstract.structurally_equal(simple_ring)

    def test_multirate_guard(self, two_actor_multirate):
        ab = Abstraction(
            mapping={"A": "A", "B": "B"}, index={"A": 0, "B": 0}
        )
        with pytest.raises(NotAbstractableError, match="homogeneous"):
            abstract_graph(two_actor_multirate, ab)

    def test_multirate_opt_in(self, two_actor_multirate):
        ab = Abstraction(mapping={"A": "A", "B": "B"}, index={"A": 0, "B": 0})
        abstract = abstract_graph(two_actor_multirate, ab, allow_multirate=True)
        assert abstract.structurally_equal(two_actor_multirate)

    def test_actor_count_reduction(self):
        g = section41_example()
        abstract = abstract_graph(g, section41_abstraction())
        assert abstract.actor_count() == 2
        assert g.actor_count() == 10

    def test_every_original_edge_becomes_an_edge(self):
        g = section41_example()
        abstract = abstract_graph(g, section41_abstraction())
        assert abstract.edge_count() == g.edge_count()
