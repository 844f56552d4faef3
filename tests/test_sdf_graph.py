"""The SDF graph data structure."""

import pickle
from fractions import Fraction

import pytest

from repro.errors import ValidationError
from repro.sdf.graph import Actor, Edge, SDFGraph


class TestActorAndEdge:
    def test_actor_requires_name(self):
        with pytest.raises(ValidationError):
            Actor("")

    def test_actor_rejects_negative_time(self):
        with pytest.raises(ValidationError):
            Actor("a", -1)

    def test_actor_accepts_fraction_time(self):
        assert Actor("a", Fraction(1, 2)).execution_time == Fraction(1, 2)

    def test_actor_rejects_float_time(self):
        with pytest.raises(ValidationError):
            Actor("a", 0.5)

    def test_edge_rejects_zero_rates(self):
        with pytest.raises(ValidationError):
            Edge("e", "a", "b", production=0)
        with pytest.raises(ValidationError):
            Edge("e", "a", "b", consumption=0)

    def test_edge_rejects_negative_tokens(self):
        with pytest.raises(ValidationError):
            Edge("e", "a", "b", tokens=-1)

    def test_edge_rejects_bool_rates(self):
        with pytest.raises(ValidationError):
            Edge("e", "a", "b", production=True)

    def test_edge_flags(self):
        e = Edge("e", "a", "a", 1, 1, 2)
        assert e.is_self_loop
        assert e.is_homogeneous
        assert not Edge("f", "a", "b", 2, 1).is_homogeneous


class TestGraphBuilder:
    def test_duplicate_actor_rejected(self):
        g = SDFGraph()
        g.add_actor("a")
        with pytest.raises(ValidationError):
            g.add_actor("a")

    def test_edge_requires_existing_endpoints(self):
        g = SDFGraph()
        g.add_actor("a")
        with pytest.raises(ValidationError):
            g.add_edge("a", "ghost")

    def test_auto_edge_names_unique(self):
        g = SDFGraph()
        g.add_actor("a")
        e1 = g.add_edge("a", "a", tokens=1)
        e2 = g.add_edge("a", "a", tokens=2)
        assert e1.name != e2.name

    def test_duplicate_edge_name_rejected(self):
        g = SDFGraph()
        g.add_actor("a")
        g.add_edge("a", "a", tokens=1, name="x")
        with pytest.raises(ValidationError):
            g.add_edge("a", "a", tokens=1, name="x")

    def test_auto_names_skip_explicit_ones(self):
        g = SDFGraph()
        g.add_actor("a")
        g.add_edge("a", "a", tokens=1, name="e0")
        auto = g.add_edge("a", "a", tokens=1)
        assert auto.name != "e0"

    def test_set_execution_time(self):
        g = SDFGraph()
        g.add_actor("a", 1)
        g.set_execution_time("a", 9)
        assert g.execution_time("a") == 9

    def test_set_tokens(self):
        g = SDFGraph()
        g.add_actor("a")
        e = g.add_edge("a", "a", tokens=1)
        g.set_tokens(e.name, 5)
        assert g.edge(e.name).tokens == 5
        assert g.total_tokens() == 5

    def test_remove_edge(self):
        g = SDFGraph()
        g.add_actor("a")
        e = g.add_edge("a", "a", tokens=1)
        g.remove_edge(e.name)
        assert g.edge_count() == 0
        assert g.out_edges("a") == []
        with pytest.raises(ValidationError):
            g.remove_edge(e.name)

    def test_add_actors_bulk(self):
        g = SDFGraph()
        g.add_actors("a", "b", "c", execution_time=2)
        assert g.actor_count() == 3
        assert all(a.execution_time == 2 for a in g.actors)


def _incremental(name, actors, edges, edge_counter=0):
    """What ``SDFGraph.from_tuples`` must equal: the builders replayed."""
    graph = SDFGraph(name)
    for actor, execution_time in actors:
        graph.add_actor(actor, execution_time)
    for edge, source, target, production, consumption, tokens in edges:
        graph.add_edge(source, target, production, consumption, tokens,
                       name=edge)
    graph._edge_counter = edge_counter
    return graph


_GOOD_ACTORS = [("a", 2), ("b", Fraction(3, 2)), ("c", 0)]
_GOOD_EDGES = [("e0", "a", "b", 2, 3, 1), ("x", "b", "c", 1, 1, 0),
               ("e1", "c", "a", 3, 2, 4), ("e2", "a", "b", 2, 3, 0)]


class TestFromTuples:
    def test_equals_incremental_build(self):
        bulk = SDFGraph.from_tuples("g", _GOOD_ACTORS, _GOOD_EDGES, 3)
        replay = _incremental("g", _GOOD_ACTORS, _GOOD_EDGES, 3)
        assert bulk.__reduce__()[1] == replay.__reduce__()[1]
        assert bulk.actors == replay.actors and bulk.edges == replay.edges
        assert bulk._in == replay._in and bulk._out == replay._out
        assert bulk.fingerprint() == replay.fingerprint()
        assert bulk.add_edge("c", "c").name == replay.add_edge("c", "c").name

    def test_records_compare_and_hash_like_constructed_ones(self):
        bulk = SDFGraph.from_tuples("g", _GOOD_ACTORS, _GOOD_EDGES)
        assert bulk.actor("b") == Actor("b", Fraction(3, 2))
        assert hash(bulk.edge("x")) == hash(Edge("x", "b", "c", 1, 1, 0))

    @pytest.mark.parametrize("actors, edges", [
        (_GOOD_ACTORS + [("a", 1)], []),
        ([("", 1)], []),
        ([("a", -1)], []),
        ([("a", 0.5)], []),
        ([("a", True)], []),
        ([("a", -1), ("a", 1)], []),
        (_GOOD_ACTORS, [("e0", "a", "ghost", 1, 1, 0)]),
        (_GOOD_ACTORS, [("e0", "ghost", "a", 1, 1, 0)]),
        (_GOOD_ACTORS, [("e0", "a", "b", 1, 1, 0), ("e0", "b", "c", 1, 1, 0)]),
        (_GOOD_ACTORS, [("", "a", "b", 1, 1, 0)]),
        (_GOOD_ACTORS, [("e0", "a", "b", 0, 1, 0)]),
        (_GOOD_ACTORS, [("e0", "a", "b", 1, 2.0, 0)]),
        (_GOOD_ACTORS, [("e0", "a", "b", True, 1, 0)]),
        (_GOOD_ACTORS, [("e0", "a", "b", 1, 1, -1)]),
        (_GOOD_ACTORS, [("e0", "a", "b", 1, 1, Fraction(1))]),
    ])
    def test_errors_match_incremental_build(self, actors, edges):
        with pytest.raises(ValidationError) as replayed:
            _incremental("g", actors, edges)
        with pytest.raises(ValidationError) as bulk:
            SDFGraph.from_tuples("g", actors, edges)
        assert str(bulk.value) == str(replayed.value)


class TestInspection:
    def test_adjacency(self, simple_ring):
        assert [e.target for e in simple_ring.out_edges("X")] == ["Y"]
        assert [e.source for e in simple_ring.in_edges("X")] == ["Z"]

    def test_execution_times_view(self, simple_ring):
        assert simple_ring.execution_times == {"X": 2, "Y": 3, "Z": 4}

    def test_homogeneity(self, simple_ring, two_actor_multirate):
        assert simple_ring.is_homogeneous()
        assert not two_actor_multirate.is_homogeneous()

    def test_total_tokens(self, two_actor_multirate):
        assert two_actor_multirate.total_tokens() == 2

    def test_stats_and_repr(self, simple_ring):
        assert simple_ring.stats() == {"actors": 3, "edges": 3, "tokens": 1}
        assert "ring" in repr(simple_ring)

    def test_unknown_actor_errors(self):
        g = SDFGraph()
        with pytest.raises(ValidationError):
            g.actor("nope")
        with pytest.raises(ValidationError):
            g.out_edges("nope")


class TestStructure:
    def test_connectivity(self, simple_ring):
        assert simple_ring.is_connected()
        assert simple_ring.is_strongly_connected()

    def test_disconnected_components(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        assert not g.is_connected()
        assert len(g.undirected_components()) == 2

    def test_weakly_but_not_strongly_connected(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b")
        assert g.is_connected()
        assert not g.is_strongly_connected()
        assert len(g.strongly_connected_components()) == 2

    def test_scc_multi_edge_graph(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b")
        g.add_edge("a", "b", tokens=1)
        g.add_edge("b", "a")
        assert g.is_strongly_connected()


class TestDerivation:
    def test_copy_is_deep_for_structure(self, simple_ring):
        clone = simple_ring.copy()
        clone.add_actor("W")
        clone.set_execution_time("X", 99)
        assert simple_ring.actor_count() == 3
        assert simple_ring.execution_time("X") == 2

    def test_copy_preserves_structure(self, two_actor_multirate):
        assert two_actor_multirate.copy().structurally_equal(two_actor_multirate)

    def test_copy_keeps_the_auto_name_counter(self):
        """Equal derivations of a graph, its copy and its pickle must
        name the next auto-named edge alike, or their fingerprints (and
        so their cache keys) drift apart."""
        g = SDFGraph("counter")
        g.add_actor("a")
        for _ in range(3):
            g.add_edge("a", "a", tokens=1)
        g.remove_edge("e2")
        clone, loaded = g.copy(), pickle.loads(pickle.dumps(g))
        names = {h.add_edge("a", "a", tokens=1).name
                 for h in (g, clone, loaded)}
        assert names == {"e3"}
        assert g.fingerprint() == clone.fingerprint() == loaded.fingerprint()

    def test_with_self_loops(self, simple_ring):
        looped = simple_ring.with_self_loops()
        assert all(looped.has_self_loop(a) for a in looped.actor_names)
        assert looped.edge_count() == simple_ring.edge_count() + 3
        # Idempotent: actors that have loops don't get another.
        assert looped.with_self_loops().edge_count() == looped.edge_count()

    def test_structural_equality_ignores_edge_names(self):
        a = SDFGraph("a")
        a.add_actor("x")
        a.add_edge("x", "x", tokens=1, name="first")
        b = SDFGraph("b")
        b.add_actor("x")
        b.add_edge("x", "x", tokens=1, name="second")
        assert a.structurally_equal(b)

    def test_structural_inequality_on_tokens(self):
        a = SDFGraph()
        a.add_actor("x")
        a.add_edge("x", "x", tokens=1)
        b = SDFGraph()
        b.add_actor("x")
        b.add_edge("x", "x", tokens=2)
        assert not a.structurally_equal(b)

    def test_structural_inequality_on_times(self):
        a = SDFGraph()
        a.add_actor("x", 1)
        b = SDFGraph()
        b.add_actor("x", 2)
        assert not a.structurally_equal(b)


def _pickled_graph():
    """A graph whose auto-name counter runs ahead of its edges (an
    auto-named edge was removed) and whose fingerprint is memoised."""
    g = SDFGraph("pickled")
    g.add_actor("x", 2)
    g.add_actor("y", Fraction(3, 2))
    g.add_actor("z")
    g.add_edge("x", "y", 2, 3, 1)
    g.add_edge("y", "z", name="yz")
    g.add_edge("z", "x", tokens=4)
    g.add_edge("x", "x", tokens=1)
    g.remove_edge("e0")
    g.add_edge("y", "x", 3, 2, 2)
    g.fingerprint()
    return g


class TestPickle:
    def assert_same(self, loaded, original):
        assert loaded.name == original.name
        assert loaded._fingerprint == original._fingerprint
        assert loaded.fingerprint() == original.fingerprint()
        assert loaded.actors == original.actors
        assert loaded.edges == original.edges
        assert loaded._in == original._in
        assert loaded._out == original._out
        assert loaded._edge_counter == original._edge_counter
        # The next auto-named edge gets the same name on both.
        assert loaded.add_edge("z", "y").name == \
            original.add_edge("z", "y").name

    def test_round_trip(self):
        g = _pickled_graph()
        self.assert_same(pickle.loads(pickle.dumps(g)), g)

    def test_former_layout_still_loads(self, monkeypatch):
        """Pickles written before ``__reduce__`` hold the instance dict."""
        g = _pickled_graph()
        with monkeypatch.context() as patch:
            patch.delattr(SDFGraph, "__reduce__")
            former = pickle.dumps(g)
        assert len(pickle.dumps(g)) < len(former)
        self.assert_same(pickle.loads(former), g)

    def test_unpickling_validates(self):
        g = _pickled_graph()
        function, (name, actors, edges, counter, fingerprint) = g.__reduce__()
        with pytest.raises(ValidationError, match="unknown actor"):
            function(name, actors[:1], edges, counter, fingerprint)
