"""Differential oracle for the front end: integer repetition vector and
the bulk Figure-4 build against their references in ``oracle.py``.

:func:`repetition_vector` solves the balance equations over gcd-reduced
integer pairs; the reference propagates :class:`~fractions.Fraction`
ratios.  Both must return the same vector in the same key order, or
raise the same :class:`InconsistentGraphError` (message and witness
edge).  :func:`realise_iteration_matrix` builds its graph in one
:meth:`SDFGraph.from_tuples` call; the reference replays the
incremental builders.  Both must give the same pickled graph (names,
order, times, edge counter), time types, adjacency, token hooks and
actor counters, or the same :class:`ValidationError`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import reference_realise_iteration_matrix, reference_repetition_vector

from repro.core.hsdf_conversion import realise_iteration_matrix
from repro.errors import InconsistentGraphError, ValidationError
from repro.graphs import TABLE1_CASES
from repro.maxplus.algebra import EPSILON
from repro.maxplus.matrix import MaxPlusMatrix
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import repetition_vector


# ----------------------------------------------------------------------
# repetition vector
# ----------------------------------------------------------------------

@st.composite
def balance_graphs(draw):
    """Random graphs for the balance equations: ``(graph, consistent)``.

    Rates follow a hidden firing vector, so an unperturbed graph is
    consistent.  Few edges over up to eight actors leave several
    components and isolated actors; a copied edge makes parallel edges,
    and self-loops get rates ``p ≠ c`` (inconsistent) as often as
    ``p = c``.  ``perturb`` bumps one rate, which may or may not break
    consistency.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    n = draw(st.integers(min_value=1, max_value=8))
    n_edges = draw(st.integers(min_value=0, max_value=12))
    perturb = draw(st.booleans())
    names = [f"a{i}" for i in range(n)]
    rng.shuffle(names)
    hidden = {a: rng.randint(1, 6) for a in names}
    graph = SDFGraph("balance")
    for a in names:
        graph.add_actor(a, rng.randint(0, 3))
    self_loop_mismatch = False
    for _ in range(n_edges):
        if graph.edge_count() and rng.random() < 0.2:
            edge = rng.choice(graph.edges)  # a parallel edge, same rates
            graph.add_edge(edge.source, edge.target, edge.production,
                           edge.consumption, rng.randint(0, 3))
            continue
        a, b = rng.choice(names), rng.choice(names)
        if a == b and rng.random() < 0.5:
            p, c = rng.sample(range(1, 5), 2)
            self_loop_mismatch = True
        else:
            m = rng.randint(1, 3)
            g = gcd(hidden[a], hidden[b])
            p, c = hidden[b] // g * m, hidden[a] // g * m
        graph.add_edge(a, b, p, c, rng.randint(0, 3))
    if perturb and graph.edge_count():
        edge = rng.choice(graph.edges)
        if rng.random() < 0.5:
            graph.set_rates(edge.name, edge.production + 1, edge.consumption)
        else:
            graph.set_rates(edge.name, edge.production, edge.consumption + 1)
    return graph, not (perturb or self_loop_mismatch)


def _solve(solver, graph):
    try:
        return ("vector", list(solver(graph).items()))
    except InconsistentGraphError as error:
        return ("inconsistent", str(error), error.witness_edge)


class TestRepetitionVectorOracle:
    @given(balance_graphs())
    @settings(max_examples=400, deadline=None)
    def test_matches_fraction_reference(self, case):
        graph, consistent = case
        outcome = _solve(repetition_vector, graph)
        assert outcome == _solve(reference_repetition_vector, graph)
        if consistent:
            assert outcome[0] == "vector"

    def test_table1_vectors(self):
        for case in TABLE1_CASES:
            graph = case.build()
            assert (list(repetition_vector(graph).items())
                    == list(reference_repetition_vector(graph).items()))

    def test_witness_is_the_first_violation_of_the_traversal(self):
        # From a: e0 gives γ(b) = 2, e2 gives γ(c) = 1; c is visited
        # next, and its in-edge e1 implies γ(b) = 1.
        g = SDFGraph("triangle")
        g.add_actors("a", "b", "c")
        g.add_edge("a", "b", 2, 1)
        g.add_edge("b", "c", 1, 1)
        g.add_edge("a", "c", 1, 1)
        outcome = _solve(repetition_vector, g)
        assert outcome == _solve(reference_repetition_vector, g)
        assert outcome[2] == g.edge("e1")
        assert outcome[1] == (
            "graph 'triangle' is inconsistent: edge e1 (b->c, 1/1) "
            "implies γ(b) = 1, but γ(b) = 2")


# ----------------------------------------------------------------------
# the Figure-4 build
# ----------------------------------------------------------------------

def _entry(rng: random.Random):
    kind = rng.random()
    if kind < 0.2:
        return 0
    if kind < 0.6:
        return rng.randint(1, 40)
    return Fraction(rng.randint(0, 60), rng.randint(1, 9))


@st.composite
def figure4_inputs(draw):
    """``(matrix, token_ids, observers, elide_multiplexers)`` for
    :func:`realise_iteration_matrix`: square matrices of order 1–16 at
    0–90% ε, with zero, int and Fraction entries (some Fractions
    integral), up to three observer stamps, and, when ``poison`` is
    drawn, one negative or float coefficient."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    n = draw(st.integers(min_value=1, max_value=16))
    share = draw(st.floats(min_value=0.0, max_value=0.9))
    poison = draw(st.sampled_from([None, None, None, "negative", "float"]))
    rows = [[EPSILON if rng.random() < share else _entry(rng)
             for _ in range(n)] for _ in range(n)]
    for row in rows:  # keep most matrices token-bound
        if all(x == EPSILON for x in row) and rng.random() < 0.9:
            row[rng.randrange(n)] = _entry(rng)
    observers = {
        f"x{index}#{rng.randint(0, 4)}": tuple(
            EPSILON if rng.random() < share else _entry(rng)
            for _ in range(n))
        for index in range(draw(st.integers(min_value=0, max_value=3)))
    }
    if poison is not None:
        finite = [(k, j) for k in range(n) for j in range(n)
                  if rows[k][j] != EPSILON]
        if finite:
            k, j = rng.choice(finite)
            rows[k][j] = -rng.randint(1, 9) if poison == "negative" else 1.5
    token_ids = tuple(("ch", i) for i in range(n))
    # _trusted: a float must reach the build, not MaxPlusMatrix's check.
    matrix = MaxPlusMatrix._trusted([tuple(row) for row in rows], n)
    return matrix, token_ids, observers, draw(st.booleans())


def _realise(build, matrix, token_ids, observers, elide):
    try:
        return build(matrix, token_ids, name="figure4",
                     elide_multiplexers=elide, observers=observers), None
    except ValidationError as error:
        return None, error


def assert_same_build(bulk, replay):
    """Equal graphs down to pickled state, time types and adjacency,
    with the same token hooks and actor counters."""
    graph, reference = bulk.graph, replay.graph
    assert graph.__reduce__()[1] == reference.__reduce__()[1]
    assert ([type(a.execution_time) for a in graph.actors]
            == [type(a.execution_time) for a in reference.actors])
    assert graph._in == reference._in and graph._out == reference._out
    assert graph.fingerprint() == reference.fingerprint()
    assert bulk.token_source == replay.token_source
    assert bulk.token_entry == replay.token_entry
    assert bulk.observers == replay.observers
    for counter in ("matrix_actors", "mux_actors", "demux_actors",
                    "observer_actors"):
        assert getattr(bulk, counter) == getattr(replay, counter), counter


class TestFigure4BuildOracle:
    @given(figure4_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_incremental_replay(self, inputs):
        bulk, error = _realise(realise_iteration_matrix, *inputs)
        replay, reference_error = _realise(
            reference_realise_iteration_matrix, *inputs)
        if reference_error is not None:
            assert error is not None, f"expected {reference_error}"
            assert str(error) == str(reference_error)
            return
        assert error is None, str(error)
        assert_same_build(bulk, replay)
        assert bulk.graph.total_tokens() == len(bulk.token_entry)

    def test_table1_builds(self):
        from repro.core.symbolic import symbolic_iteration

        for case in TABLE1_CASES:
            iteration = symbolic_iteration(case.build())
            args = (iteration.matrix, iteration.token_ids, {}, True)
            assert_same_build(_realise(realise_iteration_matrix, *args)[0],
                              _realise(reference_realise_iteration_matrix,
                                       *args)[0])

    def test_negative_and_float_coefficients_raise_alike(self):
        for bad, message in ((-3, "must be non-negative, got -3"),
                             (1.5, "int or Fraction, got 1.5")):
            matrix = MaxPlusMatrix._trusted([(2, EPSILON), (bad, 1)], 2)
            args = (matrix, ("t0", "t1"), {}, True)
            _, error = _realise(realise_iteration_matrix, *args)
            _, reference = _realise(reference_realise_iteration_matrix, *args)
            assert error is not None and message in str(error)
            assert str(error) == str(reference)
