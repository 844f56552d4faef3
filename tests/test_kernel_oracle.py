"""Differential-oracle suite: numpy kernels vs the exact reference.

Every graph in the Table-1 registry and 200+ hypothesis-generated
graphs run through both concrete kernels; :func:`oracle.assert_backends_agree`
asserts bit-identical results, matching error behaviour, provenance
kernel labels and witness re-verification.  The dense max-plus semiring
is cross-checked separately against :class:`MaxPlusMatrix`, including
all-ε rows and columns.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

from oracle import assert_backends_agree, assert_symbolic_engines_agree
from strategies import consistent_connected_sdf_graphs, symbolic_stress_graphs

from repro.core.symbolic import symbolic_iteration
from repro.graphs import TABLE1_CASES
from repro.graphs.examples import figure3_graph
from repro.kernels import NumericalGuardError
from repro.kernels.maxplus import (
    from_dense,
    from_dense_vector,
    mp_matmul,
    mp_matvec,
    mp_power,
    to_dense,
    to_dense_vector,
)
from repro.maxplus.algebra import EPSILON
from repro.maxplus.matrix import MaxPlusMatrix, MaxPlusVector

#: Registry graphs whose self-timed state space is small enough for the
#: (slow, pure-python) exact simulator to explore twice in test time.
_FAST_SIMULATION = ("modem", "mp3 dec. block par.", "mp3 dec. granule par.")

_CASES = {case.name: case for case in TABLE1_CASES}


@pytest.mark.parametrize("name", sorted(_CASES))
@pytest.mark.parametrize("method", ["symbolic", "hsdf"])
def test_registry_agreement(name, method):
    assert_backends_agree(_CASES[name].build(), method)


@pytest.mark.parametrize("name", _FAST_SIMULATION)
def test_registry_simulation_agreement(name):
    assert_backends_agree(_CASES[name].build(), "simulation")


class TestPropertyAgreement:
    """Hypothesis cross-backend agreement (≥200 examples in total).

    The strategies always attach one-token self-loops (auto-concurrency
    bounds), and the default ``min_time=0`` draws zero-execution-time
    actors — including all-zero cycles, where both backends must agree
    the throughput is unbounded.  The simulation property needs
    ``min_time=1``: the state-space simulator rejects zero-time cycles
    by design, in both kernels alike (error agreement covers that).
    """

    @given(g=consistent_connected_sdf_graphs(
        max_actors=5, max_repetition=4, max_extra_edges=3,
        max_extra_tokens=2))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_symbolic_agreement(self, g):
        assert_backends_agree(g, "symbolic")

    @given(g=consistent_connected_sdf_graphs(
        max_actors=4, max_repetition=3, max_extra_edges=3,
        max_extra_tokens=1))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_hsdf_agreement(self, g):
        assert_backends_agree(g, "hsdf")

    @given(g=consistent_connected_sdf_graphs(
        max_actors=4, max_repetition=3, max_extra_edges=2,
        min_time=1, max_extra_tokens=1))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_simulation_agreement(self, g):
        assert_backends_agree(g, "simulation")


def _zero_time_ring():
    from repro.sdf.graph import SDFGraph

    g = SDFGraph("zero-ring")
    for name in ("p", "q"):
        g.add_actor(name, execution_time=0)
        g.add_edge(name, name, tokens=1, name=f"self_{name}")
    g.add_edge("p", "q")
    g.add_edge("q", "p", tokens=1)
    return g


@pytest.mark.parametrize("method", ["symbolic", "hsdf"])
def test_zero_execution_time_cycle_agreement(method):
    """λ = 0 everywhere: both kernels must report unbounded throughput."""
    numpy_result, exact_result = assert_backends_agree(
        _zero_time_ring(), method
    )
    assert exact_result.unbounded
    assert numpy_result.unbounded


def test_pure_self_loop_agreement():
    """A single actor whose only cycle is its own self-loop."""
    from repro.sdf.graph import SDFGraph

    g = SDFGraph("lone")
    g.add_actor("a", execution_time=7)
    g.add_edge("a", "a", tokens=2, name="self_a")
    for method in ("symbolic", "simulation", "hsdf"):
        numpy_result, exact_result = assert_backends_agree(g, method)
        assert exact_result.cycle_time == Fraction(7, 2)
        assert numpy_result.cycle_time == Fraction(7, 2)


# ----------------------------------------------------------------------
# symbolic execution: block engine vs exact walk
# ----------------------------------------------------------------------

class TestSymbolicEngineAgreement:
    """``symbolic_iteration(kernel="numpy")`` equals ``kernel="exact"``:
    matrix, token ids, schedule and every start/completion stamp."""

    @pytest.mark.parametrize("name", sorted(_CASES))
    def test_registry(self, name):
        assert assert_symbolic_engines_agree(_CASES[name].build()) is not None

    def test_figure3_paper_schedule(self):
        iteration = assert_symbolic_engines_agree(
            figure3_graph(), schedule=["L", "L", "R"])
        assert iteration.runs == (("L", 2), ("R", 1))

    @pytest.mark.parametrize("schedule", [["R", "L", "L"], ["L", "L"]],
                             ids=["inadmissible", "partial"])
    def test_figure3_bad_schedules_raise_alike(self, schedule):
        assert assert_symbolic_engines_agree(
            figure3_graph(), schedule=schedule) is None

    @given(g=symbolic_stress_graphs())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_property(self, g):
        assert_symbolic_engines_agree(g)


def _long_path_graph(time):
    """γ = (2, 1): the exactness bound is B = 2·time (``b`` takes 0)."""
    from repro.sdf.graph import SDFGraph

    g = SDFGraph("long-path")
    g.add_actor("a", execution_time=time)
    g.add_actor("b", execution_time=0)
    g.add_edge("a", "a", tokens=1, name="self_a")
    g.add_edge("a", "b", production=1, consumption=2)
    g.add_edge("b", "a", production=2, consumption=1, tokens=2)
    return g


class TestSymbolicExactnessGuard:
    def test_bound_at_two_to_the_53_trips(self):
        g = _long_path_graph(2 ** 52)
        with pytest.raises(NumericalGuardError):
            symbolic_iteration(g, kernel="numpy")
        auto = symbolic_iteration(g)
        assert auto.matrix == symbolic_iteration(g, kernel="exact").matrix
        assert_backends_agree(g, "symbolic", expect_fallback=True)

    def test_bound_just_below_runs_exactly(self):
        g = _long_path_graph(2 ** 52 - 1)
        iteration = assert_symbolic_engines_agree(g)
        assert max(x for row in iteration.matrix.rows for x in row) == (
            2 ** 53 - 2)


def test_numpy_iteration_pickles_without_arrays():
    """The cache, the store and the process backend pickle iterations;
    a block-engine result must load without numpy and rebuild equal
    stamp maps."""
    g = _CASES["satellite"].build()
    exact = symbolic_iteration(g, kernel="exact")
    payload = pickle.dumps(symbolic_iteration(g, kernel="numpy"))
    assert b"numpy" not in payload
    loaded = pickle.loads(payload)
    assert loaded.matrix == exact.matrix
    assert loaded.schedule == exact.schedule
    assert loaded.firing_starts == exact.firing_starts
    assert loaded.firing_completions == exact.firing_completions
    reloaded = pickle.loads(pickle.dumps(loaded))
    assert reloaded.firing_completions == exact.firing_completions


# ----------------------------------------------------------------------
# dense max-plus semiring vs the exact MaxPlusMatrix
# ----------------------------------------------------------------------

_entries = st.one_of(
    st.just(EPSILON),
    st.integers(min_value=-50, max_value=50),
    st.fractions(
        min_value=-50, max_value=50, max_denominator=8
    ).filter(lambda f: float(f) == f),  # exactly float-representable
)


def _matrices(side):
    return st.lists(
        st.lists(_entries, min_size=side, max_size=side),
        min_size=side, max_size=side,
    ).map(MaxPlusMatrix)


class TestDenseSemiringAgreement:
    @given(data=st.data(), side=st.integers(min_value=1, max_value=5))
    @settings(max_examples=80, deadline=None)
    def test_matmul_matches_reference(self, data, side):
        a = data.draw(_matrices(side))
        b = data.draw(_matrices(side))
        dense = mp_matmul(to_dense(a), to_dense(b))
        assert from_dense(dense).rows == a.multiply(b).rows

    @given(data=st.data(), side=st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_matvec_matches_reference(self, data, side):
        a = data.draw(_matrices(side))
        x = MaxPlusVector(
            data.draw(st.lists(_entries, min_size=side, max_size=side))
        )
        dense = mp_matvec(to_dense(a), to_dense_vector(x))
        assert from_dense_vector(dense).entries == a.apply(x).entries

    @given(data=st.data(), side=st.integers(min_value=1, max_value=4),
           exponent=st.integers(min_value=0, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_power_matches_reference(self, data, side, exponent):
        a = data.draw(_matrices(side))
        dense = mp_power(to_dense(a), exponent)
        assert from_dense(dense).rows == a.power(exponent).rows

    def test_all_epsilon_row_and_column(self):
        """ε rows/columns survive the product exactly (no NaN leaks)."""
        a = MaxPlusMatrix([
            [EPSILON, EPSILON, EPSILON],
            [3, EPSILON, Fraction(1, 2)],
            [EPSILON, 0, EPSILON],
        ])
        b = MaxPlusMatrix([
            [EPSILON, 5, EPSILON],
            [EPSILON, EPSILON, EPSILON],
            [7, -2, EPSILON],
        ])
        product = from_dense(mp_matmul(to_dense(a), to_dense(b)))
        assert product.rows == a.multiply(b).rows
        # row 0 of a is all-ε, column 2 of b is all-ε: both must stay ε.
        assert all(value == EPSILON for value in product.rows[0])
        assert all(row[2] == EPSILON for row in product.rows)
