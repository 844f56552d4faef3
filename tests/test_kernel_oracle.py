"""Differential-oracle suite: numpy kernels vs the exact reference.

Every graph in the Table-1 registry and 150 hypothesis-generated
graphs run through both concrete kernels; :func:`oracle.assert_backends_agree`
asserts bit-identical results, matching error behaviour, provenance
kernel labels and witness re-verification.  ``method="hsdf"`` has one
engine, exact Howard, so its legs check instead that every ``kernel=``
value runs it and matches ``method="symbolic"``.  The array-native
eigenvalue kernel is cross-checked separately against exact Karp on
random square matrices: dense to 95% ε, reducible with several SCCs,
and nilpotent.
"""

from __future__ import annotations

import bisect
import pickle
import random
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
from repro.graphs.random_sdf import random_consistent_sdf
from repro.maxplus.algebra import EPSILON
from repro.maxplus.matrix import MaxPlusMatrix
from repro.maxplus.spectral import critical_cycle

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
    """Hypothesis cross-backend agreement (150 examples in total).

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
    """λ = 0 everywhere: every kernel must report unbounded throughput."""
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
# array-native eigenvalue kernel vs exact Karp, matrix by matrix
# ----------------------------------------------------------------------

@st.composite
def square_matrices(draw):
    """Square max-plus matrices of order 1–24 with 0–95% ε entries and
    negative, zero and (optionally) fractional values.

    ``blocks`` keeps only entries ``j → i`` with ``block(j) ≤ block(i)``
    (a reducible matrix with one SCC group per block); ``nilpotent``
    keeps only ``j < i`` (an acyclic precedence graph).  A random
    relabelling hides both structures from index order.
    """
    n = draw(st.integers(min_value=1, max_value=24))
    share = draw(st.floats(min_value=0.0, max_value=0.95))
    shape = draw(st.sampled_from(["general", "blocks", "nilpotent"]))
    fractional = draw(st.booleans())
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(1, 3))))
    block = [bisect.bisect(cuts, i) for i in range(n)]
    label = list(range(n))
    rng.shuffle(label)

    def value():
        if fractional and rng.random() < 0.4:
            return Fraction(rng.randint(-60, 60), rng.randint(1, 9))
        return rng.randint(-20, 40)

    rows = [[EPSILON] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if rng.random() < share:
                continue
            if shape == "blocks" and block[j] > block[i]:
                continue
            if shape == "nilpotent" and j >= i:
                continue
            rows[label[i]][label[j]] = value()
    return MaxPlusMatrix(rows)


class TestMatrixKernelAgreement:
    @given(matrix=square_matrices())
    @settings(max_examples=300, deadline=None)
    def test_value_and_cycle_match_exact_karp(self, matrix):
        exact = critical_cycle(matrix, kernel="exact")
        fast = critical_cycle(matrix, kernel="numpy")
        assert fast.value == exact.value
        if exact.value is None:
            assert not fast.cycle
            return
        assert type(fast.value) is Fraction
        fast.check()
        for edge, successor in zip(fast.cycle,
                                   fast.cycle[1:] + fast.cycle[:1]):
            assert edge.target == successor.source
            assert edge.transit == 1
            assert edge.weight == matrix.rows[edge.target][edge.source]


def _random_mcm_pool():
    """Four graphs like perfbench's ``random-mcm`` pool: random
    consistent SDF graphs with iteration matrices of order 35–64."""
    rng = random.Random(7)
    pool = []
    while len(pool) < 4:
        graph = random_consistent_sdf(rng, n_actors=16, extra_edges=12,
                                      max_repetition=4)
        if 35 <= sum(edge.tokens for edge in graph.edges) <= 64:
            pool.append(graph)
    return pool


@pytest.mark.parametrize("index", range(4))
def test_random_mcm_pool_agreement(index):
    """Where the eigenvalue dominates a request: the numpy kernel
    answers (no fallback) and both witnesses re-verify."""
    assert_backends_agree(_random_mcm_pool()[index], "symbolic")
