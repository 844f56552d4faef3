"""Karp stopped by the certificate: the array entry point of the
eigenvalue kernel (:func:`repro.kernels.maxplus.critical_cycle_array`).

At levels 2, 4, 8, … below the matrix order the kernel certifies the
first cycle of the best walk and stops at the first fixpoint; when no
early level certifies, the all-level Karp path runs.  These tests hold
both paths to exact Karp, on random matrices and on families built so
that the early candidates fail, check that the scale reduction keeps
every guard where the matrix entry point has it, and that the early
certificate rounds poll the deadline and record on the trace span.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

import repro.kernels.maxplus as kernel
from repro.analysis.deadline import CancelToken, Deadline
from repro.analysis.throughput import throughput
from repro.errors import AnalysisCancelled
from repro.graphs import modem
from repro.kernels import NumericalGuardError
from repro.kernels.backend import MAX_EXACT_FLOAT_SUM
from repro.kernels.maxplus import critical_cycle_array, critical_cycle_numpy
from repro.maxplus.algebra import EPSILON
from repro.maxplus.matrix import MaxPlusMatrix
from repro.maxplus.spectral import critical_cycle
from repro.obs.trace import Tracer, span


def _scaled(matrix: MaxPlusMatrix, extra: int = 1):
    """``matrix`` as the block walk hands it over: integers in a float64
    array and a scale, here ``extra`` times larger than the entries
    need (the walk scales by all execution times' denominators)."""
    scale = extra * lcm(1, *(Fraction(x).denominator
                             for row in matrix.rows for x in row
                             if x != EPSILON))
    array = np.array([[x if x == EPSILON else int(x * scale) for x in row]
                      for row in matrix.rows], dtype=np.float64)
    return array, scale


def _assert_matches_exact_karp(matrix, result):
    exact = critical_cycle(matrix, kernel="exact")
    assert result.value == exact.value
    if exact.value is None:
        assert not result.cycle
        return
    assert type(result.value) is Fraction
    result.check()
    for edge, successor in zip(result.cycle,
                               result.cycle[1:] + result.cycle[:1]):
        assert edge.target == successor.source
        assert edge.transit == 1
        assert edge.weight == matrix.rows[edge.target][edge.source]


def _traced(array, scale):
    """The kernel's result and the args it left on an enclosing span."""
    with Tracer() as tracer:
        with span("mcm-eigenvalue"):
            result = critical_cycle_array(array, scale)
    return result, tracer.spans()[0].args


@st.composite
def matrices(draw):
    """Square max-plus matrices of order 1–64, 0–95% ε, with int or
    (optionally) Fraction entries, and an excess factor for the scale."""
    n = draw(st.integers(min_value=1, max_value=64))
    share = draw(st.floats(min_value=0.0, max_value=0.95))
    fractional = draw(st.booleans())
    extra = draw(st.sampled_from([1, 2, 6]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))

    def value():
        if fractional and rng.random() < 0.4:
            return Fraction(rng.randint(-60, 60), rng.randint(1, 9))
        return rng.randint(-20, 40)

    rows = [[EPSILON if rng.random() < share else value() for _ in range(n)]
            for _ in range(n)]
    return MaxPlusMatrix(rows), extra


class TestAgainstExactKarp:
    @given(case=matrices())
    @settings(max_examples=100, deadline=None)
    def test_value_and_cycle_match_exact_karp(self, case):
        matrix, extra = case
        _assert_matches_exact_karp(
            matrix, critical_cycle_array(*_scaled(matrix, extra)))


def _ring_among_loops(n: int, loop_gap: Fraction) -> MaxPlusMatrix:
    """A critical ring through all ``n`` nodes — one edge of weight
    ``10·n``, the rest 0, mean 10 — and a self-loop ``loop_gap`` below
    the mean on every node.  Every walk shorter than the ring that
    scores best runs through a self-loop, so each early candidate is a
    near-critical self-loop that the certificate rejects."""
    rows = [[EPSILON] * n for _ in range(n)]
    for i in range(n):
        rows[(i + 1) % n][i] = 0
        rows[i][i] = 10 - loop_gap
    rows[1 % n][0] = 10 * n
    return MaxPlusMatrix(rows)


def _long_ring(n: int, length: int) -> MaxPlusMatrix:
    """A critical ring of ``length`` unit-mean-10 edges on nodes
    ``0 … length−1`` of an order-``n`` matrix, fed by a chain through
    the other nodes, one of which carries a self-loop of weight 9.  The
    best walk follows the ring, so no walk shorter than the ring closes a
    cycle: the first level that can is the first power of two above
    ``length``."""
    rows = [[EPSILON] * n for _ in range(n)]
    for i in range(length):
        rows[(i + 1) % length][i] = 10
    for i in range(length, n - 1):
        rows[i + 1][i] = 1
    rows[0][n - 1] = 1
    rows[n - 2][n - 2] = 9
    return MaxPlusMatrix(rows)


class TestEarlyCandidatesFail:
    @pytest.mark.parametrize("n", [3, 5, 12, 33, 64])
    @pytest.mark.parametrize("loop_gap", [1, Fraction(1, 7)])
    def test_ring_among_near_critical_loops(self, n, loop_gap, monkeypatch):
        matrix = _ring_among_loops(n, loop_gap)
        attempts = []
        certify = kernel._certify

        def spy(csr, mean, rounds, deadline):
            attempts.append(certify(csr, mean, rounds, deadline))
            return attempts[-1]

        monkeypatch.setattr(kernel, "_certify", spy)
        result, args = _traced(*_scaled(matrix))
        _assert_matches_exact_karp(matrix, result)
        assert result.value == 10 and len(result.cycle) == n
        # One failed attempt per early level 2, 4, 8, … below n, then
        # the all-level path certifies the ring.
        early = len([k for k in (2, 4, 8, 16, 32) if k < n])
        assert attempts[:-1] == [0] * early and attempts[-1] > 0
        assert args["karp_path"] == "full"
        assert args["certified_level"] == n

    @pytest.mark.parametrize("n, length, level", [(20, 12, 16), (40, 9, 16),
                                                  (64, 17, 32)])
    def test_critical_ring_first_closed_past_level_8(self, n, length, level):
        matrix = _long_ring(n, length)
        result, args = _traced(*_scaled(matrix))
        _assert_matches_exact_karp(matrix, result)
        assert len(result.cycle) == length
        assert args["karp_path"] == "early"
        assert args["certified_level"] == level
        assert args["certificate_rounds"] >= 1


def _ring_matrix(n, weight, closing_weight):
    """An ``n``-cycle of ``weight`` entries closed by ``closing_weight``."""
    rows = [[EPSILON] * n for _ in range(n)]
    for i in range(n):
        rows[(i + 1) % n][i] = weight
    rows[0][n - 1] = closing_weight
    return MaxPlusMatrix(rows)


def _outcome(call):
    try:
        result = call()
    except NumericalGuardError as error:
        return "guard", str(error)
    return result.value, [(e.source, e.target, e.weight) for e in result.cycle]


class TestGuardParity:
    """Given ``(6·M, 6)``, the entry point reduces the scale back to the
    entries' own and trips a guard exactly when the matrix entry point
    does on ``M``."""

    @pytest.mark.parametrize("n", [7, 11, 20])
    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    def test_float_sum_bound(self, n, offset):
        largest = MAX_EXACT_FLOAT_SUM // (n + 1) + offset
        matrix = _ring_matrix(n, 1, largest)
        array, scale = _scaled(matrix, extra=6)
        assert scale == 6
        expected = _outcome(lambda: critical_cycle_numpy(matrix))
        assert _outcome(lambda: critical_cycle_array(array, scale)) \
            == expected
        assert (expected[0] == "guard") \
            == ((n + 1) * largest >= MAX_EXACT_FLOAT_SUM)

    @pytest.mark.parametrize("closing", [0, 1])
    def test_int64_certificate_bound(self, closing):
        """A 600-ring of entries just inside the float bound: a
        non-integer mean (``closing = 1``) makes ``Q = 600`` and trips
        the int64 guard, an integer one does not."""
        n = 600
        weight = MAX_EXACT_FLOAT_SUM // (n + 1) - 1
        matrix = _ring_matrix(n, weight, weight + closing)
        expected = _outcome(lambda: critical_cycle_numpy(matrix))
        assert _outcome(lambda: critical_cycle_array(
            *_scaled(matrix, extra=6))) == expected
        assert (expected[0] == "guard") == bool(closing)
        if closing:
            assert "2**62" in expected[1]


class _CancelAtPoll(CancelToken):
    """A token that cancels itself at its ``polls``-th read."""

    __slots__ = ("polls",)

    def __init__(self, polls: int):
        super().__init__()
        self.polls = polls

    @property
    def cancelled(self) -> bool:
        self.polls -= 1
        if not self.polls:
            self.cancel("third poll")
        return super().cancelled


def test_cancellation_in_an_early_certificate_round():
    """Polls 1 and 2 are Karp levels 1 and 2; poll 3 is the first
    certificate round of level 2's candidate (a's dominant self-loop)."""
    n = 5
    rows = [[EPSILON] * n for _ in range(n)]
    for i in range(n):
        rows[(i + 1) % n][i] = 1
    rows[0][0] = 10
    array, scale = _scaled(MaxPlusMatrix(rows))
    deadline = Deadline(token=_CancelAtPoll(3), stride=1)
    with pytest.raises(AnalysisCancelled) as raised:
        critical_cycle_array(array, scale, deadline=deadline)
    assert raised.value.stage == "karp-mcm"
    assert raised.value.progress == {"scc": 0, "level": 2, "levels": n}
    # Uncancelled, the same candidate certifies at that level.
    _, args = _traced(array, scale)
    assert (args["karp_path"], args["certified_level"]) == ("early", 2)


def test_the_mcm_span_records_the_certified_level():
    with Tracer() as tracer:
        result = throughput(modem())
    args = {s.name: s for s in tracer.spans()}["mcm-eigenvalue"].args
    assert args["kernel_used"] == "numpy"
    assert args["matrix_order"] == 14
    assert args["karp_path"] == "early"
    assert args["certified_level"] == 4
    assert args["certificate_rounds"] == 2
    assert result.provenance.kernel == "numpy"


def test_the_walk_array_is_left_untouched():
    """The iteration keeps its array for ``.matrix``: the kernel reduces
    the walk's scale (2, for the halves) to the entries' own (1) on a
    copy."""
    from repro.core.symbolic import symbolic_iteration
    from repro.sdf.graph import SDFGraph

    g = SDFGraph("halves")
    g.add_actor("a", Fraction(1, 2))
    g.add_actor("b", Fraction(3, 2))
    g.add_edge("a", "b")
    g.add_edge("b", "a", tokens=1)
    iteration = symbolic_iteration(g)
    array, scale = iteration.scaled_matrix
    before = array.copy()
    result = critical_cycle_array(array, scale)
    assert (scale, before.tolist()) == (2, [[4.0]])
    assert np.array_equal(array, before)
    assert result.value == 2
    assert [edge.weight for edge in result.cycle] == [2]
    assert iteration.matrix.rows == ((Fraction(2),),)
