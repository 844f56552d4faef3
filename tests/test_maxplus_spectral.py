"""Eigenvalue/cycle-time computations on max-plus matrices."""

import random
from fractions import Fraction

import pytest

from oracle import brute_force_mcr

from repro.maxplus.algebra import EPSILON
from repro.maxplus.matrix import MaxPlusMatrix
from repro.maxplus.spectral import (
    critical_cycle,
    critical_indices,
    cycle_time,
    eigenvalue,
    precedence_graph,
)


def random_irreducible(rng, size, max_weight=12):
    """A dense random matrix (all entries finite) — always irreducible."""
    return MaxPlusMatrix(
        [rng.randint(0, max_weight) for _ in range(size)] for _ in range(size)
    )


class TestPrecedenceGraph:
    def test_orientation(self):
        # entry [i][j] is an edge j -> i.
        m = MaxPlusMatrix([[EPSILON, 5], [EPSILON, EPSILON]])
        g = precedence_graph(m)
        (edge,) = g.edges
        assert (edge.source, edge.target, edge.weight) == (1, 0, 5)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            precedence_graph(MaxPlusMatrix([[1, 2]]))


class TestEigenvalue:
    def test_diagonal(self):
        m = MaxPlusMatrix([[3, EPSILON], [EPSILON, 5]])
        assert eigenvalue(m) == 5

    def test_two_cycle(self):
        m = MaxPlusMatrix([[EPSILON, 2], [4, EPSILON]])
        assert eigenvalue(m) == 3  # cycle weight 6, length 2

    def test_nilpotent_is_none(self):
        m = MaxPlusMatrix([[EPSILON, 1], [EPSILON, EPSILON]])
        assert eigenvalue(m) is None
        assert cycle_time(m) == 0

    def test_fractional(self):
        m = MaxPlusMatrix([[Fraction(7, 2)]])
        assert eigenvalue(m) == Fraction(7, 2)

    def test_critical_indices_on_cycle(self):
        m = MaxPlusMatrix(
            [
                [EPSILON, 10, EPSILON],
                [10, EPSILON, EPSILON],
                [EPSILON, EPSILON, 1],
            ]
        )
        value, nodes = critical_indices(m)
        assert value == 10
        assert set(nodes) == {0, 1}

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        m = random_irreducible(rng, rng.randint(1, 5))
        assert eigenvalue(m) == brute_force_mcr(precedence_graph(m)).value


_SMALL = {
    "empty": [],
    "all-epsilon": [[EPSILON]],
    "nilpotent": [[EPSILON, 1], [EPSILON, EPSILON]],
    "diagonal": [[3, EPSILON], [EPSILON, 5]],
    "two-cycle": [[EPSILON, 2], [4, EPSILON]],
    "fractional": [[Fraction(7, 2), EPSILON], [Fraction(1, 3), -2]],
    "negative": [[-4, -1], [-3, EPSILON]],
}


class TestNumpyKernel:
    """``kernel="numpy"`` (the array-native kernel) on the small cases:
    the exact kernel's value, a cycle attaining it, the same errors."""

    @pytest.mark.parametrize("name", sorted(_SMALL))
    def test_matches_exact(self, name):
        m = MaxPlusMatrix(_SMALL[name])
        fast = critical_cycle(m, kernel="numpy")
        assert fast.value == critical_cycle(m, kernel="exact").value
        assert critical_indices(m, kernel="numpy") == (
            fast.value, fast.cycle_nodes())
        if fast.value is not None:
            fast.check()

    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            eigenvalue(MaxPlusMatrix([[1, 2]]), kernel="numpy")
