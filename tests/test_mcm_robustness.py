"""Extra robustness checks for the MCM/MCR solver family."""

import random
from fractions import Fraction

import pytest

from oracle import brute_force_mcr

from repro.mcm import RatioGraph, howard_mcr, karp_mcm


class TestFractionalWeights:
    @pytest.mark.parametrize("seed", range(10))
    def test_ratio_solvers_on_fractional_weights(self, seed):
        rng = random.Random(40_000 + seed)
        g = RatioGraph()
        n = rng.randint(2, 6)
        order = list(range(n))
        rng.shuffle(order)
        position = {v: i for i, v in enumerate(order)}
        for _ in range(rng.randint(n, 3 * n)):
            a, b = rng.randrange(n), rng.randrange(n)
            weight = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            backward = position[a] >= position[b]
            transit = rng.randint(1, 3) if backward else rng.randint(0, 2)
            g.add_edge(a, b, weight, transit)
        expected = brute_force_mcr(g).value
        assert howard_mcr(g).value == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_mean_solvers_on_fractional_weights(self, seed):
        rng = random.Random(50_000 + seed)
        g = RatioGraph()
        n = rng.randint(1, 5)
        for _ in range(rng.randint(1, 3 * n)):
            g.add_edge(
                rng.randrange(n),
                rng.randrange(n),
                Fraction(rng.randint(-20, 20), rng.randint(1, 5)),
                1,
            )
        expected = brute_force_mcr(g).value
        assert karp_mcm(g).value == expected


class TestStructuralStress:
    def test_long_cycle_chain(self):
        # A single huge cycle: every solver must agree with the closed form.
        g = RatioGraph()
        n = 400
        total = 0
        for i in range(n):
            w = (i * 7) % 13
            total += w
            g.add_edge(i, (i + 1) % n, w, 1 if i == 0 else 0)
        expected = Fraction(total, 1)
        assert howard_mcr(g).value == expected

    def test_many_disjoint_cycles(self):
        g = RatioGraph()
        for i in range(150):
            g.add_edge(("a", i), ("b", i), i, 1)
            g.add_edge(("b", i), ("a", i), i, 1)
        assert howard_mcr(g).value == 149
        assert karp_mcm(g).value == 149

    def test_dense_small_graph(self):
        g = RatioGraph()
        n = 6
        for a in range(n):
            for b in range(n):
                g.add_edge(a, b, (a * n + b) % 11, 1)
        expected = brute_force_mcr(g).value
        for solver in (karp_mcm, howard_mcr):
            assert solver(g).value == expected

    def test_howard_iteration_cap(self):
        g = RatioGraph()
        g.add_edge("a", "a", 1, 1)
        with pytest.raises(RuntimeError):
            howard_mcr(g, max_iterations=0)

    def test_self_loop_heavy_graph(self):
        g = RatioGraph()
        for i in range(30):
            g.add_edge(i, i, i, 1 + (i % 3))
        # max over i of i/(1 + i%3): i=28 -> 28/2=14, i=27->27/1=27, i=29->29/3
        assert howard_mcr(g).value == 27
