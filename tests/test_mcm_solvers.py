"""The MCM/MCR solvers, cross-checked against the brute-force oracle on
small graphs and against the optimality certificate on larger ones."""

import random
from fractions import Fraction

import pytest

from oracle import (
    assert_optimal_mcr,
    brute_force_mcr,
    no_cycle_exceeds,
    simple_cycles,
)

from repro.graphs.random_sdf import random_ratio_graph
from repro.mcm import RatioGraph, ZeroTransitCycleError, howard_mcr, karp_mcm


def ring(weights, transits):
    g = RatioGraph()
    n = len(weights)
    for i in range(n):
        g.add_edge(i, (i + 1) % n, weights[i], transits[i])
    return g


def unit_transit(graph: RatioGraph) -> RatioGraph:
    """Copy with every transit forced to 1 (for the MCM-only solvers)."""
    g = RatioGraph()
    for node in graph.nodes:
        g.add_node(node)
    for e in graph.edges:
        g.add_edge(e.source, e.target, e.weight, 1, e.key)
    return g


MCR_SOLVERS = [howard_mcr, brute_force_mcr]
MCM_SOLVERS = MCR_SOLVERS + [karp_mcm]


class TestKnownInstances:
    @pytest.mark.parametrize("solver", MCM_SOLVERS)
    def test_single_self_loop(self, solver):
        g = RatioGraph()
        g.add_edge("a", "a", 7, 1)
        assert solver(g).value == 7

    @pytest.mark.parametrize("solver", MCM_SOLVERS)
    def test_two_rings_pick_max_mean(self, solver):
        g = RatioGraph()
        g.add_edge("a", "b", 3, 1)
        g.add_edge("b", "a", 5, 1)  # mean 4
        g.add_edge("c", "c", 6, 1)  # mean 6
        result = solver(g)
        assert result.value == 6
        if result.cycle is not None:
            assert result.cycle_nodes() == ["c"]

    @pytest.mark.parametrize("solver", MCR_SOLVERS)
    def test_transit_weighting(self, solver):
        # Same weights, different transits: ratio discriminates.
        g = RatioGraph()
        g.add_edge("a", "a", 10, 2)  # ratio 5
        g.add_edge("b", "b", 9, 1)  # ratio 9
        assert solver(g).value == 9

    @pytest.mark.parametrize("solver", MCM_SOLVERS)
    def test_acyclic_returns_none(self, solver):
        g = RatioGraph()
        g.add_edge("a", "b", 1, 1)
        g.add_edge("b", "c", 1, 1)
        assert solver(g).value is None

    @pytest.mark.parametrize("solver", MCM_SOLVERS)
    def test_fractional_weights(self, solver):
        g = ring([Fraction(1, 3), Fraction(1, 2)], [1, 1])
        assert solver(g).value == Fraction(5, 12)

    @pytest.mark.parametrize("solver", MCR_SOLVERS)
    def test_zero_transit_cycle_raises(self, solver):
        g = ring([1, 1], [0, 0])
        with pytest.raises(ZeroTransitCycleError):
            solver(g)

    @pytest.mark.parametrize("solver", MCR_SOLVERS)
    def test_parallel_edges(self, solver):
        g = RatioGraph()
        g.add_edge("a", "b", 1, 0)
        g.add_edge("a", "b", 6, 0)
        g.add_edge("b", "a", 1, 1)
        assert solver(g).value == 7

    @pytest.mark.parametrize("solver", MCR_SOLVERS)
    def test_mixed_transit_cycle(self, solver):
        # cycle a->b->a: weight 7, transit 3.
        g = RatioGraph()
        g.add_edge("a", "b", 3, 2)
        g.add_edge("b", "a", 4, 1)
        assert solver(g).value == Fraction(7, 3)

    @pytest.mark.parametrize("solver", MCM_SOLVERS)
    def test_negative_weights(self, solver):
        g = ring([-3, -1], [1, 1])
        assert solver(g).value == Fraction(-2)

    @pytest.mark.parametrize("solver", MCM_SOLVERS)
    def test_critical_cycle_is_consistent(self, solver):
        g = RatioGraph()
        g.add_edge("a", "b", 2, 1)
        g.add_edge("b", "a", 8, 1)
        g.add_edge("b", "c", 1, 1)
        g.add_edge("c", "b", 1, 1)
        result = solver(g)
        assert result.value == 5
        # .check() inside solvers already validates; double-check here.
        if result.cycle:
            w = sum(e.weight for e in result.cycle)
            t = sum(e.transit for e in result.cycle)
            assert Fraction(w, t) == result.value


class TestRandomisedAgainstOracle:
    @pytest.mark.parametrize("seed", range(30))
    def test_mcr_solvers_agree(self, seed):
        rng = random.Random(seed)
        g = random_ratio_graph(
            rng,
            n_nodes=rng.randint(2, 7),
            n_edges=rng.randint(2, 14),
            allow_negative=(seed % 3 == 0),
        )
        expected = brute_force_mcr(g).value
        assert howard_mcr(g).value == expected

    @pytest.mark.parametrize("seed", range(30))
    def test_mcm_solvers_agree(self, seed):
        rng = random.Random(1000 + seed)
        g = unit_transit(
            random_ratio_graph(
                rng,
                n_nodes=rng.randint(2, 7),
                n_edges=rng.randint(2, 14),
                allow_negative=(seed % 2 == 0),
            )
        )
        expected = brute_force_mcr(g).value
        assert karp_mcm(g).value == expected
        assert howard_mcr(g).value == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_larger_instances_cross_check(self, seed):
        """Too many cycles to enumerate: Howard's answer must pass the
        optimality certificate, and the certificate must refuse a bound
        just below it."""
        rng = random.Random(7000 + seed)
        g = random_ratio_graph(rng, n_nodes=25, n_edges=80)
        result = howard_mcr(g)
        assert_optimal_mcr(g, result)
        assert not no_cycle_exceeds(g, result.value - Fraction(1, 10**6))


class TestPreconditions:
    def test_karp_rejects_nonunit_transit(self):
        g = ring([1, 1], [2, 1])
        with pytest.raises(ValueError):
            karp_mcm(g)

    def test_brute_force_budget(self):
        g = RatioGraph()
        for i in range(8):
            for j in range(8):
                if i != j:
                    g.add_edge(i, j, 1, 1)
        with pytest.raises(RuntimeError):
            brute_force_mcr(g, max_cycles=10)


class TestSimpleCycleEnumeration:
    def test_counts_on_complete_graph(self):
        g = RatioGraph()
        for i in range(3):
            for j in range(3):
                if i != j:
                    g.add_edge(i, j, 1, 1)
        # K3 directed: 3 two-cycles + 2 three-cycles.
        assert sum(1 for _ in simple_cycles(g)) == 5

    def test_multi_edge_cycles_distinct(self):
        g = RatioGraph()
        g.add_edge("a", "b", 1, 1)
        g.add_edge("a", "b", 2, 1)
        g.add_edge("b", "a", 1, 1)
        assert sum(1 for _ in simple_cycles(g)) == 2

    def test_self_loops_counted(self):
        g = RatioGraph()
        g.add_edge("a", "a", 1, 1)
        g.add_edge("a", "a", 2, 1)
        assert sum(1 for _ in simple_cycles(g)) == 2
