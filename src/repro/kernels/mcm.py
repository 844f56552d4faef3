"""Vectorized Howard maximum cycle ratio with exact certification.

:func:`howard_mcr_numpy` mirrors :func:`repro.mcm.howard.howard_mcr`:
Howard's policy iteration with the two improvement stages vectorized
over the outgoing-edge segments of an :class:`ArrayGraph`.  It serves
``throughput(method="hsdf")``; the max-plus eigenvalue of the symbolic
path has its own array-native kernel in :mod:`repro.kernels.maxplus`.

It follows a *search-then-certify* discipline:

1. **Search** in float64.  :class:`ArrayGraph` scales weights to
   integers and guards their magnitude, so every dynamic-programming
   sum is an exactly representable float; only the final per-candidate
   division rounds.
2. **Re-derive exactly.**  The candidate critical cycle is a list of
   original :class:`~repro.mcm.graphlib.RatioEdge` objects; its ratio
   is recomputed with Fractions (:func:`~repro.mcm.graphlib.
   cycle_ratio`), then smoke-checked against the float candidate
   (:func:`~repro.kernels.backend.check_candidate`).
3. **Certify optimality** with exact integer arithmetic
   (:func:`certify_maximum_ratio`): for the candidate ratio λ = P/Q in
   scaled-weight space, the reduced weight of edge ``e`` is
   ``r_e = Q·W_e − P·t_e``.  A cycle with ratio above λ exists iff the
   reduced graph has a positive-weight cycle, iff max-weight Bellman
   relaxation from the all-zeros potential fails to stabilize within
   ``n`` rounds.  The sweep runs in int64 after an exact Python-int
   bound check against :data:`~repro.kernels.backend.MAX_INT64_SUM`.

Any guard trip raises :class:`~repro.kernels.backend.
NumericalGuardError`; callers fall back to the exact kernel.  A result
that *is* returned is a fully checked
:class:`~repro.mcm.graphlib.CycleRatioResult`, bit-identical in value
to the reference solver (the witness cycle may be a different —
equally critical — cycle; the differential oracle verifies both).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

from repro.kernels.arraygraph import ArrayGraph
from repro.kernels.backend import (
    MAX_INT64_SUM,
    NumericalGuardError,
    check_candidate,
    require_numpy,
)
from repro.mcm.graphlib import (
    CycleRatioResult,
    RatioEdge,
    RatioGraph,
    ZeroTransitCycleError,
    cycle_ratio,
)

__all__ = ["certify_maximum_ratio", "howard_mcr_numpy"]


def _segment_max(np, values, order, indptr):
    """Per-node max over CSR edge segments (segments are non-empty)."""
    return np.maximum.reduceat(values[order], indptr[:-1])


def _segment_argmax(np, values, order, indptr, segment_max, edge_count):
    """Smallest edge index achieving each segment's max (deterministic)."""
    ordered = values[order]
    targets = np.repeat(
        np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    is_max = ordered == segment_max[targets]
    candidates = np.where(is_max, order, edge_count)
    return np.minimum.reduceat(candidates, indptr[:-1])


def certify_maximum_ratio(array_graph: ArrayGraph, value: Fraction,
                          deadline=None) -> None:
    """Prove no cycle of ``array_graph`` has ratio above ``value``.

    Exact int64 Bellman sweep over reduced weights (see module
    docstring).  Raises :class:`NumericalGuardError` if the reduced
    weights risk int64 overflow or if a better cycle exists (the float
    search picked a sub-optimal candidate).
    """
    np = require_numpy()
    scaled = value * array_graph.scale
    p, q = scaled.numerator, scaled.denominator
    reduced = [
        q * w - p * int(t)
        for w, t in zip(array_graph.weight_ints, array_graph.transits)
    ]
    n = array_graph.node_count
    largest = max(abs(r) for r in reduced)
    if (n + 1) * largest >= MAX_INT64_SUM:
        raise NumericalGuardError(
            f"reduced weights too large for int64 certification: "
            f"({n} + 1) * {largest} >= 2**62"
        )
    weights = np.array(reduced, dtype=np.int64)
    src = array_graph.src
    order = array_graph.in_order
    indptr = array_graph.in_indptr
    potential = np.zeros(n, dtype=np.int64)
    for _ in range(n):
        if deadline is not None:
            deadline.check_now()
        relaxed = _segment_max(np, potential[src] + weights, order, indptr)
        updated = np.maximum(potential, relaxed)
        if (updated == potential).all():
            return
        potential = updated
    raise NumericalGuardError(
        f"certification failed: a cycle with ratio above {value} exists "
        f"(float search returned a sub-optimal candidate)"
    )


# ---------------------------------------------------------------------------
# Howard
# ---------------------------------------------------------------------------


def howard_mcr_numpy(graph: RatioGraph, max_iterations: Optional[int] = None,
                     deadline=None) -> CycleRatioResult:
    """Array-based Howard maximum cycle ratio.

    Drop-in for :func:`repro.mcm.howard.howard_mcr`: rejects token-free
    cycles up front with :class:`ZeroTransitCycleError`, returns the
    exact maximum cycle ratio over all nontrivial SCCs.  The float
    policy iteration is only a search heuristic — the returned value is
    re-derived exactly and certified, with :class:`NumericalGuardError`
    on any doubt.
    """
    require_numpy()
    zero_cycle = graph.find_zero_transit_cycle()
    if zero_cycle is not None:
        raise ZeroTransitCycleError(zero_cycle)
    progress = None
    if deadline is not None:
        progress = deadline.checkpoint("howard-mcr", {"scc": 0, "round": 0})
    best: Optional[Fraction] = None
    best_cycle: Optional[List[RatioEdge]] = None
    for count, scc in enumerate(graph.nontrivial_sccs()):
        if progress is not None:
            progress["scc"] = count
        value, cycle = _howard_scc(scc, max_iterations, deadline, progress)
        if best is None or value > best:
            best, best_cycle = value, cycle
    if best is None:
        return CycleRatioResult(None)
    result = CycleRatioResult(best, best_cycle)
    result.check()
    return result


def _howard_scc(scc: RatioGraph, max_iterations, deadline, progress):
    np = require_numpy()
    array_graph = ArrayGraph.from_ratio_graph(scc)
    n = array_graph.node_count
    m = array_graph.edge_count
    if max_iterations is None:
        max_iterations = 20 * (n + m) + 100
    float_weights = array_graph.weights / float(array_graph.scale)
    float_transits = array_graph.transits.astype(np.float64)
    src = array_graph.src
    dst = array_graph.dst
    order = array_graph.out_order
    indptr = array_graph.out_indptr
    # Comparison slack for the float improvement stages: switching on
    # rounding noise would oscillate forever, so improvements must beat
    # the incumbent by a margin; a missed marginal improvement at worst
    # yields a sub-optimal candidate, which certification rejects.
    slack = 2.0 ** -30 * max(1.0, float(np.abs(float_weights).max()))

    # Initial policy: heaviest outgoing edge, ties toward fewer
    # transits (the reference kernel's criterion).  The transit
    # perturbation stays below half the minimal weight spacing
    # (weights are multiples of 1/scale), so it only breaks ties; any
    # float blur here merely changes the starting policy, which Howard
    # converges from regardless.
    key = float_weights - float_transits / (
        2.0 * float(array_graph.transits.max() + 1)
        * float(array_graph.scale))
    segment = _segment_max(np, key, order, indptr)
    policy = _segment_argmax(np, key, order, indptr, segment, m)

    for round_count in range(max_iterations):
        if progress is not None:
            progress["round"] = round_count
        if deadline is not None:
            deadline.check_now()
        value, distance = _evaluate_policy_numpy(
            np, array_graph, policy, float_weights, float_transits)

        # Stage 1: adopt edges reaching strictly better cycle values.
        stage1 = value[dst]
        best1 = _segment_max(np, stage1, order, indptr)
        improves1 = best1 > value + slack
        if improves1.any():
            picks = _segment_argmax(np, stage1, order, indptr, best1, m)
            policy = np.where(improves1, picks, policy)
            continue

        # Stage 2: among value-preserving edges, improve distances.
        lam_src = value[src]
        preserves = np.abs(value[dst] - lam_src) <= slack
        stage2 = np.where(
            preserves,
            float_weights - lam_src * float_transits + distance[dst],
            float("-inf"),
        )
        best2 = _segment_max(np, stage2, order, indptr)
        improves2 = best2 > distance + slack
        if improves2.any():
            picks = _segment_argmax(np, stage2, order, indptr, best2, m)
            policy = np.where(improves2, picks, policy)
            continue

        # Fixpoint: extract the best policy cycle and certify it.
        best_node = int(value.argmax())
        cycle = _policy_cycle(array_graph, policy, best_node)
        exact_value = cycle_ratio(cycle)
        check_candidate(
            float(value[best_node]), exact_value, what="howard cycle ratio")
        certify_maximum_ratio(array_graph, exact_value, deadline)
        return exact_value, cycle
    raise NumericalGuardError(
        f"howard policy iteration did not converge within "
        f"{max_iterations} rounds"
    )


def _evaluate_policy_numpy(np, array_graph: ArrayGraph, policy,
                           float_weights, float_transits):
    """Float value/distance of the 1-out functional graph ``policy``.

    Same walk-based evaluation as the reference kernel (each node
    follows its policy edge into a cycle; the cycle fixes λ and a
    zero-distance handle, tree prefixes accumulate reduced weights),
    but over index arrays with float arithmetic.
    """
    n = array_graph.node_count
    successor = array_graph.dst[policy]
    value = np.empty(n, dtype=np.float64)
    distance = np.empty(n, dtype=np.float64)
    state = np.zeros(n, dtype=np.int8)  # 0 unvisited / 1 on walk / 2 done
    for start in range(n):
        if state[start]:
            continue
        walk = []
        node = start
        while state[node] == 0:
            state[node] = 1
            walk.append(node)
            node = int(successor[node])
        if state[node] == 1:
            # Closed a new cycle: exact λ from the cycle edges, handle
            # at the minimum node index (insertion order, matching the
            # reference kernel's deterministic handle).
            cycle_start = walk.index(node)
            cycle_nodes = walk[cycle_start:]
            cycle_edges = [int(policy[v]) for v in cycle_nodes]
            total_weight = sum(
                array_graph.weight_ints[e] for e in cycle_edges)
            total_transit = int(
                sum(int(array_graph.transits[e]) for e in cycle_edges))
            if total_transit == 0:
                raise ZeroTransitCycleError(
                    [array_graph.nodes[v] for v in cycle_nodes])
            lam = (total_weight / float(array_graph.scale)) / total_transit
            handle = min(cycle_nodes)
            value[cycle_nodes] = lam
            distance[handle] = 0.0
            position = cycle_nodes.index(handle)
            ordered = cycle_nodes[position:] + cycle_nodes[:position]
            for v in reversed(ordered[1:]):
                e = int(policy[v])
                distance[v] = (
                    float_weights[e] - lam * float_transits[e]
                    + distance[int(successor[v])]
                )
            for v in cycle_nodes:
                state[v] = 2
        # Resolve the tree prefix against the (now solved) suffix.
        for v in reversed(walk):
            if state[v] == 2:
                continue
            e = int(policy[v])
            nxt = int(successor[v])
            value[v] = value[nxt]
            distance[v] = (
                float_weights[e] - value[v] * float_transits[e]
                + distance[nxt]
            )
            state[v] = 2
    return value, distance


def _policy_cycle(array_graph: ArrayGraph, policy,
                  start: int) -> List[RatioEdge]:
    """The policy cycle reached from ``start`` (original edges)."""
    seen = {}
    node = start
    walk = []
    while node not in seen:
        seen[node] = len(walk)
        walk.append(int(policy[node]))
        node = int(array_graph.dst[policy[node]])
    return [array_graph.edges[e] for e in walk[seen[node]:]]
