"""Array-native maximum cycle mean of a square max-plus matrix.

The max-plus eigenvalue of ``M`` is the maximum cycle mean of its
precedence graph: an edge ``j → i`` of weight ``M[i][j]`` for every
finite entry.  :func:`critical_cycle_numpy` computes it straight from
the matrix rows, without building a :class:`~repro.mcm.graphlib.
RatioGraph`, splitting it into SCCs or re-encoding each one:

1. **Encode** the rows once into a float64 array scaled by the LCM of
   the entries' denominators (integer matrices need no scaling, so no
   per-entry :class:`~fractions.Fraction` is built).
2. **Gather** the finite entries with ``np.nonzero``: row-major order
   groups them by target, which is the CSR layout Karp relaxes over.
3. **Karp from a zero super-source.**  ``D_0 = 0`` everywhere and
   ``D_k(v) = max_{u→v} D_{k−1}(u) + w(u, v)`` (one
   ``np.maximum.reduceat`` per level) covers every SCC in one pass:
   ``λ = max_v min_{k<n} (D_n(v) − D_k(v))/(n − k)`` over the nodes an
   ``n``-edge walk reaches, and no such walk means no cycle.
4. **Backtrack exactly.**  Every ``D_k`` is an integer below ``2**53``,
   so the critical walk is recovered by equality tests against the
   level table instead of a per-level parent table.  The first node the
   walk revisits closes a critical cycle.
5. **Rebuild** the cycle's :class:`~repro.mcm.graphlib.RatioEdge` list
   from the matrix's own exact entries.

**Exact certificate.**  Float division only ranks the candidates, so the
answer is accepted only after an integer proof.  The cycle's integer
weight sum gives ``λ = P/Q`` in scaled units; the reduced weights
``Q·w − P`` are then relaxed in int64 from the all-zero potential over
the same CSR.  A fixpoint potential ``π`` with ``π(u) + Q·w(u, v) − P ≤
π(v)`` on every finite entry proves that no cycle has a mean above
``λ``, and the cycle itself attains it.

Guards raise :class:`~repro.kernels.backend.NumericalGuardError`, and
``throughput()`` then reruns the exact Karp kernel and records the
fallback: ``(n+1)·max|w| ≥ 2**53`` (float sums could round),
``(n+1)·(Q·max|w| + |P|) ≥ 2**62`` (int64 potentials could overflow)
and no fixpoint within ``n + 1`` rounds (the float ranking picked a
sub-optimal cycle).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import List

import numpy as np

from repro.kernels.backend import (
    MAX_EXACT_FLOAT_SUM,
    MAX_INT64_SUM,
    NumericalGuardError,
)
from repro.maxplus.algebra import EPSILON
from repro.maxplus.matrix import MaxPlusMatrix
from repro.mcm.graphlib import CycleRatioResult, RatioEdge

__all__ = ["critical_cycle_numpy"]


def critical_cycle_numpy(matrix: MaxPlusMatrix,
                         deadline=None) -> CycleRatioResult:
    """Eigenvalue and a critical cycle of ``matrix`` (module docstring).

    Same contract as the exact ``critical_cycle``: an exact
    :class:`Fraction` value, a cycle of edges ``j → i`` for entries
    ``M[i][j]``, and ``CycleRatioResult(None)`` when the precedence
    graph is acyclic.  ``deadline`` is polled once per Karp level and
    per certificate round under the ``karp-mcm`` progress keys.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError("precedence graph requires a square matrix")
    n = matrix.nrows
    if not n:
        return CycleRatioResult(None)
    progress = None
    if deadline is not None:
        progress = deadline.checkpoint(
            "karp-mcm", {"scc": 0, "level": 0, "levels": n})
    dense, scale = _encode(matrix.rows)
    targets, sources = np.nonzero(dense > -np.inf)
    if not targets.size:
        return CycleRatioResult(None)
    weights = dense[targets, sources]
    largest = int(np.abs(weights).max())
    if (n + 1) * largest >= MAX_EXACT_FLOAT_SUM:
        raise NumericalGuardError(
            f"scaled entries too large for exact float64 sums: "
            f"({n} + 1) * {largest} >= 2**53")
    # Rows without finite entries have empty segments, which reduceat
    # cannot take: relax only the filled rows (``heads``).
    indptr = np.searchsorted(targets, np.arange(n + 1))
    filled = indptr[:-1] < indptr[1:]
    heads = np.flatnonzero(filled)
    starts = indptr[:-1][filled]

    levels = _karp_levels(sources, weights, starts, heads, n, deadline,
                          progress)
    node = _critical_node(levels)
    if node is None:
        return CycleRatioResult(None)
    cycle = _backtrack(levels, sources, weights, indptr, node)

    total = sum(int(weights[e]) for e in cycle)
    mean = Fraction(total, len(cycle))
    _certify(sources, weights, starts, heads, n, largest,
             mean.numerator, mean.denominator, deadline)
    rows = matrix.rows
    edges = [
        RatioEdge(j, i, Fraction(rows[i][j]), 1)
        for i, j in zip(targets[cycle].tolist(), sources[cycle].tolist())
    ]
    return CycleRatioResult(mean / scale, edges).check()


def _encode(rows):
    """The rows as a float64 array scaled to integers, and the scale.

    A type census decides the route: rows of ints and ε go to
    ``np.array`` as they are; any other rational makes one pass that
    scales every finite entry by the LCM of the denominators.
    """
    scale = 1
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        finite = [Fraction(x) for x in chain.from_iterable(rows)
                  if x != EPSILON]
        scale = lcm(1, *(x.denominator for x in finite))
        rows = [[x if x == EPSILON else int(x * scale) for x in row]
                for row in rows]
    try:
        return np.array(rows, dtype=np.float64), scale
    except OverflowError as error:
        raise NumericalGuardError(
            f"matrix entry beyond float64 range: {error}") from error


def _karp_levels(sources, weights, starts, heads, n, deadline, progress):
    """``D_0 … D_n``: best ``k``-edge walk weights from any node."""
    levels = np.full((n + 1, n), -np.inf)
    levels[0] = 0.0
    walks = np.empty_like(weights)
    for k in range(1, n + 1):
        if deadline is not None:
            progress["level"] = k
            deadline.check()
        np.add(levels[k - 1].take(sources), weights, out=walks)
        levels[k, heads] = np.maximum.reduceat(walks, starts)
    return levels


def _critical_node(levels):
    """A node maximising Karp's ``min_k (D_n − D_k)/(n − k)``, or
    ``None`` when no ``n``-edge walk exists (acyclic)."""
    n = levels.shape[1]
    live = np.flatnonzero(levels[n] > -np.inf)
    if not live.size:
        return None
    gaps = levels[n, live] - levels[:n, live]
    means = (gaps / (n - np.arange(n))[:, None]).min(axis=0)
    return int(live[means.argmax()])


def _backtrack(levels, sources, weights, indptr, node) -> List[int]:
    """Edge indices of the first cycle on the best ``n``-edge walk into
    ``node``, in walk order.

    Level ``k``'s value at ``v`` is attained exactly by some in-edge
    from level ``k − 1``; stepping back along it until a node repeats
    closes a cycle (``n + 1`` visits of ``n`` nodes).
    """
    seen = {node: 0}
    walk: List[int] = []
    v = node
    for k in range(levels.shape[0] - 1, 0, -1):
        lo, hi = int(indptr[v]), int(indptr[v + 1])
        attained = levels[k - 1, sources[lo:hi]] + weights[lo:hi]
        pick = int(np.argmax(attained == levels[k, v]))
        if attained[pick] != levels[k, v]:
            raise NumericalGuardError(
                f"critical walk broke at level {k}: inexact level table")
        edge = lo + pick
        walk.append(edge)
        v = int(sources[edge])
        if v in seen:
            return walk[seen[v]:][::-1]
        seen[v] = len(walk)
    raise NumericalGuardError("critical walk revisits no node")


def _certify(sources, weights, starts, heads, n, largest, p, q,
             deadline) -> None:
    """Prove no cycle mean exceeds ``p/q`` (scaled units) with an int64
    Bellman fixpoint of the reduced weights ``q·w − p``."""
    if (n + 1) * (q * largest + abs(p)) >= MAX_INT64_SUM:
        raise NumericalGuardError(
            f"reduced weights too large for int64 certification: "
            f"({n} + 1) * ({q} * {largest} + {abs(p)}) >= 2**62")
    reduced = weights.astype(np.int64) * q - p
    potential = np.zeros(n, dtype=np.int64)
    for _ in range(n + 1):
        if deadline is not None:
            deadline.check()
        relaxed = np.maximum.reduceat(potential[sources] + reduced, starts)
        if (relaxed <= potential[heads]).all():
            return
        potential[heads] = np.maximum(potential[heads], relaxed)
    raise NumericalGuardError(
        f"certificate failed: a cycle with mean above {p}/{q} (scaled) "
        f"exists; the float ranking picked a sub-optimal cycle")
