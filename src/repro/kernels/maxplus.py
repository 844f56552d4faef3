"""Array-native maximum cycle mean of a square max-plus matrix.

The max-plus eigenvalue of ``M`` is the maximum cycle mean of its
precedence graph: an edge ``j → i`` of weight ``M[i][j]`` for every
finite entry.  :func:`critical_cycle_array` computes it from ``M`` held
as a float64 array of integers and a scale (``M = array / scale``, ε
being ``-inf``) — the form in which the block walk of
:mod:`repro.kernels.symbolic` leaves the iteration matrix — without
building a :class:`~repro.mcm.graphlib.RatioGraph`, splitting it into
SCCs or decoding the entries.  :func:`critical_cycle_numpy` takes a
:class:`~repro.maxplus.matrix.MaxPlusMatrix` and encodes it first.

1. **Encode** (matrix rows only) once into a float64 array scaled by
   the LCM of the entries' denominators (integer matrices need no
   scaling, so no per-entry :class:`~fractions.Fraction` is built).
2. **Gather** the finite entries with ``np.nonzero``: row-major order
   groups them by target, which is the CSR layout Karp relaxes over.
   One ``np.gcd.reduce`` over the entries and the scale reduces the
   scale to the entries' own LCM, so the guards below see the integers
   the encode would have produced.
3. **Karp from a zero super-source, stopped by the certificate.**
   ``D_0 = 0`` everywhere and ``D_k(v) = max_{u→v} D_{k−1}(u) + w(u, v)``
   (one ``np.maximum.reduceat`` per level) covers every SCC in one
   pass.  At levels 2, 4, 8, … below ``n`` the best walk into that
   level's argmax node is backtracked, and its first cycle goes to the
   certificate below, capped at :data:`_EARLY_ROUNDS` rounds; a
   fixpoint stops Karp there (Hartmann & Orlin's early termination).
   Otherwise all ``n`` levels run and ``λ = max_v min_{k<n} (D_n(v) −
   D_k(v))/(n − k)`` over the nodes an ``n``-edge walk reaches picks
   the candidate; no such walk means no cycle.
4. **Backtrack exactly.**  Every ``D_k`` is an integer below ``2**53``,
   so a walk is recovered by equality tests against the level table
   instead of a per-level parent table.  The first node the walk
   revisits closes a cycle.
5. **Rebuild** the cycle's :class:`~repro.mcm.graphlib.RatioEdge` list
   by decoding only its own entries.

**Exact certificate.**  Float division only ranks the candidates, so the
answer is accepted only after an integer proof.  The cycle's integer
weight sum gives ``λ = P/Q`` in scaled units; the reduced weights
``Q·w − P`` are then relaxed in int64 from the all-zero potential over
the same CSR.  A fixpoint potential ``π`` with ``π(u) + Q·w(u, v) − P ≤
π(v)`` on every finite entry proves that no cycle has a mean above
``λ`` — whatever the round that reached it — and the cycle itself
attains it.

Guards raise :class:`~repro.kernels.backend.NumericalGuardError`, and
``throughput()`` then reruns the exact Karp kernel and records the
fallback: an entry beyond float64 range, ``(n+1)·max|w| ≥ 2**53``
(float sums could round), and, for the all-level candidate,
``(n+1)·(Q·max|w| + |P|) ≥ 2**62`` (int64 potentials could overflow)
and no fixpoint within ``n + 1`` rounds (the float ranking picked a
sub-optimal cycle).  An early candidate that trips a guard is passed
over, never raised.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import List, NamedTuple, Optional

import numpy as np

from repro.kernels.backend import (
    MAX_EXACT_FLOAT_SUM,
    MAX_INT64_SUM,
    NumericalGuardError,
)
from repro.maxplus.algebra import EPSILON
from repro.maxplus.matrix import MaxPlusMatrix
from repro.mcm.graphlib import CycleRatioResult, RatioEdge
from repro.obs.trace import current_span

__all__ = ["critical_cycle_array", "critical_cycle_numpy"]

#: Certificate rounds an early level's candidate gets.  A fixpoint is a
#: proof at any round count, so the cap bounds the work a failed attempt
#: wastes (at most ``_EARLY_ROUNDS·⌈log₂ n⌉`` rounds) and never exactness.
_EARLY_ROUNDS = 4


def critical_cycle_numpy(matrix: MaxPlusMatrix,
                         deadline=None) -> CycleRatioResult:
    """Eigenvalue and a critical cycle of ``matrix`` (module docstring):
    :func:`critical_cycle_array` on the encoded rows."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("precedence graph requires a square matrix")
    return critical_cycle_array(*_encode(matrix.rows), deadline=deadline)


def critical_cycle_array(array, scale: int,
                         deadline=None) -> CycleRatioResult:
    """Eigenvalue and a critical cycle of the square max-plus matrix
    ``array / scale`` (module docstring); ``array`` holds integers as
    float64, ε as ``-inf``, and is not modified.

    Same contract as the exact ``critical_cycle``: an exact
    :class:`Fraction` value, a cycle of edges ``j → i`` for entries
    ``M[i][j]``, and ``CycleRatioResult(None)`` when the precedence
    graph is acyclic.  ``deadline`` is polled once per Karp level and
    per certificate round under the ``karp-mcm`` progress keys.  The
    innermost open trace span records the level whose candidate
    certified (``karp_path`` ``"early"`` or ``"full"``,
    ``certified_level``, ``certificate_rounds``).
    """
    n = len(array)
    if not n:
        return CycleRatioResult(None)
    progress = None
    if deadline is not None:
        progress = deadline.checkpoint(
            "karp-mcm", {"scc": 0, "level": 0, "levels": n})
    targets, sources = np.nonzero(array > -np.inf)
    if not targets.size:
        return CycleRatioResult(None)
    weights = array[targets, sources]
    largest = int(np.abs(weights).max())
    # The walk scales by every execution time's denominator, which the
    # entries may not need: reduce to their own LCM, so the guards see
    # the integers the encode gives (int64 holds them exactly).
    if scale > 1 and largest < MAX_INT64_SUM:
        common = int(np.gcd.reduce(weights.astype(np.int64), initial=scale))
        weights /= common
        largest //= common
        scale //= common
    if (n + 1) * largest >= MAX_EXACT_FLOAT_SUM:
        raise NumericalGuardError(
            f"scaled entries too large for exact float64 sums: "
            f"({n} + 1) * {largest} >= 2**53")
    # Rows without finite entries have empty segments, which reduceat
    # cannot take: relax only the filled rows (``heads``).
    indptr = np.searchsorted(targets, np.arange(n + 1))
    filled = indptr[:-1] < indptr[1:]
    csr = _Csr(sources, weights, weights.astype(np.int64), indptr,
               indptr[:-1][filled], np.flatnonzero(filled), n, largest)

    found = _karp(csr, deadline, progress)
    if found is None:
        return CycleRatioResult(None)
    cycle, mean, level, rounds = found
    current = current_span()
    if current is not None:
        current.set(karp_path="early" if level < n else "full",
                    certified_level=level, certificate_rounds=rounds)
    edges = [
        RatioEdge(j, i, Fraction(w, scale), 1)
        for i, j, w in zip(targets[cycle].tolist(), sources[cycle].tolist(),
                           csr.ints[cycle].tolist())
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


class _Csr(NamedTuple):
    """The ``n × n`` matrix's finite entries grouped by target: entry
    ``e`` is the edge ``sources[e] → v`` of weight ``weights[e]``
    (``ints[e]`` as int64) for the ``v`` whose ``indptr`` segment holds
    it; ``heads`` are the targets with entries, ``starts`` their
    segments' starts, and ``largest`` is ``max|w|``."""

    sources: np.ndarray
    weights: np.ndarray
    ints: np.ndarray
    indptr: np.ndarray
    starts: np.ndarray
    heads: np.ndarray
    n: int
    largest: int


def _karp(csr: _Csr, deadline, progress):
    """Karp's levels, stopped at the first level whose candidate cycle
    the certificate accepts: ``(cycle, mean, level, rounds)`` as
    :func:`_certified` returns it, or ``None`` when the precedence graph
    is acyclic."""
    n = csr.n
    levels = np.full((n + 1, n), -np.inf)
    levels[0] = 0.0
    walks = np.empty_like(csr.weights)
    attempt = 2
    for k in range(1, n + 1):
        if deadline is not None:
            progress["level"] = k
            deadline.check()
        np.add(levels[k - 1].take(csr.sources), csr.weights, out=walks)
        levels[k, csr.heads] = np.maximum.reduceat(walks, csr.starts)
        if k == attempt < n:
            attempt *= 2
            node = int(levels[k].argmax())
            if levels[k, node] > -np.inf:
                try:
                    return _certified(csr, levels, node, k, _EARLY_ROUNDS,
                                      deadline)
                except NumericalGuardError:
                    pass  # an early candidate is passed over, never raised
    node = _critical_node(levels)
    if node is None:
        return None
    return _certified(csr, levels, node, n, n + 1, deadline)


def _certified(csr: _Csr, levels, node: int, level: int, rounds: int,
               deadline):
    """The first cycle on the best ``level``-edge walk into ``node``, as
    ``(cycle, mean, level, rounds taken)`` with the cycle's entry
    indices and its mean in scaled units, once the certificate accepts
    it within ``rounds`` rounds; raises :class:`NumericalGuardError`
    when the walk closes no cycle, the int64 bound could be crossed or
    no fixpoint comes."""
    cycle = _backtrack(levels, csr, node, level)
    if cycle is None:
        raise NumericalGuardError("critical walk revisits no node")
    mean = Fraction(int(csr.ints[cycle].sum()), len(cycle))
    p, q = mean.numerator, mean.denominator
    if (csr.n + 1) * (q * csr.largest + abs(p)) >= MAX_INT64_SUM:
        raise NumericalGuardError(
            f"reduced weights too large for int64 certification: "
            f"({csr.n} + 1) * ({q} * {csr.largest} + {abs(p)}) >= 2**62")
    taken = _certify(csr, mean, rounds, deadline)
    if not taken:
        raise NumericalGuardError(
            f"certificate failed: a cycle with mean above {p}/{q} (scaled) "
            f"exists; the float ranking picked a sub-optimal cycle")
    return cycle, mean, level, taken


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


def _backtrack(levels, csr: _Csr, node: int,
               level: int) -> Optional[List[int]]:
    """Edge indices of the first cycle on the best ``level``-edge walk
    into ``node``, in walk order, or ``None`` when that walk repeats no
    node.

    Level ``k``'s value at ``v`` is attained exactly by some in-edge
    from level ``k − 1``; stepping back along it until a node repeats
    closes a cycle (certain from level ``n`` on: ``n + 1`` visits of
    ``n`` nodes).
    """
    sources, weights, indptr = csr.sources, csr.weights, csr.indptr
    seen = {node: 0}
    walk: List[int] = []
    v = node
    for k in range(level, 0, -1):
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
    return None


def _certify(csr: _Csr, mean: Fraction, rounds: int, deadline) -> int:
    """The round at which the int64 Bellman relaxation of the reduced
    weights ``q·w − p`` (``mean = p/q`` in scaled units) reaches a
    fixpoint, proving that no cycle mean exceeds ``mean``; 0 when none
    is reached within ``rounds`` rounds."""
    reduced = csr.ints * mean.denominator - mean.numerator
    potential = np.zeros(csr.n, dtype=np.int64)
    heads, sources, starts = csr.heads, csr.sources, csr.starts
    for done in range(1, rounds + 1):
        if deadline is not None:
            deadline.check()
        relaxed = np.maximum.reduceat(potential[sources] + reduced, starts)
        if (relaxed <= potential[heads]).all():
            return done
        potential[heads] = np.maximum(potential[heads], relaxed)
    return 0
