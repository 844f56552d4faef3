"""Spectral analysis of max-plus matrices.

The (largest) max-plus eigenvalue of a square matrix ``M`` equals the
maximum cycle mean of its precedence graph (nodes = indices, an edge
``j → i`` of weight ``M[i][j]`` for every finite entry).  For the
iteration matrix of an SDF graph the eigenvalue is the asymptotic
iteration period, so the graph's throughput is ``γ(a)/λ`` firings per
time unit (Baccelli et al. 1992, and Section 6 of the paper).

Two concrete kernels compute it.  ``kernel="exact"`` builds the
:func:`precedence_graph` and runs Karp's algorithm per strongly
connected component in Fractions; it is the reference and the oracle.
``kernel="numpy"`` runs Karp on the matrix's finite entries as arrays
and proves its answer with an exact integer certificate
(:mod:`repro.kernels.maxplus`); it never builds the precedence graph.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

from repro.errors import ConvergenceError
from repro.maxplus.algebra import EPSILON
from repro.maxplus.matrix import MaxPlusMatrix, MaxPlusVector
from repro.mcm.graphlib import RatioGraph
from repro.mcm.karp import karp_mcm


def precedence_graph(matrix: MaxPlusMatrix) -> RatioGraph:
    """The weighted precedence graph of a square max-plus matrix.

    Edge ``j → i`` with weight ``M[i][j]`` and unit transit for every
    finite entry; cycle means of this graph are the cycle weights of the
    matrix.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError("precedence graph requires a square matrix")
    graph = RatioGraph()
    for i in range(matrix.nrows):
        graph.add_node(i)
    for i in range(matrix.nrows):
        row = matrix.rows[i]
        for j in range(matrix.ncols):
            if row[j] != EPSILON:
                graph.add_edge(j, i, row[j], 1)
    return graph


def _karp(matrix: MaxPlusMatrix, deadline, kernel: str):
    if kernel == "numpy":
        from repro.kernels.maxplus import critical_cycle_numpy

        return critical_cycle_numpy(matrix, deadline=deadline)
    if kernel != "exact":
        raise ValueError(
            f"unknown concrete kernel {kernel!r}; use 'numpy' or 'exact'"
        )
    return karp_mcm(precedence_graph(matrix), deadline=deadline)


def eigenvalue(matrix: MaxPlusMatrix, deadline=None,
               kernel: str = "exact") -> Optional[Fraction]:
    """The largest max-plus eigenvalue, or ``None`` for a nilpotent matrix.

    Computed exactly as the maximum cycle mean of the precedence graph
    (Karp's algorithm per strongly connected component).  ``None`` means
    the precedence graph is acyclic: ``M^k`` is eventually all-ε and no
    recurrent timing constraint exists.  ``deadline`` (a
    :class:`repro.analysis.deadline.Deadline`) bounds the MCM iteration
    cooperatively.

    ``kernel="numpy"`` runs the array-native Karp kernel on the matrix
    itself (:func:`repro.kernels.maxplus.critical_cycle_numpy`): the
    same exact value, accepted only through an integer certificate.  A
    :class:`repro.kernels.NumericalGuardError` propagates to the caller,
    which decides whether to fall back to the exact kernel.
    """
    result = _karp(matrix, deadline, kernel)
    return result.value


def critical_indices(matrix: MaxPlusMatrix, deadline=None,
                     kernel: str = "exact") -> Tuple[Optional[Fraction], list]:
    """Eigenvalue plus the index cycle that attains it (critical cycle)."""
    result = _karp(matrix, deadline, kernel)
    if result.value is None:
        return None, []
    return result.value, result.cycle_nodes()


def critical_cycle(matrix: MaxPlusMatrix, deadline=None,
                   kernel: str = "exact"):
    """Eigenvalue and critical cycle in one Karp run.

    Returns the full :class:`repro.mcm.graphlib.CycleRatioResult` so
    callers that need both the value and the witnessing cycle (e.g. the
    provenance layer) pay for a single MCM computation.  The result's
    ``cycle`` edges connect matrix *indices* (``j → i`` for entry
    ``M[i][j]``); ``value`` is ``None`` for nilpotent matrices.
    ``kernel`` selects the concrete MCM kernel (see :func:`eigenvalue`).
    """
    return _karp(matrix, deadline, kernel)


def cycle_time(matrix: MaxPlusMatrix, deadline=None) -> Fraction:
    """Like :func:`eigenvalue` but returns 0 for nilpotent matrices.

    Zero cycle time means one iteration imposes no recurrent lower bound:
    iterations can overlap without limit.
    """
    value = eigenvalue(matrix, deadline=deadline)
    return Fraction(0) if value is None else value


def power_iteration_cycle_time(
    matrix: MaxPlusMatrix,
    start: Optional[MaxPlusVector] = None,
    max_steps: int = 100_000,
    deadline=None,
) -> Fraction:
    """Cycle time via the max-plus power method (cross-check for Karp).

    Iterates ``x ← M ⊗ x`` and detects periodicity of the *normalised*
    vector: when ``x(k+c)`` equals ``x(k)`` up to an additive constant δ,
    the cycle time is ``δ/c`` (the cyclicity theorem guarantees this for
    irreducible matrices).  Raises :class:`ConvergenceError` when no
    period appears within ``max_steps`` — which can genuinely happen for
    reducible matrices whose components run at different speeds.
    """
    if matrix.nrows != matrix.ncols:
        raise ValueError("power iteration requires a square matrix")
    x = start if start is not None else MaxPlusVector.zeros(matrix.nrows)
    seen: dict = {}
    progress = (
        deadline.checkpoint("power-iteration", {"step": 0, "max_steps": max_steps})
        if deadline is not None
        else None
    )
    for step in range(max_steps):
        if deadline is not None:
            progress["step"] = step
            deadline.check()
        norm = x.norm()
        key = x.normalised()
        if key in seen:
            prev_step, prev_norm = seen[key]
            if norm == EPSILON or prev_norm == EPSILON:
                return Fraction(0)
            return Fraction(norm - prev_norm, step - prev_step)
        seen[key] = (step, norm)
        x = matrix.apply(x)
    raise ConvergenceError(
        f"max-plus power iteration found no period within {max_steps} steps "
        "(matrix may be reducible with rate-mismatched components)"
    )
