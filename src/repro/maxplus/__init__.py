"""Max-plus algebra: the (max, +) semiring over the rationals with -inf.

The max-plus semiring is the algebraic backbone of timed SDF analysis
(Baccelli et al., "Synchronization and Linearity", 1992 — reference [1] of
the paper).  Symbolic time stamps in Algorithm 1 of the paper are max-plus
vectors; one iteration of a graph is a max-plus matrix; throughput is the
inverse of the matrix's eigenvalue.
"""

from repro.maxplus.algebra import EPSILON, is_epsilon, mp_plus, mp_max, mp_times_int
from repro.maxplus.matrix import MaxPlusMatrix, MaxPlusVector
from repro.maxplus.spectral import eigenvalue, cycle_time
from repro.maxplus.recurrence import (
    Recurrence,
    cycle_time_vector,
    eigenvector,
    solve_recurrence,
)

__all__ = [
    "EPSILON",
    "is_epsilon",
    "mp_plus",
    "mp_max",
    "mp_times_int",
    "MaxPlusMatrix",
    "MaxPlusVector",
    "eigenvalue",
    "cycle_time",
    "Recurrence",
    "cycle_time_vector",
    "eigenvector",
    "solve_recurrence",
]
