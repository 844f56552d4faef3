"""Vectorized (numpy) kernels for the analysis hot loops.

The exact analyses (:mod:`repro.maxplus`, :mod:`repro.mcm`,
:mod:`repro.sdf.simulation`) work over Python dicts with
:class:`fractions.Fraction` arithmetic — auditable and exact, but they
cap the throughput of every layer above (batch tier, resilience tiers).
This package provides array-backed equivalents of the hot loops:

* Algorithm 1's symbolic execution as one array step per schedule run
  (:func:`~repro.kernels.symbolic.block_walk`), exact by an a-priori
  ``2**53`` bound on its integer stamps;
* the max-plus eigenvalue of the resulting iteration matrix: Karp from
  a zero super-source over the matrix's finite entries, with an exact
  backtrack of the critical walk and an int64 Bellman-fixpoint
  certificate (:func:`~repro.kernels.maxplus.critical_cycle_numpy`);
* the self-timed state-space simulation with a vectorized enabling/
  firing step (:func:`~repro.kernels.simulation.
  simulation_throughput_numpy`).

**The numpy kernels return the same exact results as the reference
implementations.**  Floating point is used only where it is provably
exact or to *search* for a candidate critical cycle; the reported
value is re-derived exactly from the cycle's own entries and then
*certified* optimal with exact integer arithmetic.  Any numerical
doubt — weights too large for exact float64 sums, int64 overflow risk,
a failed certificate — raises :class:`NumericalGuardError`, and
callers fall back to the exact kernel (recorded as
``degradation_reason`` in provenance).  Because results are
bit-identical, cache entries are shared between backends and the
kernel is *not* part of the cache key.

The classical ``method="hsdf"`` baseline has no numpy kernel: it
always runs exact Howard (:func:`repro.mcm.howard.howard_mcr`) and
records ``kernel: "exact"``.

numpy is a plain dependency and ``kernel="auto"`` means the numpy
kernels; ``kernel="exact"`` runs the reference implementations.  The
kernel modules import numpy at their top and are imported only when a
numpy kernel runs, so ``import repro`` does not load numpy.

See ``docs/kernels.md`` for the array layouts, the certificates and
the differential-oracle testing recipe (``tests/test_kernel_oracle.py``).
"""

from repro.kernels.backend import (
    KERNELS,
    NumericalGuardError,
    record_fallback,
    record_selection,
    resolve_kernel,
)

__all__ = [
    "KERNELS",
    "NumericalGuardError",
    "record_fallback",
    "record_selection",
    "resolve_kernel",
]
