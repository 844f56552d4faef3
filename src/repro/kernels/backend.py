"""Kernel selection and numerical guards.

The analysis layers accept a ``kernel="auto"|"numpy"|"exact"`` knob.
This module owns the pieces every kernel shares:

* **Selection** — :func:`resolve_kernel` maps the knob to a concrete
  backend: ``"auto"`` is ``"numpy"`` (a plain dependency), and
  ``"exact"`` is the reference implementation the numpy kernels fall
  back to.  The kernel modules import numpy at their top and are
  themselves imported only when a numpy kernel runs, so ``import
  repro`` does not load numpy.
* **Guards** — the numpy kernels promise *bit-identical* results to the
  exact-Fraction reference.  They keep that promise by using float64
  only inside regimes where it is exact, and by certifying candidate
  answers with exact integer arithmetic.  Whenever a precondition fails
  (:data:`MAX_EXACT_FLOAT_SUM`, :data:`MAX_INT64_SUM` or a failed
  certificate) they raise :class:`NumericalGuardError` and the caller
  falls back to the exact kernel, recording the reason as provenance
  ``degradation_reason``.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ReproError
from repro.obs.metrics import default_registry

__all__ = [
    "KERNELS",
    "MAX_EXACT_FLOAT_SUM",
    "MAX_INT64_SUM",
    "NumericalGuardError",
    "record_fallback",
    "record_selection",
    "resolve_kernel",
]

#: Valid values for the ``kernel=`` knob, in documentation order.
KERNELS: Tuple[str, ...] = ("auto", "numpy", "exact")

#: Dynamic-programming sums (scaled integer weights) must stay strictly
#: below this for float64 arithmetic on them to be exact (53-bit
#: mantissa).
MAX_EXACT_FLOAT_SUM = 2 ** 53

#: Reduced-weight Bellman certification runs in int64; sums must stay
#: strictly below this (headroom under 2**63 for one extra addition).
MAX_INT64_SUM = 2 ** 62


class NumericalGuardError(ReproError, ArithmeticError):
    """A numpy kernel cannot guarantee exactness; use the exact kernel.

    Raised before any wrong answer can escape: on oversized weights,
    int64 overflow risk or a failed exact certificate.  Callers catch
    this and fall back to the reference implementation, recording the
    message as ``degradation_reason``.
    """


def resolve_kernel(kernel: str) -> str:
    """Map the ``kernel=`` knob to a concrete backend name: ``"auto"``
    is ``"numpy"``; unknown names raise :class:`ValueError`."""
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {', '.join(KERNELS)}"
        )
    return "numpy" if kernel == "auto" else kernel


def record_selection(kernel: str, method: str) -> None:
    """Count a kernel selection (``repro_kernel_selected_total``)."""
    default_registry().counter(
        "repro_kernel_selected_total",
        "Kernel backend selected per throughput analysis",
        labels=("kernel", "method"),
    ).labels(kernel=kernel, method=method).inc()


def record_fallback(method: str) -> None:
    """Count a guard-driven numpy→exact fallback."""
    default_registry().counter(
        "repro_kernel_fallback_total",
        "Numerical-guard fallbacks from the numpy kernel to exact",
        labels=("method",),
    ).labels(method=method).inc()
