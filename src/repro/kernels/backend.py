"""Kernel selection, numerical guards and the lazy numpy import.

The analysis layers accept a ``kernel="auto"|"numpy"|"exact"`` knob.
This module owns the three pieces every kernel shares:

* **Selection** — :func:`resolve_kernel` maps the knob to a concrete
  backend.  ``"auto"`` prefers numpy when it imports, silently falling
  back to the exact path otherwise; an *explicit* ``"numpy"`` without
  numpy raises :class:`KernelUnavailableError` instead of silently
  degrading.
* **Laziness** — numpy is imported exactly once, on first use, via
  :func:`numpy_or_none`.  Nothing in :mod:`repro` imports numpy at
  module load, so the exact path works on hosts without it (the
  no-numpy guard test mocks the import away to prove it).
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
    "KernelUnavailableError",
    "NumericalGuardError",
    "available_kernels",
    "numpy_available",
    "numpy_or_none",
    "record_fallback",
    "record_selection",
    "require_numpy",
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


class KernelUnavailableError(ReproError, RuntimeError):
    """An explicitly requested kernel backend cannot run here."""


class NumericalGuardError(ReproError, ArithmeticError):
    """A numpy kernel cannot guarantee exactness; use the exact kernel.

    Raised before any wrong answer can escape: on oversized weights,
    int64 overflow risk or a failed exact certificate.  Callers catch
    this and fall back to the reference implementation, recording the
    message as ``degradation_reason``.
    """


# Cached lazy import: _UNSET until the first probe, then the module
# object or None.  Tests reset it via _reset_numpy_cache() when they
# mock the import away.
_UNSET = object()
_numpy_module = _UNSET


def numpy_or_none():
    """Return the numpy module, or ``None`` when it cannot be imported."""
    global _numpy_module
    if _numpy_module is _UNSET:
        try:
            import numpy
        except ImportError:
            _numpy_module = None
        else:
            _numpy_module = numpy
    return _numpy_module


def _reset_numpy_cache() -> None:
    """Forget the cached import probe (test hook)."""
    global _numpy_module
    _numpy_module = _UNSET


def numpy_available() -> bool:
    """True when the numpy backend can run in this interpreter."""
    return numpy_or_none() is not None


def require_numpy():
    """Return numpy or raise :class:`KernelUnavailableError`."""
    module = numpy_or_none()
    if module is None:
        raise KernelUnavailableError(
            "kernel 'numpy' requested but numpy is not importable; "
            "use kernel='auto' (silent exact fallback) or kernel='exact'"
        )
    return module


def available_kernels() -> Tuple[str, ...]:
    """Concrete backends that can run here (always includes 'exact')."""
    return ("numpy", "exact") if numpy_available() else ("exact",)


def resolve_kernel(kernel: str) -> str:
    """Map the ``kernel=`` knob to a concrete backend name.

    ``"auto"`` resolves to ``"numpy"`` when numpy imports and to
    ``"exact"`` otherwise.  An explicit ``"numpy"`` on a host without
    numpy raises :class:`KernelUnavailableError`; unknown names raise
    :class:`ValueError`.
    """
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {', '.join(KERNELS)}"
        )
    if kernel == "auto":
        return "numpy" if numpy_available() else "exact"
    if kernel == "numpy":
        require_numpy()
    return kernel


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
