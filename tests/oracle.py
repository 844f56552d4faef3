"""Reusable differential oracle: numpy kernels vs the exact reference.

The kernel contract (src/repro/kernels, docs/kernels.md) is *bit
identity*: the vectorized numpy backend must return exactly what the
pure-Fraction reference returns — same Fractions, same witnesses, same
error types with the same messages — because its float search phase is
always followed by exact re-derivation and certification.

:func:`assert_backends_agree` checks that whole contract for one graph
and one method, and :func:`assert_symbolic_engines_agree` checks it for
the two engines of Algorithm 1's symbolic execution; both are shared by
the registry-wide and property-based suites in ``test_kernel_oracle.py``.
``method="hsdf"`` has a single engine, exact Howard, so for it
:func:`assert_hsdf_runs_exact` checks every ``kernel=`` value against
``method="symbolic"`` instead.
"""

from __future__ import annotations

from repro.analysis.throughput import throughput
from repro.core.symbolic import symbolic_iteration
from repro.errors import ReproError
from repro.kernels import KERNELS
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.obs.provenance import verify_witness


def run_kernel(graph, method: str, kernel: str):
    """Run one backend; return ``(result, error)`` with exactly one set."""
    try:
        return throughput(graph, method=method, kernel=kernel), None
    except ReproError as error:
        return None, error


def assert_backends_agree(graph, method: str, expect_fallback: bool = False):
    """Assert full numpy/exact agreement on ``graph`` for ``method``.

    Checks, in order: error agreement (same type, same message when both
    raise), exact equality of cycle time / repetition vector / per-actor
    rates, provenance ``kernel`` labelling (``expect_fallback=True``
    demands the numpy run degraded to exact and recorded why), and that
    every attached witness re-verifies against the original graph to
    the agreed cycle time.  ``method="hsdf"`` is checked by
    :func:`assert_hsdf_runs_exact`.

    Returns ``(numpy_result, exact_result)`` — both ``None`` when the
    backends agreed by raising.
    """
    if method == "hsdf":
        return assert_hsdf_runs_exact(graph)
    numpy_result, numpy_error = run_kernel(graph, method, "numpy")
    exact_result, exact_error = run_kernel(graph, method, "exact")

    if exact_error is not None:
        assert numpy_error is not None, (
            f"exact raised {type(exact_error).__name__} but numpy "
            f"returned {numpy_result!r}"
        )
        assert type(numpy_error) is type(exact_error), (
            f"error types diverge: numpy {type(numpy_error).__name__}, "
            f"exact {type(exact_error).__name__}"
        )
        assert str(numpy_error) == str(exact_error)
        return None, None
    assert numpy_error is None, (
        f"numpy raised {type(numpy_error).__name__}: {numpy_error} "
        f"but exact returned {exact_result.cycle_time}"
    )

    # Bit-identical analysis outputs (Fraction ==, not approximate).
    assert numpy_result.cycle_time == exact_result.cycle_time
    assert numpy_result.repetition == exact_result.repetition
    assert numpy_result.unbounded == exact_result.unbounded
    if not exact_result.unbounded:
        assert numpy_result.per_actor == exact_result.per_actor

    numpy_record = numpy_result.provenance
    exact_record = exact_result.provenance
    assert exact_record is not None and numpy_record is not None
    assert exact_record.kernel == "exact"
    assert exact_record.degradation_reason is None
    if expect_fallback:
        assert numpy_record.kernel == "exact"
        assert numpy_record.degradation_reason is not None
        assert "fell back to exact" in numpy_record.degradation_reason
    else:
        assert numpy_record.kernel == "numpy"
        assert numpy_record.degradation_reason is None

    # Witness parity: both backends certify, or neither can.
    assert (numpy_record.witness is None) == (exact_record.witness is None)
    for record in (numpy_record, exact_record):
        if record.witness is not None:
            mean = verify_witness(graph, record)
            assert mean == exact_result.cycle_time

    return numpy_result, exact_result


def assert_hsdf_runs_exact(graph):
    """Assert ``method="hsdf"`` runs exact Howard for every ``kernel=``.

    Each knob value must give the cycle time (or unboundedness) of
    ``method="symbolic"``, label its provenance ``kernel: "exact"`` with
    no ``degradation_reason``, count no kernel fallback, and — when the
    throughput is bounded — carry a witness that re-verifies against the
    original graph.  Returns the ``kernel="numpy"`` and
    ``kernel="exact"`` results, like :func:`assert_backends_agree`.
    """
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        results = {
            kernel: throughput(graph, method="hsdf", kernel=kernel)
            for kernel in KERNELS
        }
    finally:
        set_default_registry(previous)
    assert registry.value("repro_kernel_fallback_total", method="hsdf") is None

    symbolic = throughput(graph, method="symbolic")
    for result in results.values():
        assert result.unbounded == symbolic.unbounded
        assert result.repetition == symbolic.repetition
        record = result.provenance
        assert record.kernel == "exact"
        assert record.degradation_reason is None
        if not symbolic.unbounded:
            assert result.cycle_time == symbolic.cycle_time
            assert record.witness is not None
            assert verify_witness(graph, record) == result.cycle_time
    return results["numpy"], results["exact"]


def _iteration(graph, kernel: str, **kwargs):
    try:
        return symbolic_iteration(graph, kernel=kernel, **kwargs), None
    except ReproError as error:
        return None, error


def assert_symbolic_engines_agree(graph, **kwargs):
    """Assert the block engine and the exact walk execute ``graph``
    identically (``kwargs`` go to :func:`symbolic_iteration`).

    Either both raise the same error type with the same message, or
    matrix, token ids, schedule, start and completion stamps are all
    equal (stamp maps in the same firing order).  Returns the numpy
    iteration, or ``None`` when both raised.
    """
    numpy_iteration, numpy_error = _iteration(graph, "numpy", **kwargs)
    exact_iteration, exact_error = _iteration(graph, "exact", **kwargs)
    if exact_error is not None:
        assert numpy_error is not None, (
            f"exact raised {type(exact_error).__name__}: {exact_error} "
            "but numpy returned an iteration"
        )
        assert type(numpy_error) is type(exact_error)
        assert str(numpy_error) == str(exact_error)
        return None
    assert numpy_error is None, (
        f"numpy raised {type(numpy_error).__name__}: {numpy_error}"
    )
    assert numpy_iteration.matrix == exact_iteration.matrix
    assert numpy_iteration.token_ids == exact_iteration.token_ids
    assert numpy_iteration.runs == exact_iteration.runs
    assert numpy_iteration.schedule == exact_iteration.schedule
    assert (list(numpy_iteration.firing_starts.items())
            == list(exact_iteration.firing_starts.items()))
    assert (list(numpy_iteration.firing_completions.items())
            == list(exact_iteration.firing_completions.items()))
    return numpy_iteration
