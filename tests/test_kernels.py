"""Unit tests for the numpy kernel layer (:mod:`repro.kernels`).

Covers the pieces the differential oracle exercises only indirectly:
kernel selection, the eigenvalue kernel's guards, certificate and
cancellation, the numerical-guard fallback (with its provenance and
metrics trail) and the observability surface (span attributes,
provenance round trip, schema validation).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

np = pytest.importorskip("numpy")

from repro.analysis.deadline import CancelToken, Deadline
from repro.analysis.throughput import throughput
from repro.core.symbolic import symbolic_iteration
from repro.errors import AnalysisCancelled
from repro.kernels import NumericalGuardError, resolve_kernel
from repro.kernels.backend import MAX_EXACT_FLOAT_SUM
from repro.maxplus.algebra import EPSILON
from repro.maxplus.matrix import MaxPlusMatrix
from repro.maxplus.spectral import critical_cycle
from repro.obs.check import SchemaError, validate_provenance
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.obs.provenance import ProvenanceRecord
from repro.obs.trace import Tracer
from repro.sdf.graph import SDFGraph


def _small_sdf(execution_time=3):
    g = SDFGraph("kernel-unit")
    g.add_actor("x", execution_time=execution_time)
    g.add_actor("y", execution_time=1)
    for name in ("x", "y"):
        g.add_edge(name, name, tokens=1, name=f"self_{name}")
    g.add_edge("x", "y")
    g.add_edge("y", "x", tokens=1)
    return g


def _fan_out_sdf():
    """``x`` (self-timed, T = 1) feeds 2**13 firings of ``a`` (T = 2**40)
    per iteration: the walk's bound Σγ·T reaches 2**53, while the 1×1
    iteration matrix holds only x's period."""
    g = SDFGraph("fan-out")
    g.add_actor("x", execution_time=1)
    g.add_actor("a", execution_time=2 ** 40)
    g.add_edge("x", "x", tokens=1, name="self_x")
    g.add_edge("x", "a", production=2 ** 13, consumption=1)
    return g


@pytest.fixture
def fresh_registry():
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)


class TestKernelSelection:
    def test_resolve(self):
        assert resolve_kernel("exact") == "exact"
        assert resolve_kernel("numpy") == "numpy"
        assert resolve_kernel("auto") == "numpy"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("cuda")
        with pytest.raises(ValueError, match="unknown kernel"):
            throughput(_small_sdf(), kernel="cuda")


def _pair_sdf():
    """Self-looped ``a`` (T = 1) and ``b`` (T = 5) on a one-token ring:
    the iteration matrix's entry (0, 0) is a's self-loop (mean 1), the
    critical cycle is the ring (mean 6)."""
    g = SDFGraph("pair")
    for name, time in (("a", 1), ("b", 5)):
        g.add_actor(name, execution_time=time)
        g.add_edge(name, name, tokens=1, name=f"self_{name}")
    g.add_edge("a", "b")
    g.add_edge("b", "a", tokens=1)
    return g


def _ring_matrix(n, closing_weight):
    """An ``n``-cycle of unit entries closed by ``closing_weight``."""
    rows = [[EPSILON] * n for _ in range(n)]
    for i in range(n):
        rows[(i + 1) % n][i] = 1
    rows[0][n - 1] = closing_weight
    return MaxPlusMatrix(rows)


class TestMatrixKernel:
    """Guards and certificate of the array-native eigenvalue kernel."""

    def test_entry_just_over_the_float_bound_trips(self):
        n = 5
        limit = MAX_EXACT_FLOAT_SUM // (n + 1)  # (n + 1) * limit < 2**53
        below = _ring_matrix(n, limit)
        assert critical_cycle(below, kernel="numpy").value == \
            critical_cycle(below, kernel="exact").value
        with pytest.raises(NumericalGuardError, match=r"2\*\*53"):
            critical_cycle(_ring_matrix(n, limit + 1), kernel="numpy")

    def test_entry_beyond_float_range_trips(self):
        for entry in (10 ** 400, Fraction(10 ** 400, 3)):
            with pytest.raises(NumericalGuardError, match="float64 range"):
                critical_cycle(MaxPlusMatrix([[entry]]), kernel="numpy")

    def test_guard_trip_records_one_fallback(self, fresh_registry):
        """A 1x1 matrix holding 2**52 + 1: the walk's bound admits it,
        the kernel's (n + 1)·max|w| < 2**53 does not."""
        g = SDFGraph("lone")
        g.add_actor("a", execution_time=2 ** 52 + 1)
        g.add_edge("a", "a", tokens=1, name="self_a")
        iteration = symbolic_iteration(g, kernel="numpy")
        with pytest.raises(NumericalGuardError):
            critical_cycle(iteration.matrix, kernel="numpy")
        with Tracer() as tracer:
            result = throughput(g, kernel="numpy")
        spans = {s.name: s for s in tracer.spans()}
        assert spans["symbolic-conversion"].args["kernel_used"] == "numpy"
        assert spans["mcm-eigenvalue"].args["kernel_used"] == "exact"
        assert result.cycle_time == 2 ** 52 + 1
        record = result.provenance
        assert record.kernel == "exact"
        assert "fell back to exact" in record.degradation_reason
        assert "2**53" in record.degradation_reason
        assert fresh_registry.value(
            "repro_kernel_fallback_total", method="symbolic") == 1

    def test_wrong_walk_pick_is_rejected_by_the_certificate(
            self, monkeypatch, fresh_registry):
        """A walk pick closing a non-critical cycle (a's self-loop) must
        fail the integer certificate, never reach the caller."""
        import repro.kernels.maxplus as kernel

        matrix = symbolic_iteration(_pair_sdf()).matrix
        assert matrix.rows[0][0] == 1
        monkeypatch.setattr(kernel, "_backtrack", lambda *args: [0])
        with pytest.raises(NumericalGuardError, match="certificate"):
            critical_cycle(matrix, kernel="numpy")
        result = throughput(_pair_sdf(), kernel="numpy")
        assert result.cycle_time == 6
        assert result.provenance.kernel == "exact"
        assert "certificate" in result.provenance.degradation_reason
        assert fresh_registry.value(
            "repro_kernel_fallback_total", method="symbolic") == 1

    @pytest.mark.parametrize("which", ["numpy", "exact"])
    def test_cancellation_reports_karp_progress(self, which):
        token = CancelToken()
        token.cancel("stop")
        with pytest.raises(AnalysisCancelled) as raised:
            critical_cycle(symbolic_iteration(_pair_sdf()).matrix,
                           deadline=Deadline.unlimited(token), kernel=which)
        assert raised.value.stage == "karp-mcm"
        assert {"scc", "level", "levels"} <= set(raised.value.progress)
        assert raised.value.progress["levels"] == 3


class TestGuardFallback:
    def test_oversized_graph_falls_back_to_exact(self, fresh_registry):
        g = _small_sdf(execution_time=MAX_EXACT_FLOAT_SUM)
        result = throughput(g, kernel="numpy")
        assert result.cycle_time == Fraction(MAX_EXACT_FLOAT_SUM + 1)
        record = result.provenance
        assert record.kernel == "exact"
        assert record.degradation_reason is not None
        assert "fell back to exact" in record.degradation_reason
        counters = fresh_registry
        assert counters.value(
            "repro_kernel_selected_total", kernel="numpy", method="symbolic"
        ) == 1
        assert counters.value(
            "repro_kernel_fallback_total", method="symbolic"
        ) == 1

    def test_walk_trip_leaves_the_mcm_on_numpy(self, fresh_registry):
        g = _fan_out_sdf()
        with pytest.raises(NumericalGuardError):
            symbolic_iteration(g, kernel="numpy")
        with Tracer() as tracer:
            result = throughput(g, kernel="numpy")
        spans = {s.name: s for s in tracer.spans()}
        assert spans["symbolic-conversion"].args["kernel_used"] == "exact"
        assert spans["mcm-eigenvalue"].args["kernel_used"] == "numpy"
        assert spans["throughput"].args["kernel_used"] == "exact"
        assert result.cycle_time == Fraction(1)
        record = result.provenance
        assert record.kernel == "exact"
        assert "longest-path bound" in record.degradation_reason
        assert fresh_registry.value(
            "repro_kernel_fallback_total", method="symbolic"
        ) == 1

    def test_clean_run_records_no_fallback(self, fresh_registry):
        result = throughput(_small_sdf(), kernel="numpy")
        assert result.provenance.kernel == "numpy"
        assert result.provenance.degradation_reason is None
        assert fresh_registry.value(
            "repro_kernel_selected_total", kernel="numpy", method="symbolic"
        ) == 1
        assert fresh_registry.value(
            "repro_kernel_fallback_total", method="symbolic"
        ) is None


class TestObservability:
    def test_spans_carry_kernel_attributes(self):
        with Tracer() as tracer:
            throughput(_small_sdf(), kernel="numpy")
        spans = {s.name: s for s in tracer.spans()}
        assert spans["throughput"].args["kernel"] == "numpy"
        assert spans["throughput"].args["kernel_used"] == "numpy"
        assert spans["symbolic-conversion"].args["kernel_used"] == "numpy"
        assert spans["mcm-eigenvalue"].args["kernel_used"] == "numpy"

    def test_hsdf_spans_say_exact(self):
        """The classical baseline has no numpy kernel to select."""
        with Tracer() as tracer:
            throughput(_small_sdf(), method="hsdf", kernel="numpy")
        spans = {s.name: s for s in tracer.spans()}
        assert spans["throughput"].args["kernel"] == "numpy"   # selected
        assert spans["throughput"].args["kernel_used"] == "exact"
        assert spans["howard-mcr"].args["kernel_used"] == "exact"

    def test_fallback_visible_on_spans(self):
        with Tracer() as tracer:
            throughput(
                _small_sdf(execution_time=MAX_EXACT_FLOAT_SUM),
                kernel="numpy",
            )
        spans = {s.name: s for s in tracer.spans()}
        assert spans["throughput"].args["kernel"] == "numpy"   # selected
        assert spans["throughput"].args["kernel_used"] == "exact"
        assert spans["symbolic-conversion"].args["kernel_used"] == "exact"
        assert spans["mcm-eigenvalue"].args["kernel_used"] == "exact"

    def test_provenance_kernel_round_trip(self):
        record = throughput(_small_sdf(), kernel="numpy").provenance
        doc = record.as_dict()
        assert doc["kernel"] == "numpy"
        restored = ProvenanceRecord.from_dict(doc)
        assert restored.kernel == "numpy"
        validate_provenance(doc)

    def test_check_rejects_malformed_kernel_field(self):
        doc = throughput(_small_sdf(), kernel="exact").provenance.as_dict()
        assert doc["kernel"] == "exact"
        validate_provenance(doc)
        doc["kernel"] = None  # legacy records carry no kernel: fine
        validate_provenance(doc)
        doc["kernel"] = ""
        with pytest.raises(SchemaError, match="kernel"):
            validate_provenance(doc)
        doc["kernel"] = 7
        with pytest.raises(SchemaError, match="kernel"):
            validate_provenance(doc)
