"""Unified observability for the analysis pipeline.

The paper's whole argument is about *cost* — the classical SDF→HSDF
expansion explodes while abstraction (Theorem 1) and the symbolic
conversion (Algorithm 1) trade precision or structure for tractability —
so this package makes cost a first-class observable signal instead of an
offline-benchmark claim.  Three coordinated, zero-dependency pieces:

:mod:`repro.obs.trace`
    Structured tracing: a context-var-based :class:`~repro.obs.trace.
    Tracer` producing nested spans, piggybacking on the existing
    :meth:`repro.analysis.deadline.Deadline.checkpoint` calls already
    threaded through every hot loop so spans carry live progress
    counters.  Every span records wall and CPU time, and its peak
    traced allocation while :mod:`tracemalloc` is tracing.  Exports
    JSONL and Chrome ``trace_event`` JSON (loadable in
    ``chrome://tracing`` / Perfetto).  Off by default, with near-zero
    disabled overhead (``benchmarks/bench_obs.py``).

:mod:`repro.obs.metrics`
    A metrics registry — counters, gauges, fixed-bucket histograms —
    unifying the previously siloed stats (cache hit/miss/eviction,
    batch retry/quarantine/timeout counts, fallback-tier outcomes, lint
    rule fires) behind one :class:`~repro.obs.metrics.MetricsRegistry`
    with Prometheus-text and JSON exporters and cross-process merging.

:mod:`repro.obs.provenance`
    The analysis flight recorder: every result carries a
    ``repro-provenance-v1`` certificate — the ordered reduction steps
    applied, the algorithm and fallback tier that produced the number,
    and a critical-cycle witness re-checkable in O(|cycle|) with
    :func:`~repro.obs.provenance.verify_witness`.

:mod:`repro.obs.report`
    Renders a provenance record as the ``repro explain`` terminal
    report or a self-contained HTML page with the critical cycle
    highlighted on the DOT rendering.

:mod:`repro.obs.analyze`
    The consumption side of tracing: span-tree reconstruction from
    either export format, the per-stage cost table (self time, CPU and
    peak traced memory — the paper's Section 6 comparison of the
    symbolic conversion against the classical expansion, stage by
    stage), critical paths, cross-run percentile tables and
    collapsed-stack flamegraphs (``repro obs analyze`` /
    ``repro obs flame``).

:mod:`repro.obs.diff`
    Structural A/B diff of two trace summaries or metrics snapshots
    with noise-floored relative deltas (``repro obs diff``).

:mod:`repro.obs.regress`
    The performance-regression sentinel over
    ``benchmarks/results/history.jsonl``: robust per-(suite, entry)
    baselines and ``ok|regressed|improved|noisy|insufficient-data``
    verdicts (``repro obs regress``, exit 5 on regression).

Quickstart::

    from repro.obs import Tracer, span

    tracer = Tracer()
    with tracer:                      # installs the tracer globally
        with span("analysis", graph="g"):
            ...                       # nested span() calls, checkpoints
    tracer.write_chrome_trace("trace.json")
"""

from repro.obs.trace import (
    Span,
    Tracer,
    add_event,
    current_span,
    current_tracer,
    span,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from repro.obs.provenance import (
    CycleWitness,
    FlightRecorder,
    ProvenanceRecord,
    ReductionStep,
    WitnessArc,
    WitnessError,
    record_step,
    recording,
    verify_witness,
)
from repro.obs.report import render_html, render_text, witness_highlights
from repro.obs.analyze import collapsed_stacks, summarize_files, summarize_traces
from repro.obs.diff import diff_documents, diff_files
from repro.obs.regress import evaluate_history

__all__ = [
    "Counter",
    "CycleWitness",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProvenanceRecord",
    "ReductionStep",
    "Span",
    "Tracer",
    "WitnessArc",
    "WitnessError",
    "add_event",
    "collapsed_stacks",
    "current_span",
    "current_tracer",
    "default_registry",
    "diff_documents",
    "diff_files",
    "evaluate_history",
    "record_step",
    "recording",
    "render_html",
    "render_text",
    "set_default_registry",
    "span",
    "summarize_files",
    "summarize_traces",
    "verify_witness",
    "witness_highlights",
]
