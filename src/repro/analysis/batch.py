"""Concurrent, fault-tolerant batch analysis of many SDF graphs.

Registry suites, random sweeps and scenario sets all reduce to "analyse
this list of graphs and collect the numbers".  :func:`run_batch` does
that through a selectable backend:

``thread`` (default)
    A ``ThreadPoolExecutor`` sharing one :class:`AnalysisCache`.  Pure
    Python analyses do not parallelise under the GIL, but the shared
    cache's single-flight coalescing means a suite with repeated graph
    variants does each distinct computation exactly once — which is the
    common shape of scenario/parametric sweeps.

``process``
    A ``ProcessPoolExecutor``: true multi-core for fleets of distinct
    heavy graphs.  Graphs are pickled to the workers; results are
    adopted into the local memory cache on return, so a later warm pass
    is O(1).

``serial``
    A plain loop with the same result/reporting shape (baseline and
    fallback when no executor is available).

Resilience guarantees (all backends unless noted):

* **Per-graph isolation** — an analysis error, a ``MemoryError`` or (in
  workers) a ``KeyboardInterrupt`` fails only that graph; every error
  record carries the graph's content fingerprint.
* **Deadlines** — ``timeout`` bounds each graph's analysis attempt
  cooperatively (:mod:`repro.analysis.deadline`); a pathological graph
  times out instead of hanging the sweep.
* **Retries** — failures classified transient
  (:class:`repro.errors.TransientWorkerError`, ``OSError``) are retried
  with exponential backoff before being recorded.
* **Crash recovery** (process backend) — a worker that dies takes only
  its own pool down: completed results are kept, in-flight graphs are
  re-dispatched one-per-fresh-pool, and the graph that reproducibly
  kills its worker is *quarantined* (``error_type == "WorkerCrashed"``)
  while everything else completes.
* **Resume** — with a durable :class:`~repro.analysis.store.ResultStore`
  (``store=``) every computed result is published as soon as it
  exists, so a killed sweep re-run against the same store serves every
  finished analysis from disk and computes only the rest.
* **Fault injection** — a :class:`repro.analysis.faults.FaultPlan`
  deterministically plants delays/exceptions/worker-kills, which is how
  the recovery paths above are exercised in CI.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.cache import AnalysisCache, CacheStats, default_cache
from repro.analysis.deadline import CancelToken, Deadline
from repro.analysis.faults import FaultPlan
from repro.errors import TransientWorkerError
from repro.obs.metrics import MetricsRegistry, default_registry, set_default_registry
from repro.obs.trace import Tracer, current_tracer, span
from repro.sdf.graph import SDFGraph

__all__ = [
    "ANALYSES",
    "BatchReport",
    "GraphResult",
    "analyse_graph",
    "run_batch",
]

#: Analyses the batch runner knows how to dispatch, by name.
ANALYSES = ("repetition", "throughput", "latency", "symbolic_iteration")

#: Error types treated as transient (retried with backoff).
_TRANSIENT = (TransientWorkerError, OSError, ConnectionError)


@dataclass
class GraphResult:
    """Outcome of the analyses of one graph in a batch."""

    name: str
    fingerprint: str
    values: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    error_type: Optional[str] = None
    duration: float = 0.0
    #: How many attempts were made (> 1 when transient retries fired).
    attempts: int = 1
    #: The graph reproducibly killed its worker process and was isolated.
    quarantined: bool = False
    #: Id of the ``analyse`` span covering this graph (tracing enabled).
    span_id: Optional[str] = None
    #: Span dicts exported by a process-backend worker's private tracer;
    #: adopted into the parent trace under the worker's process lane.
    trace_spans: Optional[List[Dict[str, Any]]] = None
    #: The worker tracer's wall-clock epoch (``Tracer.epoch_wall``):
    #: lets the parent rebase the spans onto its own timeline.
    trace_epoch: Optional[float] = None
    #: ``repro-metrics-v1`` snapshot of a worker's private registry,
    #: merged into the parent's registry on adoption.
    metrics: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def timed_out(self) -> bool:
        return self.error_type in ("AnalysisTimeout", "AnalysisCancelled")

    def value(self, analysis: str) -> Any:
        if not self.ok:
            raise RuntimeError(f"graph {self.name!r} failed: {self.error}")
        return self.values[analysis]


@dataclass
class BatchReport:
    """All per-graph results of one batch run plus cache observability."""

    results: List[GraphResult]
    backend: str
    workers: int
    duration: float
    cache_stats: CacheStats
    #: ``repro-metrics-v1`` snapshot of the process-wide registry taken
    #: after the run (worker registries already merged in).
    metrics: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> List[GraphResult]:
        return [r for r in self.results if r.ok]

    @property
    def failures(self) -> List[GraphResult]:
        return [r for r in self.results if not r.ok]

    @property
    def quarantined(self) -> List[GraphResult]:
        return [r for r in self.results if r.quarantined]

    @property
    def timed_out(self) -> List[GraphResult]:
        return [r for r in self.results if r.timed_out]

    @property
    def hit_rate(self) -> float:
        return self.cache_stats.hit_rate

    def __repr__(self) -> str:
        extras = ""
        if self.quarantined:
            extras += f", {len(self.quarantined)} quarantined"
        return (
            f"BatchReport({len(self.ok)} ok, {len(self.failures)} failed{extras}, "
            f"backend={self.backend!r}, workers={self.workers}, "
            f"{self.duration:.3f}s, hit_rate={self.hit_rate:.2f})"
        )


def _check_analyses(analyses: Sequence[str]) -> Tuple[str, ...]:
    unknown = [a for a in analyses if a not in ANALYSES]
    if unknown:
        raise ValueError(
            f"unknown analyses {unknown!r}; available: {', '.join(ANALYSES)}"
        )
    if not analyses:
        raise ValueError("no analyses requested")
    return tuple(analyses)


def analyse_graph(
    graph: SDFGraph,
    analyses: Sequence[str] = ("throughput",),
    method: str = "symbolic",
    cache: Optional[AnalysisCache] = None,
    lint: Optional[str] = None,
    timeout: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    retries: int = 0,
    backoff: float = 0.05,
    token: Optional[CancelToken] = None,
    allow_kill: bool = False,
    isolate_interrupts: bool = False,
    kernel: str = "auto",
) -> GraphResult:
    """Run ``analyses`` on one graph through ``cache`` (errors captured).

    ``lint`` arms the pre-analysis gate: ``"error"`` fails the graph on
    error-severity lint findings before any analysis runs, ``"warning"``
    also fails on warnings (``None`` — the default — skips the gate).
    Lint reports go through the same cache, so the gate is O(1) on
    repeated graphs.

    ``timeout`` bounds *each attempt* with a cooperative
    :class:`~repro.analysis.deadline.Deadline`; an expired budget is
    recorded as ``error_type == "AnalysisTimeout"``.  Failures whose
    type is transient (:data:`repro.errors.TransientWorkerError`,
    ``OSError``) are retried up to ``retries`` times with exponential
    ``backoff``.  ``faults`` (a deterministic
    :class:`~repro.analysis.faults.FaultPlan`) fires at the start of
    every attempt.  ``isolate_interrupts`` converts a per-graph
    ``KeyboardInterrupt`` into an error record instead of propagating —
    that is how worker processes keep one interrupted graph from
    poisoning a whole pool; in the parent process the default
    (propagate) preserves Ctrl-C semantics.  ``allow_kill`` marks a real
    worker process, in which an injected ``kill`` fault may hard-exit.
    """
    analyses = _check_analyses(analyses)
    if cache is None:
        cache = default_cache()
    name = graph.name
    fingerprint = graph.fingerprint()
    result = GraphResult(name=name, fingerprint=fingerprint)
    tag = f"[graph {name!r} {fingerprint[:12]}]"
    start = time.perf_counter()

    with span("analyse", graph=name, fingerprint=fingerprint,
              analyses=",".join(analyses)) as analyse_span:
        result.span_id = analyse_span.id
        for attempt in range(max(0, retries) + 1):
            result.attempts = attempt + 1
            result.values.clear()
            deadline = (
                Deadline(budget=timeout, token=token)
                if timeout is not None or token is not None
                else None
            )
            try:
                if faults is not None:
                    faults.fire(
                        name, fingerprint,
                        attempt=attempt, deadline=deadline, allow_kill=allow_kill,
                    )
                if lint is not None:
                    from repro.lint.engine import ensure_lint_clean

                    ensure_lint_clean(graph, cache=cache, fail_on=lint)
                for analysis in analyses:
                    if analysis == "repetition":
                        result.values[analysis] = cache.repetition_vector(graph)
                    elif analysis == "throughput":
                        result.values[analysis] = cache.throughput(
                            graph, method=method, deadline=deadline,
                            kernel=kernel,
                        )
                    elif analysis == "latency":
                        result.values[analysis] = cache.latency(graph)
                    else:  # symbolic_iteration
                        result.values[analysis] = cache.symbolic_iteration(
                            graph, deadline=deadline
                        )
                result.error = None
                result.error_type = None
                break
            except MemoryError as error:
                # Distinct from analysis errors: the graph exhausted memory,
                # which says "isolate me", not "my semantics are broken".
                result.error = f"out of memory during analysis {tag}: {error}"
                result.error_type = "MemoryError"
                result.values.clear()
                break
            except KeyboardInterrupt as error:
                if not isolate_interrupts:
                    raise
                result.error = f"analysis interrupted {tag}: {error or 'SIGINT'}"
                result.error_type = "KeyboardInterrupt"
                result.values.clear()
                break
            # devlint: ignore[broad-except] per-graph isolation boundary: the pool must survive arbitrary analysis failures (timeouts included) and report them per graph
            except Exception as error:
                result.error = f"{error} {tag}"
                result.error_type = type(error).__name__
                result.values.clear()
                if attempt < retries and isinstance(error, _TRANSIENT):
                    default_registry().counter(
                        "repro_batch_retries_total",
                        "Transient per-graph failures retried with backoff.",
                    ).inc()
                    time.sleep(backoff * (2 ** attempt))
                    continue
                break
        analyse_span.set(
            status=result.error_type or "ok", attempts=result.attempts
        )
    result.duration = time.perf_counter() - start
    return result


#: Payload shipped to process-pool workers (primitives + picklable plan;
#: the bool asks the worker to trace its spans for adoption, the
#: trailing path roots the worker's durable result store, if any).
_ColdPayload = Tuple[
    SDFGraph, Tuple[str, ...], str, str, Optional[str],
    Optional[float], Optional[FaultPlan], int, float, bool, Optional[str],
]


def _analyse_cold(payload: _ColdPayload) -> GraphResult:
    """Process-pool worker: analyse without a shared cache (module level
    so it pickles).  Interrupts are isolated and injected ``kill``
    faults may genuinely terminate this process.

    Observability crosses the process boundary by value: the worker
    records into a *fresh* metrics registry (and, when the parent is
    tracing, a fresh tracer) and ships the snapshots back on the result
    — the parent merges them on adoption, so one exported registry and
    one trace cover the whole batch.

    When the batch has a durable store, every worker attaches its own
    :class:`~repro.analysis.store.ResultStore` on the shared root: the
    store's publish protocol is multi-process safe, so workers probe and
    publish concurrently without coordination.
    """
    (graph, analyses, method, kernel, lint, timeout, faults, retries,
     backoff, trace, store_root) = payload
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    tracer = Tracer().install() if trace else None
    cache = AnalysisCache(maxsize=8)
    if store_root is not None:
        from repro.analysis.store import ResultStore

        cache.attach_store(ResultStore(store_root))
    try:
        result = analyse_graph(
            graph,
            analyses,
            method,
            cache=cache,
            lint=lint,
            timeout=timeout,
            faults=faults,
            retries=retries,
            backoff=backoff,
            allow_kill=True,
            isolate_interrupts=True,
            kernel=kernel,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
        set_default_registry(previous)
    if tracer is not None:
        result.trace_spans = tracer.export_spans()
        result.trace_epoch = tracer.epoch_wall
    # Exported counters include this worker's cache/disk-tier traffic:
    # the parent merges the snapshot, so `repro_cache_disk_*_total`
    # aggregate additively across the whole fleet.
    cache.register_metrics(registry)
    result.metrics = registry.as_dict()
    return result


def _store_back(
    cache: AnalysisCache, graph: SDFGraph, result: GraphResult, method: str
) -> None:
    """Adopt a worker process's results into the local cache."""
    for analysis, value in result.values.items():
        params = {"method": method} if analysis == "throughput" else None
        cache.store(graph, analysis, value, params=params)


def run_batch(
    graphs: Iterable[SDFGraph],
    analyses: Sequence[str] = ("throughput",),
    method: str = "symbolic",
    backend: str = "thread",
    workers: int = 4,
    cache: Optional[AnalysisCache] = None,
    lint: Optional[str] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.05,
    faults: Optional[FaultPlan] = None,
    token: Optional[CancelToken] = None,
    kernel: str = "auto",
    store: Optional[Union[str, Path, "ResultStore"]] = None,
) -> BatchReport:
    """Analyse every graph in ``graphs`` concurrently and resiliently.

    Results come back in input order regardless of completion order.
    ``cache_stats`` in the returned report is a snapshot *after* the run
    of the cache that served it (the shared default cache unless one is
    passed), so ``report.hit_rate`` reflects the whole cache lifetime;
    compare snapshots around the call for per-run rates.  On the process
    backend the counts of the workers' private caches for this run are
    folded in, so every lookup, disk probe and publish of the batch is
    counted exactly once.

    ``lint`` (``None``, ``"error"`` or ``"warning"``) arms the
    pre-analysis lint gate per graph: a gated graph fails fast with
    ``error_type == "LintError"`` and never reaches the analyses, while
    the rest of the batch proceeds normally.

    See :func:`analyse_graph` for ``timeout``/``retries``/``backoff``/
    ``faults`` and the module docstring for the worker-crash-recovery
    contract.  ``token`` cancels the whole batch cooperatively
    (thread/serial backends; already-dispatched process workers run
    their current graph to completion).

    ``store`` (a :class:`repro.analysis.store.ResultStore` or a root
    path) attaches the durable disk tier to the batch cache for this
    run; without it, a store already attached to ``cache`` is used.
    On the process backend the workers open their own store on the
    same root instead.  Every computed result is published once, by
    whoever computed it, and that is how a killed sweep resumes: re-run it against the same
    store, and every analysis with a valid record is served from disk
    as the same typed result a fresh computation returns (provenance
    certificate included), while the rest is computed and published.
    Records are keyed by content fingerprint, so the re-run may
    reorder, rename or extend the graph list.
    """
    graphs = list(graphs)
    analyses = _check_analyses(analyses)
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers!r}")
    if lint not in (None, "error", "warning"):
        raise ValueError(
            f"lint gate must be None, 'error' or 'warning', got {lint!r}"
        )
    from repro.kernels import KERNELS

    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {', '.join(KERNELS)}"
        )
    if cache is None:
        cache = default_cache()

    previous_store = cache.disk_store
    if store is None:
        store = previous_store
    else:
        from repro.analysis.store import ResultStore

        if not isinstance(store, ResultStore):
            store = ResultStore(store)
    store_root = None if store is None else str(store.root)
    # On the process backend the workers own the disk tier: each probes
    # and publishes through its own store on the same root, and the
    # parent adopts their results into memory only, so no result is
    # written or counted twice.  The previous tier is restored on exit
    # so a shared cache (the CLI's process-global one) does not keep
    # publishing to this run's root afterwards.
    cache.attach_store(None if backend == "process" else store)

    def analyse(graph: SDFGraph) -> GraphResult:
        return analyse_graph(
            graph, analyses, method, cache, lint,
            timeout=timeout, faults=faults, retries=retries, backoff=backoff,
            token=token, kernel=kernel,
        )

    worker_counts: Dict[str, int] = {}
    start = time.perf_counter()
    try:
        with span("batch", graphs=len(graphs), backend=backend,
                  workers=workers, analyses=",".join(analyses)):
            if backend == "serial":
                results = [analyse(graph) for graph in graphs]
            elif backend == "thread":
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(analyse, graphs))
            elif backend == "process":
                results, worker_counts = _run_process_backend(
                    graphs, analyses, method, kernel, lint, timeout,
                    faults, retries, backoff, workers, cache, store_root,
                )
            else:
                raise ValueError(
                    f"unknown backend {backend!r}; use thread, process or serial"
                )
    finally:
        cache.attach_store(previous_store)
    duration = time.perf_counter() - start

    registry = default_registry()
    outcomes = registry.counter(
        "repro_batch_results_total",
        "Batch per-graph outcomes by terminal status.",
        labels=("status",),
    )
    for result in results:
        outcomes.labels(status=_result_status(result)).inc()
    cache.register_metrics(registry)

    stats = cache.stats()
    cache_stats = replace(stats, **{
        field: getattr(stats, field) + count
        for field, count in worker_counts.items()
    })
    return BatchReport(
        results=results,
        backend=backend,
        workers=workers,
        duration=duration,
        cache_stats=cache_stats,
        metrics=registry.as_dict(),
    )


def _result_status(result: GraphResult) -> str:
    if result.quarantined:
        return "quarantined"
    if result.timed_out:
        return "timeout"
    return "ok" if result.ok else "error"


def _run_process_backend(
    graphs: List[SDFGraph],
    analyses: Tuple[str, ...],
    method: str,
    kernel: str,
    lint: Optional[str],
    timeout: Optional[float],
    faults: Optional[FaultPlan],
    retries: int,
    backoff: float,
    workers: int,
    cache: AnalysisCache,
    store_root: Optional[str],
) -> Tuple[List[GraphResult], Dict[str, int]]:
    """Dispatch cold graphs to a process pool; survive worker deaths.

    Graphs fully warm in the local cache are served in-process.  When a
    worker dies (``BrokenProcessPool``), every graph whose future was
    lost is re-dispatched in its *own* single-worker pool: survivors
    complete there, and a graph that kills its private pool too is
    definitively the poison one — it is quarantined with
    ``error_type == "WorkerCrashed"`` and the batch carries on.

    Returns the results in input order and the summed
    :class:`CacheStats` counters of the workers' private caches.
    """

    results: List[Optional[GraphResult]] = [None] * len(graphs)
    worker_counts = dict.fromkeys(CacheStats.COUNTERS, 0)
    trace_workers = current_tracer() is not None

    def payload(graph: SDFGraph) -> _ColdPayload:
        return (graph, analyses, method, kernel, lint, timeout, faults,
                retries, backoff, trace_workers, store_root)

    def adopt(index: int, graph: SDFGraph, outcome: GraphResult) -> None:
        if outcome.ok and not outcome.values and analyses:
            # Defensive: a worker returning an empty success is a bug.
            outcome.error = "worker returned no values"
            outcome.error_type = "WorkerProtocolError"
        if outcome.ok:
            _store_back(cache, graph, outcome, method)
        tracer = current_tracer()
        if tracer is not None and outcome.trace_spans:
            tracer.adopt(
                outcome.trace_spans,
                lane_name=f"worker[{outcome.trace_spans[0]['pid']}]",
                epoch=outcome.trace_epoch,
            )
        if outcome.metrics is not None:
            for field, count in CacheStats.exported(outcome.metrics).items():
                worker_counts[field] += count
            default_registry().merge(outcome.metrics)
            outcome.metrics = None  # folded in; don't double-merge
        results[index] = outcome

    # Serve what the local cache already has; farm the rest out.
    cold: List[Tuple[int, SDFGraph]] = []
    for index, graph in enumerate(graphs):
        if all(
            cache.key(graph, a, {"method": method} if a == "throughput" else None)
            in cache
            for a in analyses
        ):
            results[index] = analyse_graph(
                graph, analyses, method, cache, lint,
                timeout=timeout, faults=faults, retries=retries, backoff=backoff,
                kernel=kernel,
            )
        else:
            cold.append((index, graph))
    if not cold:
        return results, worker_counts

    lost: List[Tuple[int, SDFGraph]] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            (pool.submit(_analyse_cold, payload(graph)), index, graph)
            for index, graph in cold
        ]
        for future, index, graph in futures:
            try:
                outcome = future.result()
            except BrokenProcessPool:
                lost.append((index, graph))
                continue
            adopt(index, graph, outcome)

    # Re-dispatch every graph the dead worker took down with it, each in
    # a private pool: deterministic isolation of the poison graph.
    for index, graph in lost:
        try:
            with ProcessPoolExecutor(max_workers=1) as solo:
                outcome = solo.submit(_analyse_cold, payload(graph)).result()
        except BrokenProcessPool:
            fingerprint = graph.fingerprint()
            outcome = GraphResult(
                name=graph.name,
                fingerprint=fingerprint,
                error=(
                    f"worker process died analysing graph {graph.name!r} "
                    f"[{fingerprint[:12]}]; graph quarantined after killing "
                    "its private pool"
                ),
                error_type="WorkerCrashed",
                quarantined=True,
            )
        adopt(index, graph, outcome)
    return results, worker_counts
