"""Closed-loop benchmark of the repro library's public API.

One caller with one request in flight: the next request is issued only
after the previous one returned.  Every request gets a fresh graph
instance built before its timer starts, so per-instance memoisation (the
cached fingerprint, ``ThroughputResult.per_actor``) cannot turn a cold
request into a warm one.

Three workloads, each dominated by a different layer (see README.md):

``table1``
    The paper's eight Table-1 graphs: symbolic execution and scheduling
    dominate, the MCM is negligible, no cache is involved.
``random-mcm``
    Random graphs with small iterations but large matrices: the MCM
    kernel dominates.
``batch-reuse``
    A design-space-exploration stream of ``run_batch`` calls through one
    two-tier ``AnalysisCache``: memory hits, disk reads and publishes.

Untraced runs give the end-to-end metrics.  A traced run keeps spans in
memory around the harness's own calls into each layer's public functions
and derives the per-layer metrics from them; nothing inside the library
is instrumented.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import pickle
import random
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import (
    AnalysisCache,
    convert_to_hsdf,
    repetition_vector,
    run_batch,
    sequential_schedule,
    throughput,
)
from repro.analysis.store import ResultStore
from repro.core.hsdf_conversion import realise_iteration_matrix
from repro.core.symbolic import symbolic_iteration
from repro.graphs import TABLE1_CASES
from repro.graphs.random_sdf import random_consistent_sdf
from repro.kernels import NumericalGuardError, resolve_kernel
from repro.maxplus.spectral import critical_cycle
from repro.obs.provenance import WitnessError, verify_witness

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
TABLE1_REFERENCE = HERE / "table1_reference.json"

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def tail_percentile(values: Sequence[float],
                    beyond: int = TAIL_BEYOND) -> Tuple[float, float]:
    """``(percentile, value)``: the highest nearest-rank percentile with
    at least ``beyond`` samples above it.

    With ``beyond`` samples or fewer no percentile qualifies, and the
    maximum is reported as the 100th.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    n = len(ordered)
    if n <= beyond:
        return 100.0, ordered[-1]
    rank = n - beyond
    return 100.0 * rank / n, ordered[rank - 1]


def covered(interval: Tuple[float, float],
            children: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``.

    Children may overlap (spans recorded from several worker threads),
    so summing their durations would over-count.
    """
    low, high = interval
    total = 0.0
    reach = low
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def distribution(values: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(values)
    return {
        "n": len(ordered),
        "min": ordered[0],
        "p50": statistics.median(ordered),
        "max": ordered[-1],
        "mean": statistics.fmean(ordered),
    }


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


# ----------------------------------------------------------------------
# tracing (harness side only)
# ----------------------------------------------------------------------

class SpanLog:
    """In-memory spans around the harness's calls into the library.

    Rows have the span-JSONL shape ``repro obs analyze`` reads: ``id``,
    ``parent``, ``name``, ``pid``, ``tid``, ``start``/``end``/``dur``
    (seconds since the log's epoch) and ``args``; ``args["request"]`` is
    the id shared by every span of one request.  :meth:`span` nests on
    the driving thread; :meth:`record` adds an interval timed elsewhere
    (any thread) under the driving thread's innermost open span.  No
    locks: ``list.append`` and ``next`` on a counter are atomic under
    the interpreter lock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.epoch = clock()
        self.rows: List[Dict[str, Any]] = []
        self.request: Optional[int] = None
        self._ids = itertools.count(1)
        self._open: List[str] = []

    def _append(self, span_id, parent, name, start, end, args) -> None:
        self.rows.append({
            "id": span_id,
            "parent": parent,
            "name": name,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "start": start - self.epoch,
            "end": end - self.epoch,
            "dur": end - start,
            "args": {"request": self.request, **args},
        })

    def record(self, name: str, start: float, end: float, **args) -> None:
        parent = self._open[-1] if self._open else None
        self._append(f"pb.{next(self._ids):x}", parent, name, start, end, args)

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Dict[str, Any]]:
        """Time the body; the yielded dict takes extra span args."""
        span_id = f"pb.{next(self._ids):x}"
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = self.clock()
        try:
            yield args
        finally:
            end = self.clock()
            self._open.pop()
            self._append(span_id, parent, name, start, end, args)

    def self_times(self) -> Dict[str, float]:
        """Self time of every span: its duration minus the part of its
        interval that its children cover."""
        children: Dict[str, List[Tuple[float, float]]] = {}
        for row in self.rows:
            if row["parent"] is not None:
                children.setdefault(row["parent"], []).append(
                    (row["start"], row["end"]))
        return {
            row["id"]: row["dur"] - covered(
                (row["start"], row["end"]), children.get(row["id"], ()))
            for row in self.rows
        }

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for row in self.rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")


class GcMeter:
    """Collections and pause time through ``gc.callbacks``.

    The collector stays enabled: ``table1``'s tail depends on when
    collections land, and that is part of what users see.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.collections = 0
        self.pause = 0.0
        self._started: Optional[float] = None

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = self.clock()
        elif self._started is not None:
            self.pause += self.clock() - self._started
            self.collections += 1
            self._started = None

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


class TimedStore(ResultStore):
    """A :class:`ResultStore` whose reads and publishes land in a
    :class:`SpanLog` (traced phases only)."""

    def __init__(self, root, log: SpanLog):
        super().__init__(root)
        self._log = log

    def get(self, fingerprint, analysis, params=None):
        start = self._log.clock()
        status, value = super().get(fingerprint, analysis, params=params)
        self._log.record("store.get", start, self._log.clock(), status=status)
        return status, value

    def put(self, fingerprint, analysis, value, params=None):
        start = self._log.clock()
        published = super().put(fingerprint, analysis, value, params=params)
        self._log.record("store.put", start, self._log.clock(),
                         published=published)
        return published


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------

@dataclass
class Request:
    """One request: ``prepare`` builds its fresh input outside the timed
    region, ``call`` is the timed library call."""

    kind: str
    key: Any
    prepare: Callable[[], Any]
    call: Callable[[Any], Any]


@dataclass
class Sample:
    """The measured outcome of one request."""

    kind: str
    key: Any
    latency: float
    cpu: float
    round: int = 0
    answered: int = 0
    error: Optional[str] = None
    #: Indices into the workload's answer table, checked after the loop.
    answers: List[int] = field(default_factory=list)
    gc_pause: float = 0.0
    gc_collections: int = 0


def drive(workload: "Workload", seconds: float,
          clock: Callable[[], float] = time.perf_counter,
          cpu_clock: Callable[[], float] = time.process_time,
          log: Optional[SpanLog] = None,
          gc_meter: Optional[GcMeter] = None,
          whole_rounds: bool = True) -> List[Sample]:
    """Run ``workload`` in a closed loop for at least ``seconds``.

    Requests are issued one at a time.  With ``whole_rounds`` the loop
    stops at the first round boundary past the deadline, so every run
    sees the same request mix; otherwise after the first request past
    it.  A request that raises is recorded as a failed sample and the
    loop goes on.  With ``log`` each request is wrapped in a span and
    followed, outside its timed region, by the workload's traced
    decomposition into layer calls.
    """
    samples: List[Sample] = []
    request_ids = itertools.count()
    deadline = clock() + seconds
    for round_index in itertools.count():
        for request in workload.round():
            arg = request.prepare()
            if log is not None:
                log.request = next(request_ids)
            paused = gc_meter.pause if gc_meter else 0.0
            collections = gc_meter.collections if gc_meter else 0
            cpu_start = cpu_clock()
            start = clock()
            failure = None
            result = None
            try:
                if log is None:
                    result = request.call(arg)
                else:
                    with log.span(f"request.{request.kind}",
                                  workload=workload.name,
                                  graph=str(request.key)):
                        result = request.call(arg)
            # devlint: ignore[broad-except] benchmark boundary: a failing request is counted in failed_ratio and the loop goes on
            except Exception as error:
                failure = f"{type(error).__name__}: {error}"
            latency = clock() - start
            cpu = cpu_clock() - cpu_start
            sample = Sample(request.kind, request.key, latency, cpu,
                            round=round_index)
            if gc_meter is not None:
                sample.gc_pause = gc_meter.pause - paused
                sample.gc_collections = gc_meter.collections - collections
            if failure is None:
                failure = workload.observe(request, arg, result, sample)
            if failure is not None:
                sample.error = failure
                sample.answered = 0
            elif log is not None:
                workload.decompose(request, arg, result, log)
            samples.append(sample)
            if not whole_rounds and clock() >= deadline:
                return samples
        if clock() >= deadline:
            return samples


# ----------------------------------------------------------------------
# answer checking and layer decomposition
# ----------------------------------------------------------------------

def check_throughput(graph, cycle_time, provenance: Optional[Dict[str, Any]],
                     reference: Fraction) -> Optional[str]:
    """Why a throughput answer is wrong, or ``None`` when it is right.

    The cycle time must equal ``reference`` exactly and the provenance
    record's critical-cycle witness must re-verify against ``graph``.
    """
    try:
        value = Fraction(cycle_time)
    except (TypeError, ValueError):
        return f"no exact cycle time: {cycle_time!r}"
    if value != reference:
        return f"cycle time {cycle_time} != reference {reference}"
    if provenance is None:
        return "result carries no provenance"
    try:
        verify_witness(graph, provenance)
    except WitnessError as error:
        return f"witness rejected: {error}"
    return None


def throughput_signature(result) -> Tuple[str, Optional[str]]:
    """A hashable summary of a throughput result that the collector
    does not track: its cycle time and its provenance record as
    canonical JSON."""
    provenance = result.provenance
    return (
        str(result.cycle_time),
        None if provenance is None
        else json.dumps(provenance.as_dict(), sort_keys=True),
    )


def _provenance(signature_json: Optional[str]) -> Optional[Dict[str, Any]]:
    return None if signature_json is None else json.loads(signature_json)


def auto_mcm(matrix) -> bool:
    """``critical_cycle`` with the ``auto`` kernel, falling back to the
    exact kernel on a numerical guard trip the way ``throughput`` does;
    True when it fell back."""
    if resolve_kernel("auto") == "numpy":
        try:
            critical_cycle(matrix, kernel="numpy")
            return False
        except NumericalGuardError:
            critical_cycle(matrix, kernel="exact")
            return True
    critical_cycle(matrix, kernel="exact")
    return False


def _symbolic_layers(graph, log: SpanLog):
    with log.span("sdf.repetition"):
        gamma = repetition_vector(graph)
    with log.span("sdf.schedule") as args:
        order = sequential_schedule(graph, gamma)
        args["firings"] = len(order)
    with log.span("core.symbolic"):
        return symbolic_iteration(graph, schedule=order)


def decompose_throughput(fresh: Callable[[], Any], result,
                         log: SpanLog) -> None:
    """Re-run one ``throughput`` request layer by layer on fresh
    instances, each public call in its own span."""
    graph = fresh()
    with log.span("decompose.throughput"):
        matrix = _symbolic_layers(graph, log).matrix
        with log.span("maxplus.mcm", matrix_order=matrix.nrows) as args:
            args["fallback"] = auto_mcm(matrix)
        with log.span("maxplus.mcm_exact", matrix_order=matrix.nrows):
            critical_cycle(matrix, kernel="exact")
        with log.span("kernels.mcm_numpy", matrix_order=matrix.nrows) as args:
            try:
                critical_cycle(matrix, kernel="numpy")
            except NumericalGuardError:
                args["guard_trip"] = True
        if result.provenance is not None and result.provenance.witness:
            with log.span("obs.witness_verify"):
                verify_witness(graph, result.provenance)
        # Whichever call of a pair runs second pays the first one's
        # allocator and collector debt, so the order alternates.
        pair = (True, False) if log.request % 2 else (False, True)
        for provenance in pair:
            instance = fresh()
            with log.span(f"obs.provenance_{'on' if provenance else 'off'}"):
                throughput(instance, provenance=provenance)


def decompose_conversion(graph, log: SpanLog) -> None:
    """Re-run one ``convert_to_hsdf`` request layer by layer."""
    with log.span("decompose.convert"):
        iteration = _symbolic_layers(graph, log)
        with log.span("core.conversion"):
            realise_iteration_matrix(
                iteration.matrix, iteration.token_ids,
                name=f"{graph.name}-compact-hsdf")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Workload:
    """Inputs, request rounds and answer checks of one workload."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        #: Distinct answers seen, as (key, signature) -> index.
        self.answers: Dict[Tuple[Any, Any], int] = {}
        #: Throughput results seen, by (provenance kernel, degraded).
        self.kernels: Dict[Tuple[Optional[str], bool], int] = {}

    def setup(self) -> None:
        """Generate inputs, prefill, and warm up each request kind."""

    def round(self) -> List[Request]:
        raise NotImplementedError

    def observe(self, request: Request, arg, result,
                sample: Sample) -> Optional[str]:
        """Record the answer (outside the timed region); return a
        failure message when the library reported one."""
        raise NotImplementedError

    def decompose(self, request: Request, arg, result, log: SpanLog) -> None:
        """The traced re-run of one request, layer by layer."""

    def trace(self, log: Optional[SpanLog]) -> None:
        """Start (``log``) or end (``None``) a traced phase."""

    def wrong_answers(self) -> Dict[int, str]:
        """Answer index -> why it is wrong, for every wrong answer."""
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        return {}

    def layer_metrics(self, log: SpanLog) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass

    def answer(self, key, signature) -> int:
        return self.answers.setdefault((key, signature), len(self.answers))

    def count_kernel(self, result) -> None:
        provenance = result.provenance
        entry = (
            None if provenance is None else provenance.kernel,
            bool(provenance is not None and provenance.degradation_reason),
        )
        self.kernels[entry] = self.kernels.get(entry, 0) + 1


class Table1(Workload):
    """The eight Table-1 graphs in fixed order; two requests per graph:
    ``throughput(g)`` with its defaults and ``convert_to_hsdf(g)``.

    The paper fixes these inputs, so the seed changes nothing: every run
    issues the same request sequence.
    """

    name = "table1"

    def setup(self) -> None:
        rows = json.loads(TABLE1_REFERENCE.read_text())["cases"]
        self.reference = {row["index"]: row for row in rows}
        self.by_index = {case.index: case for case in TABLE1_CASES}
        self.cases = list(TABLE1_CASES)
        smallest = min(TABLE1_CASES, key=lambda c: c.paper_traditional)
        throughput(smallest.build())
        convert_to_hsdf(smallest.build())

    def round(self) -> List[Request]:
        requests = []
        for case in self.cases:
            requests.append(
                Request("throughput", case.index, case.build, throughput))
            requests.append(
                Request("convert", case.index, case.build, convert_to_hsdf))
        return requests

    def observe(self, request, arg, result, sample) -> Optional[str]:
        if request.kind == "throughput":
            self.count_kernel(result)
            signature = ("throughput",) + throughput_signature(result)
        else:
            signature = ("convert", result.actor_count, result.token_count,
                         result.edge_count)
        sample.answers.append(self.answer(request.key, signature))
        sample.answered = 1
        return None

    def decompose(self, request, arg, result, log) -> None:
        case = self.by_index[request.key]
        if request.kind == "throughput":
            decompose_throughput(case.build, result, log)
        else:
            decompose_conversion(case.build(), log)

    def wrong_answers(self) -> Dict[int, str]:
        wrong = {}
        for (index, signature), answer in self.answers.items():
            expected = self.reference[index]
            if signature[0] == "throughput":
                _, cycle_time, provenance = signature
                reason = check_throughput(
                    self.by_index[index].build(), cycle_time,
                    _provenance(provenance), Fraction(expected["cycle_time"]))
            else:
                got = dict(zip(("actors", "tokens", "edges"), signature[1:]))
                want = {k: expected[f"hsdf_{k}"] for k in got}
                reason = None if got == want else f"compact HSDF {got} != {want}"
            if reason is not None:
                wrong[answer] = f"{expected['name']}: {reason}"
        return wrong

    def describe(self) -> Dict[str, Any]:
        rows = [self.reference[c.index] for c in self.cases]
        return {
            "sigma_gamma": distribution([r["sigma_gamma"] for r in rows]),
            "matrix_order": distribution([r["matrix_order"] for r in rows]),
        }

    def layer_metrics(self, log: SpanLog) -> Dict[str, float]:
        sizes = {index: signature for (index, signature) in self.answers
                 if signature[0] == "convert"}
        return {
            "core.hsdf_actors": sum(s[1] for s in sizes.values()),
            "core.hsdf_tokens": sum(s[2] for s in sizes.values()),
        }


def matrix_order(graph) -> int:
    """Order of the graph's iteration matrix: its initial tokens."""
    return sum(edge.tokens for edge in graph.edges)


def _pool_stats(graphs) -> Dict[str, Any]:
    return {
        "sigma_gamma": distribution(
            [sum(repetition_vector(g.copy()).values()) for g in graphs]),
        "matrix_order": distribution([matrix_order(g) for g in graphs]),
    }


def _reference_cycle_time(template) -> Fraction:
    """The exact cycle time by another algorithm than the default path:
    traditional HSDF expansion plus the exact Howard solver."""
    return throughput(template.copy(), method="hsdf", kernel="exact",
                      provenance=False).cycle_time


class RandomMcm(Workload):
    """A seeded pool of random graphs whose iteration matrices are large
    next to their iterations; each request is ``throughput(g)``.

    The pool holds ``PER_ORDER`` graphs of every matrix order in
    ``ORDERS``.  MCM time follows the matrix order closely, so with the
    order mix fixed the seed chooses the graphs but not the amount of
    work, and runs on different seeds stay comparable.
    """

    name = "random-mcm"
    ORDERS = range(35, 65)
    PER_ORDER = 3

    def setup(self) -> None:
        rng = random.Random(self.seed)
        wanted = dict.fromkeys(self.ORDERS, self.PER_ORDER)
        self.pool = []
        while len(self.pool) < len(self.ORDERS) * self.PER_ORDER:
            graph = random_consistent_sdf(rng, n_actors=16, extra_edges=12,
                                          max_repetition=4)
            order = matrix_order(graph)
            if wanted.get(order):
                wanted[order] -= 1
                self.pool.append(graph)
        throughput(self.pool[0].copy())

    def round(self) -> List[Request]:
        return [
            Request("throughput", index, template.copy, throughput)
            for index, template in enumerate(self.pool)
        ]

    def observe(self, request, arg, result, sample) -> Optional[str]:
        self.count_kernel(result)
        sample.answers.append(self.answer(
            request.key, throughput_signature(result)))
        sample.answered = 1
        return None

    def decompose(self, request, arg, result, log) -> None:
        decompose_throughput(self.pool[request.key].copy, result, log)

    def wrong_answers(self) -> Dict[int, str]:
        references: Dict[int, Fraction] = {}
        wrong = {}
        for (index, (cycle_time, provenance)), answer in self.answers.items():
            template = self.pool[index]
            if index not in references:
                references[index] = _reference_cycle_time(template)
            reason = check_throughput(template.copy(), cycle_time,
                                      _provenance(provenance),
                                      references[index])
            if reason is not None:
                wrong[answer] = f"pool[{index}]: {reason}"
        return wrong

    def describe(self) -> Dict[str, Any]:
        return _pool_stats(self.pool)


class BatchReuse(Workload):
    """Successive ``run_batch`` chunks sharing one ``AnalysisCache``
    backed by a fresh ``ResultStore``.

    Each chunk mixes repeats held in memory, graphs published to the
    store during set-up (disk reads) and never-seen graphs (compute plus
    durable publish).  The memory tier holds ``MEMORY`` entries: more
    than the keys touched between two visits of a hot graph (16 hot +
    4 chunks x 4 others = 32), fewer than those touched between two
    visits of a disk graph (16 hot + 32 disk + 32 new = 80).  So hot
    graphs stay in memory and every disk graph is evicted before it
    comes round again.
    """

    name = "batch-reuse"
    #: Graph sources of one chunk, in submission order.
    CHUNK = ("hot", "disk", "hot", "new", "hot", "disk", "hot", "new")
    HOT = 16
    DISK = 32
    MEMORY = 48
    PARAMS = {"method": "symbolic"}

    def setup(self) -> None:
        self.workers = len(os.sched_getaffinity(0))
        self.rng = random.Random(self.seed)
        self.templates: Dict[str, Any] = {}
        self.hot = [self._generate() for _ in range(self.HOT)]
        self.disk = [self._generate() for _ in range(self.DISK)]
        self.stored = set(map(id, self.hot + self.disk))
        self.cursor = {"hot": 0, "disk": 0}
        self.chunks = itertools.count()
        OUT.mkdir(parents=True, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="store-", dir=OUT)
        self.store = ResultStore(self.root)
        prefill = AnalysisCache(store=self.store)
        for template in self.disk:
            prefill.throughput(template.copy())
        self.cache = AnalysisCache(maxsize=self.MEMORY, store=self.store)
        for template in self.hot:
            self.cache.throughput(template.copy())
        run_batch([self.hot[0].copy()], backend="thread",
                  workers=self.workers, cache=self.cache)
        self.cache.reset_stats()
        self.mix = {"memory": 0, "disk": 0, "new": 0}
        self.hit_durations: List[float] = []
        self.busy: List[Tuple[float, float]] = []
        self.traced_from = self.cache.stats()

    def _generate(self):
        while True:
            template = random_consistent_sdf(
                self.rng, n_actors=12, extra_edges=6, max_repetition=4)
            fingerprint = template.fingerprint()
            if fingerprint not in self.templates:
                # Kept pickled until the answers are checked: bytes are
                # not tracked by the collector, so the graphs a run
                # accumulates do not slow its later collections.
                self.templates[fingerprint] = pickle.dumps(template)
                return template

    def graph(self, fingerprint: str):
        """A fresh instance of a graph this workload generated."""
        return pickle.loads(self.templates[fingerprint])

    def _next(self, source: str):
        if source == "new":
            return self._generate()
        pool = self.hot if source == "hot" else self.disk
        template = pool[self.cursor[source] % len(pool)]
        self.cursor[source] += 1
        return template

    def _prepare(self):
        templates = [self._next(source) for source in self.CHUNK]
        # Tiers are read off the templates, whose fingerprints were
        # memoised at generation; the copies sent out stay pristine.
        tiers = [
            "memory" if self.cache.key(t, "throughput", self.PARAMS) in self.cache
            else "disk" if id(t) in self.stored else "new"
            for t in templates
        ]
        return [t.copy() for t in templates], tiers, templates

    def _call(self, arg):
        return run_batch(arg[0], backend="thread", workers=self.workers,
                         cache=self.cache)

    def round(self) -> List[Request]:
        # Every chunk holds never-seen graphs, so no chunk repeats: each
        # is a distinct request.
        return [Request("batch", next(self.chunks), self._prepare, self._call)]

    def decompose(self, request, arg, result, log) -> None:
        """Re-run the chunk's computed (never-seen) graphs layer by
        layer; hits and disk reads are traced by the store itself."""
        _, tiers, templates = arg
        for tier, template, graph_result in zip(tiers, templates,
                                                result.results):
            if tier == "new":
                decompose_throughput(template.copy,
                                     graph_result.value("throughput"), log)

    def observe(self, request, arg, result, sample) -> Optional[str]:
        _, tiers, _ = arg
        errors = [r.error for r in result.results if not r.ok]
        for tier, graph_result in zip(tiers, result.results):
            self.mix[tier] += 1
            if not graph_result.ok:
                continue
            value = graph_result.value("throughput")
            self.count_kernel(value)
            sample.answers.append(self.answer(
                graph_result.fingerprint, throughput_signature(value)))
            if tier == "memory":
                self.hit_durations.append(graph_result.duration)
        self.busy.append(
            (result.duration, sum(r.duration for r in result.results)))
        sample.answered = len(result.results) - len(errors)
        return f"{len(errors)} graphs failed: {errors[0]}" if errors else None

    def trace(self, log: Optional[SpanLog]) -> None:
        self.cache.attach_store(
            self.store if log is None else TimedStore(self.root, log))
        if log is not None:
            self.hit_durations.clear()
            self.busy.clear()
            self.traced_from = self.cache.stats()

    def wrong_answers(self) -> Dict[int, str]:
        references: Dict[str, Fraction] = {}
        wrong = {}
        for (fingerprint, (cycle_time, provenance)), answer in self.answers.items():
            if fingerprint not in references:
                references[fingerprint] = _reference_cycle_time(
                    self.graph(fingerprint))
            reason = check_throughput(self.graph(fingerprint), cycle_time,
                                      _provenance(provenance),
                                      references[fingerprint])
            if reason is not None:
                wrong[answer] = f"{fingerprint[:16]}: {reason}"
        return wrong

    def describe(self) -> Dict[str, Any]:
        total = sum(self.mix.values())
        return {
            **_pool_stats([self.graph(f) for f in self.templates]),
            "chunk": list(self.CHUNK),
            "workers": self.workers,
            "memory_entries": self.MEMORY,
            "realised_mix": {tier: count / total if total else 0.0
                             for tier, count in self.mix.items()},
            "realised_mix_base": total,
            "cache_stats": self.cache.stats().as_dict(),
            "store_fs": filesystem_type(Path(self.root)),
        }

    def layer_metrics(self, log: SpanLog) -> Dict[str, float]:
        before, after = self.traced_from, self.cache.stats()
        lookups = after.lookups - before.lookups
        hits = after.hits - before.hits
        disk_hits = after.disk_hits - before.disk_hits
        disk_probes = disk_hits + after.disk_misses - before.disk_misses
        store = self.store.stats()
        gets = [r["dur"] for r in log.rows if r["name"] == "store.get"]
        puts = [r["dur"] for r in log.rows if r["name"] == "store.put"]
        walls = [wall for wall, _ in self.busy]
        busy = [work for _, work in self.busy]
        return {
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
            "cache.lookups": lookups,
            "cache.disk_hit_ratio": disk_hits / disk_probes if disk_probes else 0.0,
            "cache.disk_probes": disk_probes,
            "cache.hit_us": _mean(self.hit_durations) * 1e6,
            "store.get_ms": _mean(gets) * 1e3,
            "store.put_ms": _mean(puts) * 1e3,
            "store.record_bytes": store.bytes / store.records if store.records else 0.0,
            "store.quarantined": store.quarantined + store.quarantined_records,
            "batch.call_ms": _mean(walls) * 1e3,
            "batch.busy_ratio": (
                sum(busy) / (sum(walls) * self.workers) if walls else 0.0),
            "analysis.unattributed_ms": _mean(
                [w - b / self.workers for w, b in self.busy]) * 1e3,
        }

    def close(self) -> None:
        root = getattr(self, "root", None)
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Table1, RandomMcm, BatchReuse)}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

#: Per-layer metric -> the span whose mean duration (ms) it reports.
SPAN_METRICS = {
    "sdf.repetition_ms": "sdf.repetition",
    "sdf.schedule_ms": "sdf.schedule",
    "core.symbolic_ms": "core.symbolic",
    "core.conversion_ms": "core.conversion",
    "maxplus.mcm_ms": "maxplus.mcm",
    "maxplus.mcm_exact_ms": "maxplus.mcm_exact",
    "kernels.mcm_numpy_ms": "kernels.mcm_numpy",
    "obs.witness_verify_ms": "obs.witness_verify",
}

#: Layer spans whose time a request's decomposition attributes.
ATTRIBUTED = ("sdf.repetition", "sdf.schedule", "core.symbolic",
              "core.conversion", "maxplus.mcm")

PER_LAYER = (
    "sdf.repetition_ms", "sdf.schedule_ms", "sdf.firings",
    "core.symbolic_ms", "core.conversion_ms", "core.hsdf_actors",
    "core.hsdf_tokens", "maxplus.mcm_ms", "maxplus.mcm_exact_ms",
    "kernels.mcm_numpy_ms", "maxplus.matrix_order", "kernels.numpy_share",
    "kernels.fallback_ratio", "obs.witness_verify_ms", "obs.provenance_ms",
    "analysis.unattributed_ms", "cache.hit_ratio", "cache.lookups",
    "cache.disk_hit_ratio", "cache.disk_probes", "cache.hit_us",
    "store.get_ms", "store.put_ms", "store.record_bytes",
    "store.quarantined", "batch.call_ms", "batch.busy_ratio",
    "gc.pause_ms", "gc.collections", "trace.overhead_ratio",
)

UNITS = {
    "setup_s": "s", "analyses_per_s": "1/s", "peak_rss_mb": "MB",
    "sdf.firings": "count", "core.hsdf_actors": "count",
    "core.hsdf_tokens": "count", "maxplus.matrix_order": "count",
    "kernels.numpy_share": "ratio", "kernels.fallback_ratio": "ratio",
    "cache.hit_ratio": "ratio", "cache.lookups": "count",
    "cache.disk_hit_ratio": "ratio", "cache.disk_probes": "count",
    "cache.hit_us": "us", "store.record_bytes": "bytes",
    "store.quarantined": "count", "batch.busy_ratio": "ratio",
    "gc.collections": "count", "trace.overhead_ratio": "ratio",
}


@dataclass
class Typical:
    """One request's typical cost over a run: its fastest repeat's
    latency and CPU time, and the mean number of graphs it answered."""

    latency: float
    cpu: float
    answered: float


def typical(samples: List[Sample], pick: Callable[[List[float]], float] = min
            ) -> Dict[Tuple[str, Any], Typical]:
    """Each distinct request (kind, key) with its typical cost: ``pick``
    of its repeats' latencies and CPU times."""
    groups: Dict[Tuple[str, Any], List[Sample]] = {}
    for sample in samples:
        groups.setdefault((sample.kind, sample.key), []).append(sample)
    return {
        key: Typical(pick([s.latency for s in group]),
                     pick([s.cpu for s in group]),
                     _mean([s.answered for s in group]))
        for key, group in groups.items()
    }


def rate(costs: Sequence[Typical]) -> float:
    """Graphs answered per second when each request takes its typical
    latency."""
    return sum(c.answered for c in costs) / sum(c.latency for c in costs)


def end_to_end(samples: List[Sample]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end metrics of an untraced phase, and a descriptor with the
    latency tail, the tail rule's percentile and the sample count.

    The tail is recorded, not reported as a metric: every slow burst of
    a shared host lands in it, so it spreads across runs by more than
    any bound a regression gate could use.

    Rates, the median latency and CPU time are built from each distinct
    request's fastest repeat over the run.  Contention from other
    tenants of the host only ever slows a request down, and comes in
    bursts that can cover most of a run, so the fastest repeat moves
    far less under it than a median or a pooled mean; and as every
    round issues each request once, no request weighs more than
    another.  A request that never repeats (a ``batch-reuse`` chunk)
    counts with its one sample.  The tail pools every sample, as its
    rule needs.
    """
    costs = list(typical(samples).values())
    answered = sum(c.answered for c in costs)
    percentile, tail = tail_percentile([s.latency for s in samples])
    return {
        "analyses_per_s": rate(costs),
        "latency_p50_ms": statistics.median(c.latency for c in costs) * 1e3,
        "cpu_per_analysis_ms": (
            sum(c.cpu for c in costs) / answered * 1e3 if answered else 0.0),
    }, {"latency_tail_ms": tail * 1e3, "tail_percentile": percentile,
        "latency_samples": len(samples),
        "rounds": 1 + max(s.round for s in samples),
        "distinct_requests": len(costs)}


def matched_overhead(untraced: List[Sample], traced: List[Sample]) -> float:
    """Untraced over traced analyses per second, minus one, on the
    requests the traced phase covered (it may stop mid-round); on every
    request when the two phases share none (requests that never
    repeat).  Each request counts at its median: the phases repeat a
    request a different number of times, and the fastest of more
    repeats is faster."""
    base = typical(untraced, statistics.median)
    timed = typical(traced, statistics.median)
    keys = [key for key in timed if key in base]
    if not keys:
        return rate(list(base.values())) / rate(list(timed.values())) - 1
    return rate([base[k] for k in keys]) / rate([timed[k] for k in keys]) - 1


def count_failures(samples: List[Sample],
                   wrong: Dict[int, str]) -> Dict[str, int]:
    """Why each failed sample failed, counted.  A sample fails when its
    request raised or the library reported a failure, or when any answer
    it gave is in ``wrong``; a wrong answer counts exactly like an
    exception."""
    reasons: Dict[str, int] = {}
    for sample in samples:
        why = sample.error or next(
            (wrong[a] for a in sample.answers if a in wrong), None)
        if why is not None:
            reasons[why] = reasons.get(why, 0) + 1
    return reasons


def decomposition_metrics(log: SpanLog) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics and descriptors of a traced phase, from the
    span rows alone."""
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    by_request: Dict[int, Dict[str, float]] = {}
    for row in log.rows:
        by_name.setdefault(row["name"], []).append(row)
        spans = by_request.setdefault(row["args"]["request"], {})
        spans[row["name"]] = spans.get(row["name"], 0.0) + row["dur"]
    metrics = {
        metric: _mean([r["dur"] for r in by_name.get(name, [])]) * 1e3
        for metric, name in SPAN_METRICS.items()
    }
    provenance, unattributed, requests = [], [], 0.0
    for spans in by_request.values():
        request = sum(v for k, v in spans.items() if k.startswith("request."))
        requests += request
        layers = sum(spans.get(name, 0.0) for name in ATTRIBUTED)
        if "obs.provenance_on" in spans:
            cost = spans["obs.provenance_on"] - spans["obs.provenance_off"]
            provenance.append(cost)
            layers += cost
        if layers:
            unattributed.append(request - layers)
    metrics["obs.provenance_ms"] = _mean(provenance) * 1e3
    metrics["analysis.unattributed_ms"] = _mean(unattributed) * 1e3
    metrics["sdf.firings"] = _mean(
        [r["args"]["firings"] for r in by_name.get("sdf.schedule", [])])
    metrics["maxplus.matrix_order"] = _mean(
        [r["args"]["matrix_order"] for r in by_name.get("maxplus.mcm", [])])

    crossover: Dict[int, Dict[str, List[float]]] = {}
    for name in ("maxplus.mcm_exact", "kernels.mcm_numpy"):
        for row in by_name.get(name, []):
            crossover.setdefault(row["args"]["matrix_order"], {}) \
                .setdefault(name, []).append(row["dur"] * 1e3)
    self_time = log.self_times()
    shares = {
        name: sum(self_time[r["id"]] for r in by_name.get(name, ())) / requests
        for name in ATTRIBUTED + ("store.get", "store.put")
        if requests and name in by_name
    }
    if requests and provenance:
        shares["obs.provenance"] = sum(provenance) / requests
    descriptor = {
        "layer_share": shares,
        "layer_share_base_s": requests,
        "mcm_crossover_ms": {
            str(order): {
                "n": len(kinds.get("maxplus.mcm_exact", [])),
                **{name: _mean(values) for name, values in kinds.items()},
            }
            for order, kinds in sorted(crossover.items())
        },
    }
    return metrics, descriptor


def kernel_metrics(workload: Workload) -> Dict[str, float]:
    """Which MCM kernel produced the throughput answers, and how often
    the numpy kernel fell back to exact."""
    results = sum(workload.kernels.values())
    numpy_selected = results if resolve_kernel("auto") == "numpy" else 0
    numpy_used = sum(n for (kernel, _), n in workload.kernels.items()
                     if kernel == "numpy")
    degraded = sum(n for (_, fell_back), n in workload.kernels.items()
                   if fell_back)
    return {
        "kernels.numpy_share": numpy_used / results if results else 0.0,
        "kernels.fallback_ratio": (
            degraded / numpy_selected if numpy_selected else 0.0),
    }


# ----------------------------------------------------------------------
# host stamp
# ----------------------------------------------------------------------

def filesystem_type(path: Path) -> Optional[str]:
    """The type of the filesystem holding ``path`` (from /proc/mounts)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return None
    target = str(path.resolve())
    best, kind = "", None
    for line in mounts:
        parts = line.split()
        if len(parts) < 3:
            continue
        point = parts[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) >= len(best):
            best, kind = point, parts[2]
    return kind


def git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def host_stamp() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": git_sha(HERE.parent),
        "out_fs": filesystem_type(OUT if OUT.exists() else HERE),
    }


# ----------------------------------------------------------------------
# one measured run
# ----------------------------------------------------------------------

def measure(workload: Workload, seconds: float, traced: bool,
            spans_path: Optional[Path] = None) -> Dict[str, Any]:
    """Run the timed loop (traced: half untraced, half traced), check
    every answer, and return the result document with its descriptor."""
    load_before = os.getloadavg()
    samples = drive(workload, seconds / 2 if traced else seconds)
    metrics, descriptor = end_to_end(samples)
    all_samples = list(samples)
    if traced:
        log = SpanLog()
        workload.trace(log)
        with GcMeter() as meter:
            traced_samples = drive(workload, seconds / 2, log=log,
                                   gc_meter=meter, whole_rounds=False)
        layers, layer_descriptor = decomposition_metrics(log)
        layers.update(workload.layer_metrics(log))
        workload.trace(None)
        layers.update(kernel_metrics(workload))
        layers["gc.pause_ms"] = _mean([s.gc_pause for s in traced_samples]) * 1e3
        layers["gc.collections"] = _mean(
            [s.gc_collections for s in traced_samples])
        layers["trace.overhead_ratio"] = matched_overhead(samples, traced_samples)
        all_samples += traced_samples
        descriptor.update(layer_descriptor)
        descriptor["traced_requests"] = len(traced_samples)
        if spans_path is not None:
            log.write_jsonl(spans_path)
            descriptor["spans_file"] = str(spans_path.relative_to(HERE.parent))
        metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
    else:
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024

    reasons = count_failures(all_samples, workload.wrong_answers())
    failed = sum(reasons.values())
    descriptor.update(workload.describe())
    descriptor.update({
        "workload": workload.name,
        "seed": workload.seed,
        "attempted": len(all_samples),
        "failed_ratio": failed / len(all_samples),
        "failures": reasons,
        "distinct_answers": len(workload.answers),
        "host": {**host_stamp(), "loadavg_before": load_before,
                 "loadavg_after": os.getloadavg()},
    })
    return {
        "correct": failed == 0,
        "attempted": len(all_samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS.get(name, "ms")}
                    for name, value in metrics.items()},
        "descriptor": descriptor,
    }
