"""Structured tracing: nested spans with live progress counters.

A :class:`Tracer` records *spans* — named, timed intervals that nest —
and *instant events*.  Installation is global (``with tracer:``), the
nesting structure is per-context (a :mod:`contextvars` variable), so
concurrent threads build independent, correctly nested span stacks that
land in one trace with one lane (``tid``) per thread.

Tracing is **off by default** and engineered for near-zero disabled
overhead: :func:`span` and the :meth:`repro.analysis.deadline.Deadline.
checkpoint` hook first read one module global and return a shared no-op
object when no tracer is installed (measured in
``benchmarks/bench_obs.py``; budget ≤ 2% on the MCM hot loop).

Progress piggybacking
---------------------
Every analysis hot loop already registers a *live* progress dict via
``Deadline.checkpoint(stage, progress)`` and mutates its counters in
place.  The checkpoint hook attaches that same dict (by reference) to
the innermost open span; when the span closes, the counters' final
values are snapshotted into the span's ``args["progress"]`` — so traces
show e.g. how many Karp levels or simulation events a stage ran,
without any per-iteration tracing cost.

Exports
-------
* :meth:`Tracer.write_jsonl` — one span per line, with stable ids and
  parent links (the machine-readable form; schema in
  ``docs/observability.md``).
* :meth:`Tracer.write_chrome_trace` — Chrome ``trace_event`` JSON,
  loadable in ``chrome://tracing`` and https://ui.perfetto.dev.
* :meth:`Tracer.adopt` — merge span dicts exported by another process
  (the batch runner's per-worker tracers) into this trace under their
  own process lane.

Stage costs
-----------
Every span records wall time and thread CPU time.  While
:mod:`tracemalloc` is tracing (``python -X tracemalloc -m repro …``)
every span also records ``mem_peak``: the highest traced allocation
reached while it was open, minus what was already traced when it
opened — what the stage allocated, not the import footprint.
``repro obs analyze`` folds all three into one stage-cost table.  The
tracemalloc peak counter is process-global, so the attribution is
exact only for single-threaded runs.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
import tracemalloc
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "add_event",
    "current_span",
    "current_span_id",
    "current_tracer",
    "note_checkpoint",
    "span",
]

#: The installed tracer, or ``None`` (the common, fast case).  A module
#: global — not a contextvar — so worker threads spawned by executors
#: (which do not inherit the submitter's context) still trace.
_tracer: Optional["Tracer"] = None

#: The innermost open span of the *current* context (nesting is
#: per-thread/per-context even though the tracer is global).
_current: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro-obs-span", default=None
)

#: Monotonic tracer-instance serial, part of every span id: each job in
#: a process-pool worker builds a fresh ``Tracer``, and merged exports
#: must never see the same id twice (``repro obs check`` rejects it).
_tracer_serial = 0
_serial_lock = threading.Lock()


class _NullSpan:
    """The shared no-op returned while tracing is disabled."""

    __slots__ = ()
    id: Optional[str] = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args: Any) -> "_NullSpan":
        return self

    def __repr__(self) -> str:  # pragma: no cover
        return "<no-op span (tracing disabled)>"


_NULL_SPAN = _NullSpan()


class Span:
    """One named, timed interval in a trace (a context manager).

    Spans are created by :func:`span` (never directly) and close on
    ``with``-block exit — including exceptional exits, which stamp the
    exception type into ``args["error"]``.  ``start``/``end`` are
    seconds relative to the tracer's epoch; ``cpu`` is thread CPU time
    consumed between open and close; ``mem_peak`` is the peak traced
    allocation in bytes above the traced size at open (inclusive of
    children), or ``None`` when :mod:`tracemalloc` was not tracing.
    """

    __slots__ = (
        "id", "name", "args", "parent_id", "tid", "pid",
        "start", "end", "cpu", "mem_peak",
        "_tracer", "_parent", "_token", "_cpu_start", "_progress",
        "_mem_base", "_mem_high", "closed",
    )

    def __init__(self, tracer: "Tracer", span_id: str, name: str,
                 args: Dict[str, Any], parent: Optional["Span"], tid: int):
        self.id = span_id
        self.name = name
        self.args = args
        self._parent = parent
        self.parent_id = None if parent is None else parent.id
        self.tid = tid
        self.pid = tracer.pid
        self.start = tracer._now()
        self.end: Optional[float] = None
        self.cpu: Optional[float] = None
        self.mem_peak: Optional[int] = None
        #: Traced size at open, and the highest absolute traced peak
        #: seen while open (``None``/0 when tracemalloc is off).
        self._mem_base: Optional[int] = None
        self._mem_high = 0
        self._tracer = tracer
        self._token: Optional[contextvars.Token] = None
        self._cpu_start = time.thread_time()
        self._progress: List[Tuple[str, Dict[str, Any]]] = []
        self.closed = False

    # -- public span surface -------------------------------------------

    def set(self, **args: Any) -> "Span":
        """Attach key/value annotations to this span (chainable)."""
        self.args.update(args)
        return self

    def attach_progress(self, stage: str, progress: Dict[str, Any]) -> None:
        """Hold ``progress`` *by reference*; its final counter values are
        snapshotted into ``args["progress"][stage]`` when the span
        closes (this is what ``Deadline.checkpoint`` piggybacks on)."""
        for index, (existing, ref) in enumerate(self._progress):
            if existing == stage and ref is progress:
                return
        self._progress.append((stage, progress))

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._end_span(self, exc_type, exc)
        return False

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent_id,
            "name": self.name,
            "pid": self.pid,
            "tid": self.tid,
            "start": self.start,
            "end": self.end,
            "dur": self.duration,
            "cpu": self.cpu,
            "mem_peak": self.mem_peak,
            "args": self.args,
        }

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if self.closed else "open"
        return f"Span({self.name!r}, id={self.id}, {state})"


class Tracer:
    """Collects spans and instant events; exports JSONL / Chrome traces.

    ``with tracer:`` installs the tracer globally (restoring whatever —
    usually nothing — was installed before on exit); :func:`span` then
    records into it from any thread.  All mutation is lock-guarded, so
    the batch runner's thread backend can trace every worker into one
    file, one Chrome lane per thread.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        # Span ids must stay unique when traces merge: across processes
        # (the pid) *and* across tracer instances within one process —
        # a process-pool worker builds a fresh tracer per job, so a
        # per-tracer counter alone would collide on adoption.
        with _serial_lock:
            global _tracer_serial
            _tracer_serial += 1
            self._id_prefix = f"{self.pid:x}.{_tracer_serial:x}"
        self._epoch = time.perf_counter()
        #: Wall-clock instant of the perf_counter epoch — the anchor
        #: :meth:`adopt` uses to rebase spans from a foreign tracer
        #: (whose relative clock starts at *its* construction) onto
        #: this tracer's timeline.
        self.epoch_wall = time.time()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._events: List[Dict[str, Any]] = []
        self._foreign: List[Dict[str, Any]] = []
        self._counter = 0
        self._lanes: Dict[int, int] = {}
        self._lane_names: Dict[Tuple[int, int], str] = {}
        self._open = 0
        self._previous: Optional[Tracer] = None

    # -- installation ---------------------------------------------------

    def install(self) -> "Tracer":
        """Make this the process-wide tracer (see also ``with tracer:``)."""
        global _tracer
        self._previous = _tracer
        _tracer = self
        return self

    def uninstall(self) -> None:
        global _tracer
        if _tracer is self:
            _tracer = self._previous
        self._previous = None

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- span lifecycle (called via the module-level helpers) -----------

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _lane(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            lane = self._lanes.get(ident)
            if lane is None:
                lane = len(self._lanes)
                self._lanes[ident] = lane
                name = "main" if lane == 0 else f"worker-{lane}"
                self._lane_names[(self.pid, lane)] = name
            return lane

    def _begin_span(self, name: str, args: Dict[str, Any]) -> Span:
        parent = _current.get()
        if parent is not None and parent._tracer is not self:
            # A span from another tracer — a forked worker inheriting
            # the coordinator's context, or a stale contextvar across
            # install() cycles.  Its clock and id space are not ours;
            # linking to it would corrupt the exported forest.
            parent = None
        with self._lock:
            self._counter += 1
            span_id = f"{self._id_prefix}.{self._counter:x}"
            self._open += 1
        new = Span(self, span_id, name, args, parent, self._lane())
        if tracemalloc.is_tracing():
            # Hand the peak so far to the parent, then restart the
            # counter so this span sees only its own high-water mark.
            traced, peak = tracemalloc.get_traced_memory()
            if parent is not None and peak > parent._mem_high:
                parent._mem_high = peak
            tracemalloc.reset_peak()
            new._mem_base = new._mem_high = traced
        new._token = _current.set(new)
        return new

    def _end_span(self, span: Span, exc_type, exc) -> None:
        if span.closed:
            return
        span.closed = True
        span.end = self._now()
        span.cpu = time.thread_time() - span._cpu_start
        if exc_type is not None:
            span.args["error"] = exc_type.__name__
            if exc is not None and str(exc):
                span.args.setdefault("error_message", str(exc)[:200])
        if span._progress:
            snapshot = span.args.setdefault("progress", {})
            for stage, ref in span._progress:
                snapshot[stage] = dict(ref)
        if span._mem_base is not None and tracemalloc.is_tracing():
            high = max(span._mem_high, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            span.mem_peak = high - span._mem_base
            parent = span._parent
            if parent is not None and parent._mem_base is not None:
                # Inclusive: a parent's peak never reads below a child's,
                # even when the parent freed older memory before it.
                parent._mem_high = max(parent._mem_high, high,
                                       parent._mem_base + span.mem_peak)
        if span._token is not None:
            try:
                _current.reset(span._token)
            except ValueError:
                # Closed from a different context (e.g. a generator
                # finalised elsewhere): restore the parent explicitly.
                _current.set(span._parent)
        with self._lock:
            self._spans.append(span)
            self._open -= 1

    def _add_event(self, name: str, args: Dict[str, Any]) -> None:
        parent = _current.get()
        event = {
            "name": name,
            "ts": self._now(),
            "pid": self.pid,
            "tid": self._lane(),
            "span": None if parent is None else parent.id,
            "args": args,
        }
        with self._lock:
            self._events.append(event)

    # -- inspection / merging -------------------------------------------

    @property
    def open_spans(self) -> int:
        """Spans begun but not yet closed (0 after well-formed use)."""
        with self._lock:
            return self._open

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def export_spans(self) -> List[Dict[str, Any]]:
        """All spans (local + adopted) as plain dicts, start-ordered —
        the payload a batch worker ships back to the parent."""
        with self._lock:
            rows = [s.as_dict() for s in self._spans] + list(self._foreign)
        return sorted(rows, key=lambda r: (r["pid"], r["start"]))

    def adopt(self, spans: Iterable[Dict[str, Any]],
              lane_name: Optional[str] = None,
              epoch: Optional[float] = None) -> int:
        """Merge span dicts exported by another tracer (typically a
        worker process) into this trace.  Foreign spans keep their own
        ``pid``, so Chrome/Perfetto shows each worker as its own process
        lane; ``lane_name`` labels that lane.  Returns the adopted count.

        ``epoch`` is the foreign tracer's :attr:`epoch_wall`.  Span
        times are relative to their own tracer's construction, so two
        jobs traced by consecutive tracers in one worker would both sit
        at t≈0 and overlap on the lane; rebasing through the wall clock
        puts every adopted span where it actually ran on this tracer's
        timeline.
        """
        adopted = list(spans)
        if epoch is not None:
            offset = epoch - self.epoch_wall
            rebased = []
            for row in adopted:
                row = dict(row)
                row["start"] = row["start"] + offset
                if row.get("end") is not None:
                    row["end"] = row["end"] + offset
                rebased.append(row)
            adopted = rebased
        with self._lock:
            self._foreign.extend(adopted)
            if lane_name:
                for row in adopted:
                    key = (row["pid"], row["tid"])
                    self._lane_names.setdefault(key, lane_name)
        return len(adopted)

    # -- exports --------------------------------------------------------

    def write_jsonl(self, path) -> int:
        """One span dict per line (see ``docs/observability.md`` for the
        schema).  Returns the number of lines written."""
        rows = self.export_spans()
        with open(path, "w") as handle:
            for row in rows:
                handle.write(json.dumps(row, default=str) + "\n")
        return len(rows)

    def chrome_trace(self) -> Dict[str, Any]:
        """The trace as a Chrome ``trace_event`` object (``X`` complete
        events for spans, ``i`` instants, ``M`` metadata lane names)."""
        trace_events: List[Dict[str, Any]] = []
        seen_lanes: Dict[Tuple[int, int], str] = {}
        for row in self.export_spans():
            end = row["end"] if row["end"] is not None else row["start"]
            args = dict(row["args"])
            args["span_id"] = row["id"]
            if row.get("cpu") is not None:
                args["cpu_ms"] = round(row["cpu"] * 1e3, 3)
            if row.get("mem_peak") is not None:
                args["mem_peak_kb"] = round(row["mem_peak"] / 1024, 1)
            trace_events.append({
                "name": row["name"],
                "cat": "analysis",
                "ph": "X",
                "ts": round(row["start"] * 1e6, 1),
                "dur": round((end - row["start"]) * 1e6, 1),
                "pid": row["pid"],
                "tid": row["tid"],
                "args": args,
            })
            seen_lanes.setdefault((row["pid"], row["tid"]), "")
        for event in self.events():
            trace_events.append({
                "name": event["name"],
                "cat": "analysis",
                "ph": "i",
                "s": "t",
                "ts": round(event["ts"] * 1e6, 1),
                "pid": event["pid"],
                "tid": event["tid"],
                "args": dict(event["args"]),
            })
            seen_lanes.setdefault((event["pid"], event["tid"]), "")
        with self._lock:
            lane_names = dict(self._lane_names)
        for (pid, tid) in seen_lanes:
            name = lane_names.get((pid, tid)) or (
                "main" if tid == 0 else f"worker-{tid}"
            )
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": name},
            })
        pids = sorted({pid for pid, _ in seen_lanes})
        for pid in pids:
            label = "repro" if pid == self.pid else f"repro-worker[{pid}]"
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": label},
            })
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> int:
        """Write :meth:`chrome_trace` JSON; returns the event count."""
        trace = self.chrome_trace()
        with open(path, "w") as handle:
            json.dump(trace, handle, indent=None, default=str)
            handle.write("\n")
        return len(trace["traceEvents"])

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"Tracer(spans={len(self._spans)}, open={self._open}, "
                f"events={len(self._events)})"
            )


# ----------------------------------------------------------------------
# module-level fast-path API
# ----------------------------------------------------------------------

def span(name: str, **args: Any):
    """Open a span under the installed tracer (``with span("x"): …``).

    The disabled path — no tracer installed — is one global read and an
    identity check, returning a shared no-op object.
    """
    tracer = _tracer
    if tracer is None:
        return _NULL_SPAN
    return tracer._begin_span(name, args)


def add_event(name: str, **args: Any) -> None:
    """Record an instant event (e.g. a cache hit) at the current time."""
    tracer = _tracer
    if tracer is None:
        return
    tracer._add_event(name, args)


def note_checkpoint(stage: str, progress: Dict[str, Any]) -> None:
    """The ``Deadline.checkpoint`` piggyback: attach the hot loop's live
    progress dict to the innermost open span (no-op when disabled)."""
    if _tracer is None:
        return
    current = _current.get()
    if current is not None:
        current.attach_progress(stage, progress)


def current_tracer() -> Optional[Tracer]:
    """The installed tracer, or ``None`` when tracing is disabled."""
    return _tracer


def current_span() -> Optional[Span]:
    """The innermost open span of this context, or ``None``."""
    return _current.get()


def current_span_id() -> Optional[str]:
    """Id of the innermost open span (for stamping outcome records)."""
    current = _current.get()
    return None if current is None else current.id
