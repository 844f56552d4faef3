"""Trace analytics: span trees, self-time attribution, critical paths.

The tracing layer (:mod:`repro.obs.trace`) *emits* spans; this module
*consumes* them.  It reconstructs the span forest from either export
format — the span-JSONL log (explicit ``parent`` links, including the
cross-process worker lanes :meth:`~repro.obs.trace.Tracer.adopt` folded
into the parent file) or a Chrome ``trace_event`` file (parentage
re-derived by interval containment per ``(pid, tid)`` lane) — and turns
it into answers:

* **self-time attribution** — for every span, the wall time spent in
  the span *itself*, children subtracted; aggregated into a percentile
  table keyed by ``(stage, graph, kernel)`` so many runs fold into one
  ranking of where time actually goes;
* **stage costs** — each row of that table also sums the spans' CPU
  time and keeps their largest traced-allocation peak (recorded when
  the run had :mod:`tracemalloc` tracing, 0 otherwise), so the same
  table compares e.g. Algorithm 1's ``symbolic-conversion`` against the
  classical ``hsdf-expansion`` in wall, CPU and memory;
* **the critical path** — the root-to-leaf chain of nested spans that
  dominates the wall clock, each hop annotated with its self time;
* **per-lane attribution** — self time per OS process, so a batch run
  shows how much each worker lane actually contributed (the regression
  guard for the ``adopt()`` path);
* **flamegraphs** — collapsed-stack output (``a;b;c <int>`` lines,
  Brendan Gregg's format) loadable by ``flamegraph.pl`` and
  https://www.speedscope.app.

The machine-readable form is the ``repro-trace-summary-v1`` document
(:func:`summarize_traces`), validated by
:func:`repro.obs.check.validate_trace_summary` and produced by the
``repro obs analyze`` / ``repro obs flame`` CLI subcommands.

Structural invariant (checked by the validator): the per-stage self
times partition the forest, so their sum never exceeds the summed root
span durations.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "TRACE_SUMMARY_SCHEMA",
    "SpanNode",
    "build_forest",
    "collapsed_stacks",
    "load_trace",
    "render_summary_text",
    "summarize_traces",
    "write_collapsed",
]

TRACE_SUMMARY_SCHEMA = "repro-trace-summary-v1"

#: Percentiles published per (stage, graph, kernel) key.
PERCENTILES = (50, 90, 99)


# ----------------------------------------------------------------------
# loading: both trace export formats normalise to span rows
# ----------------------------------------------------------------------

def _rows_from_jsonl(text: str) -> List[Dict[str, Any]]:
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"line {lineno}: not valid JSON ({error})") from None
        if not isinstance(row, dict) or "id" not in row:
            raise ValueError(f"line {lineno}: not a span row")
        rows.append(row)
    return rows


def _rows_from_chrome(data: Any) -> List[Dict[str, Any]]:
    """Span rows from a Chrome ``trace_event`` object.

    ``X`` events carry no parent link — the exporter encodes nesting
    positionally — so parentage is re-derived by interval containment
    within each ``(pid, tid)`` lane: a span's parent is the innermost
    span whose interval contains it.  ``M`` metadata events contribute
    lane/process names; instants are ignored.
    """
    events = data["traceEvents"] if isinstance(data, dict) else data
    lane_names: Dict[Tuple[int, int], str] = {}
    process_names: Dict[int, str] = {}
    complete = []
    for event in events:
        phase = event.get("ph")
        if phase == "M":
            if event.get("name") == "thread_name":
                lane_names[(event["pid"], event["tid"])] = \
                    event.get("args", {}).get("name", "")
            elif event.get("name") == "process_name":
                process_names[event["pid"]] = \
                    event.get("args", {}).get("name", "")
        elif phase == "X":
            complete.append(event)

    rows: List[Dict[str, Any]] = []
    counter = 0
    by_lane: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    for event in complete:
        by_lane.setdefault((event["pid"], event["tid"]), []).append(event)
    for (pid, tid), lane_events in sorted(by_lane.items()):
        # Innermost-containment: sweep by start time, longest-first on
        # ties so a parent always opens before its zero-offset child.
        lane_events.sort(key=lambda e: (e["ts"], -e.get("dur", 0)))
        stack: List[Dict[str, Any]] = []
        for event in lane_events:
            start = event["ts"] / 1e6
            end = (event["ts"] + event.get("dur", 0)) / 1e6
            args = dict(event.get("args", {}))
            counter += 1
            span_id = args.pop("span_id", None) or f"chrome.{counter:x}"
            while stack and end > stack[-1]["end"] + 1e-9:
                stack.pop()
            row = {
                "id": span_id,
                "parent": stack[-1]["id"] if stack else None,
                "name": event["name"],
                "pid": pid,
                "tid": tid,
                "start": start,
                "end": end,
                "dur": end - start,
                "cpu": args.pop("cpu_ms") / 1e3 if "cpu_ms" in args else None,
                "mem_peak": (round(args.pop("mem_peak_kb") * 1024)
                             if "mem_peak_kb" in args else None),
                "args": args,
            }
            rows.append(row)
            stack.append(row)
    for row in rows:
        row.setdefault("lane_name", lane_names.get((row["pid"], row["tid"])))
        row.setdefault("process_name", process_names.get(row["pid"]))
    return rows


def load_trace(path: Union[str, pathlib.Path]) -> List[Dict[str, Any]]:
    """Span rows from either export format, auto-detected by content:
    a JSON document (Chrome trace) or one-span-per-line JSONL."""
    text = pathlib.Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = None
        if isinstance(data, dict) and "traceEvents" in data:
            return _rows_from_chrome(data)
        if isinstance(data, list):
            return _rows_from_chrome(data)
    return _rows_from_jsonl(text)


# ----------------------------------------------------------------------
# forest construction + self-time decomposition
# ----------------------------------------------------------------------

class SpanNode:
    """One span in the reconstructed forest."""

    __slots__ = ("row", "children", "self_seconds")

    def __init__(self, row: Dict[str, Any]) -> None:
        self.row = row
        self.children: List["SpanNode"] = []
        self.self_seconds: float = 0.0

    @property
    def name(self) -> str:
        return self.row["name"]

    @property
    def duration(self) -> float:
        return self.row["dur"] or 0.0

    @property
    def pid(self) -> int:
        return self.row["pid"]

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpanNode({self.name!r}, dur={self.duration:.6f})"


def build_forest(rows: Iterable[Dict[str, Any]]) -> List[SpanNode]:
    """Roots of the span forest, children attached and self time
    decomposed (``dur`` minus the children's summed ``dur``, floored at
    zero — overlapping children cannot make a parent's own work
    negative).  Open spans (no ``end``) are skipped: a torn trace still
    analyses.  A row whose parent is missing from the export becomes a
    root (worker lanes adopted without their coordinator, trace
    excerpts)."""
    nodes: Dict[str, SpanNode] = {}
    ordered: List[SpanNode] = []
    for row in rows:
        if row.get("end") is None or row.get("dur") is None:
            continue
        node = SpanNode(row)
        nodes[row["id"]] = node
        ordered.append(node)
    roots: List[SpanNode] = []
    for node in ordered:
        parent = nodes.get(node.row.get("parent"))
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in ordered:
        child_time = sum(child.duration for child in node.children)
        node.self_seconds = max(node.duration - child_time, 0.0)
    return roots


def _walk(roots: Sequence[SpanNode]) -> Iterable[Tuple[SpanNode, List[SpanNode]]]:
    """Every node with its ancestor chain (root first)."""
    stack: List[Tuple[SpanNode, List[SpanNode]]] = [(r, []) for r in roots]
    while stack:
        node, ancestors = stack.pop()
        yield node, ancestors
        chain = ancestors + [node]
        for child in node.children:
            stack.append((child, chain))


def _inherited(node: SpanNode, ancestors: Sequence[SpanNode],
               keys: Sequence[str]) -> Optional[str]:
    """The nearest self-or-ancestor span arg under any of ``keys``."""
    for candidate in (node, *reversed(ancestors)):
        args = candidate.row.get("args") or {}
        for key in keys:
            value = args.get(key)
            if value is not None:
                return str(value)
    return None


def _percentile(sorted_values: Sequence[float], q: int) -> float:
    """Nearest-rank percentile over pre-sorted values."""
    rank = max(math.ceil(q / 100 * len(sorted_values)), 1)
    return sorted_values[rank - 1]


# ----------------------------------------------------------------------
# the summary document
# ----------------------------------------------------------------------

def summarize_traces(
    traces: Sequence[Tuple[str, Sequence[Dict[str, Any]]]],
) -> Dict[str, Any]:
    """Aggregate one or more traces into a ``repro-trace-summary-v1``.

    ``traces`` is a list of ``(source_name, span_rows)`` pairs — many
    runs fold into one percentile table, keyed by
    ``(stage, graph, kernel)`` where ``graph``/``kernel`` are inherited
    from the nearest annotated ancestor span.  The critical path is
    extracted from the single longest root span across all sources.
    """
    stages: Dict[Tuple[str, Optional[str], Optional[str]], Dict[str, Any]] = {}
    lanes: Dict[int, Dict[str, Any]] = {}
    all_roots: List[Tuple[str, SpanNode]] = []
    total_spans = 0
    skipped_open = 0
    wall_seconds = 0.0

    for source, rows in traces:
        rows = list(rows)
        skipped_open += sum(1 for r in rows if r.get("end") is None)
        roots = build_forest(rows)
        all_roots.extend((source, root) for root in roots)
        wall_seconds += sum(root.duration for root in roots)
        for node, ancestors in _walk(roots):
            total_spans += 1
            key = (
                node.name,
                _inherited(node, ancestors, ("graph",)),
                _inherited(node, ancestors, ("kernel_used", "kernel")),
            )
            bucket = stages.setdefault(key, {
                "count": 0, "total": 0.0, "self": 0.0, "cpu": 0.0,
                "mem_peak": 0, "durations": [],
            })
            bucket["count"] += 1
            bucket["total"] += node.duration
            bucket["self"] += node.self_seconds
            bucket["cpu"] += node.row.get("cpu") or 0.0
            bucket["mem_peak"] = max(bucket["mem_peak"],
                                     node.row.get("mem_peak") or 0)
            bucket["durations"].append(node.duration)
            lane = lanes.setdefault(node.pid, {
                "spans": 0, "self": 0.0,
                "name": node.row.get("process_name"),
            })
            lane["spans"] += 1
            lane["self"] += node.self_seconds

    stage_rows = []
    for (stage, graph, kernel), bucket in stages.items():
        durations = sorted(bucket["durations"])
        row = {
            "stage": stage,
            "graph": graph,
            "kernel": kernel,
            "count": bucket["count"],
            "total_seconds": bucket["total"],
            "self_seconds": bucket["self"],
            "self_fraction": (bucket["self"] / wall_seconds
                              if wall_seconds else 0.0),
            "max_seconds": durations[-1],
            "cpu_seconds": bucket["cpu"],
            "mem_peak_bytes": bucket["mem_peak"],
        }
        for q in PERCENTILES:
            row[f"p{q}_seconds"] = _percentile(durations, q)
        stage_rows.append(row)
    stage_rows.sort(key=lambda r: (-r["self_seconds"], r["stage"]))

    critical_path: List[Dict[str, Any]] = []
    critical_source = None
    if all_roots:
        critical_source, node = max(all_roots, key=lambda sr: sr[1].duration)
        depth = 0
        while node is not None:
            critical_path.append({
                "name": node.name,
                "span": node.row["id"],
                "depth": depth,
                "duration_seconds": node.duration,
                "self_seconds": node.self_seconds,
            })
            node = max(node.children, key=lambda c: c.duration, default=None)
            depth += 1

    return {
        "schema": TRACE_SUMMARY_SCHEMA,
        "sources": [source for source, _ in traces],
        "spans": total_spans,
        "open_spans_skipped": skipped_open,
        "roots": len(all_roots),
        "processes": len(lanes),
        "wall_seconds": wall_seconds,
        "stages": stage_rows,
        "lanes": [
            {
                "pid": pid,
                "name": lane["name"] or f"pid-{pid}",
                "spans": lane["spans"],
                "self_seconds": lane["self"],
            }
            for pid, lane in sorted(lanes.items())
        ],
        "critical_path": critical_path,
        "critical_path_source": critical_source,
        "critical_path_seconds": (
            critical_path[0]["duration_seconds"] if critical_path else 0.0
        ),
    }


def summarize_files(paths: Sequence[Union[str, pathlib.Path]]) -> Dict[str, Any]:
    """:func:`summarize_traces` over trace files of either format."""
    return summarize_traces([(str(path), load_trace(path)) for path in paths])


# ----------------------------------------------------------------------
# flamegraphs (collapsed-stack format)
# ----------------------------------------------------------------------

def collapsed_stacks(
    traces: Sequence[Tuple[str, Sequence[Dict[str, Any]]]],
) -> List[str]:
    """Collapsed-stack lines: ``root;child;leaf <self-µs>`` per unique
    stack, integer microseconds of *self* time, aggregated across all
    sources (the input to ``flamegraph.pl`` / speedscope).  Stacks with
    zero accumulated self time are dropped — they would render as
    invisible slivers."""
    totals: Dict[Tuple[str, ...], int] = {}
    for _, rows in traces:
        for node, ancestors in _walk(build_forest(rows)):
            stack = tuple(
                a.name.replace(";", ":") for a in (*ancestors, node)
            )
            totals[stack] = totals.get(stack, 0) + round(node.self_seconds * 1e6)
    return [
        ";".join(stack) + f" {value}"
        for stack, value in sorted(totals.items())
        if value > 0
    ]


def write_collapsed(paths: Sequence[Union[str, pathlib.Path]],
                    output) -> int:
    """Write collapsed stacks for trace files; returns the line count."""
    lines = collapsed_stacks([(str(p), load_trace(p)) for p in paths])
    pathlib.Path(output).write_text("\n".join(lines) + "\n" if lines else "")
    return len(lines)


# ----------------------------------------------------------------------
# text rendering (the `repro obs analyze` terminal report)
# ----------------------------------------------------------------------

def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}ms"


def _kib(size: int) -> str:
    return f"{size / 1024:.1f}KiB"


def render_summary_text(summary: Dict[str, Any], top: int = 20) -> str:
    lines = [
        f"trace summary over {len(summary['sources'])} source(s): "
        f"{summary['spans']} span(s), {summary['roots']} root(s), "
        f"{summary['processes']} process(es), "
        f"wall {summary['wall_seconds']:.4f}s",
    ]
    if summary.get("open_spans_skipped"):
        lines.append(f"  ({summary['open_spans_skipped']} open span(s) "
                     "skipped: trace ended mid-run)")

    lines.append("")
    lines.append("self-time attribution by (stage, graph, kernel)")
    header = (f"  {'stage':<28} {'graph':<16} {'kernel':<8} {'n':>4} "
              f"{'self':>10} {'total':>10} {'p50':>9} {'p90':>9} {'max':>9} "
              f"{'cpu':>10} {'peak':>12}")
    lines.append(header)
    shown = summary["stages"][:top]
    for row in shown:
        lines.append(
            f"  {row['stage']:<28} {(row['graph'] or '-'):<16} "
            f"{(row['kernel'] or '-'):<8} {row['count']:>4} "
            f"{_ms(row['self_seconds']):>10} {_ms(row['total_seconds']):>10} "
            f"{_ms(row['p50_seconds']):>9} {_ms(row['p90_seconds']):>9} "
            f"{_ms(row['max_seconds']):>9} {_ms(row['cpu_seconds']):>10} "
            f"{_kib(row['mem_peak_bytes']):>12}"
        )
    if len(summary["stages"]) > len(shown):
        lines.append(f"  ... {len(summary['stages']) - len(shown)} more stage(s)")

    if len(summary.get("lanes", ())) > 1:
        lines.append("")
        lines.append("per-process attribution")
        for lane in summary["lanes"]:
            lines.append(f"  {lane['name']:<24} {lane['spans']:>5} span(s) "
                         f"{_ms(lane['self_seconds']):>10} self")

    if summary["critical_path"]:
        lines.append("")
        lines.append(
            f"critical path ({summary['critical_path_seconds']:.4f}s, "
            f"from {summary['critical_path_source']})"
        )
        for hop in summary["critical_path"]:
            indent = "  " * hop["depth"]
            lines.append(
                f"  {indent}{hop['name']}  "
                f"{_ms(hop['duration_seconds'])} "
                f"(self {_ms(hop['self_seconds'])})"
            )
    return "\n".join(lines)
