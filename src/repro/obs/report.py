"""Human-readable renderings of provenance certificates.

:mod:`repro.obs.provenance` produces machine-checkable records; this
module turns one into the artefacts a person reads — the output of the
``repro explain`` CLI subcommand:

* :func:`render_text` — a terminal report: status, reduction-step
  table, the critical-cycle witness with its re-derived mean, and the
  fallback-tier history when the record came from a tiered policy;
* :func:`render_html` — the same content as one self-contained HTML
  page (inline CSS, no external assets), plus the DOT rendering of the
  graph with the critical cycle highlighted and a span timeline when
  the caller traced the run;
* :func:`witness_highlights` — maps a witness onto the actors/edges of
  the original graph so :func:`repro.sdf.dot.to_dot` can colour the
  critical cycle, shared by the HTML report and ``repro explain --dot``.

Everything degrades gracefully: a record without a witness renders the
``witness_unavailable`` reason, a record outside a policy renders no
tier table, and a missing graph simply omits the DOT section.
"""

from __future__ import annotations

import html
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ValidationError
from repro.obs.provenance import (
    PROVENANCE_SCHEMA,
    CycleWitness,
    ProvenanceRecord,
    WitnessError,
    verify_witness,
)

__all__ = [
    "html_page",
    "html_table",
    "render_html",
    "render_text",
    "witness_highlights",
]


# ----------------------------------------------------------------------
# witness -> graph highlights
# ----------------------------------------------------------------------

def witness_highlights(
    record: ProvenanceRecord, graph
) -> Tuple[Set[str], Set]:
    """The actors and edges of ``graph`` that carry the critical cycle.

    Returns ``(actors, edges)`` suitable for
    :func:`repro.sdf.dot.to_dot`'s ``highlight_actors`` /
    ``highlight_edges``.  Token-space witnesses highlight the channels
    holding the witnessed tokens plus their endpoint actors; actor-space
    witnesses highlight the actors and the carrying channels;
    abstract-space witnesses highlight the original members of every
    abstract actor on the cycle.  Unknown labels are skipped — a
    highlight is a visual aid, never a verification.
    """
    actors: Set[str] = set()
    edges: Set = set()
    witness = record.witness if isinstance(record, ProvenanceRecord) else record
    if witness is None:
        return actors, edges
    if witness.space == "token":
        for arc in witness.arcs:
            for label in (arc.source, arc.target):
                edge_name = label.rpartition("[")[0] if "[" in label else label
                try:
                    edge = graph.edge(edge_name)
                except ValidationError:
                    continue
                edges.add(edge_name)
                actors.add(edge.source)
                actors.add(edge.target)
    elif witness.space == "actor":
        for arc in witness.arcs:
            if graph.has_actor(arc.source):
                actors.add(arc.source)
            if graph.has_actor(arc.target):
                actors.add(arc.target)
            if arc.key is not None:
                edges.add(arc.key)
            else:
                edges.add((arc.source, arc.target))
    elif witness.space == "abstract":
        on_cycle = {arc.source for arc in witness.arcs}
        on_cycle.update(arc.target for arc in witness.arcs)
        for abstract_actor in on_cycle:
            for member in witness.groups.get(abstract_actor, ()):
                if graph.has_actor(member):
                    actors.add(member)
    return actors, edges


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------

def _size(d: Dict[str, int]) -> str:
    if not d:
        return "-"
    return f"{d.get('actors', '?')}a/{d.get('edges', '?')}e/{d.get('tokens', '?')}t"


def _fmt(value) -> str:
    if value is None:
        return "unbounded"
    value = Fraction(value)
    if value.denominator != 1:
        return f"{value} (~{float(value):.6g})"
    return str(value)


def _cycle_time(record: ProvenanceRecord) -> str:
    if record.status == "timed-out":
        return "unknown (every tier timed out)"
    return _fmt(record.cycle_time)


def _check(record: ProvenanceRecord, graph) -> Tuple[str, Optional[Fraction]]:
    """(verification verdict line, re-derived mean or None)."""
    if record.witness is None:
        reason = record.witness_unavailable or "no witness in record"
        return f"no witness: {reason}", None
    try:
        mean = verify_witness(graph, record)
    except WitnessError as error:
        return f"FAILED: {error}", None
    claim = (
        record.bound_abstract_cycle_time
        if record.status == "conservative-bound"
        else record.cycle_time
    )
    return f"verified: re-derived cycle mean {mean} = claimed {claim}", mean


def _status_line(record: ProvenanceRecord) -> str:
    if record.status == "timed-out":
        return record.status  # no tier finished: nothing ran to name
    line = f"{record.status} ({record.algorithm} via {record.method})"
    if record.status == "conservative-bound" and record.bound_phase_count:
        line += (
            f", Theorem 1 bound = {record.bound_phase_count}"
            f" x {record.bound_abstract_cycle_time}"
        )
    return line


def _step_rows(record: ProvenanceRecord) -> List[Tuple[str, str, str, str, str]]:
    rows = []
    for index, step in enumerate(record.steps, 1):
        detail = ", ".join(
            f"{k}={v}" for k, v in step.detail.items()
            if not isinstance(v, (dict, list))
        )
        rows.append((
            str(index),
            step.kind,
            _size(step.before_size),
            _size(step.after_size),
            detail,
        ))
    return rows


def _witness_rows(witness: CycleWitness) -> List[Tuple[str, str, str, str]]:
    return [
        (
            f"{arc.source} -> {arc.target}",
            str(arc.weight),
            str(arc.tokens),
            arc.key or "",
        )
        for arc in witness.arcs
    ]


# ----------------------------------------------------------------------
# text report
# ----------------------------------------------------------------------

def render_text(record: ProvenanceRecord, graph=None) -> str:
    """The terminal report ``repro explain`` prints.

    ``graph`` (the *original* analysed graph) enables the full witness
    re-check; without it the witness is checked for closure and mean
    only (``verify_witness(None, ...)``).
    """
    lines = [
        f"provenance of {record.graph} [{record.fingerprint[:16]}]",
        f"status:     {_status_line(record)}",
        f"cycle time: {_cycle_time(record)}",
    ]

    lines.append("")
    if record.steps:
        lines.append("reduction steps")
        rows = _step_rows(record)
        kind_w = max(len(r[1]) for r in rows)
        size_w = max(max(len(r[2]), len(r[3])) for r in rows)
        for number, kind, before, after, detail in rows:
            lines.append(
                f"  {number:>2}. {kind:<{kind_w}}  "
                f"{before:>{size_w}} -> {after:<{size_w}}"
                + (f"  ({detail})" if detail else "")
            )
    else:
        lines.append("reduction steps: none recorded")

    lines.append("")
    if record.witness is not None:
        witness = record.witness
        lines.append(
            f"critical-cycle witness ({witness.space} space, "
            f"{witness.source}, {len(witness.arcs)} arc(s))"
        )
        rows = _witness_rows(witness)
        arc_w = max(len(r[0]) for r in rows)
        shown = rows if len(rows) <= 20 else rows[:20]
        for arc, weight, tokens, key in shown:
            via = f"  via {key}" if key else ""
            lines.append(
                f"  {arc:<{arc_w}}  weight {weight:>8}  transit {tokens}{via}"
            )
        if len(rows) > len(shown):
            lines.append(f"  ... {len(rows) - len(shown)} more arc(s)")
        if witness.groups:
            for name, members in sorted(witness.groups.items()):
                preview = ", ".join(members[:4]) + (", ..." if len(members) > 4 else "")
                lines.append(f"  group {name}: {preview}")
    verdict, _ = _check(record, graph)
    lines.append(f"witness check: {verdict}")

    if record.tiers:
        lines.append("")
        lines.append("fallback tiers")
        tier_w = max(len(t.tier) for t in record.tiers)
        for tier in record.tiers:
            reason = f"  ({tier.reason})" if tier.reason else ""
            lines.append(f"  {tier.tier:<{tier_w}}  {tier.status}{reason}")
        if record.degradation_reason:
            lines.append(f"degraded because: {record.degradation_reason}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTML report
# ----------------------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #222; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
code, pre { font-family: 'SF Mono', Consolas, monospace; font-size: 0.85rem; }
pre { background: #f6f6f4; padding: 0.8rem; overflow-x: auto;
      border-radius: 4px; }
table { border-collapse: collapse; margin: 0.6rem 0; }
th, td { text-align: left; padding: 0.25rem 0.9rem 0.25rem 0;
         border-bottom: 1px solid #e4e4e0; font-size: 0.9rem; }
th { font-weight: 600; }
.badge { display: inline-block; padding: 0.1rem 0.55rem; border-radius: 9px;
         font-size: 0.8rem; color: #fff; }
.ok { background: #1e8e3e; } .warn { background: #b8860b; }
.fail { background: #c0392b; }
.muted { color: #777; }
.lane { position: relative; height: 1.35rem; margin: 2px 0;
        background: #f6f6f4; border-radius: 3px; }
.bar { position: absolute; top: 2px; bottom: 2px; border-radius: 3px;
       background: #4a7db5; opacity: 0.85; }
.bar.err { background: #c0392b; }
.lane span { position: relative; z-index: 1; font-size: 0.75rem;
             padding-left: 0.4rem; line-height: 1.35rem; }
"""


def html_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """One styled ``<table>``; every cell is escaped.  Shared by the
    provenance report and the ``repro obs diff`` HTML rendering."""
    head = "".join(f"<th>{html.escape(h)}</th>" for h in headers)
    body = "\n".join(
        "<tr>" + "".join(f"<td>{html.escape(str(c))}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return f"<table><tr>{head}</tr>\n{body}</table>"


_table = html_table


def html_page(title: str, parts: Sequence[str]) -> str:
    """Wrap pre-rendered body fragments into one self-contained page
    (inline CSS, no external assets) — the house style for every HTML
    artefact the CLI emits."""
    return "\n".join([
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        *parts,
        "</body></html>",
    ])


def _timeline(spans) -> str:
    """Nested horizontal bars from a list of closed trace spans."""
    closed = [s for s in spans if s.end is not None]
    if not closed:
        return ""
    epoch = min(s.start for s in closed)
    total = max(s.end for s in closed) - epoch or 1e-9
    depth = {}
    for s in sorted(closed, key=lambda s: s.start):
        depth[s.id] = depth.get(s.parent_id, -1) + 1
    lanes = []
    for s in sorted(closed, key=lambda s: (s.start, depth[s.id])):
        left = (s.start - epoch) / total * 100
        width = max((s.end - s.start) / total * 100, 0.3)
        label = ("&nbsp;" * 2 * depth[s.id]) + html.escape(s.name)
        ms = (s.end - s.start) * 1e3
        err = " err" if s.args.get("error") else ""
        lanes.append(
            f'<div class="lane"><div class="bar{err}" '
            f'style="left:{left:.2f}%;width:{width:.2f}%"></div>'
            f"<span>{label} <span class=\"muted\">{ms:.1f} ms</span></span></div>"
        )
    return "<h2>Timeline</h2>\n" + "\n".join(lanes)


def render_html(
    record: ProvenanceRecord,
    graph=None,
    spans=None,
    dot: Optional[str] = None,
) -> str:
    """One self-contained HTML page for ``record``.

    ``graph`` enables the full witness re-check and (unless ``dot`` is
    given) the highlighted DOT rendering; ``spans`` (a
    :meth:`repro.obs.trace.Tracer.spans` list) adds the stage timeline.
    No external assets are referenced — the page works offline and can
    be attached to a CI run as a single artifact.
    """
    verdict, _ = _check(record, graph)
    if record.witness is None:
        badge = f'<span class="badge warn">{html.escape(verdict)}</span>'
    elif verdict.startswith("FAILED"):
        badge = f'<span class="badge fail">{html.escape(verdict)}</span>'
    else:
        badge = f'<span class="badge ok">{html.escape(verdict)}</span>'

    parts = [
        f"<h1>Analysis provenance: <code>{html.escape(record.graph)}</code></h1>",
        _table(
            ("", ""),
            [
                ("fingerprint", record.fingerprint),
                ("status", _status_line(record)),
                ("cycle time", _cycle_time(record)),
                ("schema", PROVENANCE_SCHEMA),
            ],
        ),
        f"<p>Witness check: {badge}</p>",
    ]

    parts.append("<h2>Reduction steps</h2>")
    if record.steps:
        parts.append(_table(
            ("#", "kind", "before", "after", "detail"),
            _step_rows(record),
        ))
    else:
        parts.append("<p class='muted'>none recorded</p>")

    parts.append("<h2>Critical-cycle witness</h2>")
    if record.witness is not None:
        witness = record.witness
        parts.append(
            f"<p>{witness.space} space, extracted by "
            f"<code>{html.escape(witness.source)}</code>; the cycle mean "
            "&Sigma;weight/&Sigma;transit re-derives the reported number "
            "in O(|cycle|).</p>"
        )
        parts.append(_table(
            ("arc", "weight", "transit", "channel"),
            _witness_rows(witness),
        ))
        if witness.groups:
            parts.append(_table(
                ("abstract actor", "original members"),
                [(k, ", ".join(v)) for k, v in sorted(witness.groups.items())],
            ))
    else:
        parts.append(
            f"<p class='muted'>{html.escape(record.witness_unavailable or 'unavailable')}</p>"
        )

    if record.tiers:
        parts.append("<h2>Fallback tiers</h2>")
        parts.append(_table(
            ("tier", "status", "reason"),
            [(t.tier, t.status, t.reason or "") for t in record.tiers],
        ))
        if record.degradation_reason:
            parts.append(
                "<p>Degraded because: "
                f"<code>{html.escape(record.degradation_reason)}</code></p>"
            )

    if dot is None and graph is not None:
        from repro.sdf.dot import to_dot

        actors, edges = witness_highlights(record, graph)
        dot = to_dot(graph, highlight_actors=actors, highlight_edges=edges)
    if dot is not None:
        parts.append("<h2>Graph (critical cycle highlighted)</h2>")
        parts.append(
            "<p class='muted'>Graphviz DOT; render with <code>dot -Tsvg</code> "
            "or paste into any Graphviz viewer. The coloured actors/channels "
            "carry the witnessed cycle.</p>"
        )
        parts.append(f"<pre>{html.escape(dot)}</pre>")

    if spans:
        parts.append(_timeline(spans))

    return html_page(f"repro explain: {record.graph}", parts)
