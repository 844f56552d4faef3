"""Graphviz DOT export for SDF graphs and analysis artefacts.

Renders the visual conventions of the paper's figures: circles for
actors (labelled with execution times), edge labels ``p/c`` for rates
(omitted when homogeneous), and one dot per initial token drawn as
``•``-runs on the edge label.
"""

from __future__ import annotations

from typing import Collection, Optional

from repro.sdf.graph import SDFGraph

#: Colour used for critical-cycle highlighting in DOT output.
_HIGHLIGHT = "#c0392b"


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _edge_label(edge, homogeneous: bool) -> str:
    parts = []
    if not homogeneous or not edge.is_homogeneous:
        parts.append(f"{edge.production}/{edge.consumption}")
    if edge.tokens:
        dots = "•" * min(edge.tokens, 6)
        if edge.tokens > 6:
            dots = f"{edge.tokens}•"
        parts.append(dots)
    return " ".join(parts)


def to_dot(
    graph: SDFGraph,
    highlight_actors: Optional[Collection[str]] = None,
    highlight_edges: Optional[Collection] = None,
) -> str:
    """Render ``graph`` as a DOT digraph.

    ``highlight_actors`` and ``highlight_edges`` mark a critical cycle:
    named actors, plus edges matched either by edge name or by
    ``(source, target)`` pair, are drawn bold and coloured.  The output
    needs no Graphviz at build time — it is plain text for later
    rendering.
    """
    homogeneous = graph.is_homogeneous()
    hi_actors = set(highlight_actors or ())
    hi_edges = set(highlight_edges or ())
    lines = [f'digraph "{_escape(graph.name)}" {{']
    lines.append("  rankdir=LR;")
    lines.append('  node [shape=circle, fontsize=11];')

    for actor in graph.actors:
        label = f"{_escape(actor.name)}\\n{actor.execution_time}"
        attrs = f'label="{label}"'
        if actor.name in hi_actors:
            attrs += f', color="{_HIGHLIGHT}", penwidth=2.5, fontcolor="{_HIGHLIGHT}"'
        lines.append(f'  "{_escape(actor.name)}" [{attrs}];')

    for edge in graph.edges:
        label = _edge_label(edge, homogeneous)
        parts = [f'label="{_escape(label)}"'] if label else []
        if edge.name in hi_edges or (edge.source, edge.target) in hi_edges:
            parts.append(f'color="{_HIGHLIGHT}", penwidth=2.5')
        attrs = f" [{', '.join(parts)}]" if parts else ""
        lines.append(
            f'  "{_escape(edge.source)}" -> "{_escape(edge.target)}"{attrs};'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
