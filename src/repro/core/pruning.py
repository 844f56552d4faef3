"""Redundant parallel-edge pruning (Section 4.2 of the paper).

The abstraction maps many original edges onto few abstract ones, often
producing parallel edges between the same actor pair.  When parallel
edges agree on rates, the one with the fewest initial tokens is the
binding constraint and the others are redundant — e.g. in Figure 2 the
abstract actor A carries self-edges with one and with three tokens, and
the three-token edge can be dropped without changing the throughput.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.obs.provenance import record_step
from repro.sdf.graph import SDFGraph


def prune_redundant_edges(graph: SDFGraph, name: Optional[str] = None) -> SDFGraph:
    """A copy of ``graph`` keeping, per (source, target, production,
    consumption) class, only the parallel edge with the fewest tokens.

    Dominated parallel edges are implied by the kept one (same data
    dependency, more slack), so throughput and all firing times are
    preserved exactly.
    """
    keep: Dict[Tuple[str, str, int, int], object] = {}
    for edge in graph.edges:
        key = (edge.source, edge.target, edge.production, edge.consumption)
        if key not in keep or edge.tokens < keep[key].tokens:
            keep[key] = edge

    result = SDFGraph(name or f"{graph.name}-pruned")
    for actor in graph.actors:
        result.add_actor(actor.name, actor.execution_time)
    for edge in graph.edges:
        key = (edge.source, edge.target, edge.production, edge.consumption)
        if keep[key] is edge:
            result.add_edge(
                edge.source,
                edge.target,
                edge.production,
                edge.consumption,
                edge.tokens,
                name=edge.name,
            )
    record_step(
        "pruning",
        before=graph,
        after=result,
        removed_edges=graph.edge_count() - result.edge_count(),
    )
    return result
