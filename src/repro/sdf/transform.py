"""The traditional SDF-to-HSDF conversion (references [11, 15] of the paper).

Every actor ``a`` is replaced by γ(a) copies — one per firing in an
iteration — so the result has Σ_a γ(a) actors (exactly the first data
column of Table 1 of the paper), which can be exponential in the size of
the SDF graph.  Dependencies between specific firings follow from FIFO
token positions:

For an edge ``(a, b, p, c, d)``, the ``l``-th token consumed by firing
``i`` of ``b`` (all indices 0-based within an iteration) sits at overall
consumption position ``m = i·c + l``.  It was produced at position
``m − d``, i.e. by (possibly negative, meaning: a previous iteration)
firing ``J = floor((m − d)/p)`` of ``a``.  Mapping ``J`` into the
iteration gives the copy index ``j = J mod γ(a)`` and the number of
iterations back ``D = (j − J)/γ(a)``, yielding an HSDF edge
``a_j → b_i`` with ``D`` initial tokens.  Parallel HSDF edges are merged
keeping the smallest delay (the binding constraint).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.provenance import record_step
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import repetition_vector


def firing_name(actor: str, index: int) -> str:
    """Name of the HSDF copy for firing ``index`` of ``actor``."""
    return f"{actor}#{index}"


def traditional_hsdf(
    graph: SDFGraph,
    repetitions: Optional[Dict[str, int]] = None,
    deadline=None,
) -> SDFGraph:
    """The classical homogeneous expansion of a consistent SDF graph.

    The result fires each copy exactly once per iteration; its maximum
    cycle ratio equals the iteration period of the original graph, and
    every per-firing dependency is preserved one-to-one (unlike the
    paper's compact conversion, which preserves only the aggregate
    timing).

    The expansion has Σγ(a) actors, which is exponential in the rates —
    exactly the blow-up the paper's Table 1 quantifies — so ``deadline``
    (a :class:`repro.analysis.deadline.Deadline`) is polled throughout;
    on expiry :class:`repro.errors.AnalysisTimeout` reports how many
    copies and dependency edges had been materialised.
    """
    if repetitions is None:
        repetitions = repetition_vector(graph)

    progress = (
        deadline.checkpoint(
            "traditional-hsdf",
            {
                "copies": 0,
                "copies_total": sum(repetitions.values()),
                "dependencies": 0,
            },
        )
        if deadline is not None
        else None
    )

    copies = []
    for actor in graph.actors:
        for i in range(repetitions[actor.name]):
            if deadline is not None:
                progress["copies"] += 1
                deadline.check()
            copies.append((firing_name(actor.name, i), actor.execution_time))

    # Collect minimal delays for each copy pair before materialising edges.
    delays: Dict[Tuple[str, str], int] = {}
    for edge in graph.edges:
        gamma_src = repetitions[edge.source]
        for i in range(repetitions[edge.target]):
            if deadline is not None:
                progress["dependencies"] = len(delays)
                deadline.check()
            for l in range(edge.consumption):
                m = i * edge.consumption + l
                produced_at = m - edge.tokens
                j_global = produced_at // edge.production  # floor division
                j = j_global % gamma_src
                iterations_back = (j - j_global) // gamma_src
                key = (firing_name(edge.source, j), firing_name(edge.target, i))
                if key not in delays or iterations_back < delays[key]:
                    delays[key] = iterations_back

    # Edges are named e0, e1, ... in insertion order, as add_edge would.
    hsdf = SDFGraph.from_tuples(
        f"{graph.name}-hsdf",
        copies,
        [
            (f"e{index}", source, target, 1, 1, delay)
            for index, ((source, target), delay) in enumerate(delays.items())
        ],
        len(delays),
    )
    record_step(
        "traditional-hsdf-expansion",
        before=graph,
        after=hsdf,
        copies=sum(repetitions.values()),
    )
    return hsdf
