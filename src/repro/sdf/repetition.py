"""Consistency and repetition vectors (balance equations).

A consistent SDF graph admits a smallest positive integer vector γ with
``γ(a)·p = γ(b)·c`` for every edge ``(a, b, p, c, d)`` — the *repetition
vector* (Lee & Messerschmitt, 1987).  Executing every actor γ(a) times
returns all channels to their initial token counts: one *iteration*.

The solver propagates exact rational firing ratios over a spanning tree
of each weakly connected component and verifies the remaining edges; the
witness edge of any violation is reported.  A ratio is a gcd-reduced
integer pair ``(numerator, denominator)``, so a tree edge costs one gcd
and a chord check one cross-multiplication; :class:`~fractions.Fraction`
appears only in the message of an inconsistency.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Tuple

from repro.errors import InconsistentGraphError
from repro.sdf.graph import Edge, SDFGraph


def repetition_vector(graph: SDFGraph) -> Dict[str, int]:
    """The repetition vector γ of ``graph``.

    Each weakly connected component is normalised independently to its
    smallest positive integer solution.  Raises
    :class:`InconsistentGraphError` (with the violated edge as witness)
    when the balance equations only admit the trivial solution.
    """
    ratios: Dict[str, Tuple[int, int]] = {}
    gamma: Dict[str, int] = {}

    for seed in graph.actor_names:
        if seed in ratios:
            continue
        # One weakly connected component, discovered by the traversal.
        ratios[seed] = (1, 1)
        members = [seed]
        stack = [seed]
        while stack:
            actor = stack.pop()
            numerator, denominator = ratios[actor]
            for edge in graph.out_edges(actor):
                # γ(target) = γ(source) · p / c
                _propagate(graph, edge, edge.target,
                           numerator * edge.production,
                           denominator * edge.consumption,
                           ratios, members, stack)
            for edge in graph.in_edges(actor):
                _propagate(graph, edge, edge.source,
                           numerator * edge.consumption,
                           denominator * edge.production,
                           ratios, members, stack)

        # Scale this component to the smallest positive integer solution.
        denominator_lcm = lcm(*(ratios[a][1] for a in members))
        scaled = [ratios[a][0] * (denominator_lcm // ratios[a][1]) for a in members]
        numerator_gcd = gcd(*scaled)
        for a, value in zip(members, scaled):
            gamma[a] = value // numerator_gcd

    return {a: gamma[a] for a in graph.actor_names}


def _propagate(graph, edge: Edge, actor: str, numerator: int,
               denominator: int, ratios, members, stack) -> None:
    """Give ``actor`` the ratio ``numerator/denominator`` that ``edge``
    implies, or check it against the ratio it already has."""
    known = ratios.get(actor)
    if known is None:
        divisor = gcd(numerator, denominator)
        ratios[actor] = (numerator // divisor, denominator // divisor)
        members.append(actor)
        stack.append(actor)
    elif known[0] * denominator != numerator * known[1]:
        raise InconsistentGraphError(
            f"graph {graph.name!r} is inconsistent: edge "
            f"{edge.name} ({edge.source}->{edge.target}, "
            f"{edge.production}/{edge.consumption}) implies "
            f"γ({actor}) = {Fraction(numerator, denominator)}, but "
            f"γ({actor}) = {Fraction(*known)}",
            witness_edge=edge,
        )


def is_consistent(graph: SDFGraph) -> bool:
    """True iff the balance equations of ``graph`` have a positive solution."""
    try:
        repetition_vector(graph)
    except InconsistentGraphError:
        return False
    return True


def iteration_length(graph: SDFGraph) -> int:
    """Total number of firings in one iteration: Σ_a γ(a).

    This equals the actor count of the *traditional* HSDF conversion —
    the first data column of Table 1 of the paper.
    """
    return sum(repetition_vector(graph).values())
