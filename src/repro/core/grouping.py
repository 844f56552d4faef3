"""Automatic discovery of valid abstractions for regular graphs.

The paper motivates abstraction with graphs that are "regular or almost
regular" — pipelines of near-identical actors generated by modelling
tools, where a human can see the grouping at a glance (all the ``Ai``
together, all the ``Bi`` together).  This module automates that glance:

* the **name** strategy groups actors by stripping a trailing integer
  (``A12 → A``), matching how generated models are typically labelled;
* the **structural** strategy groups actors by a behavioural signature
  (repetition entry, sorted in/out rate multisets), which also works for
  anonymised graphs.

Either way, phase indices are then assigned by a greedy topological pass
over the zero-delay edges, which guarantees the Definition-3 condition
``I(a) ≤ I(b) or d > 0`` whenever any valid index assignment exists for
the chosen grouping (zero-delay cycles would make the graph deadlock, so
the zero-delay subgraph of a live graph is a DAG).
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Dict, List, Optional

from repro.core.abstraction import Abstraction
from repro.errors import NoAbstractionFoundError
from repro.obs.provenance import record_step
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import repetition_vector

#: Grouping strategies of :func:`discover_abstraction`; the first is the
#: default.
STRATEGIES = ("name", "structural")

_TRAILING_INT = re.compile(r"^(?P<stem>.*?)(?P<index>\d+)$")


def _name_groups(graph: SDFGraph) -> Dict[str, List[str]]:
    groups: Dict[str, List[str]] = defaultdict(list)
    for actor in graph.actor_names:
        match = _TRAILING_INT.match(actor)
        stem = match.group("stem") if match and match.group("stem") else actor
        groups[stem].append(actor)
    return dict(groups)


def _structural_groups(graph: SDFGraph) -> Dict[str, List[str]]:
    gamma = repetition_vector(graph)
    groups: Dict[object, List[str]] = defaultdict(list)
    for actor in graph.actor_names:
        signature = (
            gamma[actor],
            tuple(sorted((e.consumption, e.production) for e in graph.in_edges(actor))),
            tuple(sorted((e.production, e.consumption) for e in graph.out_edges(actor))),
        )
        groups[signature].append(actor)
    named: Dict[str, List[str]] = {}
    for i, members in enumerate(groups.values()):
        named[f"G{i}"] = members
    return named


def _split_by_repetition(graph: SDFGraph, groups: Dict[str, List[str]]) -> Dict[str, List[str]]:
    """Refine groups so members share a repetition entry (Definition 3)."""
    gamma = repetition_vector(graph)
    refined: Dict[str, List[str]] = {}
    for stem, members in groups.items():
        by_gamma: Dict[int, List[str]] = defaultdict(list)
        for actor in members:
            by_gamma[gamma[actor]].append(actor)
        if len(by_gamma) == 1:
            refined[stem] = members
        else:
            for value, sub in sorted(by_gamma.items()):
                refined[f"{stem}_x{value}"] = sub
    return refined


def _assign_indices(graph: SDFGraph, group_of: Dict[str, str]) -> Dict[str, int]:
    """Greedy phase assignment over the zero-delay DAG.

    Processing actors in topological order of zero-delay edges, each actor
    gets the smallest index that (a) is at least every zero-delay
    predecessor's index and (b) is still free within its group.  (a) makes
    every zero-delay edge index-monotone; (b) makes I injective per group.
    """
    # Topological order of the zero-delay subgraph (Kahn's algorithm).
    indegree = {a: 0 for a in graph.actor_names}
    for edge in graph.edges:
        if edge.tokens == 0:
            indegree[edge.target] += 1
    ready = [a for a in graph.actor_names if indegree[a] == 0]
    order: List[str] = []
    while ready:
        actor = ready.pop(0)
        order.append(actor)
        for edge in graph.out_edges(actor):
            if edge.tokens == 0:
                indegree[edge.target] -= 1
                if indegree[edge.target] == 0:
                    ready.append(edge.target)
    if len(order) != graph.actor_count():
        raise NoAbstractionFoundError(
            "zero-delay edges form a cycle; the graph deadlocks and admits "
            "no index assignment"
        )

    index: Dict[str, int] = {}
    used: Dict[str, set] = defaultdict(set)
    for actor in order:
        floor = 0
        for edge in graph.in_edges(actor):
            if edge.tokens == 0:
                floor = max(floor, index[edge.source])
        candidate = floor
        taken = used[group_of[actor]]
        while candidate in taken:
            candidate += 1
        index[actor] = candidate
        taken.add(candidate)
    return index


def discover_abstraction(
    graph: SDFGraph,
    strategy: str = "name",
    min_group_size: int = 2,
) -> Abstraction:
    """Find a valid abstraction of ``graph`` automatically.

    ``strategy`` is ``"name"`` (trailing-integer grouping) or
    ``"structural"`` (signature grouping).  Groups smaller than
    ``min_group_size`` stay unmerged but still receive phase indices.
    Raises :class:`NoAbstractionFoundError` when no group reaches
    ``min_group_size`` (the abstraction would be the identity) or when no
    index assignment exists.

    The returned abstraction is validated against Definition 3 before it
    is returned, so it can be fed to
    :func:`repro.core.abstraction.abstract_graph` directly.
    """
    if strategy == "name":
        groups = _name_groups(graph)
    elif strategy == "structural":
        groups = _structural_groups(graph)
    else:
        raise ValueError(
            f"unknown strategy {strategy!r}; use one of {', '.join(STRATEGIES)}"
        )
    groups = _split_by_repetition(graph, groups)

    if all(len(members) < min_group_size for members in groups.values()):
        raise NoAbstractionFoundError(
            f"strategy {strategy!r} found no group of at least "
            f"{min_group_size} actors"
        )

    group_of: Dict[str, str] = {}
    for stem, members in groups.items():
        for actor in members:
            group_of[actor] = stem if len(members) >= min_group_size else actor

    index = _assign_indices(graph, group_of)
    abstraction = Abstraction(mapping=group_of, index=index)
    abstraction.validate(graph)
    merged = [m for m in groups.values() if len(m) >= min_group_size]
    record_step(
        "grouping-discovery",
        before=graph,
        strategy=strategy,
        groups_found=len(merged),
        actors_grouped=sum(len(m) for m in merged),
        phase_count=abstraction.phase_count,
    )
    return abstraction
