"""Admissible sequential schedules (PASS) and liveness.

A *periodic admissible sequential schedule* fires every actor exactly
γ(a) times without ever driving a channel negative; one exists iff the
graph is consistent and deadlock-free (Lee & Messerschmitt, 1987).  The
construction below is the classical demand-free simulation: repeatedly
fire any enabled actor that still has outstanding firings.  Any greedy
order works — if the greedy run gets stuck, *every* order gets stuck.

The greedy order fires each actor in maximal runs, so it is built and
returned as runs ``(actor, k)`` (:func:`block_schedule`); each run's
length is computed arithmetically rather than one firing at a time.
The symbolic HSDF conversion (Algorithm 1 of the paper, line 4) uses an
arbitrary such schedule and executes it run by run.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.errors import DeadlockError
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import repetition_vector


def run_limit(tokens: int, consumption: int,
              gain: Optional[int] = None) -> Optional[int]:
    """Consecutive firings an in-edge holding ``tokens`` allows.

    ``gain`` is ``None`` for an ordinary in-edge (⌊tokens/c⌋) and the
    net change per firing ``p − c`` for a self-loop: with ``p ≥ c`` any
    number once it holds ``c`` tokens (``None``: no limit), otherwise
    ⌊(t−c)/(c−p)⌋+1.
    """
    if tokens < consumption:
        return 0
    if gain is None:
        return tokens // consumption
    if gain >= 0:
        return None
    return (tokens - consumption) // -gain + 1


def block_schedule(
    graph: SDFGraph, repetitions: Optional[Dict[str, int]] = None
) -> List[Tuple[str, int]]:
    """A sequential schedule for one iteration as maximal runs ``(actor, k)``.

    Each run fires one actor ``k`` times in a row, as often as it can:
    the minimum of :func:`run_limit` over its in-edges, capped by its
    outstanding firings.  Runs are computed arithmetically, so the cost
    is O(runs × degree) rather than O(Σγ × degree).

    ``repetitions`` defaults to the repetition vector; passing a multiple
    of it yields a multi-iteration schedule.  Raises
    :class:`DeadlockError` (with the blocked firing counts) when no
    admissible schedule exists.
    """
    if repetitions is None:
        repetitions = repetition_vector(graph)
    remaining = dict(repetitions)
    tokens = {e.name: e.tokens for e in graph.edges}
    # Per actor: in-edges as (name, consumption, net gain per firing —
    # None unless a self-loop) and out-edges as (name, production, target).
    inputs = {
        a: [(e.name, e.consumption,
             e.production - e.consumption if e.source == a else None)
            for e in graph.in_edges(a)]
        for a in graph.actor_names
    }
    outputs = {
        a: [(e.name, e.production, e.target) for e in graph.out_edges(a)]
        for a in graph.actor_names
    }
    runs: List[Tuple[str, int]] = []
    fired = 0
    total = sum(remaining.values())

    # Worklist of candidate actors; an actor re-enters when a predecessor
    # fires.  Deque order makes the schedule deterministic.
    queue = deque(graph.actor_names)
    queued = set(queue)
    while queue:
        actor = queue.popleft()
        queued.discard(actor)
        k = remaining[actor]
        for name, consumption, gain in inputs[actor]:
            limit = run_limit(tokens[name], consumption, gain)
            if limit is not None:
                k = min(k, limit)
        if k <= 0:
            continue
        for name, consumption, _ in inputs[actor]:
            tokens[name] -= k * consumption
        for name, production, _ in outputs[actor]:
            tokens[name] += k * production
        remaining[actor] -= k
        fired += k
        runs.append((actor, k))
        for _, _, target in outputs[actor]:
            if remaining[target] > 0 and target not in queued:
                queue.append(target)
                queued.add(target)
        if remaining[actor] > 0 and actor not in queued:
            queue.append(actor)
            queued.add(actor)

    if fired != total:
        blocked = {a: r for a, r in remaining.items() if r > 0}
        raise DeadlockError(
            f"graph {graph.name!r} deadlocks: "
            f"{total - fired} of {total} firings could not be scheduled "
            f"(blocked actors: {sorted(blocked)})",
            blocked=blocked,
        )
    return runs


def sequential_schedule(
    graph: SDFGraph, repetitions: Optional[Dict[str, int]] = None
) -> List[str]:
    """A sequential schedule for one iteration, as a list of actor names:
    the expansion of :func:`block_schedule` (same arguments, same
    :class:`DeadlockError`)."""
    return [
        actor
        for actor, count in block_schedule(graph, repetitions)
        for _ in range(count)
    ]


def is_live(graph: SDFGraph) -> bool:
    """True iff the graph is consistent and can complete one iteration.

    Completing a single iteration returns the token distribution to its
    initial state, so one completable iteration implies unbounded
    deadlock-free execution.
    """
    try:
        sequential_schedule(graph)
    except DeadlockError:
        return False
    return True
