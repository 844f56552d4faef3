"""Vectorized self-timed state-space simulation.

Array mirror of :func:`repro.sdf.simulation.simulation_throughput`.
The exact engine advances a discrete-event loop where every event does
Python-loop work per actor and per edge with Fraction time arithmetic.
This kernel keeps the *same semantics, state space and results* while
vectorizing the per-event work:

* **Integer event times.**  All execution times are scaled by the LCM
  ``L`` of their denominators, so event times are Python ints; the
  reported period/transient divide by ``L`` back into exact Fractions.
  Time arithmetic is therefore exact by construction — no tolerance is
  involved anywhere in this kernel.
* **One vectorized enabling pass per instant.**  Starting a firing only
  *consumes* tokens and each channel has exactly one consumer, so the
  number of firings actor ``a`` can start at an instant is independent
  of other actors: ``fires[a] = min over in-edges (tokens // cons)``,
  computed for all actors at once with ``np.minimum.reduceat`` over an
  incoming-edge CSR.  One pass per instant replaces the reference
  engine's fire-one-at-a-time loop and starts exactly the same
  multiset of firings.
* **Aggregated completions.**  Ongoing firings are per-``(end, actor)``
  counts; completions at the next instant are applied as one vectorized
  token update.  The state key — token vector plus the multiset of
  (remaining time, actor) pairs — aggregates the exact engine's key
  bijectively, so recurrence is detected after the same event with the
  same period.

Witness mode (binding back-pointers for critical-cycle extraction) is
inherently per-firing, so that bookkeeping stays a Python loop mirroring
:meth:`SelfTimedSimulation._record_binding` exactly: bindings, start
counts and the start window come out identical and feed the unchanged
:func:`repro.sdf.simulation.binding_witness`.

Token counts live in int64; a (pathological) unbounded build-up that
approaches the int64 range raises
:class:`~repro.kernels.backend.NumericalGuardError` long before
wrap-around, and the caller falls back to the exact engine.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import (
    ConvergenceError,
    DeadlockError,
    UnboundedThroughputError,
)
from repro.kernels.backend import NumericalGuardError
from repro.sdf.graph import SDFGraph
from repro.sdf.simulation import SelfTimedSimulation, SimulatedThroughput

__all__ = ["simulation_throughput_numpy"]

#: Token counts beyond this trip the overflow guard (int64 headroom).
_MAX_TOKENS = 2 ** 60


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


class _ArraySimulation:
    """Array state of one self-timed execution (scaled integer time)."""

    def __init__(self, graph: SDFGraph, deadline=None,
                 record_bindings: bool = False):
        for actor in graph.actor_names:
            if not graph.in_edges(actor):
                raise UnboundedThroughputError(
                    f"actor {actor!r} has no incoming edges: self-timed "
                    "execution would fire it unboundedly often at time 0; "
                    "add a self-edge with one initial token to bound it",
                    actor=actor,
                )
        self.graph = graph
        self.deadline = deadline
        self.actors: List[str] = list(graph.actor_names)
        self.actor_index = {a: i for i, a in enumerate(self.actors)}
        n = len(self.actors)

        scale = 1
        times = [Fraction(graph.execution_time(a)) for a in self.actors]
        for t in times:
            scale = _lcm(scale, t.denominator)
        self.scale = scale
        self.times_scaled = [int(t * scale) for t in times]

        edges = list(graph.edges)
        self.edge_names = [e.name for e in edges]
        m = len(edges)
        self.tokens = np.fromiter(
            (e.tokens for e in edges), dtype=np.int64, count=m)
        self.cons = np.fromiter(
            (e.consumption for e in edges), dtype=np.int64, count=m)
        self.prod = np.fromiter(
            (e.production for e in edges), dtype=np.int64, count=m)
        self.edge_target = np.fromiter(
            (self.actor_index[e.target] for e in edges),
            dtype=np.int64, count=m)
        self.edge_source = np.fromiter(
            (self.actor_index[e.source] for e in edges),
            dtype=np.int64, count=m)
        # Incoming-edge CSR per actor (segments non-empty: every actor
        # has at least one in-edge, checked above).
        self.in_order = np.argsort(self.edge_target, kind="stable")
        self.in_indptr = np.searchsorted(
            self.edge_target[self.in_order],
            np.arange(n + 1, dtype=np.int64), side="left")

        self.now = 0  # scaled integer time
        self.firings = np.zeros(n, dtype=np.int64)
        #: Ongoing firings: scaled end time -> per-actor count array.
        self.pending: Dict[int, "object"] = {}

        self.bindings = {} if record_bindings else None
        if record_bindings:
            self._fifos = {
                e.name: deque([None] * e.tokens) for e in edges
            }
            self.start_counts = {a: 0 for a in self.actors}
            self._completion_counts = {a: 0 for a in self.actors}
        self._start_enabled_firings()

    # -- mechanics ------------------------------------------------------

    def _start_enabled_firings(self) -> None:
        if not self.actors:
            return
        ordered = self.in_order
        available = self.tokens[ordered] // self.cons[ordered]
        fires = np.minimum.reduceat(available, self.in_indptr[:-1])
        total = int(fires.sum())
        if total == 0:
            return
        if total > SelfTimedSimulation.MAX_STARTS_PER_INSTANT:
            raise ConvergenceError(
                "more than "
                f"{SelfTimedSimulation.MAX_STARTS_PER_INSTANT} firing "
                f"starts at time {Fraction(self.now, self.scale)}: a "
                "zero-execution-time cycle fires infinitely often at one "
                "instant"
            )
        if self.bindings is not None:
            # Mirror the reference engine: bindings are recorded per
            # firing, in actor order, before the token decrement.
            for index, actor in enumerate(self.actors):
                for _ in range(int(fires[index])):
                    self._record_binding(actor)
        self.tokens -= fires[self.edge_target] * self.cons
        for index in np.nonzero(fires)[0]:
            end = self.now + self.times_scaled[index]
            counts = self.pending.get(end)
            if counts is None:
                counts = np.zeros(len(self.actors), dtype=np.int64)
                self.pending[end] = counts
            counts[index] += int(fires[index])

    def _record_binding(self, actor: str) -> None:
        binding = None
        best = None
        for e in self.graph.in_edges(actor):
            fifo = self._fifos[e.name]
            for _ in range(e.consumption):
                entry = fifo.popleft()
                if entry is not None:
                    producer, ordinal, end = entry
                    rank = (end, producer, ordinal)
                    if best is None or rank > best:
                        best = rank
                        binding = (producer, ordinal, e.name)
        ordinal = self.start_counts[actor]
        self.start_counts[actor] = ordinal + 1
        self.bindings[(actor, ordinal)] = binding

    @property
    def is_deadlocked(self) -> bool:
        return not self.pending

    def step(self) -> None:
        next_time = min(self.pending)
        counts = self.pending.pop(next_time)
        self.now = next_time
        if self.bindings is not None:
            # Completion order is (end, actor name) in the reference
            # engine; only the per-actor ordinal order is observable
            # (one producer per channel), but mirror it anyway.
            for index in sorted(
                    np.nonzero(counts)[0], key=lambda i: self.actors[i]):
                actor = self.actors[index]
                for _ in range(int(counts[index])):
                    ordinal = self._completion_counts[actor]
                    self._completion_counts[actor] = ordinal + 1
                    for e in self.graph.out_edges(actor):
                        self._fifos[e.name].extend(
                            [(actor, ordinal, next_time)] * e.production
                        )
        self.tokens += self.prod * counts[self.edge_source]
        if self.tokens.size and int(self.tokens.max()) > _MAX_TOKENS:
            raise NumericalGuardError(
                f"token count exceeded {_MAX_TOKENS} at time "
                f"{Fraction(self.now, self.scale)}; int64 token state "
                "cannot guarantee exactness"
            )
        self.firings += counts
        self._start_enabled_firings()

    # -- state hashing --------------------------------------------------

    def state_key(self) -> Tuple:
        relative = tuple(sorted(
            (end - self.now, self.actors[index], int(count[index]))
            for end, count in self.pending.items()
            for index in np.nonzero(count)[0]
        ))
        return (self.tokens.tobytes(), relative)

    def snapshot(self):
        firings = {a: int(self.firings[i])
                   for i, a in enumerate(self.actors)}
        starts = dict(self.start_counts) if self.bindings is not None else None
        return (self.now, firings, starts)


def simulation_throughput_numpy(
    graph: SDFGraph, max_states: int = 200_000, deadline=None,
    witness: bool = False,
) -> SimulatedThroughput:
    """Drop-in array equivalent of :func:`simulation_throughput`.

    Same state space, recurrence point, errors and exact results as the
    reference engine (see module docstring); returns the same
    :class:`~repro.sdf.simulation.SimulatedThroughput`, including
    bindings and the start window when ``witness=True``.
    """
    progress = (
        deadline.checkpoint(
            "state-space-exploration",
            {"events": 0, "max_states": max_states, "states_seen": 1},
        )
        if deadline is not None
        else None
    )
    sim = _ArraySimulation(graph, deadline=deadline, record_bindings=witness)
    seen: Dict[Tuple, Tuple] = {sim.state_key(): sim.snapshot()}
    for event in range(max_states):
        if deadline is not None:
            progress["events"] = event
            progress["states_seen"] = len(seen)
            deadline.check()
        if sim.is_deadlocked:
            raise DeadlockError(
                f"self-timed execution of {graph.name!r} deadlocked at "
                f"time {Fraction(sim.now, sim.scale)}"
            )
        sim.step()
        key = sim.state_key()
        if key in seen:
            then, counts_then, starts_then = seen[key]
            if sim.now - then <= 0:
                raise ConvergenceError(
                    "state recurred without time progress; "
                    "zero-execution-time cycle suspected"
                )
            firings = {
                a: int(sim.firings[sim.actor_index[a]]) - counts_then[a]
                for a in graph.actor_names
            }
            return SimulatedThroughput(
                period=Fraction(sim.now - then, sim.scale),
                firings_per_period=firings,
                transient=Fraction(then, sim.scale),
                start_window=(
                    (starts_then, dict(sim.start_counts))
                    if witness else None
                ),
                bindings=sim.bindings,
            )
        seen[key] = sim.snapshot()
    raise ConvergenceError(
        f"no recurrent state within {max_states} events; state space too "
        "large or token build-up unbounded (graph not strongly connected?)"
    )
