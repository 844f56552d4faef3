"""Symbolic execution of one SDF iteration over max-plus time stamps.

This is the engine behind Algorithm 1 of the paper (Section 6).  Every
initial token ``t_k`` starts with the symbolic stamp ``ī_k`` (the k-th
max-plus unit vector).  Executing a sequential schedule propagates stamps:
a firing that consumes stamps ``ḡ_1 … ḡ_n`` starts at their pointwise
maximum and finishes (and stamps all produced tokens) ``T(a)`` later.
After one full iteration the channels hold their initial token counts
again and the final stamp of slot ``k`` is a vector ``[g_{j,k}]_j`` with

    t'_k = max_j ( t_j + g_{j,k} ),

i.e. one row of the max-plus *iteration matrix* M with ``M[k][j] = g_{j,k}``
(so new stamps are ``M ⊗ old``).  The matrix drives both the compact
HSDF construction (:mod:`repro.core.hsdf_conversion`) and exact
throughput/latency analysis (:mod:`repro.analysis`).

The schedule is walked as maximal runs ``(actor, k)``
(:func:`repro.sdf.schedule.block_schedule`).  Two engines execute it and
return the same stamps: the exact walk below, one firing at a time over
tuples of ints/Fractions, and the block engine of
:mod:`repro.kernels.symbolic`, one array step per run.

Figure 3 of the paper is reproduced verbatim in the test suite: the
two-firing walk of the left actor produces the stamps
``max(t1+3, t2+3)`` and ``max(t1+6, t2+6, t3+3)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import UnboundedThroughputError, ValidationError
from repro.kernels.backend import NumericalGuardError, resolve_kernel
from repro.maxplus.algebra import EPSILON
from repro.maxplus.matrix import MaxPlusMatrix, MaxPlusVector
from repro.obs.provenance import record_step
from repro.sdf.graph import SDFGraph
from repro.sdf.schedule import block_schedule


@dataclass(frozen=True)
class TokenId:
    """Identity of an initial token: its channel and FIFO position."""

    edge: str
    position: int

    def __str__(self) -> str:
        return f"{self.edge}[{self.position}]"


class SymbolicIteration:
    """Outcome of symbolically executing one iteration.

    ``matrix`` maps old initial-token stamps to new ones (``new = M ⊗ old``);
    ``token_ids`` fixes the coordinate order; ``runs`` is the executed
    schedule as maximal runs ``(actor, k)``.  ``schedule`` (one actor
    name per firing), ``firing_starts`` and ``firing_completions`` (the
    symbolic start and completion stamp of each firing ``(actor, i)``)
    are built on first access from the per-run start stamps: throughput
    only needs the matrix.

    The block engine hands its output over undecoded: ``scaled_matrix``
    is the matrix as ``(array, scale)`` — integers in a float64 array,
    ε as ``-inf``, ``M = array / scale`` — which the eigenvalue kernel
    takes as it is, and ``matrix`` is decoded from it on first access.
    ``scaled_matrix`` is ``None`` after the exact walk and in unpickled
    copies, which carry plain entry tuples.
    """

    scaled_matrix = None

    def __init__(self, matrix, token_ids: Tuple[TokenId, ...],
                 runs: Sequence[Tuple[str, int]], starts: list,
                 times: Dict[str, object], decode=None):
        # ``decode`` (the block engine's decoder) marks ``matrix`` and
        # ``starts`` as engine output: a scaled pair and per-run blocks.
        if decode is None:
            self.matrix = matrix
        else:
            self.scaled_matrix = matrix
            self._decode = decode
        self.token_ids = token_ids
        self.runs = tuple(runs)
        #: Per run, its ``k`` start stamps, paired with the decoder that
        #: turns an engine block into entry tuples (``None``: already
        #: tuples).  One attribute, so a concurrent reader sees either
        #: pair whole.
        self._starts = (starts, decode)
        self._times = times

    @cached_property
    def matrix(self) -> MaxPlusMatrix:
        return MaxPlusMatrix._trusted(
            self._decode(self.scaled_matrix[0]), self.token_count)

    def _start_rows(self) -> list:
        starts, decode = self._starts
        if decode is not None:
            starts = [decode(block) for block in starts]
            self._starts = (starts, None)
        return starts

    def __getstate__(self):
        # Plain entry tuples only (no engine arrays), keyed in the order
        # an exact-walk iteration's attributes take, so both engines
        # pickle to the same bytes; the derived maps are rebuilt on
        # demand after loading.
        self._start_rows()
        return {"matrix": self.matrix, "token_ids": self.token_ids,
                "runs": self.runs, "_starts": self._starts,
                "_times": self._times}

    def __setstate__(self, state) -> None:
        if not {"runs", "_starts", "_times"} <= state.keys():
            # A pickle of the earlier per-firing layout: refuse it, so a
            # result store quarantines the record and recomputes.
            raise TypeError(
                "SymbolicIteration pickle has no per-run start stamps")
        self.__dict__.update(state)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymbolicIteration):
            return NotImplemented
        return (
            self.matrix == other.matrix
            and self.token_ids == other.token_ids
            and self.runs == other.runs
            and self._start_rows() == other._start_rows()
            and self._times == other._times
        )

    __hash__ = None

    def __repr__(self) -> str:
        firings = sum(count for _, count in self.runs)
        return (
            f"SymbolicIteration({self.token_count} tokens, {firings} "
            f"firings in {len(self.runs)} runs)"
        )

    @cached_property
    def schedule(self) -> List[str]:
        return [actor for actor, count in self.runs for _ in range(count)]

    @cached_property
    def firing_starts(self) -> Dict[Tuple[str, int], MaxPlusVector]:
        starts: Dict[Tuple[str, int], MaxPlusVector] = {}
        counts: Dict[str, int] = {}
        for (actor, _), rows in zip(self.runs, self._start_rows()):
            first = counts.get(actor, 0)
            for offset, row in enumerate(rows):
                starts[(actor, first + offset)] = MaxPlusVector._trusted(row)
            counts[actor] = first + len(rows)
        return starts

    @cached_property
    def firing_completions(self) -> Dict[Tuple[str, int], MaxPlusVector]:
        times = self._times
        return {
            key: MaxPlusVector._trusted(
                tuple([x + times[key[0]] for x in start.entries]))
            for key, start in self.firing_starts.items()
        }

    @property
    def token_count(self) -> int:
        return len(self.token_ids)

    def token_index(self, token: TokenId) -> int:
        return self.token_ids.index(token)


def initial_token_ids(graph: SDFGraph) -> Tuple[TokenId, ...]:
    """Enumerate the initial tokens of ``graph`` in canonical order
    (edge insertion order, FIFO position within each channel)."""
    ids: List[TokenId] = []
    for edge in graph.edges:
        for position in range(edge.tokens):
            ids.append(TokenId(edge.name, position))
    return tuple(ids)


def not_admissible(actor: str, consumption: int, edge: str,
                   found: int) -> ValidationError:
    """The error for a firing that finds too few tokens on ``edge``."""
    return ValidationError(
        f"schedule is not admissible: firing {actor!r} needs "
        f"{consumption} tokens on {edge!r}, found {found}"
    )


def check_whole_iteration(graph: SDFGraph, lengths: Dict[str, int]) -> None:
    """Raise unless every channel ended with its initial token count."""
    for edge in graph.edges:
        if lengths[edge.name] != edge.tokens:
            raise ValidationError(
                f"schedule was not a whole iteration: channel {edge.name!r} "
                f"ended with {lengths[edge.name]} tokens, expected {edge.tokens}"
            )


def symbolic_iteration(
    graph: SDFGraph,
    schedule: Optional[List[str]] = None,
    deadline=None,
    repetitions: Optional[Dict[str, int]] = None,
    kernel: str = "auto",
) -> SymbolicIteration:
    """Execute one iteration of ``graph`` symbolically (Algorithm 1, lines 2-11).

    ``schedule`` defaults to the run schedule
    :func:`repro.sdf.schedule.block_schedule` (over ``repetitions``,
    which defaults to the repetition vector; callers that hold γ pass
    it); any admissible schedule yields the same matrix (token FIFO
    positions pin every dependency).  Raises

    * :class:`DeadlockError` (via scheduling) when no iteration completes,
    * :class:`UnboundedThroughputError` when an actor has no incoming
      edges (its firing times would be unconstrained),
    * :class:`ValidationError` for an inadmissible or partial ``schedule``.

    ``kernel`` selects the engine: ``"exact"`` walks one firing at a
    time, ``"numpy"`` runs the block engine of
    :mod:`repro.kernels.symbolic` (one array step per run; raises
    :class:`~repro.kernels.NumericalGuardError` when float64 cannot be
    proven exact for this input) and ``"auto"`` (default) uses the
    block engine when numpy imports and its exactness bound holds, the
    exact walk otherwise.  Both return equal stamps.

    One iteration is Σγ(a) firings; ``deadline`` (a
    :class:`repro.analysis.deadline.Deadline`) is polled once per firing
    by the exact walk and once per run by the block engine, and
    :class:`repro.errors.AnalysisTimeout` reports the firing reached.
    """
    for actor in graph.actor_names:
        if not graph.in_edges(actor):
            raise UnboundedThroughputError(
                f"actor {actor!r} has no incoming edges; its firings are "
                "unconstrained within an iteration. Add a self-edge with one "
                "initial token (see SDFGraph.with_self_loops) to make the "
                "graph token-bound",
                actor=actor,
            )
    if schedule is None:
        runs = block_schedule(graph, repetitions)
    else:
        runs = [(actor, len(list(group))) for actor, group in groupby(schedule)]
        for actor, _ in runs:
            graph.in_edges(actor)  # unknown actors raise here
    token_ids = initial_token_ids(graph)
    total = sum(count for _, count in runs)

    backend = resolve_kernel(kernel)
    decode = None
    if backend == "numpy":
        from repro.kernels.symbolic import block_walk

        try:
            matrix, starts, decode = block_walk(
                graph, runs, len(token_ids), deadline=deadline)
        except NumericalGuardError:
            if kernel == "numpy":
                raise
            backend = "exact"
    if backend == "exact":
        rows, starts = _exact_walk(graph, runs, token_ids, total, deadline)
        matrix = MaxPlusMatrix._trusted(rows, len(token_ids))

    record_step(
        "symbolic-conversion",
        before=graph,
        matrix_size=len(token_ids),
        firings=total,
    )
    return SymbolicIteration(
        matrix=matrix,
        token_ids=token_ids,
        runs=runs,
        starts=starts,
        times=graph.execution_times,
        decode=decode,
    )


def _exact_walk(graph: SDFGraph, runs, token_ids, total: int, deadline=None):
    """The reference engine: one firing at a time over entry tuples.

    Per-actor channels, rates and execution times are resolved once.
    ``tuple(map(max, ...))`` and ``x + T`` give exactly what
    :func:`~repro.maxplus.algebra.mp_max`/``mp_plus`` give (ε included),
    and the graph validated every input scalar, so stamps skip the
    per-entry checks of the public :class:`MaxPlusVector` constructor.
    Returns the matrix rows and, per run, its start stamps.
    """
    size = len(token_ids)
    channels: Dict[str, deque] = {e.name: deque() for e in graph.edges}
    for index, token in enumerate(token_ids):
        channels[token.edge].append(
            tuple(0 if i == index else EPSILON for i in range(size)))
    inputs = {
        a: [(channels[e.name], e.consumption, e.name) for e in graph.in_edges(a)]
        for a in graph.actor_names
    }
    outputs = {
        a: [(channels[e.name], e.production) for e in graph.out_edges(a)]
        for a in graph.actor_names
    }
    times = graph.execution_times

    starts: List[List[tuple]] = []
    progress = (
        deadline.checkpoint(
            "symbolic-iteration", {"firing": 0, "firings_total": total}
        )
        if deadline is not None
        else None
    )
    fired = 0
    for actor, count in runs:
        ins, outs, time = inputs[actor], outputs[actor], times[actor]
        block: List[tuple] = []
        for _ in range(count):
            if deadline is not None:
                progress["firing"] = fired
                deadline.check()
            consumed: List[tuple] = []
            for channel, consumption, name in ins:
                if len(channel) < consumption:
                    raise not_admissible(actor, consumption, name, len(channel))
                for _ in range(consumption):
                    consumed.append(channel.popleft())
            start = consumed[0] if len(consumed) == 1 else tuple(map(max, *consumed))
            finish = tuple([x + time for x in start])
            for channel, production in outs:
                channel.extend([finish] * production)
            block.append(start)
            fired += 1
        starts.append(block)

    check_whole_iteration(
        graph, {name: len(channel) for name, channel in channels.items()})
    rows = [row for e in graph.edges for row in channels[e.name]]
    return rows, starts
