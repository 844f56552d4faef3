"""The novel SDF-to-HSDF conversion (Section 6, Algorithm 1 and Figure 4).

The iteration matrix ``M`` from :func:`repro.core.symbolic.symbolic_iteration`
states that the next availability time of initial-token slot ``k`` is
``t'_k = max_j (t_j + g_{j,k})``.  The conversion realises exactly these
pairwise minimum-distance constraints as an HSDF graph shaped like
Figure 4 of the paper:

* one *matrix actor* per finite coefficient ``g_{j,k}``, with execution
  time ``g_{j,k}``;
* a zero-time *demultiplexer* actor per source token ``j`` that fans the
  token out to the matrix actors consuming it — elided when at most one
  matrix actor consumes it;
* a zero-time *multiplexer* actor per produced token ``k`` that
  synchronises the matrix actors contributing to ``t'_k`` — elided when
  only one contributes;
* one channel with a single initial token closing each token's loop.

The result therefore has at most ``N(N+2)`` actors, ``N(2N+1)`` edges and
``N`` initial tokens for ``N`` initial tokens in the original graph —
regardless of how large the repetition vector is.  It preserves the
iteration timing (same max-plus matrix, hence the same throughput and
latency) but not the per-firing identity of the traditional conversion.

The graph is built in one validated pass: the structure is collected as
actor and edge tuples and handed to :meth:`repro.sdf.graph.SDFGraph.from_tuples`,
so its size, not Σγ or a per-edge builder call, sets the cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.errors import ValidationError
from repro.maxplus.algebra import EPSILON
from repro.maxplus.matrix import MaxPlusMatrix
from repro.obs.provenance import current_recorder, record_step
from repro.sdf.graph import SDFGraph
from repro.core.symbolic import SymbolicIteration, TokenId, symbolic_iteration


def matrix_actor_name(j: int, k: int) -> str:
    """Matrix actor for coefficient g_{j,k} (source token j, produced token k)."""
    return f"g_{j}_{k}"


def demux_name(j: int) -> str:
    return f"dmx_{j}"


def mux_name(k: int) -> str:
    return f"mux_{k}"


@dataclass
class HsdfConversion:
    """Result of the compact conversion.

    ``graph`` is the homogeneous SDF graph; ``matrix`` the iteration
    matrix it realises; ``token_ids`` the coordinate order;
    ``token_source`` maps each token index to the actor whose completion
    produces ``t'_k`` (useful as the "output actor" hook the paper
    mentions); ``token_entry`` maps each token index to the actor that
    consumes the token's availability, when any does.  The observer
    chains (``observe=`` of :func:`convert_to_hsdf`) account for
    ``observer_actors`` actors and ``observer_edges`` edges of ``graph``;
    the rest is the base Figure-4 structure.
    """

    graph: SDFGraph
    matrix: MaxPlusMatrix
    token_ids: Tuple[TokenId, ...]
    token_source: Dict[int, str]
    token_entry: Dict[int, str]
    matrix_actors: int = 0
    mux_actors: int = 0
    demux_actors: int = 0
    observer_actors: int = 0
    observer_edges: int = 0
    #: Observed firing label ("actor#i") -> observer sync actor name.
    observers: Dict[str, str] = field(default_factory=dict)

    @property
    def actor_count(self) -> int:
        return self.graph.actor_count()

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count()

    @property
    def token_count(self) -> int:
        return self.graph.total_tokens()

    def within_paper_bounds(self) -> bool:
        """Check the size bounds of Section 6 on the base structure:
        N(N+2) actors, N(2N+1) edges, N initial tokens.  Observer chains
        are extra and carry no tokens, so they are not counted."""
        n = len(self.token_ids)
        return (
            self.actor_count - self.observer_actors <= n * (n + 2)
            and self.edge_count - self.observer_edges <= n * (2 * n + 1)
            and self.token_count <= n
        )


def sdf_to_maxplus_matrix(
    graph: SDFGraph, schedule: Optional[List[str]] = None
) -> SymbolicIteration:
    """The max-plus iteration matrix of a consistent, live SDF graph.

    Convenience wrapper around :func:`repro.core.symbolic.symbolic_iteration`
    (the paper derives Algorithm 1 from exactly this matrix computation,
    references [7, 8]).
    """
    return symbolic_iteration(graph, schedule)


def convert_to_hsdf(
    graph: SDFGraph,
    schedule: Optional[List[str]] = None,
    elide_multiplexers: bool = True,
    iteration: Optional[SymbolicIteration] = None,
    observe: Optional[List[Tuple[str, int]]] = None,
) -> HsdfConversion:
    """Convert an SDF graph to a compact equivalent HSDF graph (Algorithm 1).

    ``elide_multiplexers=False`` keeps every multiplexer/demultiplexer
    actor even when a token has a single producer or consumer — the
    un-optimised Figure-4 structure, kept for the ablation benchmarks.

    ``observe`` lists firings of particular interest — e.g. a dedicated
    output actor — as ``(actor, firing_index)`` pairs; the paper notes
    that including such firings "is straightforward", and this does it:
    each observed firing becomes a zero-time observer actor whose
    completion in the compact graph happens exactly when the original
    firing completes (one coefficient actor per token it depends on).
    Observers add actors beyond the N(N+2) bound, which only covers the
    base structure.

    The input must be consistent, deadlock-free and token-bound (every
    actor transitively depends on an initial token); these are the same
    preconditions the paper's symbolic execution needs.
    """
    if iteration is None:
        iteration = symbolic_iteration(graph, schedule)
    observers = None
    if observe:
        observers = {}
        for actor, index in observe:
            key = (actor, index)
            if key not in iteration.firing_completions:
                raise ValidationError(
                    f"no firing {index} of actor {actor!r} in one iteration"
                )
            observers[f"{actor}#{index}"] = iteration.firing_completions[key]
    conversion = realise_iteration_matrix(
        iteration.matrix,
        iteration.token_ids,
        name=f"{graph.name}-compact-hsdf",
        elide_multiplexers=elide_multiplexers,
        observers=observers,
    )
    if current_recorder() is not None:
        from repro.sdf.repetition import repetition_vector

        record_step(
            "compact-hsdf-conversion",
            before=graph,
            after=conversion.graph,
            tokens=len(iteration.token_ids),
            multiplexers_elided=elide_multiplexers,
            traditional_actors=sum(repetition_vector(graph).values()),
        )
    return conversion


# devlint: ignore[provenance-hygiene] a reusable construction, not an entry point: its callers (convert_to_hsdf, the CSDF and mapping wrappers) record the step with the source model they know
def realise_iteration_matrix(
    matrix: MaxPlusMatrix,
    token_ids,
    name: str = "compact-hsdf",
    elide_multiplexers: bool = True,
    observers: Optional[Dict[str, object]] = None,
) -> HsdfConversion:
    """Realise a max-plus iteration matrix as the Figure-4 HSDF structure.

    This is the second half of Algorithm 1, factored out so that *any*
    model whose iteration admits a max-plus matrix — plain SDF, the
    cyclo-static extension in :mod:`repro.csdf`, a mapped multiprocessor
    graph — reuses the identical construction and size bounds.

    The structure is collected as actor and edge tuples and built by one
    :meth:`SDFGraph.from_tuples` call, which validates every execution
    time once: a negative or non-rational coefficient raises the same
    :class:`ValidationError` the incremental builders would.
    """
    n = len(token_ids)
    if matrix.nrows != n or matrix.ncols != n:
        raise ValidationError(
            f"matrix is {matrix.nrows}x{matrix.ncols} but there are {n} tokens"
        )
    if n == 0:
        raise ValidationError(
            "graph has no initial tokens; the compact conversion is undefined "
            "(and the graph cannot be live unless it is empty)"
        )

    # Finite coefficients g_{j,k}: matrix rows are produced tokens k,
    # columns are source tokens j.
    entries: Dict[Tuple[int, int], object] = {}
    for k in range(n):
        row = matrix.rows[k]
        for j in range(n):
            if row[j] != EPSILON:
                entries[(j, k)] = row[j]

    consumers: Dict[int, List[int]] = {j: [] for j in range(n)}  # j -> [k]
    producers: Dict[int, List[int]] = {k: [] for k in range(n)}  # k -> [j]
    for (j, k) in entries:
        consumers[j].append(k)
        producers[k].append(j)
    for k, js in producers.items():
        if not js:
            raise ValidationError(
                f"token {token_ids[k]} is produced without any "
                "dependency; the graph is not token-bound"
            )

    # Actor (name, time) and edge (name, source, target, p, c, tokens)
    # tuples; wiring edges are named e0, e1, ... as add_edge numbers them.
    coefficients = [
        (j, k, matrix_actor_name(j, k), value)
        for (j, k), value in sorted(entries.items())
    ]
    actors: List[Tuple[str, object]] = [
        (actor, _as_time(value)) for _, _, actor, value in coefficients
    ]
    edges: List[Tuple[str, str, str, int, int, int]] = []

    def connect(source: str, target: str) -> None:
        edges.append((f"e{len(edges)}", source, target, 1, 1, 0))

    # Tokens tapped by observers need their demultiplexer even if the
    # base structure would elide it (the tap is an extra consumer).
    tapped = set()
    for stamp in (observers or {}).values():
        for j in range(n):
            if stamp[j] != EPSILON:
                tapped.add(j)

    # Per token, its demultiplexer / multiplexer name, or None if elided.
    demux = [
        demux_name(j)
        if (not elide_multiplexers and consumers[j])
        or len(consumers[j]) > 1
        or j in tapped
        else None
        for j in range(n)
    ]
    mux = [
        mux_name(k) if not elide_multiplexers or len(producers[k]) > 1 else None
        for k in range(n)
    ]
    actors += [(actor, 0) for actor in demux if actor is not None]
    actors += [(actor, 0) for actor in mux if actor is not None]

    # Wire demultiplexers to matrix actors and matrix actors to multiplexers.
    for j, k, actor, _ in coefficients:
        if demux[j] is not None:
            connect(demux[j], actor)
        if mux[k] is not None:
            connect(actor, mux[k])

    # The actor whose completion time is t'_k.
    token_source: Dict[int, str] = {}
    for k in range(n):
        if mux[k] is not None:
            token_source[k] = mux[k]
        else:
            (j,) = producers[k]
            token_source[k] = matrix_actor_name(j, k)

    # The actor that consumes the availability of old token j, if any.
    token_entry: Dict[int, str] = {}
    for j in range(n):
        if demux[j] is not None:
            token_entry[j] = demux[j]
        elif len(consumers[j]) == 1:
            (k,) = consumers[j]
            token_entry[j] = matrix_actor_name(j, k)
        # else: token j feeds nothing (its consumer was a sink); no entry.

    # Observer chains: demux -> coefficient actor (time w_j) -> sync.
    base_actors, base_edges = len(actors), len(edges)
    synced: Dict[str, str] = {}
    for label, stamp in (observers or {}).items():
        sync = f"obs_{label}"
        actors.append((sync, 0))
        synced[label] = sync
        for j in range(n):
            if stamp[j] == EPSILON:
                continue
            coefficient = f"obsg_{label}_{j}"
            actors.append((coefficient, _as_time(stamp[j])))
            connect(demux[j], coefficient)
            connect(coefficient, sync)
    observer_edges = len(edges) - base_edges
    counter = len(edges)

    # Close each token loop: the produced value of token k feeds its own
    # consumption in the next iteration, carrying the single initial token.
    edges += [
        (f"token_{k}", token_source[k], token_entry[k], 1, 1, 1)
        for k in range(n)
        if k in token_entry
    ]

    return HsdfConversion(
        graph=SDFGraph.from_tuples(name, actors, edges, counter),
        matrix=matrix,
        token_ids=tuple(token_ids),
        token_source=token_source,
        token_entry=token_entry,
        matrix_actors=len(entries),
        mux_actors=n - mux.count(None),
        demux_actors=n - demux.count(None),
        observer_actors=len(actors) - base_actors,
        observer_edges=observer_edges,
        observers=synced,
    )


def _as_time(value):
    """Matrix coefficients become execution times; keep ints exact."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value
