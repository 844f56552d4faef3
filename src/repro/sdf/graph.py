"""The timed SDF graph data structure (Definitions 1 and 2 of the paper).

An SDF graph is a set of *actors* connected by *dependency edges*; an edge
``(a, b, p, c, d)`` means each firing of ``a`` produces ``p`` tokens for
``b``, each firing of ``b`` consumes ``c`` tokens, and ``d`` tokens are
present initially.  Channels are unbounded FIFOs.  A *timed* SDF graph
additionally assigns every actor an execution time.

The structure is a directed **multigraph**: parallel edges between the
same actor pair are permitted and meaningful (the paper's abstraction
creates them, and :func:`repro.core.pruning.prune_redundant_edges`
removes the redundant ones).

Graphs are built either incrementally (:meth:`SDFGraph.add_actor`,
:meth:`SDFGraph.add_edge`) or whole (:meth:`SDFGraph.from_tuples`, which
validates every field once and is what copies, unpickling and the HSDF
conversions use).  Both paths run the same field checks and raise the
same errors.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Rational
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ValidationError

#: Version tag baked into every fingerprint so that a change to the
#: canonical form can never collide with hashes from older releases.
_FINGERPRINT_VERSION = "sdfg-v1"


def _check_actor(name, execution_time) -> None:
    """The field checks of an :class:`Actor`."""
    if name and type(execution_time) in (int, Fraction) and execution_time >= 0:
        return  # the common case, decided without the ABC check
    if not name:
        raise ValidationError("actor name must be a non-empty string")
    if isinstance(execution_time, bool) or not isinstance(execution_time, Rational):
        raise ValidationError(
            "execution time must be a non-negative int or Fraction, "
            f"got {execution_time!r}"
        )
    if execution_time < 0:
        raise ValidationError(
            f"execution time must be non-negative, got {execution_time!r}"
        )


def _check_edge(name, production, consumption, tokens) -> None:
    """The field checks of an :class:`Edge`."""
    if (name and type(production) is int and type(consumption) is int
            and type(tokens) is int and production >= 1 and consumption >= 1
            and tokens >= 0):
        return  # the common case, decided in one test
    if not name:
        raise ValidationError("edge name must be a non-empty string")
    for label, value in (("production", production), ("consumption", consumption)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValidationError(f"{label} rate must be a positive int, got {value!r}")
    if not isinstance(tokens, int) or isinstance(tokens, bool) or tokens < 0:
        raise ValidationError(
            f"initial token count must be a non-negative int, got {tokens!r}"
        )


@dataclass(frozen=True)
class Actor:
    """An SDF actor: a named process with a worst-case execution time."""

    name: str
    execution_time: Rational = 0

    def __post_init__(self):
        _check_actor(self.name, self.execution_time)


@dataclass(frozen=True)
class Edge:
    """A dependency edge ``(source, target, production, consumption, tokens)``.

    ``tokens`` is the number of initial tokens (the *delay* ``d`` of
    Definition 1).  Edges have a unique ``name`` within their graph so
    that parallel edges stay distinguishable.
    """

    name: str
    source: str
    target: str
    production: int = 1
    consumption: int = 1
    tokens: int = 0

    def __post_init__(self):
        _check_edge(self.name, self.production, self.consumption, self.tokens)

    @property
    def is_self_loop(self) -> bool:
        return self.source == self.target

    @property
    def is_homogeneous(self) -> bool:
        return self.production == 1 and self.consumption == 1


class SDFGraph:
    """A mutable timed SDF multigraph with a builder-style API.

    >>> g = SDFGraph("two-actor")
    >>> _ = g.add_actor("A", execution_time=3)
    >>> _ = g.add_actor("B", execution_time=1)
    >>> _ = g.add_edge("A", "B", production=1, consumption=2, tokens=2)
    >>> _ = g.add_edge("B", "A", production=2, consumption=1, tokens=2)
    >>> g.actor_count(), g.edge_count(), g.total_tokens()
    (2, 2, 4)
    """

    def __init__(self, name: str = "sdf"):
        self.name = name
        self._actors: Dict[str, Actor] = {}
        self._edges: Dict[str, Edge] = {}
        self._out: Dict[str, List[str]] = {}
        self._in: Dict[str, List[str]] = {}
        self._edge_counter = 0
        self._fingerprint: Optional[str] = None

    def _invalidate_fingerprint(self) -> None:
        self._fingerprint = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_tuples(
        cls,
        name: str,
        actors: Iterable[Tuple[str, Rational]],
        edges: Iterable[Tuple[str, str, str, int, int, int]],
        edge_counter: int = 0,
    ) -> "SDFGraph":
        """A whole graph from actor ``(name, execution_time)`` and edge
        ``(name, source, target, production, consumption, tokens)``
        tuples, in insertion order.

        The result equals replaying :meth:`add_actor` for every actor and
        then :meth:`add_edge` (with the given edge name) for every edge:
        the same records, adjacency order and, on bad input, the same
        first error.  Each field is checked exactly once, without the
        per-call record construction checks, endpoint lookups and
        fingerprint invalidation of the incremental builders.
        ``edge_counter`` seeds the ``e<i>`` auto-naming of later
        :meth:`add_edge` calls; a builder that names its edges ``e0``,
        ``e1``, ... passes their count to match an incremental build.

        >>> g = SDFGraph.from_tuples(
        ...     "two-actor", [("A", 3), ("B", 1)],
        ...     [("e0", "A", "B", 1, 2, 2), ("e1", "B", "A", 2, 1, 2)], 2)
        >>> g.actor_count(), g.edge_count(), g.total_tokens()
        (2, 2, 4)
        >>> g.add_edge("A", "A").name
        'e2'
        """
        graph = cls(name)
        table, out, into, edge_table = graph._actors, graph._out, graph._in, graph._edges
        # The records' fields are checked here, so they are made without
        # __init__ (and its __post_init__ re-check): frozen dataclasses
        # keep their fields in the instance __dict__.
        new = object.__new__
        for actor, execution_time in actors:
            if actor in table:
                raise _duplicate("actor", actor)
            _check_actor(actor, execution_time)
            record = new(Actor)
            record.__dict__.update(name=actor, execution_time=execution_time)
            table[actor] = record
            out[actor] = []
            into[actor] = []
        for edge, source, target, production, consumption, tokens in edges:
            if source not in table or target not in table:
                graph._require_actor(source)
                graph._require_actor(target)
            if edge in edge_table:
                raise _duplicate("edge", edge)
            _check_edge(edge, production, consumption, tokens)
            record = new(Edge)
            record.__dict__.update(
                name=edge, source=source, target=target,
                production=production, consumption=consumption, tokens=tokens,
            )
            edge_table[edge] = record
            out[source].append(edge)
            into[target].append(edge)
        graph._edge_counter = edge_counter
        return graph

    def add_actor(self, name: str, execution_time: Rational = 0) -> Actor:
        """Add an actor; raises if the name is already taken."""
        if name in self._actors:
            raise _duplicate("actor", name)
        actor = Actor(name, execution_time)
        self._actors[name] = actor
        self._out[name] = []
        self._in[name] = []
        self._invalidate_fingerprint()
        return actor

    def add_actors(self, *names: str, execution_time: Rational = 0) -> None:
        """Add several actors sharing one execution time."""
        for name in names:
            self.add_actor(name, execution_time)

    def set_execution_time(self, actor: str, execution_time: Rational) -> None:
        self._require_actor(actor)
        self._actors[actor] = replace(self._actors[actor], execution_time=execution_time)
        self._invalidate_fingerprint()

    def add_edge(
        self,
        source: str,
        target: str,
        production: int = 1,
        consumption: int = 1,
        tokens: int = 0,
        name: Optional[str] = None,
    ) -> Edge:
        """Add a dependency edge; endpoints must exist already."""
        self._require_actor(source)
        self._require_actor(target)
        if name is None:
            while True:
                name = f"e{self._edge_counter}"
                self._edge_counter += 1
                if name not in self._edges:
                    break
        elif name in self._edges:
            raise _duplicate("edge", name)
        edge = Edge(name, source, target, production, consumption, tokens)
        self._edges[name] = edge
        self._out[source].append(name)
        self._in[target].append(name)
        self._invalidate_fingerprint()
        return edge

    def remove_edge(self, name: str) -> Edge:
        if name not in self._edges:
            raise ValidationError(f"no edge named {name!r}")
        edge = self._edges.pop(name)
        self._out[edge.source].remove(name)
        self._in[edge.target].remove(name)
        self._invalidate_fingerprint()
        return edge

    def set_tokens(self, edge_name: str, tokens: int) -> Edge:
        """Replace the initial-token count of an edge."""
        old = self._edges.get(edge_name)
        if old is None:
            raise ValidationError(f"no edge named {edge_name!r}")
        new = replace(old, tokens=tokens)
        self._edges[edge_name] = new
        self._invalidate_fingerprint()
        return new

    def set_rates(self, edge_name: str, production: int, consumption: int) -> Edge:
        """Replace the production/consumption rates of an edge."""
        old = self._edges.get(edge_name)
        if old is None:
            raise ValidationError(f"no edge named {edge_name!r}")
        new = replace(old, production=production, consumption=consumption)
        self._edges[edge_name] = new
        self._invalidate_fingerprint()
        return new

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def _require_actor(self, name: str) -> None:
        if name not in self._actors:
            raise ValidationError(f"unknown actor {name!r}")

    @property
    def actors(self) -> List[Actor]:
        return list(self._actors.values())

    @property
    def actor_names(self) -> List[str]:
        return list(self._actors)

    @property
    def edges(self) -> List[Edge]:
        return list(self._edges.values())

    def actor(self, name: str) -> Actor:
        self._require_actor(name)
        return self._actors[name]

    def edge(self, name: str) -> Edge:
        if name not in self._edges:
            raise ValidationError(f"no edge named {name!r}")
        return self._edges[name]

    def has_actor(self, name: str) -> bool:
        return name in self._actors

    def execution_time(self, actor: str) -> Rational:
        return self.actor(actor).execution_time

    @property
    def execution_times(self) -> Dict[str, Rational]:
        """The timing function T of Definition 2, as a dict view."""
        return {name: a.execution_time for name, a in self._actors.items()}

    def out_edges(self, actor: str) -> List[Edge]:
        self._require_actor(actor)
        return [self._edges[e] for e in self._out[actor]]

    def in_edges(self, actor: str) -> List[Edge]:
        self._require_actor(actor)
        return [self._edges[e] for e in self._in[actor]]

    def actor_count(self) -> int:
        return len(self._actors)

    def edge_count(self) -> int:
        return len(self._edges)

    def total_tokens(self) -> int:
        """Total number of initial tokens (N of Section 6 of the paper)."""
        return sum(e.tokens for e in self._edges.values())

    def is_homogeneous(self) -> bool:
        """True iff all rates are 1 (the graph is an HSDF graph)."""
        return all(e.is_homogeneous for e in self._edges.values())

    def has_self_loop(self, actor: str) -> bool:
        return any(e.target == actor for e in self.out_edges(actor))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def undirected_components(self) -> List[List[str]]:
        """Weakly connected components, as lists of actor names."""
        seen: set = set()
        components: List[List[str]] = []
        for start in self._actors:
            if start in seen:
                continue
            stack = [start]
            seen.add(start)
            component = []
            while stack:
                node = stack.pop()
                component.append(node)
                neighbours = [self._edges[e].target for e in self._out[node]]
                neighbours += [self._edges[e].source for e in self._in[node]]
                for other in neighbours:
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
            components.append(component)
        return components

    def is_connected(self) -> bool:
        return len(self.undirected_components()) <= 1

    def strongly_connected_components(self) -> List[List[str]]:
        """Tarjan's algorithm on the actor graph (edge multiplicity ignored)."""
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: set = set()
        stack: List[str] = []
        components: List[List[str]] = []
        counter = 0
        for root in self._actors:
            if root in index:
                continue
            work = [(root, iter(self._out[root]))]
            index[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for edge_name in successors:
                    child = self._edges[edge_name].target
                    if child not in index:
                        index[child] = lowlink[child] = counter
                        counter += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(self._out[child])))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.remove(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
        return components

    def is_strongly_connected(self) -> bool:
        return len(self.strongly_connected_components()) <= 1

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "SDFGraph":
        return SDFGraph.from_tuples(
            name or self.name, *self._tuples(), self._edge_counter)

    def _tuples(self):
        """The actor and edge tuples :meth:`from_tuples` takes."""
        return (
            tuple((a.name, a.execution_time) for a in self._actors.values()),
            tuple((e.name, e.source, e.target, e.production, e.consumption,
                   e.tokens) for e in self._edges.values()),
        )

    def with_self_loops(self, tokens: int = 1) -> "SDFGraph":
        """A copy where every actor without a self-edge gets one.

        A self-edge with one initial token is the standard SDF idiom for
        excluding auto-concurrency (an actor cannot overlap with itself);
        it also makes every actor token-bound so that throughput is
        well defined.  For multirate actors the self-edge rates are 1/1,
        which admits exactly one concurrent firing.
        """
        clone = self.copy()
        for actor in self.actor_names:
            if not clone.has_self_loop(actor):
                clone.add_edge(actor, actor, 1, 1, tokens, name=f"self_{actor}")
        return clone

    def structurally_equal(self, other: "SDFGraph") -> bool:
        """Equality of actors, execution times and edge multisets
        (edge names and insertion order are ignored)."""
        if set(self._actors) != set(other._actors):
            return False
        for name, actor in self._actors.items():
            if actor.execution_time != other._actors[name].execution_time:
                return False
        mine = sorted(
            (e.source, e.target, e.production, e.consumption, e.tokens)
            for e in self._edges.values()
        )
        theirs = sorted(
            (e.source, e.target, e.production, e.consumption, e.tokens)
            for e in other._edges.values()
        )
        return mine == theirs

    def fingerprint(self) -> str:
        """A canonical content hash of the graph (see `analysis/cache`).

        The fingerprint covers actors (names, execution times) and edges
        (names, endpoints, rates, initial tokens) in a *sorted* canonical
        order, so it is invariant under actor/edge insertion order; it
        deliberately excludes the graph's display ``name`` so renamed
        copies share cached analyses.  Every builder mutator
        (:meth:`add_actor`, :meth:`add_edge`, :meth:`remove_edge`,
        :meth:`set_execution_time`, :meth:`set_tokens`,
        :meth:`set_rates`) invalidates the memoized value, so repeated
        calls between mutations are O(1).
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(_FINGERPRINT_VERSION.encode())
            for name in sorted(self._actors):
                time = self._actors[name].execution_time
                digest.update(f"|A{name}\x1f{time!s}".encode())
            for key in sorted(
                (e.name, e.source, e.target, e.production, e.consumption, e.tokens)
                for e in self._edges.values()
            ):
                digest.update(("|E" + "\x1f".join(str(part) for part in key)).encode())
            self._fingerprint = f"{_FINGERPRINT_VERSION}:{digest.hexdigest()}"
        return self._fingerprint

    def __reduce__(self):
        """Pickle as compact actor ``(name, time)`` and edge ``(name,
        source, target, p, c, tokens)`` tuples plus the edge counter and
        the memoised fingerprint; :func:`_rebuild` hands them to the
        validating :meth:`from_tuples`.  There is deliberately no
        ``__setstate__``: a pickle of the former ``__dict__`` layout
        still loads."""
        return _rebuild, (
            self.name, *self._tuples(), self._edge_counter, self._fingerprint
        )

    def stats(self) -> Dict[str, int]:
        return {
            "actors": self.actor_count(),
            "edges": self.edge_count(),
            "tokens": self.total_tokens(),
        }

    def __repr__(self) -> str:
        return (
            f"SDFGraph({self.name!r}, actors={self.actor_count()}, "
            f"edges={self.edge_count()}, tokens={self.total_tokens()})"
        )


def _rebuild(name, actors, edges, edge_counter, fingerprint) -> SDFGraph:
    """Unpickle an :class:`SDFGraph` from :meth:`SDFGraph.__reduce__`."""
    graph = SDFGraph.from_tuples(name, actors, edges, edge_counter)
    graph._fingerprint = fingerprint
    return graph


def _duplicate(kind: str, name) -> ValidationError:
    return ValidationError(f"duplicate {kind} name {name!r}")
