"""The abstraction transformation (Definitions 3 and 4 of the paper).

An *abstraction* groups actors of equal repetition-vector entry into a
single abstract actor and assigns every original actor an index: the
phase at which the abstract actor's firing represents it.  The abstract
graph is dramatically smaller, and its throughput — divided by the phase
count N — is a guaranteed *conservative* bound on the original graph's
throughput (Theorem 1; see :mod:`repro.core.conservativity` for the
executable proof steps).

Construction (Definition 4), for abstraction (α, I) with N = max I + 1:

* actors: the abstract names, with execution time
  ``T'(b) = max { T(a) | α(a) = b }`` — the slowest firing represented;
* edges: each original ``(a, b, p, c, d)`` becomes
  ``(α(a), α(b), p, c, I(b) − I(a) + N·d)``.

The paper states the construction for homogeneous graphs "for clarity";
this implementation follows suit and accepts multirate graphs only with
``allow_multirate=True`` (the grouped actors must then still have equal
repetition entries, which Definition 3 demands in all cases).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import NotAbstractableError
from repro.obs.provenance import record_step
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import repetition_vector


@dataclass(frozen=True)
class Abstraction:
    """An abstraction (α, I): actor grouping plus per-actor phase indices.

    ``mapping`` is α (original actor → abstract actor name); ``index`` is
    I with 0-based phases (the paper's examples are 1-based; subtract 1
    when transcribing them).
    """

    mapping: Mapping[str, str]
    index: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))
        object.__setattr__(self, "index", dict(self.index))

    @property
    def phase_count(self) -> int:
        """N = max index + 1: firings of an abstract actor per represented
        cycle (Definition 4 uses N = max I with 1-based indices)."""
        return max(self.index.values()) + 1 if self.index else 0

    def groups(self) -> Dict[str, List[str]]:
        """Abstract actor → its members, ordered by phase index."""
        result: Dict[str, List[str]] = {}
        for actor in self.mapping:
            result.setdefault(self.mapping[actor], []).append(actor)
        for members in result.values():
            members.sort(key=lambda a: self.index[a])
        return result

    def image(self, actor: str) -> Tuple[str, int]:
        """σ(a): the (abstract actor, phase) pair that mimics ``a``
        in the N-fold unfolding (Section 5 of the paper)."""
        return self.mapping[actor], self.index[actor]

    def validate(self, graph: SDFGraph) -> None:
        """Check the conditions of Definition 3 against ``graph``.

        * α and I cover exactly the graph's actors;
        * actors sharing an abstract actor have distinct indices and equal
          repetition-vector entries;
        * every zero-delay edge goes forward in index order
          (``I(a) ≤ I(b) or d > 0``).

        Raises :class:`NotAbstractableError` with the violated condition.
        """
        actors = set(graph.actor_names)
        if set(self.mapping) != actors or set(self.index) != actors:
            missing = actors - set(self.mapping) | actors - set(self.index)
            extra = (set(self.mapping) | set(self.index)) - actors
            raise NotAbstractableError(
                f"abstraction does not cover the graph exactly "
                f"(missing {sorted(missing)}, extraneous {sorted(extra)})"
            )
        for actor, phase in self.index.items():
            if not isinstance(phase, int) or phase < 0:
                raise NotAbstractableError(
                    f"index of {actor!r} must be a non-negative int, got {phase!r}"
                )
        gamma = repetition_vector(graph)
        seen: Dict[Tuple[str, int], str] = {}
        group_gamma: Dict[str, int] = {}
        for actor in graph.actor_names:
            key = (self.mapping[actor], self.index[actor])
            if key in seen:
                raise NotAbstractableError(
                    f"actors {seen[key]!r} and {actor!r} share abstract actor "
                    f"{key[0]!r} and index {key[1]} (I must be injective per group)"
                )
            seen[key] = actor
            abstract = self.mapping[actor]
            if abstract in group_gamma and group_gamma[abstract] != gamma[actor]:
                raise NotAbstractableError(
                    f"group {abstract!r} mixes repetition entries "
                    f"{group_gamma[abstract]} and {gamma[actor]} (actor {actor!r})"
                )
            group_gamma[abstract] = gamma[actor]
        for edge in graph.edges:
            if edge.tokens == 0 and self.index[edge.source] > self.index[edge.target]:
                raise NotAbstractableError(
                    f"zero-delay edge {edge.name} ({edge.source}->{edge.target}) "
                    f"goes backward in index order "
                    f"({self.index[edge.source]} > {self.index[edge.target]}); "
                    "Definition 3 requires I(a) <= I(b) or d > 0"
                )


def abstract_graph(
    graph: SDFGraph,
    abstraction: Abstraction,
    allow_multirate: bool = False,
    name: Optional[str] = None,
) -> SDFGraph:
    """The abstract timed graph (A, D, T)^{α,I} of Definition 4.

    The result's throughput conservatively estimates the original's:
    τ(a) ≥ τ'(α(a)) / N (Theorem 1).  Parallel edges produced by the
    construction can be removed with
    :func:`repro.core.pruning.prune_redundant_edges`.
    """
    if not graph.is_homogeneous() and not allow_multirate:
        raise NotAbstractableError(
            "abstract_graph is defined on homogeneous graphs (the paper "
            "presents the construction for HSDF); pass allow_multirate=True "
            "to apply the same formulas to a multirate graph"
        )
    # Pre-application lint gate: the Definition 3/4 preconditions as
    # structured diagnostics (code "abstraction-unsafe-group"), so a
    # refusal carries machine-readable evidence, not just prose.
    from repro.lint.rules import check_abstraction_safety

    diagnostics = check_abstraction_safety(graph, abstraction)
    if diagnostics:
        error = NotAbstractableError(
            "; ".join(f"[{d.code}] {d.message}" for d in diagnostics)
        )
        error.diagnostics = diagnostics
        raise error
    abstraction.validate(graph)
    n = abstraction.phase_count

    result = SDFGraph(name or f"{graph.name}-abstract")
    for abstract_name, members in abstraction.groups().items():
        slowest = max(graph.execution_time(a) for a in members)
        result.add_actor(abstract_name, slowest)

    for edge in graph.edges:
        delay = (
            abstraction.index[edge.target]
            - abstraction.index[edge.source]
            + n * edge.tokens
        )
        result.add_edge(
            abstraction.mapping[edge.source],
            abstraction.mapping[edge.target],
            edge.production,
            edge.consumption,
            delay,
        )
    record_step(
        "abstraction",
        before=graph,
        after=result,
        phase_count=n,
        groups={k: v for k, v in abstraction.groups().items() if len(v) > 1},
    )
    return result
