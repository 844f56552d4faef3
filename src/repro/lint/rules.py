"""The built-in lint rules.

Every rule is a small generator over a context (see
:mod:`repro.lint.context`); the registry decorator carries its metadata.
The inventory holds the basic model checks (empty, disconnected,
inconsistent, deadlock, unbounded-actor, zero-time-cycle,
unread-tokens) and adds the paper-aware safety rules: the
equal-repetition precondition of the abstraction (Definitions 3–4),
the size-blowup guard that recommends the symbolic Algorithm-1
conversion path, GCD-reducible rates, zero-token self-loops, CSDF phase
hygiene and FSM-SADF scenario reachability.

Rules are deliberately independent: a rule that does not require
consistency still runs (and reports) on an inconsistent graph.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Iterator, List, Optional, Tuple

from repro.kernels.backend import MAX_EXACT_FLOAT_SUM
from repro.lint.context import (
    BaseLintContext,
    CSDFLintContext,
    LintContext,
    ScenarioLintContext,
)
from repro.lint.diagnostics import Diagnostic, ERROR, WARNING
from repro.lint.registry import rule
from repro.mcm.graphlib import RatioGraph

#: Above this many actors, classical HSDF expansion / N-fold unfolding
#: is flagged as a blowup (override with the ``unfold_budget`` option).
DEFAULT_UNFOLD_BUDGET = 1000


# ---------------------------------------------------------------------------
# SDF · structural
# ---------------------------------------------------------------------------


@rule(
    code="empty",
    category="structural",
    severity=WARNING,
    summary="the graph has no actors",
)
def _empty(ctx: LintContext) -> Iterator[Diagnostic]:
    if ctx.graph.actor_count() == 0:
        yield ctx.diag("empty", "graph has no actors")


@rule(
    code="disconnected",
    category="structural",
    severity=WARNING,
    summary="multiple weakly connected components (usually a modelling accident)",
)
def _disconnected(ctx: LintContext) -> Iterator[Diagnostic]:
    if ctx.graph.actor_count() and len(ctx.components) > 1:
        yield ctx.diag(
            "disconnected",
            f"graph has {len(ctx.components)} weakly connected components",
            data={"components": len(ctx.components)},
        )


@rule(
    code="unbounded-actor",
    category="structural",
    severity=WARNING,
    summary="an actor without incoming edges fires unboundedly often",
)
def _unbounded_actor(ctx: LintContext) -> Iterator[Diagnostic]:
    for actor in ctx.graph.actor_names:
        if not ctx.graph.in_edges(actor):
            yield ctx.diag(
                "unbounded-actor",
                f"actor {actor!r} has no incoming edges; its self-timed "
                "firing rate is unbounded and symbolic analyses reject it",
                actors=(actor,),
                fix=f"add a one-token self-edge to {actor!r} "
                "(SDFGraph.with_self_loops does this for every actor)",
            )


@rule(
    code="self-loop-missing-token",
    category="structural",
    severity=ERROR,
    summary="a self-edge with fewer tokens than one firing consumes deadlocks its actor",
)
def _self_loop_missing_token(ctx: LintContext) -> Iterator[Diagnostic]:
    for edge in ctx.graph.edges:
        if edge.is_self_loop and edge.tokens < edge.consumption:
            yield ctx.diag(
                "self-loop-missing-token",
                f"self-edge {edge.name!r} on actor {edge.source!r} holds "
                f"{edge.tokens} initial tokens but a firing consumes "
                f"{edge.consumption}; only the actor itself produces on this "
                "channel, so it can never fire",
                actors=(edge.source,),
                edges=(edge.name,),
                data={"tokens": edge.tokens, "consumption": edge.consumption},
                fix=f"give {edge.name!r} at least {edge.consumption} initial tokens",
            )


@rule(
    code="parallel-redundant-edge",
    category="structural",
    severity=WARNING,
    summary="a parallel edge with the same rates and more tokens is implied by another",
)
def _parallel_redundant_edge(ctx: LintContext) -> Iterator[Diagnostic]:
    binding: Dict[Tuple[str, str, int, int], object] = {}
    for edge in ctx.graph.edges:
        key = (edge.source, edge.target, edge.production, edge.consumption)
        if key not in binding or edge.tokens < binding[key].tokens:
            binding[key] = edge
    for edge in ctx.graph.edges:
        keeper = binding[(edge.source, edge.target, edge.production, edge.consumption)]
        if keeper is not edge:
            yield ctx.diag(
                "parallel-redundant-edge",
                f"edge {edge.name!r} ({edge.source}->{edge.target}, "
                f"{edge.tokens} tokens) is implied by parallel edge "
                f"{keeper.name!r} with {keeper.tokens} tokens; it never binds",
                actors=(edge.source, edge.target),
                edges=(edge.name, keeper.name),
                data={"redundant": edge.name, "binding": keeper.name},
                fix="remove it with repro.core.pruning.prune_redundant_edges",
            )


# ---------------------------------------------------------------------------
# SDF · rate
# ---------------------------------------------------------------------------


@rule(
    code="inconsistent",
    category="rate",
    severity=ERROR,
    summary="the balance equations have no non-trivial solution",
)
def _inconsistent(ctx: LintContext) -> Iterator[Diagnostic]:
    if ctx.graph.actor_count() and ctx.gamma is None:
        witness = getattr(ctx.inconsistency, "witness_edge", None)
        yield ctx.diag(
            "inconsistent",
            str(ctx.inconsistency),
            edges=(witness.name,) if witness is not None else (),
        )


@rule(
    code="rate-gcd-reducible",
    category="rate",
    severity=WARNING,
    summary="an edge's rates and tokens share a common divisor; the graph is needlessly large",
)
def _rate_gcd_reducible(ctx: LintContext) -> Iterator[Diagnostic]:
    for edge in ctx.graph.edges:
        divisor = gcd(edge.production, edge.consumption, edge.tokens)
        if divisor > 1:
            yield ctx.diag(
                "rate-gcd-reducible",
                f"edge {edge.name!r} has rates {edge.production}/"
                f"{edge.consumption} and {edge.tokens} tokens, all divisible "
                f"by {divisor}; token counts on this channel stay multiples "
                f"of {divisor}, so scaling down preserves every precedence",
                actors=(edge.source, edge.target),
                edges=(edge.name,),
                data={"gcd": divisor},
                fix=f"divide production, consumption and tokens of "
                f"{edge.name!r} by {divisor}",
            )


@rule(
    code="unread-tokens",
    category="rate",
    severity=WARNING,
    summary="initial tokens exceed what one iteration can consume",
    requires=("consistent",),
)
def _unread_tokens(ctx: LintContext) -> Iterator[Diagnostic]:
    for edge in ctx.graph.edges:
        consumed = ctx.gamma[edge.target] * edge.consumption
        if edge.tokens > consumed:
            yield ctx.diag(
                "unread-tokens",
                f"channel {edge.name!r} holds {edge.tokens} initial tokens "
                f"but one iteration consumes only {consumed}; the surplus is "
                "dead weight (or the delay is misplaced)",
                actors=(edge.source, edge.target),
                edges=(edge.name,),
                data={"tokens": edge.tokens, "consumed_per_iteration": consumed},
            )


@rule(
    code="unfolding-blowup",
    category="rate",
    severity=WARNING,
    summary="classical HSDF conversion / unfolding would exceed the size budget",
    requires=("consistent",),
)
def _unfolding_blowup(ctx: LintContext) -> Iterator[Diagnostic]:
    total = sum(ctx.gamma.values())
    budget = int(ctx.options.get("unfold_budget", DEFAULT_UNFOLD_BUDGET))
    if total > budget:
        tokens = ctx.graph.total_tokens()
        yield ctx.diag(
            "unfolding-blowup",
            f"one iteration is {total} firings (budget {budget}); the "
            f"classical SDF-to-HSDF expansion creates {total} actors, while "
            f"the symbolic conversion (Algorithm 1) is bounded by "
            f"N(N+2) = {tokens * (tokens + 2)} in the token count N = {tokens}",
            data={
                "iteration_length": total,
                "budget": budget,
                "symbolic_bound": tokens * (tokens + 2),
            },
            fix="use convert_to_hsdf / throughput(method='symbolic') instead "
            "of traditional_hsdf or large unfolding factors; if even that "
            "is too slow, analyse_with_policy(graph, timeout=...) degrades "
            "to a Theorem-1 conservative bound (see docs/robustness.md)",
        )


#: Flag when the estimate comes within this factor of the numpy
#: kernels' exact-float guard, :data:`MAX_EXACT_FLOAT_SUM` as enforced
#: in :mod:`repro.kernels.symbolic` and :mod:`repro.kernels.maxplus`
#: (override with the ``overflow_margin`` option).
DEFAULT_OVERFLOW_MARGIN = 16


@rule(
    code="kernel-guard-overflow",
    category="rate",
    severity=WARNING,
    summary="LCM-scaled weights approach the 2**53 exact-float kernel guard",
    requires=("consistent",),
)
def _kernel_guard_overflow(ctx: LintContext) -> Iterator[Diagnostic]:
    """The numpy kernels scale execution times by the LCM of their
    denominators into exact integers and raise ``NumericalGuardError``
    before a float64 sum can reach :data:`MAX_EXACT_FLOAT_SUM`
    (``2**53``, beyond which float64 sums stop being exact): the
    symbolic walk (:mod:`repro.kernels.symbolic`) when
    ``scale * Σ γ(a)·t(a)`` — the scaled work of one whole iteration,
    which bounds every stamp — reaches it, and the eigenvalue kernel
    (:mod:`repro.kernels.maxplus`) when ``(n + 1) * largest_entry``
    does.  This rule warns when the conservative estimate
    ``(n + 1) * scale * Σ γ(a)·t(a)`` comes within ``overflow_margin``
    of the guard: the numpy path would trip mid-analysis, falling back
    to the (slower) pure-Fraction kernel."""
    from math import lcm

    graph = ctx.graph
    if not graph.actor_count():
        return
    times = {a: graph.execution_time(a) for a in graph.actor_names}
    scale = 1
    for value in times.values():
        scale = lcm(scale, Fraction(value).denominator)
    iteration_work = sum(
        ctx.gamma[a] * Fraction(t) for a, t in times.items()
    )
    weight_bound = int(scale * iteration_work)
    n = max(sum(ctx.gamma.values()), graph.total_tokens())
    estimate = (n + 1) * max(weight_bound, 1)
    margin = int(ctx.options.get("overflow_margin", DEFAULT_OVERFLOW_MARGIN))
    if estimate * margin >= MAX_EXACT_FLOAT_SUM:
        yield ctx.diag(
            "kernel-guard-overflow",
            f"scaled iteration weights reach ~2**{estimate.bit_length() - 1} "
            f"(denominator LCM {scale}, iteration work {iteration_work}), "
            f"within {margin}x of the 2**53 exact-float64 kernel guard; "
            "the numpy kernels may refuse this graph",
            data={
                "scale": scale,
                "estimate_bits": estimate.bit_length(),
                "guard_bits": 53,
                "margin": margin,
            },
            fix="reduce execution-time denominators (rescale times to a "
                "common base) or run with kernel='exact'",
        )


@rule(
    code="abstraction-unsafe-group",
    category="rate",
    severity=ERROR,
    summary="a proposed grouping violates the Definition 3/4 abstraction preconditions",
    requires=("consistent",),
)
def _abstraction_unsafe_group(ctx: LintContext) -> Iterator[Diagnostic]:
    proposal = ctx.options.get("abstraction")
    if proposal is None:
        return
    mapping, index = _abstraction_parts(proposal)
    graph = ctx.graph
    actors = set(graph.actor_names)

    covered = set(mapping) & set(index)
    missing = sorted(actors - covered)
    extra = sorted((set(mapping) | set(index)) - actors)
    if missing or extra:
        yield ctx.diag(
            "abstraction-unsafe-group",
            f"abstraction does not cover the graph exactly "
            f"(missing {missing}, extraneous {extra})",
            actors=tuple(missing),
            data={"condition": "coverage", "missing": missing, "extra": extra},
        )
        return

    bad_indices = {
        actor: phase
        for actor, phase in index.items()
        if not isinstance(phase, int) or isinstance(phase, bool) or phase < 0
    }
    if bad_indices:
        yield ctx.diag(
            "abstraction-unsafe-group",
            f"phase indices must be non-negative ints, got "
            f"{ {a: repr(p) for a, p in sorted(bad_indices.items())} }",
            actors=tuple(sorted(bad_indices)),
            data={"condition": "index-type"},
        )
        return

    # Equal repetition entries per group — the headline precondition of
    # Definitions 3 and 4: an abstract actor's firing represents one
    # firing of each member, which is only balanced when members fire
    # equally often per iteration.
    groups: Dict[str, List[str]] = {}
    for actor in graph.actor_names:
        groups.setdefault(mapping[actor], []).append(actor)
    for group, members in sorted(groups.items()):
        entries = {actor: ctx.gamma[actor] for actor in members}
        if len(set(entries.values())) > 1:
            yield ctx.diag(
                "abstraction-unsafe-group",
                f"group {group!r} mixes repetition-vector entries "
                f"{sorted(set(entries.values()))} across members "
                f"{sorted(members)}; Definition 3 requires equal entries, "
                "so the abstract graph would not be a conservative bound",
                actors=tuple(sorted(members)),
                data={
                    "condition": "equal-repetition",
                    "group": group,
                    "entries": {a: int(g) for a, g in sorted(entries.items())},
                },
                fix="split the group by repetition entry (discover_abstraction "
                "does this automatically)",
            )

    seen: Dict[Tuple[str, int], str] = {}
    for actor in graph.actor_names:
        key = (mapping[actor], index[actor])
        if key in seen:
            yield ctx.diag(
                "abstraction-unsafe-group",
                f"actors {seen[key]!r} and {actor!r} share abstract actor "
                f"{key[0]!r} and phase index {key[1]}; I must be injective "
                "per group (Definition 3)",
                actors=(seen[key], actor),
                data={"condition": "injective-index", "group": key[0], "index": key[1]},
            )
        else:
            seen[key] = actor

    for edge in graph.edges:
        if edge.tokens == 0 and index[edge.source] > index[edge.target]:
            yield ctx.diag(
                "abstraction-unsafe-group",
                f"zero-delay edge {edge.name!r} ({edge.source}->{edge.target}) "
                f"goes backward in phase order ({index[edge.source]} > "
                f"{index[edge.target]}); Definition 3 requires I(a) <= I(b) "
                "or d > 0",
                actors=(edge.source, edge.target),
                edges=(edge.name,),
                data={"condition": "zero-delay-order"},
            )


def _abstraction_parts(proposal) -> Tuple[Dict[str, str], Dict[str, int]]:
    """Accept an :class:`repro.core.abstraction.Abstraction` or a plain
    ``{"mapping": ..., "index": ...}`` dict."""
    if isinstance(proposal, dict):
        return dict(proposal["mapping"]), dict(proposal["index"])
    return dict(proposal.mapping), dict(proposal.index)


def check_abstraction_safety(graph, abstraction) -> List[Diagnostic]:
    """All ``abstraction-unsafe-group`` diagnostics for applying
    ``abstraction`` to ``graph`` (empty when the proposal is safe).

    This is the lint-rule form of the Definition 3 precondition check;
    :func:`repro.core.abstraction.abstract_graph` refuses to apply an
    abstraction for which this returns error findings.
    """
    ctx = LintContext(graph, options={"abstraction": abstraction})
    if ctx.gamma is None:
        return [
            ctx.diag(
                "inconsistent",
                f"cannot check abstraction preconditions: {ctx.inconsistency}",
            )
        ]
    return list(_abstraction_unsafe_group(ctx))


# ---------------------------------------------------------------------------
# SDF · temporal
# ---------------------------------------------------------------------------


@rule(
    code="deadlock",
    category="temporal",
    severity=ERROR,
    summary="no iteration can complete",
    requires=("consistent",),
)
def _deadlock(ctx: LintContext) -> Iterator[Diagnostic]:
    if ctx.schedule is None and ctx.deadlock is not None:
        blocked = {a: int(n) for a, n in sorted(ctx.deadlock.blocked.items()) if n}
        yield ctx.diag(
            "deadlock",
            str(ctx.deadlock),
            actors=tuple(sorted(blocked)),
            data={"blocked": blocked},
        )


@rule(
    code="zero-time-cycle",
    category="temporal",
    severity=WARNING,
    summary="a token-carrying cycle of zero-time actors spins infinitely fast",
)
def _zero_time_cycle(ctx: LintContext) -> Iterator[Diagnostic]:
    cycle = zero_time_token_cycle(ctx.graph)
    if cycle:
        yield ctx.diag(
            "zero-time-cycle",
            "cycle through "
            + " -> ".join(cycle)
            + " has tokens but zero total execution time; self-timed "
            "execution spins infinitely fast on it",
            actors=tuple(cycle),
            fix="give at least one actor on the cycle a positive execution time",
        )


def zero_time_token_cycle(graph) -> Optional[List[str]]:
    """A cycle of zero-time actors whose edges all lie between them and
    carry at least one token somewhere (so it can actually spin)."""
    zero_actors = {a for a in graph.actor_names if graph.execution_time(a) == 0}
    if not zero_actors:
        return None
    sub = RatioGraph()
    for actor in zero_actors:
        sub.add_node(actor)
    for edge in graph.edges:
        if edge.source in zero_actors and edge.target in zero_actors:
            sub.add_edge(edge.source, edge.target, 0, edge.tokens)
    for scc in sub.nontrivial_sccs():
        # Strong connectivity means any internal token edge closes a
        # spinning cycle through it.
        if any(e.transit > 0 for e in scc.edges):
            return [str(node) for node in scc.nodes]
    return None


# ---------------------------------------------------------------------------
# CSDF
# ---------------------------------------------------------------------------


@rule(
    code="csdf-inconsistent",
    category="rate",
    severity=ERROR,
    summary="the cycle-level CSDF balance equations have no solution",
    model="csdf",
)
def _csdf_inconsistent(ctx: CSDFLintContext) -> Iterator[Diagnostic]:
    if ctx.graph.actor_count() and ctx.gamma is None:
        witness = getattr(ctx.inconsistency, "witness_edge", None)
        yield ctx.diag(
            "csdf-inconsistent",
            str(ctx.inconsistency),
            edges=(witness.name,) if witness is not None else (),
        )


@rule(
    code="csdf-phase-mismatch",
    category="rate",
    severity=WARNING,
    summary="CSDF phase vectors are inconsistent with the actor's repetition counts",
    model="csdf",
)
def _csdf_phase_mismatch(ctx: CSDFLintContext) -> Iterator[Diagnostic]:
    graph = ctx.graph
    broken: set = set()
    for edge in graph.edges:
        for label, seq, actor in (
            ("production", edge.production, edge.source),
            ("consumption", edge.consumption, edge.target),
        ):
            expected = graph.phase_count(actor)
            if len(seq) != expected:
                broken.add(actor)
                yield ctx.diag(
                    "csdf-phase-mismatch",
                    f"edge {edge.name!r}: {label} sequence has {len(seq)} "
                    f"entries but actor {actor!r} has {expected} phases; "
                    "the firing rule is undefined past the shorter vector",
                    severity=ERROR,
                    actors=(actor,),
                    edges=(edge.name,),
                    data={"kind": "length", "entries": len(seq), "phases": expected},
                )
    for actor in graph.actors:
        if actor.name in broken or actor.phase_count <= 1:
            continue
        sequences: List[Tuple] = [actor.execution_times]
        sequences += [e.production for e in graph.out_edges(actor.name)]
        sequences += [e.consumption for e in graph.in_edges(actor.name)]
        period = _minimal_period(sequences, actor.phase_count)
        if period < actor.phase_count:
            yield ctx.diag(
                "csdf-phase-mismatch",
                f"actor {actor.name!r} declares {actor.phase_count} phases "
                f"but all its phase vectors repeat with period {period}; the "
                f"repetition count is inflated by a factor "
                f"{actor.phase_count // period}",
                actors=(actor.name,),
                data={
                    "kind": "periodic",
                    "phases": actor.phase_count,
                    "period": period,
                },
                fix=f"collapse {actor.name!r} to {period} phase(s)",
            )


def _minimal_period(sequences: List[Tuple], length: int) -> int:
    for period in range(1, length):
        if length % period:
            continue
        if all(
            seq[i] == seq[i % period] for seq in sequences for i in range(length)
        ):
            return period
    return length


@rule(
    code="csdf-deadlock",
    category="temporal",
    severity=ERROR,
    summary="no CSDF iteration can complete",
    model="csdf",
    requires=("consistent",),
)
def _csdf_deadlock(ctx: CSDFLintContext) -> Iterator[Diagnostic]:
    if ctx.live is False:
        yield ctx.diag(
            "csdf-deadlock",
            f"CSDF graph {ctx.graph.name!r} cannot complete an iteration "
            "from its initial tokens",
        )


# ---------------------------------------------------------------------------
# FSM-SADF scenarios
# ---------------------------------------------------------------------------


@rule(
    code="scenario-undefined",
    category="structural",
    severity=ERROR,
    summary="an FSM transition uses a scenario label that is not defined",
    model="scenario",
)
def _scenario_undefined(ctx: ScenarioLintContext) -> Iterator[Diagnostic]:
    for label in ctx.fsm.scenario_names():
        if label not in ctx.scenarios:
            yield ctx.diag(
                "scenario-undefined",
                f"FSM transitions use scenario {label!r} but no such "
                "scenario is defined",
                data={"scenario": label},
            )


@rule(
    code="scenario-unreachable",
    category="structural",
    severity=WARNING,
    summary="a scenario is defined but never reachable in the FSM",
    model="scenario",
)
def _scenario_unreachable(ctx: ScenarioLintContext) -> Iterator[Diagnostic]:
    reachable = set(ctx.reachable_scenarios)
    for name in ctx.scenarios:
        if name not in reachable:
            yield ctx.diag(
                "scenario-unreachable",
                f"scenario {name!r} is defined but no transition reachable "
                f"from the initial state {ctx.fsm.initial!r} uses it; "
                "worst-case analysis will never consider it",
                data={"scenario": name},
                fix="add a transition using it or drop the scenario",
            )


@rule(
    code="scenario-dead-state",
    category="structural",
    severity=ERROR,
    summary="a reachable FSM state has no outgoing transition",
    model="scenario",
)
def _scenario_dead_state(ctx: ScenarioLintContext) -> Iterator[Diagnostic]:
    for state in sorted(ctx.reachable_states, key=repr):
        if not ctx.fsm.outgoing(state):
            yield ctx.diag(
                "scenario-dead-state",
                f"FSM state {state!r} is reachable but has no outgoing "
                "transition; infinite scenario sequences must exist from "
                "every reachable state",
                data={"state": repr(state)},
            )


@rule(
    code="scenario-token-mismatch",
    category="structural",
    severity=ERROR,
    summary="scenarios disagree on the persistent token count",
    model="scenario",
)
def _scenario_token_mismatch(ctx: ScenarioLintContext) -> Iterator[Diagnostic]:
    sizes = {
        name: scenario.graph.total_tokens()
        for name, scenario in sorted(ctx.scenarios.items())
        if name in set(ctx.fsm.scenario_names())
    }
    if len(set(sizes.values())) > 1:
        yield ctx.diag(
            "scenario-token-mismatch",
            f"scenarios disagree on the persistent token count: {sizes}; "
            "tokens carry timing state across scenario switches, so all "
            "scenarios must hold the same number",
            data={"tokens": sizes},
        )
