"""Throughput analysis of timed SDF graphs.

The throughput of actor ``a`` is its guaranteed sustainable firing rate
under self-timed execution: γ(a)/λ firings per time unit, where λ is the
*iteration period* — the asymptotic time between successive iterations.
Three independent back-ends compute λ exactly:

``symbolic`` (default)
    Execute one iteration symbolically (Algorithm 1's engine); λ is the
    max-plus eigenvalue of the iteration matrix, found as the maximum
    cycle mean of its precedence graph with Karp's algorithm.  This is
    the method the paper's conversion is built on and is usually the
    fastest by far.

``simulation``
    Explicit self-timed state-space exploration until a recurrent state
    (Ghamarian et al., reference [8]); λ is period/iterations over the
    recurrence window.

``hsdf``
    Expand to the traditional HSDF and take the maximum cycle ratio
    (execution time over tokens) with exact Howard — the classical
    approach whose size explosion motivates Section 6 of the paper.

For graphs that are not strongly connected the guaranteed rate is still
γ(a)/λ with λ the global worst cycle; actors not dominated by the
critical cycle may run faster in simulation, which measures actual rather
than guaranteed rates (documented difference, covered by tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Optional

from repro.errors import ValidationError
from repro.kernels import (
    NumericalGuardError,
    record_fallback,
    record_selection,
    resolve_kernel,
)
from repro.maxplus.spectral import critical_cycle
from repro.obs.provenance import (
    CycleWitness,
    ProvenanceRecord,
    WitnessError,
    recording,
    verify_witness,
    witness_from_ratio_cycle,
)
from repro.obs.trace import span
from repro.mcm.graphlib import RatioGraph
from repro.mcm.howard import howard_mcr
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import repetition_vector
from repro.sdf.simulation import binding_witness, simulation_throughput
from repro.sdf.transform import traditional_hsdf
from repro.core.symbolic import symbolic_iteration


@dataclass
class ThroughputResult:
    """Exact throughput of a timed SDF graph.

    ``cycle_time`` is the iteration period λ (``None`` when no cycle
    constrains the execution: iterations overlap without bound and every
    rate below is infinite — represented by omitting the actor from
    ``per_actor``... never silently: ``unbounded`` is set instead).

    ``provenance`` (when the analysis ran with provenance enabled, the
    default) records how the number was produced: reduction steps,
    algorithm, and a critical-cycle witness re-checkable against the
    original graph with :func:`repro.obs.provenance.verify_witness`.
    """

    cycle_time: Optional[Fraction]
    repetition: Dict[str, int]
    method: str
    provenance: Optional[ProvenanceRecord] = None

    @property
    def unbounded(self) -> bool:
        return self.cycle_time is None or self.cycle_time == 0

    @cached_property
    def per_actor(self) -> Dict[str, Fraction]:
        """Guaranteed firings per time unit for every actor: γ(a)/λ.

        Computed once and memoized on the instance (hot paths read it
        per actor in tight loops); treat the returned dict as read-only.
        """
        if self.unbounded:
            raise ValidationError(
                "throughput is unbounded (no recurrent timing constraint); "
                "check .unbounded before reading rates"
            )
        return {
            a: Fraction(g, 1) / self.cycle_time for a, g in self.repetition.items()
        }

    def of(self, actor: str) -> Fraction:
        return self.per_actor[actor]


def hsdf_cycle_ratio_graph(graph: SDFGraph) -> RatioGraph:
    """The cycle-ratio view of an HSDF graph.

    Edge ``a → b`` with ``d`` tokens becomes a ratio edge of weight
    ``T(a)`` and transit ``d``; the maximum cycle ratio is the iteration
    period.  (Completion of ``a`` feeds ``b``, so the source's execution
    time is the edge weight — the standard MCM formulation of HSDF
    throughput, cf. reference [5] of the paper.)
    """
    if not graph.is_homogeneous():
        raise ValidationError(
            "cycle-ratio throughput needs a homogeneous graph; convert first"
        )
    ratio = RatioGraph()
    for actor in graph.actor_names:
        ratio.add_node(actor)
    for edge in graph.edges:
        ratio.add_edge(
            edge.source,
            edge.target,
            Fraction(graph.execution_time(edge.source)),
            edge.tokens,
            key=edge.name,
        )
    return ratio


#: Analysis algorithm behind each back-end, named in provenance records.
_ALGORITHMS = {"symbolic": "karp", "simulation": "simulation", "hsdf": "howard"}


def _dispatch_kernel(info, method, numpy_call, exact_call):
    """Run the numpy kernel when selected, falling back to exact.

    A :class:`~repro.kernels.NumericalGuardError` from the numpy kernel
    is the designed degradation path: rerun with the reference
    implementation, which always succeeds on the same inputs, and
    record the analysis's first trip (``info["fallback"]``,
    ``repro_kernel_fallback_total``).  Every other exception (deadlock,
    timeout, validation) propagates — both kernels raise the same error
    types for the same graphs.
    """
    if info["used"] == "numpy":
        try:
            return numpy_call()
        except NumericalGuardError as error:
            info["used"] = "exact"
            if info["fallback"] is None:
                info["fallback"] = str(error)
                record_fallback(method)
    return exact_call()


def throughput(
    graph: SDFGraph,
    method: str = "symbolic",
    precheck: bool = False,
    deadline=None,
    provenance: bool = True,
    kernel: str = "auto",
) -> ThroughputResult:
    """Compute the exact throughput of ``graph`` (see module docstring).

    Raises :class:`DeadlockError` for deadlocked graphs,
    :class:`InconsistentGraphError` for inconsistent ones and
    :class:`UnboundedThroughputError` when an actor has no incoming edges.

    With ``precheck=True`` the graph is first run through the lint
    engine (:func:`repro.lint.ensure_lint_clean`) and any error-severity
    finding raises :class:`repro.errors.LintError` *before* analysis
    work starts — a complete structured diagnosis instead of the first
    exception an algorithm happens to trip over.

    ``deadline`` (a :class:`repro.analysis.deadline.Deadline`) bounds
    the analysis cooperatively: every back-end polls it in its hot loop
    and raises :class:`repro.errors.AnalysisTimeout` with
    partial-progress metadata instead of running on.  The input graph
    is never mutated, so a timed-out call can be retried (or degraded
    through :class:`repro.analysis.resilience.AnalysisPolicy`).

    ``provenance=True`` (the default) attaches a
    :class:`~repro.obs.provenance.ProvenanceRecord` with the applied
    reduction steps and a critical-cycle witness, self-verified before
    it is attached (a witness that fails its own O(|cycle|) check is
    dropped, with the failure recorded as ``witness_unavailable``).
    Disable for hot paths that only need the number; the simulation
    back-end then also skips its binding bookkeeping.

    ``kernel`` selects the computational backend: ``"exact"`` is the
    reference Fraction implementation, ``"numpy"`` the vectorized
    kernels (:mod:`repro.kernels`), and ``"auto"`` (default) is
    ``"numpy"``.  Both backends return *bit-identical*
    results — the numpy path re-derives and certifies its answer
    exactly — so the choice never changes semantics (and is therefore
    not part of analysis cache keys).  When a numerical guard trips,
    the numpy path falls back to exact automatically; the provenance
    record then carries the reason as ``degradation_reason`` and its
    ``kernel`` field names the backend that produced the number.
    ``method="hsdf"`` has no numpy kernel: it always runs exact Howard
    and records ``kernel: "exact"``.
    """
    selected = resolve_kernel(kernel)
    record_selection(selected, method)
    info = {"selected": selected, "used": selected, "fallback": None}
    if not provenance:
        return _throughput(
            graph, method, precheck, deadline, witness=False, info=info
        )[0]
    with recording() as recorder:
        result, arcs, space, extractor, reason = _throughput(
            graph, method, precheck, deadline, witness=True, info=info
        )
        witness = (
            CycleWitness(space=space, arcs=arcs, source=extractor) if arcs else None
        )
        record = ProvenanceRecord(
            graph=graph.name,
            fingerprint=graph.fingerprint(),
            algorithm=_ALGORITHMS[method],
            method=method,
            status="exact",
            cycle_time=result.cycle_time,
            steps=recorder.steps,
            witness=witness,
            witness_unavailable=None if witness else reason,
            kernel=info["used"],
            degradation_reason=(
                f"numpy kernel fell back to exact: {info['fallback']}"
                if info["fallback"] else None
            ),
        )
    if witness is not None:
        try:
            verify_witness(graph, record)
        except WitnessError as error:
            record.witness = None
            record.witness_unavailable = f"witness failed self-check: {error}"
    result.provenance = record
    return result


def _throughput(graph, method, precheck, deadline, witness, info=None):
    """The three back-ends; returns (result, arcs, space, extractor, reason)."""
    if info is None:
        info = {"selected": "exact", "used": "exact", "fallback": None}
    with span("throughput", graph=graph.name,
              fingerprint=graph.fingerprint(), method=method,
              kernel=info["selected"]) as top_span:
        if precheck:
            from repro.lint.engine import ensure_lint_clean

            ensure_lint_clean(graph)
        with span("repetition-vector"):
            gamma = repetition_vector(graph)
        if method == "symbolic":
            with span("symbolic-conversion") as symbolic_span:
                iteration = _dispatch_kernel(
                    info, method,
                    lambda: symbolic_iteration(
                        graph, deadline=deadline, repetitions=gamma,
                        kernel="numpy"),
                    lambda: symbolic_iteration(
                        graph, deadline=deadline, repetitions=gamma,
                        kernel="exact"),
                )
                symbolic_span.set(kernel_used=info["used"])
            # The MCM has its own guard: a trip in the walk leaves it on
            # the selected kernel, and the result still reports the trip.
            info["used"] = info["selected"]
            with span("mcm-eigenvalue",
                      matrix_order=iteration.matrix.nrows) as mcm_span:
                mcm = _dispatch_kernel(
                    info, method,
                    lambda: critical_cycle(
                        iteration.matrix, deadline=deadline, kernel="numpy"),
                    lambda: critical_cycle(
                        iteration.matrix, deadline=deadline, kernel="exact"),
                )
                mcm_span.set(kernel_used=info["used"])
            if info["fallback"]:
                info["used"] = "exact"
            top_span.set(kernel_used=info["used"])
            result = ThroughputResult(
                cycle_time=mcm.value, repetition=gamma, method=method
            )
            if not witness or mcm.value is None:
                return result, None, "token", "karp", (
                    "no recurrent timing constraint (acyclic precedence graph)"
                )
            # Karp's cycle connects matrix indices; token ids name the
            # same positions on the original graph's channels.
            arcs = witness_from_ratio_cycle(
                mcm.cycle,
                space="token",
                source="karp",
                relabel=lambda index: str(iteration.token_ids[index]),
            ).arcs
            return result, arcs, "token", "karp", None
        if method == "simulation":
            with span("state-space-simulation") as sim_span:
                def _simulate_numpy():
                    from repro.kernels.simulation import (
                        simulation_throughput_numpy,
                    )

                    return simulation_throughput_numpy(
                        graph, deadline=deadline, witness=witness
                    )

                measured = _dispatch_kernel(
                    info, method,
                    _simulate_numpy,
                    lambda: simulation_throughput(
                        graph, deadline=deadline, witness=witness),
                )
                sim_span.set(kernel_used=info["used"])
            top_span.set(kernel_used=info["used"])
            # Iterations per period: firings(a)/γ(a) is equal for all actors
            # in the periodic phase of a consistent graph.
            any_actor = next(iter(gamma))
            iterations = Fraction(measured.firings_per_period[any_actor], gamma[any_actor])
            for actor, count in measured.firings_per_period.items():
                if Fraction(count, gamma[actor]) != iterations:
                    # Actors ahead of the critical cycle: report the slowest
                    # (guaranteed) rate, consistent with the other methods.
                    iterations = min(iterations, Fraction(count, gamma[actor]))
            if iterations == 0:
                raise ValidationError(
                    "periodic phase contains no complete iteration; "
                    "graph is not consistent with periodic execution"
                )
            lam = measured.period / iterations
            result = ThroughputResult(cycle_time=lam, repetition=gamma, method=method)
            if not witness:
                return result, None, "actor", "simulation-backpointers", None
            arcs, reason = binding_witness(graph, measured, gamma)
            return result, arcs, "actor", "simulation-backpointers", reason
        if method == "hsdf":
            from repro.errors import DeadlockError
            from repro.mcm.graphlib import ZeroTransitCycleError

            homogeneous = graph.is_homogeneous()
            with span("hsdf-expansion", iteration_length=sum(gamma.values())):
                expanded = (
                    graph if homogeneous else traditional_hsdf(graph, deadline=deadline)
                )
            # The classical baseline has one engine, exact Howard,
            # whatever the kernel knob selected.
            info["used"] = "exact"
            try:
                with span("howard-mcr", actors=expanded.actor_count(),
                          kernel_used="exact"):
                    mcr = howard_mcr(hsdf_cycle_ratio_graph(expanded),
                                     deadline=deadline)
                top_span.set(kernel_used="exact")
            except ZeroTransitCycleError as error:
                # A token-free dependency cycle is a deadlock; report it in
                # the same vocabulary as the other back-ends.
                raise DeadlockError(
                    f"graph {graph.name!r} deadlocks: token-free cycle "
                    f"{' -> '.join(str(n) for n in error.cycle[:6])}..."
                ) from error
            result = ThroughputResult(
                cycle_time=mcr.value, repetition=gamma, method=method
            )
            if not witness or mcr.value is None or not mcr.cycle:
                return result, None, "actor", "howard", (
                    "no cycle constrains the execution"
                )
            # Map expanded firing copies ("a#3") back to original actors;
            # channel keys survive only when no expansion happened (the
            # expansion merges parallel dependencies, losing identity).
            arcs = witness_from_ratio_cycle(
                mcr.cycle,
                space="actor",
                source="howard",
                relabel=(
                    (lambda node: str(node)) if homogeneous
                    else (lambda node: str(node).rsplit("#", 1)[0])
                ),
                keys=(lambda edge: edge.key) if homogeneous else None,
            ).arcs
            return result, arcs, "actor", "howard", None
        raise ValueError(f"unknown method {method!r}; use symbolic, simulation or hsdf")
