"""Reusable differential oracle: numpy kernels vs the exact reference.

The kernel contract (src/repro/kernels, docs/kernels.md) is *bit
identity*: the vectorized numpy backend must return exactly what the
pure-Fraction reference returns — same Fractions, same witnesses, same
error types with the same messages — because its float search phase is
always followed by exact re-derivation and certification.

:func:`assert_backends_agree` checks that whole contract for one graph
and one method, and :func:`assert_symbolic_engines_agree` checks it for
the two engines of Algorithm 1's symbolic execution; both are shared by
the registry-wide and property-based suites in ``test_kernel_oracle.py``.
``method="hsdf"`` has a single engine, exact Howard, so for it
:func:`assert_hsdf_runs_exact` checks every ``kernel=`` value against
``method="symbolic"`` instead.

The front end has references of its own, used by
``test_front_end_oracle.py``: :func:`reference_repetition_vector`, the
balance-equation solver over :class:`~fractions.Fraction` ratios, and
:func:`reference_realise_iteration_matrix`, the Figure-4 build replayed
one :meth:`SDFGraph.add_actor` / :meth:`SDFGraph.add_edge` call at a
time.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Tuple

from repro.analysis.throughput import throughput
from repro.core.hsdf_conversion import (
    HsdfConversion,
    demux_name,
    matrix_actor_name,
    mux_name,
)
from repro.core.symbolic import symbolic_iteration
from repro.errors import InconsistentGraphError, ReproError, ValidationError
from repro.kernels import KERNELS
from repro.maxplus.algebra import EPSILON
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.obs.provenance import verify_witness
from repro.sdf.graph import SDFGraph


def run_kernel(graph, method: str, kernel: str):
    """Run one backend; return ``(result, error)`` with exactly one set."""
    try:
        return throughput(graph, method=method, kernel=kernel), None
    except ReproError as error:
        return None, error


def assert_backends_agree(graph, method: str, expect_fallback: bool = False):
    """Assert full numpy/exact agreement on ``graph`` for ``method``.

    Checks, in order: error agreement (same type, same message when both
    raise), exact equality of cycle time / repetition vector / per-actor
    rates, provenance ``kernel`` labelling (``expect_fallback=True``
    demands the numpy run degraded to exact and recorded why), and that
    every attached witness re-verifies against the original graph to
    the agreed cycle time.  ``method="hsdf"`` is checked by
    :func:`assert_hsdf_runs_exact`.

    Returns ``(numpy_result, exact_result)`` — both ``None`` when the
    backends agreed by raising.
    """
    if method == "hsdf":
        return assert_hsdf_runs_exact(graph)
    numpy_result, numpy_error = run_kernel(graph, method, "numpy")
    exact_result, exact_error = run_kernel(graph, method, "exact")

    if exact_error is not None:
        assert numpy_error is not None, (
            f"exact raised {type(exact_error).__name__} but numpy "
            f"returned {numpy_result!r}"
        )
        assert type(numpy_error) is type(exact_error), (
            f"error types diverge: numpy {type(numpy_error).__name__}, "
            f"exact {type(exact_error).__name__}"
        )
        assert str(numpy_error) == str(exact_error)
        return None, None
    assert numpy_error is None, (
        f"numpy raised {type(numpy_error).__name__}: {numpy_error} "
        f"but exact returned {exact_result.cycle_time}"
    )

    # Bit-identical analysis outputs (Fraction ==, not approximate).
    assert numpy_result.cycle_time == exact_result.cycle_time
    assert numpy_result.repetition == exact_result.repetition
    assert numpy_result.unbounded == exact_result.unbounded
    if not exact_result.unbounded:
        assert numpy_result.per_actor == exact_result.per_actor

    numpy_record = numpy_result.provenance
    exact_record = exact_result.provenance
    assert exact_record is not None and numpy_record is not None
    assert exact_record.kernel == "exact"
    assert exact_record.degradation_reason is None
    if expect_fallback:
        assert numpy_record.kernel == "exact"
        assert numpy_record.degradation_reason is not None
        assert "fell back to exact" in numpy_record.degradation_reason
    else:
        assert numpy_record.kernel == "numpy"
        assert numpy_record.degradation_reason is None

    # Witness parity: both backends certify, or neither can.
    assert (numpy_record.witness is None) == (exact_record.witness is None)
    for record in (numpy_record, exact_record):
        if record.witness is not None:
            mean = verify_witness(graph, record)
            assert mean == exact_result.cycle_time

    return numpy_result, exact_result


def assert_hsdf_runs_exact(graph):
    """Assert ``method="hsdf"`` runs exact Howard for every ``kernel=``.

    Each knob value must give the cycle time (or unboundedness) of
    ``method="symbolic"``, label its provenance ``kernel: "exact"`` with
    no ``degradation_reason``, count no kernel fallback, and — when the
    throughput is bounded — carry a witness that re-verifies against the
    original graph.  Returns the ``kernel="numpy"`` and
    ``kernel="exact"`` results, like :func:`assert_backends_agree`.
    """
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        results = {
            kernel: throughput(graph, method="hsdf", kernel=kernel)
            for kernel in KERNELS
        }
    finally:
        set_default_registry(previous)
    assert registry.value("repro_kernel_fallback_total", method="hsdf") is None

    symbolic = throughput(graph, method="symbolic")
    for result in results.values():
        assert result.unbounded == symbolic.unbounded
        assert result.repetition == symbolic.repetition
        record = result.provenance
        assert record.kernel == "exact"
        assert record.degradation_reason is None
        if not symbolic.unbounded:
            assert result.cycle_time == symbolic.cycle_time
            assert record.witness is not None
            assert verify_witness(graph, record) == result.cycle_time
    return results["numpy"], results["exact"]


def _iteration(graph, kernel: str, **kwargs):
    try:
        return symbolic_iteration(graph, kernel=kernel, **kwargs), None
    except ReproError as error:
        return None, error


def assert_symbolic_engines_agree(graph, **kwargs):
    """Assert the block engine and the exact walk execute ``graph``
    identically (``kwargs`` go to :func:`symbolic_iteration`).

    Either both raise the same error type with the same message, or
    matrix, token ids, schedule, start and completion stamps are all
    equal (stamp maps in the same firing order).  Returns the numpy
    iteration, or ``None`` when both raised.
    """
    numpy_iteration, numpy_error = _iteration(graph, "numpy", **kwargs)
    exact_iteration, exact_error = _iteration(graph, "exact", **kwargs)
    if exact_error is not None:
        assert numpy_error is not None, (
            f"exact raised {type(exact_error).__name__}: {exact_error} "
            "but numpy returned an iteration"
        )
        assert type(numpy_error) is type(exact_error)
        assert str(numpy_error) == str(exact_error)
        return None
    assert numpy_error is None, (
        f"numpy raised {type(numpy_error).__name__}: {numpy_error}"
    )
    assert numpy_iteration.matrix == exact_iteration.matrix
    assert numpy_iteration.token_ids == exact_iteration.token_ids
    assert numpy_iteration.runs == exact_iteration.runs
    assert numpy_iteration.schedule == exact_iteration.schedule
    assert (list(numpy_iteration.firing_starts.items())
            == list(exact_iteration.firing_starts.items()))
    assert (list(numpy_iteration.firing_completions.items())
            == list(exact_iteration.firing_completions.items()))
    return numpy_iteration


# ----------------------------------------------------------------------
# front-end references
# ----------------------------------------------------------------------

def reference_repetition_vector(graph: SDFGraph) -> Dict[str, int]:
    """The repetition vector by exact Fraction ratios propagated over a
    spanning tree of each weakly connected component, chords checked by
    Fraction equality; the witness of a violation is the first chord
    found in that traversal."""
    ratios: Dict[str, Fraction] = {}

    for component in graph.undirected_components():
        seed = component[0]
        ratios[seed] = Fraction(1)
        stack = [seed]
        while stack:
            actor = stack.pop()
            for edge in graph.out_edges(actor):
                # γ(target) = γ(source) · p / c
                implied = ratios[actor] * edge.production / edge.consumption
                if edge.target in ratios:
                    if ratios[edge.target] != implied:
                        raise InconsistentGraphError(
                            f"graph {graph.name!r} is inconsistent: edge "
                            f"{edge.name} ({edge.source}->{edge.target}, "
                            f"{edge.production}/{edge.consumption}) implies "
                            f"γ({edge.target}) = {implied}, but "
                            f"γ({edge.target}) = {ratios[edge.target]}",
                            witness_edge=edge,
                        )
                else:
                    ratios[edge.target] = implied
                    stack.append(edge.target)
            for edge in graph.in_edges(actor):
                implied = ratios[actor] * edge.consumption / edge.production
                if edge.source in ratios:
                    if ratios[edge.source] != implied:
                        raise InconsistentGraphError(
                            f"graph {graph.name!r} is inconsistent: edge "
                            f"{edge.name} ({edge.source}->{edge.target}, "
                            f"{edge.production}/{edge.consumption}) implies "
                            f"γ({edge.source}) = {implied}, but "
                            f"γ({edge.source}) = {ratios[edge.source]}",
                            witness_edge=edge,
                        )
                else:
                    ratios[edge.source] = implied
                    stack.append(edge.source)

        # Scale this component to the smallest positive integer solution.
        members = component
        denominator_lcm = lcm(*(ratios[a].denominator for a in members))
        scaled = {a: ratios[a].numerator * (denominator_lcm // ratios[a].denominator)
                  for a in members}
        numerator_gcd = gcd(*scaled.values())
        for a in members:
            ratios[a] = Fraction(scaled[a] // numerator_gcd)

    return {a: int(ratios[a]) for a in graph.actor_names}


def reference_realise_iteration_matrix(
    matrix,
    token_ids,
    name: str = "compact-hsdf",
    elide_multiplexers: bool = True,
    observers: Optional[Dict[str, object]] = None,
) -> HsdfConversion:
    """The Figure-4 structure of ``matrix``, built incrementally: every
    actor through :meth:`SDFGraph.add_actor` and every edge through
    :meth:`SDFGraph.add_edge` (auto-named unless it closes a token
    loop), in the order the construction visits them."""
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

    entries: Dict[Tuple[int, int], object] = {}
    for k in range(n):
        row = matrix.rows[k]
        for j in range(n):
            if row[j] != EPSILON:
                entries[(j, k)] = row[j]

    consumers: Dict[int, List[int]] = {j: [] for j in range(n)}
    producers: Dict[int, List[int]] = {k: [] for k in range(n)}
    for (j, k) in entries:
        consumers[j].append(k)
        producers[k].append(j)
    for k, js in producers.items():
        if not js:
            raise ValidationError(
                f"token {token_ids[k]} is produced without any "
                "dependency; the graph is not token-bound"
            )

    hsdf = SDFGraph(name)
    conversion = HsdfConversion(
        graph=hsdf,
        matrix=matrix,
        token_ids=tuple(token_ids),
        token_source={},
        token_entry={},
    )

    for (j, k), value in sorted(entries.items()):
        hsdf.add_actor(matrix_actor_name(j, k), _as_time(value))
        conversion.matrix_actors += 1

    tapped = set()
    for stamp in (observers or {}).values():
        for j in range(n):
            if stamp[j] != EPSILON:
                tapped.add(j)

    needs_demux = {
        j: bool(
            (not elide_multiplexers and consumers[j])
            or len(consumers[j]) > 1
            or j in tapped
        )
        for j in range(n)
    }
    needs_mux = {
        k: not elide_multiplexers or len(producers[k]) > 1 for k in range(n)
    }
    for j in range(n):
        if needs_demux[j]:
            hsdf.add_actor(demux_name(j), 0)
            conversion.demux_actors += 1
    for k in range(n):
        if needs_mux[k]:
            hsdf.add_actor(mux_name(k), 0)
            conversion.mux_actors += 1

    for (j, k) in sorted(entries):
        if needs_demux[j]:
            hsdf.add_edge(demux_name(j), matrix_actor_name(j, k))
        if needs_mux[k]:
            hsdf.add_edge(matrix_actor_name(j, k), mux_name(k))

    for k in range(n):
        if needs_mux[k]:
            conversion.token_source[k] = mux_name(k)
        else:
            (j,) = producers[k]
            conversion.token_source[k] = matrix_actor_name(j, k)

    for j in range(n):
        if needs_demux[j]:
            conversion.token_entry[j] = demux_name(j)
        elif len(consumers[j]) == 1:
            (k,) = consumers[j]
            conversion.token_entry[j] = matrix_actor_name(j, k)

    for label, stamp in (observers or {}).items():
        sync = f"obs_{label}"
        hsdf.add_actor(sync, 0)
        conversion.observer_actors += 1
        conversion.observers[label] = sync
        for j in range(n):
            if stamp[j] == EPSILON:
                continue
            coefficient = f"obsg_{label}_{j}"
            hsdf.add_actor(coefficient, _as_time(stamp[j]))
            conversion.observer_actors += 1
            hsdf.add_edge(demux_name(j), coefficient)
            hsdf.add_edge(coefficient, sync)

    for k in range(n):
        entry = conversion.token_entry.get(k)
        if entry is not None:
            hsdf.add_edge(
                conversion.token_source[k], entry, tokens=1, name=f"token_{k}"
            )

    return conversion


def _as_time(value):
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value
