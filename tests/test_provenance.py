"""The analysis flight recorder: certificates that re-verify.

The acceptance property of the provenance layer: for every graph
analysed *exactly*, :func:`repro.obs.provenance.verify_witness`
re-derives the reported cycle mean from the witness arcs on the graph
that was analysed — in O(|cycle|), independent of the solver that found
the cycle, and stable under arbitrary reduction pipelines applied
before the analysis.  Conservative-tier outcomes must carry a record
naming the degradation reason and the tiers that were skipped.
"""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import ticking_deadlines
from strategies import consistent_connected_sdf_graphs

from repro.analysis.cache import AnalysisCache
from repro.analysis.resilience import AnalysisPolicy
from repro.analysis.throughput import throughput
from repro.core.pruning import prune_redundant_edges
from repro.errors import ConvergenceError
from repro.graphs import TABLE1_CASES, modem, mp3_playback
from repro.obs.check import validate_provenance
from repro.obs.provenance import (
    CycleWitness,
    ProvenanceRecord,
    WitnessArc,
    WitnessError,
    current_recorder,
    record_step,
    recording,
    verify_witness,
)
from repro.sdf.repetition import repetition_vector
from repro.sdf.transform import traditional_hsdf

#: Registry graphs small enough for the O(sum(q)) back-ends in a test.
SMALL_EXPANSION = 700

quick = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _verified(graph, result):
    """The acceptance check for one exact analysis."""
    record = result.provenance
    assert record is not None and record.status == "exact"
    validate_provenance(record.as_dict())
    assert record.witness is not None, record.witness_unavailable
    assert verify_witness(graph, record) == result.cycle_time
    return record


# ----------------------------------------------------------------------
# the acceptance property on the registry
# ----------------------------------------------------------------------

class TestRegistryWitnesses:
    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
    def test_symbolic_token_witness(self, case):
        graph = case.build()
        record = _verified(graph, throughput(graph, method="symbolic"))
        assert record.algorithm == "karp"
        assert record.witness.space == "token"
        # Algorithm 1 ran: the record shows the symbolic conversion.
        assert "symbolic-conversion" in [s.kind for s in record.steps]

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
    def test_hsdf_actor_witness(self, case):
        graph = case.build()
        if sum(repetition_vector(graph).values()) > SMALL_EXPANSION:
            pytest.skip("HSDF expansion too large for a unit test")
        record = _verified(graph, throughput(graph, method="hsdf"))
        assert record.algorithm == "howard"
        assert record.witness.space == "actor"

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
    def test_simulation_backpointer_witness(self, case):
        graph = case.build()
        if sum(repetition_vector(graph).values()) > SMALL_EXPANSION:
            pytest.skip("simulation too large for a unit test")
        try:
            result = throughput(graph, method="simulation")
        except ConvergenceError as error:
            pytest.skip(f"simulation cannot analyse this graph: {error}")
        record = _verified(graph, result)
        assert record.witness.space == "actor"
        assert record.witness.source == "simulation-backpointers"


# ----------------------------------------------------------------------
# ... and under random reduction pipelines (hypothesis)
# ----------------------------------------------------------------------

class TestWitnessProperty:
    @given(g=consistent_connected_sdf_graphs(max_actors=4, max_repetition=3,
                                             min_time=1, max_extra_tokens=2),
           data=st.data())
    @quick
    def test_reverifies_after_random_reduction_pipeline(self, g, data):
        """Reduce the graph by a drawn pipeline, analyse with a drawn
        back-end: the witness still re-derives the cycle time on the
        graph that was analysed."""
        pipeline = data.draw(st.lists(
            st.sampled_from(["prune", "expand"]), max_size=3))
        for step in pipeline:
            g = prune_redundant_edges(g) if step == "prune" else traditional_hsdf(g)
        method = data.draw(st.sampled_from(["symbolic", "hsdf", "simulation"]))
        result = throughput(g, method=method)
        record = result.provenance
        validate_provenance(record.as_dict())
        if record.witness is None:
            # Never silent: a missing witness must name its reason
            # (only the simulation extractor may decline).
            assert method == "simulation" and record.witness_unavailable
            return
        assert verify_witness(g, record) == result.cycle_time


# ----------------------------------------------------------------------
# the flight recorder itself
# ----------------------------------------------------------------------

class TestFlightRecorder:
    def test_disabled_recording_is_a_no_op(self):
        assert current_recorder() is None
        record_step("noop")  # must not raise with no recorder open

    def test_steps_carry_fingerprints_and_sizes(self):
        graph = modem()
        with recording() as recorder:
            pruned = prune_redundant_edges(graph)
        (step,) = recorder.steps
        assert step.kind == "pruning"
        assert step.before_fingerprint == graph.fingerprint()
        assert step.after_fingerprint == pruned.fingerprint()
        assert step.before_size["edges"] - step.after_size["edges"] == \
            step.detail["removed_edges"]

    def test_nested_recorders_both_see_steps(self):
        graph = modem()
        with recording() as outer:
            with recording() as inner:
                prune_redundant_edges(graph)
            prune_redundant_edges(graph)
        assert len(inner.steps) == 1
        assert len(outer.steps) == 2
        assert current_recorder() is None


# ----------------------------------------------------------------------
# serialisation round trip
# ----------------------------------------------------------------------

class TestRoundTrip:
    def test_record_survives_json(self):
        graph = modem()
        result = throughput(graph)
        record = result.provenance
        data = json.loads(json.dumps(record.as_dict()))
        validate_provenance(data)
        back = ProvenanceRecord.from_dict(data)
        assert back == record
        # The dict form verifies directly too (service-boundary shape).
        assert verify_witness(graph, data) == result.cycle_time

    def test_from_dict_rejects_wrong_schema(self):
        data = throughput(modem()).provenance.as_dict()
        data["schema"] = "repro-provenance-v0"
        with pytest.raises(WitnessError, match="repro-provenance-v1"):
            ProvenanceRecord.from_dict(data)

    def test_cached_result_carries_the_same_certificate(self):
        cache = AnalysisCache(maxsize=8)
        graph = modem()
        warm = cache.throughput(graph)
        again = cache.throughput(graph)
        assert again.provenance is warm.provenance
        assert verify_witness(graph, again.provenance) == warm.cycle_time


# ----------------------------------------------------------------------
# tamper detection
# ----------------------------------------------------------------------

class TestTamperDetection:
    def test_unchained_arcs_rejected(self):
        witness = CycleWitness(space="actor", arcs=[
            WitnessArc("a", "b", Fraction(1), 1),
            WitnessArc("b", "c", Fraction(1), 1),  # c never closes on a
        ])
        with pytest.raises(WitnessError, match="do not chain"):
            verify_witness(None, witness)

    def test_zero_transit_rejected(self):
        witness = CycleWitness(space="actor", arcs=[
            WitnessArc("a", "a", Fraction(1), 0),
        ])
        with pytest.raises(WitnessError, match="transit sum must be positive"):
            verify_witness(None, witness)

    def test_negative_transit_rejected(self):
        witness = CycleWitness(space="actor", arcs=[
            WitnessArc("a", "a", Fraction(1), -1),
        ])
        with pytest.raises(WitnessError, match="negative transit"):
            verify_witness(None, witness)

    def test_inflated_weight_changes_the_mean(self):
        graph = modem()
        record = throughput(graph).provenance
        arcs = list(record.witness.arcs)
        arcs[0] = replace(arcs[0], weight=arcs[0].weight + 1)
        tampered = CycleWitness(space=record.witness.space, arcs=arcs,
                                source=record.witness.source)
        with pytest.raises(WitnessError, match="result claims"):
            verify_witness(graph, tampered, cycle_time=record.cycle_time)

    def test_token_label_must_name_a_channel(self):
        graph = modem()
        witness = CycleWitness(space="token", arcs=[
            WitnessArc("ghost[0]", "ghost[0]", Fraction(1), 1),
        ])
        with pytest.raises(WitnessError, match="no channel 'ghost'"):
            verify_witness(graph, witness)

    def test_token_position_must_exist(self):
        graph = modem()
        record = throughput(graph).provenance
        edge_name, _ = record.witness.arcs[0].source[:-1].rsplit("[", 1)
        beyond = f"{edge_name}[{graph.edge(edge_name).tokens}]"
        witness = CycleWitness(space="token", arcs=[
            WitnessArc(beyond, beyond, Fraction(1), 1),
        ])
        with pytest.raises(WitnessError, match="holds only"):
            verify_witness(graph, witness)

    def test_actor_weight_must_match_execution_time(self):
        graph = modem()
        record = throughput(graph, method="hsdf").provenance
        arc = record.witness.arcs[0]
        wrong = Fraction(graph.execution_time(arc.source)) + 1
        witness = CycleWitness(space="actor", arcs=[
            replace(arc, weight=wrong, target=arc.source, key=None),
        ])
        with pytest.raises(WitnessError, match="execution time"):
            verify_witness(graph, witness)

    def test_record_without_witness_refuses_to_verify(self):
        record = throughput(modem()).provenance
        stripped = replace(record, witness=None,
                           witness_unavailable="stripped for the test")
        with pytest.raises(WitnessError, match="stripped for the test"):
            verify_witness(modem(), stripped)


# ----------------------------------------------------------------------
# fallback tiers
# ----------------------------------------------------------------------

#: Starves the exact tiers so Theorem 1 answers.  Deterministic on any
#: host: the budgets run on a ticking clock (2 ms per read), so both
#: exact tiers time out at their first poll.
FORCE_FALLBACK = {"simulation": 0.001, "symbolic": 0.001}


class TestTierProvenance:
    def test_conservative_outcome_names_degradation_and_witness(self):
        graph = mp3_playback()
        with ticking_deadlines():
            outcome = AnalysisPolicy(
                timeout=30.0, stage_timeouts=FORCE_FALLBACK).run(graph)
        assert outcome.status == "conservative-bound"
        record = outcome.record
        assert record is not None and record.status == "conservative-bound"
        validate_provenance(record.as_dict())
        # The degradation is accounted for, tier by tier.
        assert record.degradation_reason
        by_tier = {t.tier: t for t in record.tiers}
        assert by_tier["simulation"].status == "timeout"
        assert by_tier["symbolic"].status == "timeout"
        assert by_tier["abstraction"].status == "ok"
        # The abstract witness certifies λ′ of bound = N · λ′.
        assert record.bound_phase_count == outcome.bound_phase_count
        assert record.witness is not None
        assert record.witness.space == "abstract"
        assert verify_witness(graph, record) == record.bound_abstract_cycle_time

    def test_exact_outcome_marks_unreached_tiers_skipped(self):
        graph = modem()
        outcome = AnalysisPolicy(timeout=30.0).run(graph)
        assert outcome.status == "exact"
        record = outcome.record
        assert record.status == "exact"
        assert record.degradation_reason is None
        assert record.skipped_tiers() == ["symbolic", "abstraction"]
        for tier in record.tiers:
            if tier.status == "skipped":
                assert tier.reason == "earlier tier answered"
        assert verify_witness(graph, record) == outcome.cycle_time_bound

    @given(g=consistent_connected_sdf_graphs(max_actors=4, max_repetition=3,
                                             min_time=1))
    @quick
    def test_every_policy_run_is_accounted_for(self, g):
        """Whatever tier answers, the record covers all stages and any
        witness it carries verifies on the original graph."""
        outcome = AnalysisPolicy(timeout=30.0).run(g)
        record = outcome.record
        assert record is not None
        validate_provenance(record.as_dict())
        assert [t.tier for t in record.tiers] == list(AnalysisPolicy().stages)
        if record.witness is not None:
            expected = (record.bound_abstract_cycle_time
                        if record.status == "conservative-bound"
                        else outcome.cycle_time_bound)
            assert verify_witness(g, record) == expected
