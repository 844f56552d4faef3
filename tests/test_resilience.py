"""The tiered fallback policy: exactness, degradation, Theorem-1 soundness."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ticking_deadlines
from strategies import consistent_connected_sdf_graphs, live_hsdf_graphs

from repro.analysis.cache import AnalysisCache
from repro.analysis.deadline import CancelToken
from repro.analysis.resilience import (
    CONSERVATIVE,
    DEFAULT_STAGES,
    EXACT,
    TIMED_OUT,
    AnalysisPolicy,
    analyse_with_policy,
)
from repro.analysis.throughput import throughput
from repro.errors import DeadlockError, ReproError
from repro.graphs.dsp import satellite_receiver
from repro.graphs.examples import figure3_graph
from repro.graphs.multimedia import mp3_playback
from repro.sdf.graph import SDFGraph


#: Stage timeouts that starve every exact stage while leaving the
#: abstraction stage unbounded-ish — forces the Theorem 1 fallback.
#: Tests using it run under ``ticking_deadlines()``: every clock read
#: advances 2 ms, so both exact stages time out at their first poll on
#: any host, and the abstraction stage still gets thousands of polls.
FORCE_FALLBACK = {"simulation": 0.001, "symbolic": 0.001}


class TestExactPath:
    def test_plenty_of_budget_is_exact(self):
        outcome = analyse_with_policy(figure3_graph(), timeout=60.0)
        assert outcome.status == EXACT
        assert outcome.sound
        assert outcome.cycle_time_bound == throughput(figure3_graph()).cycle_time
        assert outcome.provenance[-1].ok

    def test_no_timeout_runs_unbounded(self):
        outcome = analyse_with_policy(figure3_graph())
        assert outcome.status == EXACT

    def test_failed_stages_recorded_in_provenance(self):
        policy = AnalysisPolicy(timeout=30.0, stage_timeouts=FORCE_FALLBACK)
        with ticking_deadlines():
            outcome = policy.run(mp3_playback())
        stages = [a.stage for a in outcome.provenance]
        assert stages[:2] == ["simulation", "symbolic"]
        assert all(a.status == "timeout" for a in outcome.provenance[:2])
        assert all(a.progress for a in outcome.provenance[:2])

    def test_deadlock_is_not_degradable(self):
        g = SDFGraph("deadlocked")
        g.add_actor("A", 1)
        g.add_actor("B", 1)
        g.add_edge("A", "B", tokens=0)
        g.add_edge("B", "A", tokens=0)
        with pytest.raises(DeadlockError):
            analyse_with_policy(g, timeout=10.0)


class TestConservativeFallback:
    @pytest.fixture(autouse=True)
    def ticking_clock(self):
        with ticking_deadlines():
            yield

    @pytest.mark.parametrize("factory", [mp3_playback, satellite_receiver])
    def test_fallback_bound_is_sound_on_registry(self, factory):
        g = factory()
        policy = AnalysisPolicy(timeout=30.0, stage_timeouts=FORCE_FALLBACK)
        outcome = policy.run(g)
        assert outcome.status == CONSERVATIVE
        assert outcome.method == "abstraction"
        exact = throughput(g).cycle_time
        # Theorem 1: bound = N * lambda' >= exact iteration period.
        assert outcome.cycle_time_bound >= exact
        assert (
            outcome.cycle_time_bound
            == outcome.bound_phase_count * outcome.bound_abstract_cycle_time
        )
        assert outcome.bound_strategy in ("name", "structural")

    def test_per_actor_bounds_are_lower_bounds(self):
        g = mp3_playback()
        policy = AnalysisPolicy(timeout=30.0, stage_timeouts=FORCE_FALLBACK)
        outcome = policy.run(g)
        exact = throughput(g)
        for actor, rate in outcome.per_actor_bounds.items():
            assert rate <= exact.per_actor[actor]

    def test_timed_out_outcome_has_no_rates(self):
        # On the class's ticking clock (autouse fixture above) every
        # budget here expires at its stage's first poll, however fast
        # the host: no stage can finish, so the outcome is timed out.
        policy = AnalysisPolicy(
            timeout=0.003,
            stage_timeouts={"simulation": 0.001, "symbolic": 0.001,
                            "abstraction": 0.001},
        )
        outcome = policy.run(mp3_playback())
        assert [a.status for a in outcome.provenance] == ["timeout"] * 3
        assert outcome.status == TIMED_OUT
        assert not outcome.sound
        with pytest.raises(ReproError):
            outcome.per_actor_bounds

    def test_cancellation_stops_the_whole_chain(self):
        token = CancelToken()
        token.cancel("shutting down")
        outcome = analyse_with_policy(mp3_playback(), timeout=30.0, token=token)
        assert outcome.status == TIMED_OUT
        assert outcome.provenance[0].status == "cancelled"
        assert len(outcome.provenance) == 1  # no stage after a cancel

    def test_describe_mentions_provenance(self):
        policy = AnalysisPolicy(timeout=30.0, stage_timeouts=FORCE_FALLBACK)
        text = policy.run(mp3_playback()).describe()
        assert "conservative-bound" in text
        assert "Theorem 1" in text
        assert "simulation: timeout" in text

    def test_exact_results_shared_with_cache(self):
        cache = AnalysisCache()
        g = figure3_graph()
        outcome = analyse_with_policy(g, timeout=60.0, cache=cache)
        assert outcome.status == EXACT
        # The policy's exact result is the cached one.
        assert cache.throughput(g, method=outcome.method) is outcome.result

    def test_timeouts_never_cached_as_final(self):
        cache = AnalysisCache()
        g = mp3_playback()
        policy = AnalysisPolicy(timeout=30.0, stage_timeouts=FORCE_FALLBACK)
        outcome = policy.run(g, cache=cache)
        assert outcome.status == CONSERVATIVE
        assert cache.lookup(g, "throughput", {"method": "simulation"}) is None
        assert cache.lookup(g, "throughput", {"method": "symbolic"}) is None
        assert cache.stats().errors >= 2
        # A later exact run with budget still computes and caches cleanly.
        exact = cache.throughput(g, method="symbolic")
        assert exact.cycle_time == throughput(g).cycle_time


def _starved_exact_tiers(outcome) -> bool:
    """Whether both exact tiers ran and timed out (so the answer, if
    any, came from the Theorem 1 tier)."""
    return [(a.stage, a.status) for a in outcome.provenance[:2]] == [
        ("simulation", "timeout"), ("symbolic", "timeout")]


class TestSoundnessProperties:
    """Hypothesis: the fallback answer is never optimistic.  Budgets run
    on a ticking clock, so every example reaches the fallback tier."""

    @given(g=live_hsdf_graphs(max_actors=6))
    @settings(max_examples=40, deadline=None)
    def test_homogeneous_fallback_never_exceeds_exact_throughput(self, g):
        policy = AnalysisPolicy(timeout=30.0, stage_timeouts=FORCE_FALLBACK)
        try:
            with ticking_deadlines():
                outcome = policy.run(g)
        except DeadlockError:
            return  # definitive verdict, nothing to bound
        assert _starved_exact_tiers(outcome)
        if outcome.status == TIMED_OUT or outcome.unbounded:
            return
        exact = throughput(g)
        if exact.unbounded:
            return
        assert outcome.cycle_time_bound >= exact.cycle_time
        for actor, rate in outcome.per_actor_bounds.items():
            assert rate <= exact.per_actor[actor]

    @given(g=consistent_connected_sdf_graphs(max_actors=4, min_time=1))
    @settings(max_examples=25, deadline=None)
    def test_multirate_fallback_never_exceeds_exact_throughput(self, g):
        """Multirate graphs go through the period-preserving Algorithm 1
        conversion before abstraction; the scaled bound must still be a
        sound upper bound on the true iteration period."""
        policy = AnalysisPolicy(timeout=30.0, stage_timeouts=FORCE_FALLBACK)
        try:
            with ticking_deadlines():
                outcome = policy.run(g)
        except DeadlockError:
            return
        assert _starved_exact_tiers(outcome)
        if outcome.status == TIMED_OUT or outcome.unbounded:
            return
        exact = throughput(g)
        if exact.unbounded:
            return
        assert outcome.cycle_time_bound >= exact.cycle_time

    @given(
        g=consistent_connected_sdf_graphs(max_actors=4, min_time=1),
        budget=st.sampled_from([0.0005, 0.002, 0.01]),
    )
    @settings(max_examples=25, deadline=None)
    def test_interrupted_analysis_never_corrupts_state(self, g, budget):
        """Re-running after a timeout gives exactly the fresh answer."""
        from repro.analysis.deadline import Deadline
        from repro.errors import AnalysisTimeout

        fingerprint = g.fingerprint()
        try:
            with ticking_deadlines():
                first = throughput(g, deadline=Deadline.after(budget))
        except AnalysisTimeout:
            first = None
        except DeadlockError:
            return
        assert g.fingerprint() == fingerprint
        try:
            fresh = throughput(g)
        except DeadlockError:
            return
        assert throughput(g).cycle_time == fresh.cycle_time
        if first is not None:
            assert first.cycle_time == fresh.cycle_time


class TestPolicyValidation:
    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            AnalysisPolicy(stages=("simulation", "magic"))

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            AnalysisPolicy(stages=())

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError):
            AnalysisPolicy(timeout=0.0)

    def test_default_stages_are_the_paper_ladder(self):
        assert DEFAULT_STAGES == ("simulation", "symbolic", "abstraction")
