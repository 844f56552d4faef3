"""Cooperative deadlines and cancellation threaded through the analyses."""

from __future__ import annotations

import time

import pytest

from repro.analysis.deadline import CancelToken, Deadline
from repro.analysis.throughput import throughput
from repro.core.symbolic import symbolic_iteration
from repro.errors import AnalysisCancelled, AnalysisInterrupted, AnalysisTimeout
from repro.graphs.examples import figure3_graph
from repro.graphs.multimedia import mp3_playback
from repro.sdf.transform import traditional_hsdf


class TestDeadline:
    def test_unlimited_never_expires(self):
        d = Deadline.unlimited()
        assert d.remaining() is None
        assert not d.expired
        for _ in range(1000):
            d.check()

    def test_after_expires(self):
        d = Deadline.after(0.01)
        # One-sided: the sleep only lengthens elapsed time past the
        # budget, so a slow or loaded host can only make `expired` true.
        time.sleep(0.02)
        assert d.expired
        with pytest.raises(AnalysisTimeout) as exc:
            d.check_now()
        assert exc.value.budget == pytest.approx(0.01)
        assert exc.value.elapsed >= 0.01

    def test_strided_check_eventually_fires(self):
        d = Deadline.after(0.0, stride=64)
        # One-sided: a zero budget is spent at creation and the sleep
        # only adds elapsed time, so the strided clock read can only fire.
        time.sleep(0.005)
        with pytest.raises(AnalysisTimeout):
            for _ in range(65):  # at most one full stride before the clock
                d.check()

    def test_checkpoint_progress_is_live(self):
        d = Deadline.after(0.01)
        progress = d.checkpoint("stage-x", {"step": 0})
        progress["step"] = 41
        # One-sided: the sleep only lengthens elapsed time past the
        # budget, so check_now() can only raise.
        time.sleep(0.02)
        with pytest.raises(AnalysisTimeout) as exc:
            d.check_now()
        assert exc.value.stage == "stage-x"
        assert exc.value.progress == {"step": 41}
        # The exception snapshots the dict: later mutation is invisible.
        progress["step"] = 99
        assert exc.value.progress == {"step": 41}

    def test_sub_deadline_clamped_to_parent(self):
        parent = Deadline.after(10.0)
        child = parent.sub(0.001)
        assert child.remaining() <= 0.001
        wide = parent.sub(100.0)
        assert wide.remaining() <= 10.0

    def test_sub_shares_token(self):
        token = CancelToken()
        parent = Deadline(budget=None, token=token)
        child = parent.sub(5.0)
        token.cancel("stop")
        with pytest.raises(AnalysisCancelled):
            child.check_now()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(budget=-1.0)


class TestCancelToken:
    def test_sticky(self):
        token = CancelToken()
        assert not token.cancelled
        token.cancel("user hit ^C")
        assert token.cancelled
        token.cancel("again")  # idempotent
        with pytest.raises(AnalysisCancelled) as exc:
            token.raise_if_cancelled(stage="s")
        assert "user hit ^C" in str(exc.value)

    def test_cancellation_is_a_distinct_family(self):
        token = CancelToken()
        token.cancel()
        d = Deadline(budget=None, token=token)
        with pytest.raises(AnalysisCancelled):
            d.check_now()
        # Both interrupts share one catchable base.
        assert issubclass(AnalysisCancelled, AnalysisInterrupted)
        assert issubclass(AnalysisTimeout, AnalysisInterrupted)


class TestThreadedThroughAnalyses:
    """The deadline actually reaches every hot loop."""

    @pytest.mark.parametrize("method", ["symbolic", "simulation", "hsdf"])
    def test_expired_deadline_interrupts(self, method):
        g = mp3_playback()
        with pytest.raises(AnalysisTimeout) as exc:
            throughput(g, method=method, deadline=Deadline.after(0.0))
        assert exc.value.stage is not None

    def test_timeout_carries_progress(self):
        g = mp3_playback()
        with pytest.raises(AnalysisTimeout) as exc:
            traditional_hsdf(g, deadline=Deadline.after(0.005))
        assert exc.value.stage == "traditional-hsdf"
        assert "copies_total" in exc.value.progress

    def test_generous_deadline_is_transparent(self):
        g = figure3_graph()
        bare = throughput(g)
        timed = throughput(g, deadline=Deadline.after(60.0))
        assert timed.cycle_time == bare.cycle_time

    def test_cancel_token_aborts_symbolic(self):
        g = mp3_playback()
        token = CancelToken()
        token.cancel("shutdown")
        with pytest.raises(AnalysisCancelled):
            symbolic_iteration(g, deadline=Deadline(budget=None, token=token))

    def test_rerun_after_timeout_equals_fresh_run(self):
        """Cancellation never corrupts graph state: interrupting an
        analysis and re-running it gives exactly the fresh answer."""
        g = mp3_playback()
        fingerprint = g.fingerprint()
        with pytest.raises(AnalysisTimeout):
            throughput(g, method="hsdf", deadline=Deadline.after(0.005))
        assert g.fingerprint() == fingerprint
        rerun = throughput(g, method="symbolic")
        assert rerun.cycle_time == throughput(mp3_playback()).cycle_time
