"""Batch hardening: resume by store, retries, quarantine, isolation."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import ticking_deadlines
from repro.analysis.batch import analyse_graph, run_batch
from repro.analysis.cache import AnalysisCache
from repro.analysis.deadline import CancelToken
from repro.analysis.faults import FaultPlan, FaultRule
from repro.analysis.store import ResultStore
from repro.graphs.dsp import modem, satellite_receiver
from repro.graphs.examples import figure3_graph
from repro.graphs.multimedia import mp3_playback


def small_graphs():
    return [figure3_graph(), modem(), satellite_receiver()]


def disk_traffic(report):
    """(disk hits, disk misses, results published) of one batch run."""
    stats = report.cache_stats
    return stats.disk_hits, stats.disk_misses, stats.disk_puts


class TestResume:
    """Resuming a sweep is re-running it against the same store: every
    analysis with a valid record is served from disk as the same typed
    result a fresh computation returns, and only the rest is computed."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_resume_skips_completed_fingerprints(self, tmp_path, backend):
        graphs = small_graphs()
        first = run_batch(graphs, backend=backend, workers=2,
                          store=tmp_path, cache=AnalysisCache())
        assert len(first.ok) == 3
        assert disk_traffic(first) == (0, 3, 3)

        second = run_batch(graphs, backend=backend, workers=2,
                           store=tmp_path, cache=AnalysisCache())
        assert all(r.ok for r in second.results)
        # Every memory miss was a disk hit: nothing was computed.
        assert disk_traffic(second) == (3, 0, 0)
        assert second.cache_stats.misses == 3
        for fresh, served in zip(first.results, second.results):
            fresh, served = fresh.value("throughput"), served.value("throughput")
            assert isinstance(served.cycle_time, Fraction)
            assert served.cycle_time == fresh.cycle_time
            assert served.provenance.fingerprint == fresh.provenance.fingerprint

    def test_resume_reanalyses_failures(self, tmp_path):
        graphs = small_graphs()
        flake = FaultPlan((FaultRule(action="raise", name="modem"),))
        first = run_batch(graphs, backend="serial", store=tmp_path,
                          faults=flake, cache=AnalysisCache())
        assert [r.ok for r in first.results] == [True, False, True]
        assert ResultStore(tmp_path).stats().records == 2

        second = run_batch(graphs, backend="serial", store=tmp_path,
                           cache=AnalysisCache())
        assert all(r.ok for r in second.results)
        # Only modem, which failed in the first run, is analysed again.
        assert disk_traffic(second) == (2, 1, 1)
        # Its result is durable now too: a third run computes nothing.
        third = run_batch(graphs, backend="serial", store=tmp_path,
                          cache=AnalysisCache())
        assert disk_traffic(third) == (3, 0, 0)

    def test_resume_is_fingerprint_keyed_not_order_keyed(self, tmp_path):
        run_batch([figure3_graph(), modem()], backend="serial",
                  store=tmp_path, cache=AnalysisCache())
        # Reordered + extended list: only the new graph is analysed.
        report = run_batch([modem(), satellite_receiver(), figure3_graph()],
                           backend="serial", store=tmp_path,
                           cache=AnalysisCache())
        assert all(r.ok for r in report.results)
        assert disk_traffic(report) == (2, 1, 1)
        assert ResultStore(tmp_path).stats().records == 3


class TestRetries:
    def test_transient_failure_retried(self):
        plan = FaultPlan((FaultRule(
            action="raise", name="modem",
            exception="TransientWorkerError", attempts=2,
        ),))
        result = analyse_graph(modem(), faults=plan, retries=3, backoff=0.001)
        assert result.ok
        assert result.attempts == 3  # two injected failures + success

    def test_retries_exhausted_records_failure(self):
        plan = FaultPlan((FaultRule(
            action="raise", name="modem", exception="TransientWorkerError",
        ),))
        result = analyse_graph(modem(), faults=plan, retries=2, backoff=0.001)
        assert not result.ok
        assert result.attempts == 3
        assert result.error_type == "TransientWorkerError"

    def test_deterministic_failures_not_retried(self):
        plan = FaultPlan((FaultRule(
            action="raise", name="modem", exception="ValueError",
        ),))
        result = analyse_graph(modem(), faults=plan, retries=5, backoff=0.001)
        assert not result.ok
        assert result.attempts == 1


class TestIsolation:
    def test_error_record_carries_fingerprint(self):
        plan = FaultPlan((FaultRule(action="raise", name="modem"),))
        result = analyse_graph(modem(), faults=plan)
        assert result.fingerprint[:12] in result.error

    def test_memory_error_isolated_distinctly(self):
        plan = FaultPlan((FaultRule(
            action="raise", name="modem", exception="MemoryError",
        ),))
        result = analyse_graph(modem(), faults=plan, retries=2)
        assert result.error_type == "MemoryError"
        assert result.attempts == 1  # OOM is not transient
        assert "out of memory" in result.error

    def test_keyboard_interrupt_propagates_in_parent(self):
        plan = FaultPlan((FaultRule(
            action="raise", name="modem", exception="KeyboardInterrupt",
        ),))
        with pytest.raises(KeyboardInterrupt):
            analyse_graph(modem(), faults=plan)

    def test_keyboard_interrupt_isolated_in_workers(self):
        plan = FaultPlan((FaultRule(
            action="raise", name="modem", exception="KeyboardInterrupt",
        ),))
        result = analyse_graph(modem(), faults=plan, isolate_interrupts=True)
        assert not result.ok
        assert result.error_type == "KeyboardInterrupt"
        assert result.fingerprint[:12] in result.error

    def test_timeout_recorded_not_raised(self):
        # On the ticking clock the 5 ms budget expires after a few
        # polls, however fast the expansion runs on this host.
        with ticking_deadlines():
            result = analyse_graph(mp3_playback(), method="hsdf",
                                   timeout=0.005, cache=AnalysisCache())
        assert not result.ok
        assert result.timed_out
        assert result.error_type == "AnalysisTimeout"

    def test_cancel_token_recorded(self):
        token = CancelToken()
        token.cancel("shutdown")
        result = analyse_graph(modem(), token=token, cache=AnalysisCache())
        assert result.error_type == "AnalysisCancelled"
        assert result.timed_out


class TestQuarantine:
    def test_worker_kill_quarantines_only_the_poison_graph(self):
        graphs = small_graphs()
        plan = FaultPlan((FaultRule(action="kill", name="modem"),))
        report = run_batch(graphs, backend="process", workers=2,
                           faults=plan, cache=AnalysisCache())
        by_name = {r.name: r for r in report.results}
        assert by_name["modem"].quarantined
        assert by_name["modem"].error_type == "WorkerCrashed"
        assert by_name["modem"].fingerprint[:12] in by_name["modem"].error
        others = [r for r in report.results if r.name != "modem"]
        assert all(r.ok for r in others)

    def test_kill_in_thread_backend_degrades_to_error(self):
        plan = FaultPlan((FaultRule(action="kill", name="modem"),))
        report = run_batch([modem()], backend="thread", faults=plan,
                           cache=AnalysisCache())
        result = report.results[0]
        assert not result.ok
        assert result.error_type == "WorkerCrashed"
        assert not result.quarantined  # no process actually died


class FakeClock:
    """A monotonic clock that moves only when something sleeps on it."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class TestHangAndCancel:
    """Budgets run on a fake clock shared by the deadline and the fault
    injector: the injected hang uses up the 0.2 s budget in 1 ms sleeps,
    while real analyses never advance the clock, so no verdict depends
    on how loaded the host is."""

    @pytest.fixture(autouse=True)
    def clock(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr("repro.analysis.deadline.time", clock)
        monkeypatch.setattr("repro.analysis.faults.time", clock)
        return clock

    def test_injected_hang_ends_in_timeout(self, clock):
        plan = FaultPlan((FaultRule(action="hang", name="modem"),))
        report = run_batch(small_graphs(), backend="serial", timeout=0.2,
                           faults=plan, cache=AnalysisCache())
        by_name = {r.name: r for r in report.results}
        assert by_name["modem"].timed_out
        assert by_name["modem"].error_type == "AnalysisTimeout"
        assert by_name["figure3"].ok
        assert clock.now == pytest.approx(0.2, abs=0.002)

    def test_report_accessors(self):
        plan = FaultPlan((FaultRule(action="hang", name="modem"),))
        report = run_batch(small_graphs(), backend="serial", timeout=0.2,
                           faults=plan, cache=AnalysisCache())
        assert [r.name for r in report.timed_out] == ["modem"]
        assert report.quarantined == []
