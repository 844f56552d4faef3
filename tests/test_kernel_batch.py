"""Kernel selection across the batch/cache/resilience layers.

The kernel knob is pure *mechanism*: results are bit-identical either
way, so cache entries, store records and resumed batches are shared
across kernels.  These tests pin that contract where it could silently
break — the memoized cache, the process-pool payload and the
resume-by-store round trip — plus the policy-level validation and
provenance labels.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

pytest.importorskip("numpy")

from repro.analysis.batch import run_batch
from repro.analysis.cache import AnalysisCache
from repro.analysis.resilience import AnalysisPolicy, analyse_with_policy
from repro.sdf.graph import SDFGraph


def _graph(name: str, time_a: int) -> SDFGraph:
    g = SDFGraph(name)
    g.add_actor("a", execution_time=time_a)
    g.add_actor("b", execution_time=1)
    for actor in ("a", "b"):
        g.add_edge(actor, actor, tokens=1, name=f"self_{actor}")
    g.add_edge("a", "b", production=1, consumption=2)
    g.add_edge("b", "a", production=2, consumption=1, tokens=2)
    return g


GRAPHS = [_graph(f"kb-{i}", 2 + i) for i in range(4)]


class TestCacheSharingAcrossKernels:
    def test_numpy_then_exact_hits_the_same_entry(self):
        cache = AnalysisCache(maxsize=16)
        first = cache.throughput(GRAPHS[0], kernel="numpy")
        second = cache.throughput(GRAPHS[0], kernel="exact")
        assert second is first  # same memoized object: kernel not keyed
        stats = cache.stats()
        assert stats.hits >= 1

    def test_exact_then_numpy_agree_on_the_value(self):
        cache = AnalysisCache(maxsize=16)
        cold = cache.throughput(GRAPHS[1], kernel="exact")
        warm = cache.throughput(GRAPHS[1], kernel="numpy")
        assert warm is cold
        assert warm.cycle_time == Fraction(7)


class TestBatchKernels:
    def test_process_backend_runs_numpy_kernel(self):
        report = run_batch(
            GRAPHS, backend="process", workers=2,
            cache=AnalysisCache(maxsize=16), kernel="numpy",
        )
        assert all(r.ok for r in report.results)
        serial = run_batch(
            GRAPHS, backend="serial", cache=AnalysisCache(maxsize=16),
            kernel="exact",
        )
        for via_numpy, via_exact in zip(report.results, serial.results):
            assert (
                via_numpy.values["throughput"].cycle_time
                == via_exact.values["throughput"].cycle_time
            )

    def test_mixed_kernel_runs_share_one_cache(self):
        cache = AnalysisCache(maxsize=16)
        run_batch(GRAPHS[:2], backend="thread", cache=cache, kernel="numpy")
        before = cache.stats()
        report = run_batch(GRAPHS[:2], backend="thread", cache=cache,
                           kernel="exact")
        assert all(r.ok for r in report.results)
        assert cache.stats().hits - before.hits >= 2  # served, not recomputed

    def test_invalid_kernel_is_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            run_batch(GRAPHS[:1], backend="serial",
                      cache=AnalysisCache(maxsize=4), kernel="fast")


class TestJournalResumeAcrossKernels:
    """Resume re-runs a batch against the same result store; records are
    keyed by content, not by kernel, so either kernel serves the other's."""

    def test_resume_with_switched_kernel(self, tmp_path):
        first = run_batch(
            GRAPHS, backend="thread", cache=AnalysisCache(maxsize=16),
            store=tmp_path, kernel="numpy",
        )
        assert all(r.ok for r in first.results)

        # Resuming under the other kernel serves every record the first
        # run wrote: the store keys results, not kernels.
        resumed = run_batch(
            GRAPHS, backend="thread", cache=AnalysisCache(maxsize=16),
            store=tmp_path, kernel="exact",
        )
        stats = resumed.cache_stats
        assert (stats.disk_hits, stats.disk_misses, stats.disk_puts) == (
            len(GRAPHS), 0, 0,
        )
        for fresh, replay in zip(first.results, resumed.results):
            fresh, served = fresh.value("throughput"), replay.value("throughput")
            assert served.cycle_time == fresh.cycle_time
            assert served.provenance.fingerprint == fresh.provenance.fingerprint
            assert served.provenance.kernel == "numpy"

    def test_partial_resume_computes_the_rest_with_new_kernel(self, tmp_path):
        run_batch(GRAPHS[:2], backend="serial",
                  cache=AnalysisCache(maxsize=16),
                  store=tmp_path, kernel="exact")
        report = run_batch(
            GRAPHS, backend="serial", cache=AnalysisCache(maxsize=16),
            store=tmp_path, kernel="numpy",
        )
        assert all(r.ok for r in report.results)
        stats = report.cache_stats
        assert (stats.disk_hits, stats.disk_misses, stats.disk_puts) == (
            2, 2, 2,
        )
        kernels = [r.value("throughput").provenance.kernel
                   for r in report.results]
        assert kernels == ["exact", "exact", "numpy", "numpy"]


class TestPolicyKernels:
    def test_policy_validates_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            AnalysisPolicy(kernel="quantum")

    def test_policy_carries_kernel_into_provenance(self):
        outcome = analyse_with_policy(GRAPHS[0], kernel="numpy")
        assert outcome.status == "exact"
        assert outcome.record.kernel == "numpy"

    def test_policy_exact_kernel(self):
        outcome = analyse_with_policy(GRAPHS[0], kernel="exact")
        assert outcome.status == "exact"
        assert outcome.record.kernel == "exact"
