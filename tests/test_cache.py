"""The content-addressed analysis cache: fingerprints, LRU, threads."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import consistent_connected_sdf_graphs, shuffled_clones

from repro.analysis.cache import AnalysisCache, default_cache, set_default_cache
from repro.analysis.throughput import throughput
from repro.errors import ValidationError
from repro.sdf.graph import SDFGraph


def two_actor(name="g") -> SDFGraph:
    g = SDFGraph(name)
    g.add_actor("A", 3)
    g.add_actor("B", 1)
    g.add_edge("A", "B", production=1, consumption=2, tokens=0, name="ab")
    g.add_edge("B", "A", production=2, consumption=1, tokens=2, name="ba")
    return g


class TestFingerprint:
    def test_stable_across_calls(self):
        g = two_actor()
        assert g.fingerprint() == g.fingerprint()

    def test_memoized_until_mutation(self):
        g = two_actor()
        first = g.fingerprint()
        assert g._fingerprint is not None  # cached
        g.add_actor("C", 1)
        assert g._fingerprint is None  # invalidated
        assert g.fingerprint() != first

    def test_actor_insertion_order_irrelevant(self):
        a = SDFGraph("x")
        a.add_actor("A", 1)
        a.add_actor("B", 2)
        b = SDFGraph("x")
        b.add_actor("B", 2)
        b.add_actor("A", 1)
        assert a.fingerprint() == b.fingerprint()

    def test_edge_insertion_order_irrelevant(self):
        a = two_actor()
        b = SDFGraph("g")
        b.add_actor("A", 3)
        b.add_actor("B", 1)
        b.add_edge("B", "A", production=2, consumption=1, tokens=2, name="ba")
        b.add_edge("A", "B", production=1, consumption=2, tokens=0, name="ab")
        assert a.fingerprint() == b.fingerprint()

    def test_display_name_excluded(self):
        assert two_actor("one").fingerprint() == two_actor("two").fingerprint()

    def test_copy_shares_fingerprint(self):
        g = two_actor()
        assert g.copy("renamed").fingerprint() == g.fingerprint()

    @given(g=consistent_connected_sdf_graphs(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_shuffled_rebuild_shares_fingerprint(self, g, data):
        clone = data.draw(shuffled_clones(g))
        assert clone.fingerprint() == g.fingerprint()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_actor("C", 1),
            lambda g: g.add_actors("C", "D", execution_time=2),
            lambda g: g.add_edge("A", "B", tokens=1),
            lambda g: g.remove_edge("ab"),
            lambda g: g.set_execution_time("A", 7),
            lambda g: g.set_tokens("ba", 9),
            lambda g: g.set_rates("ab", 3, 4),
        ],
        ids=[
            "add_actor",
            "add_actors",
            "add_edge",
            "remove_edge",
            "set_execution_time",
            "set_tokens",
            "set_rates",
        ],
    )
    def test_every_mutator_invalidates(self, mutate):
        g = two_actor()
        before = g.fingerprint()
        mutate(g)
        assert g.fingerprint() != before

    def test_mutation_roundtrip_restores_fingerprint(self):
        """Content addressing: undoing a mutation restores the hash."""
        g = two_actor()
        before = g.fingerprint()
        g.set_tokens("ba", 5)
        assert g.fingerprint() != before
        g.set_tokens("ba", 2)
        assert g.fingerprint() == before

    def test_rates_and_times_distinguished(self):
        """p/c swaps and time changes must not collide."""
        a = SDFGraph("x")
        a.add_actor("A", 1)
        a.add_actor("B", 1)
        a.add_edge("A", "B", production=2, consumption=3, name="e")
        b = SDFGraph("x")
        b.add_actor("A", 1)
        b.add_actor("B", 1)
        b.add_edge("A", "B", production=3, consumption=2, name="e")
        assert a.fingerprint() != b.fingerprint()
        c = two_actor()
        d = two_actor()
        d.set_execution_time("A", Fraction(7, 2))
        assert c.fingerprint() != d.fingerprint()

    def test_versioned_format(self):
        assert two_actor().fingerprint().startswith("sdfg-v1:")


class TestLRU:
    def graphs(self, count):
        out = []
        for i in range(count):
            g = two_actor(f"g{i}")
            g.set_execution_time("A", i + 1)  # distinct fingerprints
            out.append(g)
        return out

    def test_eviction_bound(self):
        cache = AnalysisCache(maxsize=4)
        for g in self.graphs(10):
            cache.repetition_vector(g)
        assert len(cache) == 4
        assert cache.stats().evictions == 6

    def test_lru_order(self):
        cache = AnalysisCache(maxsize=2)
        a, b, c = self.graphs(3)
        cache.repetition_vector(a)
        cache.repetition_vector(b)
        cache.repetition_vector(a)  # refresh a: b is now the LRU victim
        cache.repetition_vector(c)
        stats = cache.stats()
        cache.repetition_vector(a)
        assert cache.stats().hits == stats.hits + 1  # a survived
        cache.repetition_vector(b)
        assert cache.stats().misses == stats.misses + 1  # b was evicted

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            AnalysisCache(maxsize=0)

    def test_clear_keeps_counters(self):
        cache = AnalysisCache(maxsize=8)
        g = two_actor()
        cache.repetition_vector(g)
        cache.repetition_vector(g)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1
        cache.reset_stats()
        assert cache.stats().lookups == 0


class TestSemantics:
    def test_repetition_copy_is_defensive(self):
        cache = AnalysisCache()
        g = two_actor()
        first = cache.repetition_vector(g)
        first["A"] = 999
        assert cache.repetition_vector(g)["A"] == 2

    def test_params_distinguish_entries(self):
        cache = AnalysisCache()
        g = two_actor()
        cache.throughput(g, method="symbolic")
        cache.throughput(g, method="hsdf")
        assert cache.stats().misses == 2
        cache.throughput(g, method="symbolic")
        assert cache.stats().hits == 1

    def test_store_then_lookup(self):
        cache = AnalysisCache()
        g = two_actor()
        value = throughput(g)
        cache.store(g, "throughput", value, params={"method": "symbolic"})
        assert cache.lookup(g, "throughput", {"method": "symbolic"}) is value
        assert cache.lookup(g, "throughput", {"method": "hsdf"}) is None

    def test_error_not_cached(self):
        cache = AnalysisCache()
        g = two_actor()
        calls = []

        def boom():
            calls.append(1)
            raise ValidationError("nope")

        for _ in range(2):
            with pytest.raises(ValidationError):
                cache.get_or_compute(g, "custom", boom)
        assert len(calls) == 2  # failures are retried, never cached
        assert cache.get_or_compute(g, "custom", lambda: 42) == 42

    def test_default_cache_swap(self):
        replacement = AnalysisCache(maxsize=2)
        previous = set_default_cache(replacement)
        try:
            assert default_cache() is replacement
        finally:
            set_default_cache(previous)
        assert default_cache() is previous


class TestThreadSafety:
    def test_concurrent_lookups_consistent(self):
        cache = AnalysisCache(maxsize=64)
        graphs = [g for g in TestLRU().graphs(8)]
        expected = {g.name: throughput(g).cycle_time for g in graphs}

        def worker(seed):
            out = {}
            for g in (graphs * 5)[seed:] + (graphs * 5)[:seed]:
                out[g.name] = cache.throughput(g).cycle_time
            return out

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, range(8)))
        for result in results:
            assert result == expected
        stats = cache.stats()
        # Single-flight: each distinct graph computed exactly once.
        assert stats.misses == len(graphs)
        assert stats.hits + stats.coalesced == 8 * 5 * len(graphs) - stats.misses

    def test_single_flight_coalesces_concurrent_misses(self):
        cache = AnalysisCache()
        g = two_actor()
        calls = []
        started = threading.Barrier(4)

        def slow():
            calls.append(1)
            # One-sided: the sleep only widens the flight window; a
            # straggler that misses it hits the stored entry instead, so
            # either way compute runs once and coalesced + hits == 3.
            time.sleep(0.05)
            return "value"

        def worker():
            started.wait()
            return cache.get_or_compute(g, "slow", slow)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [pool.submit(worker) for _ in range(4)]
            assert {f.result() for f in results} == {"value"}
        assert len(calls) == 1
        stats = cache.stats()
        assert stats.misses == 1
        # The stragglers either coalesced onto the in-flight compute or
        # (if descheduled past it) hit the stored entry; never recompute.
        assert stats.coalesced + stats.hits == 3


class TestErrorAccounting:
    """Satellite of the resilience PR: failed computes are observable and
    never poison the single-flight machinery."""

    def test_errors_counted_in_stats(self):
        cache = AnalysisCache()
        g = two_actor()
        with pytest.raises(ValidationError):
            cache.get_or_compute(g, "custom", lambda: (_ for _ in ()).throw(
                ValidationError("nope")))
        stats = cache.stats()
        assert stats.errors == 1
        assert "errors" in stats.as_dict()
        cache.reset_stats()
        assert cache.stats().errors == 0

    def test_failed_leader_does_not_poison_followers(self):
        """A compute that raises must not wedge concurrent waiters or
        leave a stale in-flight entry: every follower either recomputes
        successfully or fails with the *fresh* error, and a later call
        succeeds."""
        cache = AnalysisCache()
        g = two_actor()
        started = threading.Barrier(4)
        fail_first = threading.Event()

        def compute():
            if not fail_first.is_set():
                fail_first.set()
                # One-sided: the sleep only lets followers pile onto the
                # failing flight.  Waiters retry after the failure and
                # late arrivals compute afresh, so the leader's "error"
                # and the followers' "recovered" appear at any timing.
                time.sleep(0.02)
                raise ValidationError("leader failed")
            return "recovered"

        def worker():
            started.wait()
            try:
                return cache.get_or_compute(g, "flaky", compute)
            except ValidationError:
                return "error"

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [f.result() for f in
                       [pool.submit(worker) for _ in range(4)]]
        # At least the leader saw the error; nobody hung; at least one
        # follower recovered by recomputing after the leader's failure.
        assert "error" in results
        assert "recovered" in results
        assert set(results) <= {"error", "recovered"}
        # The in-flight table is clean: a fresh call computes normally.
        assert cache.get_or_compute(g, "flaky", lambda: "clean") == "recovered" \
            or cache.lookup(g, "flaky") == "recovered"
        assert cache.stats().errors >= 1

    def test_interrupted_compute_not_cached(self):
        from repro.analysis.deadline import Deadline
        from repro.errors import AnalysisTimeout

        cache = AnalysisCache()
        g = two_actor()

        def timed_out():
            Deadline.after(0.0).check_now()
            raise AssertionError("unreachable")

        with pytest.raises(AnalysisTimeout):
            cache.get_or_compute(g, "slowthing", timed_out)
        assert cache.lookup(g, "slowthing") is None
        assert cache.stats().errors == 1
        assert cache.get_or_compute(g, "slowthing", lambda: 7) == 7


class TestStatsSnapshotConsistency:
    """CacheStats snapshots stay internally consistent under fire.

    ``AnalysisCache.stats()`` reads every counter in one critical
    section, so a snapshot taken mid-hammering must satisfy the cache's
    invariants *exactly* — not just eventually (the promise made in the
    :class:`CacheStats` docstring).
    """

    @staticmethod
    def _distinct_graphs(count):
        graphs = []
        for i in range(count):
            g = SDFGraph(f"g{i}")
            g.add_actor("A", i + 1)  # fingerprints are structural
            g.add_actor("B", 1)
            g.add_edge("A", "B", production=1, consumption=2, tokens=0)
            g.add_edge("B", "A", production=2, consumption=1, tokens=2)
            graphs.append(g)
        return graphs

    def test_concurrent_snapshots_always_consistent(self):
        cache = AnalysisCache(maxsize=8)
        graphs = self._distinct_graphs(12)  # > maxsize: forces evictions
        threads, iterations = 8, 150
        stop = threading.Event()
        violations = []

        def writer(index):
            for i in range(iterations):
                g = graphs[(index * 31 + i) % len(graphs)]
                cache.get_or_compute(g, "t", lambda: index)

        def reader():
            prev = cache.stats()
            while not stop.is_set():
                s = cache.stats()
                if s.size > s.maxsize:
                    violations.append(f"size {s.size} > maxsize {s.maxsize}")
                if s.lookups != s.hits + s.misses:
                    violations.append("lookups != hits + misses")
                for field in ("hits", "misses", "evictions",
                              "coalesced", "errors"):
                    if getattr(s, field) < getattr(prev, field):
                        violations.append(f"{field} went backwards")
                prev = s

        observer = threading.Thread(target=reader)
        observer.start()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(writer, t) for t in range(threads)]
            for f in futures:
                f.result()
        stop.set()
        observer.join()

        assert not violations, violations[:5]
        final = cache.stats()
        # Every call was classified exactly once (no failing computes,
        # so no retry loops double-count).
        assert (final.hits + final.misses + final.coalesced
                == threads * iterations)
        assert final.evictions > 0, "12 keys through maxsize=8 must evict"
        assert final.errors == 0
        assert final.size <= final.maxsize


class TestDiskTierStats:
    """The disk-tier counters added with the durable result store.

    Deep two-tier behaviour lives in ``tests/test_store.py``; here we
    pin the accounting surface: snapshot fields, invariants under
    concurrency, and the metrics-registry export.
    """

    def test_snapshot_has_disk_fields_zero_without_store(self):
        cache = AnalysisCache(maxsize=4)
        stats = cache.stats()
        for field in ("disk_hits", "disk_misses", "disk_quarantined",
                      "disk_errors", "disk_puts"):
            assert getattr(stats, field) == 0
            assert stats.as_dict()[field] == 0

    def test_disk_invariants_under_concurrent_storms(self, tmp_path):
        from repro.analysis.store import ResultStore

        cache = AnalysisCache(maxsize=4, store=ResultStore(tmp_path))
        graphs = TestStatsSnapshotConsistency._distinct_graphs(8)

        def worker(index):
            for i in range(40):
                g = graphs[(index * 13 + i) % len(graphs)]
                cache.get_or_compute(g, "t", lambda: index)

        with ThreadPoolExecutor(max_workers=6) as pool:
            for future in [pool.submit(worker, t) for t in range(6)]:
                future.result()

        stats = cache.stats()
        # Only a miss's leader probes the disk: one probe per storm.
        assert stats.disk_hits + stats.disk_misses <= stats.misses
        assert stats.disk_quarantined <= stats.disk_misses
        assert stats.disk_errors <= stats.disk_misses
        assert stats.disk_puts <= stats.disk_misses

    def test_register_metrics_exports_disk_counters(self, tmp_path):
        from repro.analysis.store import ResultStore
        from repro.obs.metrics import MetricsRegistry

        store = ResultStore(tmp_path)
        cache = AnalysisCache(maxsize=4, store=store)
        g = TestStatsSnapshotConsistency._distinct_graphs(1)[0]
        cache.get_or_compute(g, "t", lambda: 1)          # miss + publish
        AnalysisCache(maxsize=4, store=store).get_or_compute(
            g, "t", lambda: 2)  # the warm cache never reaches compute

        registry = MetricsRegistry()
        cache.register_metrics(registry)
        doc = registry.as_dict()  # the export pulls the collector
        exported = {
            metric["name"]: metric["samples"][0]["value"]
            for metric in doc["metrics"] if metric["samples"]
        }
        assert exported["repro_cache_disk_misses_total"] == 1
        assert exported["repro_cache_disk_puts_total"] == 1
        assert exported.get("repro_cache_disk_hits_total", 0) == 0
        assert exported.get("repro_cache_disk_quarantined_total", 0) == 0
