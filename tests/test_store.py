"""The durable result store: crash consistency, corruption, two tiers.

Three layers of assurance:

* unit tests of the record format, LRU budget, quarantine semantics and
  the cache's disk tier;
* a Hypothesis property: *no* single corruption of a record file (byte
  flip, truncation, garbage splice, deletion) can make the store return
  a wrong analysis result — every outcome is quarantine-or-recompute;
* a chaos suite that arms a ``kill`` crash point at every named store
  I/O site (:data:`repro.analysis.faults.CRASH_SITES`), lets a real
  subprocess die there, and asserts the store recovers to a verifiably
  consistent state on restart.
"""

from __future__ import annotations

import functools
import os
import pickle
import subprocess
import sys
import tempfile
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cache import AnalysisCache
from repro.analysis.faults import (
    CRASH_SITES,
    KILL_EXIT_STATUS,
    arm_crash_points,
    disarm_crash_points,
)
from repro.analysis.store import (
    ResultStore,
    canonical_params,
    key_digest,
)
from repro.analysis.batch import run_batch
from repro.analysis.throughput import throughput
from repro.core.symbolic import SymbolicIteration, symbolic_iteration
from repro.graphs.examples import figure3_graph

PARAMS = {"method": "symbolic"}


@functools.lru_cache(maxsize=1)
def _reference():
    """(graph, exact throughput result) computed once for the module."""
    graph = figure3_graph()
    return graph, throughput(graph)


@pytest.fixture(autouse=True)
def _disarmed():
    """No crash plan leaks between tests (the plan is process-global)."""
    disarm_crash_points()
    yield
    disarm_crash_points()


def _populated(root) -> tuple:
    graph, result = _reference()
    store = ResultStore(root)
    assert store.put(graph.fingerprint(), "throughput", result,
                     params=PARAMS)
    return store, graph, result


def _record_file(store: ResultStore, graph) -> Path:
    digest = key_digest(graph.fingerprint(), "throughput", PARAMS)
    return store._record_path(digest)


class _EarlierPickle:
    """Pickles as an instance of ``cls`` whose state is ``state``: it
    loads like what an earlier layout of ``cls`` wrote."""

    def __init__(self, cls, state):
        self.cls, self.state = cls, state

    def __reduce__(self):
        return object.__new__, (self.cls,), self.state


def _per_firing_iteration(graph) -> _EarlierPickle:
    """A ``SymbolicIteration`` as pickled before it kept per-run start
    stamps: a dataclass holding the schedule and both firing maps."""
    iteration = symbolic_iteration(graph)
    return _EarlierPickle(SymbolicIteration, {
        "matrix": iteration.matrix,
        "token_ids": iteration.token_ids,
        "schedule": iteration.schedule,
        "firing_starts": iteration.firing_starts,
        "firing_completions": iteration.firing_completions,
    })


class TestRecordRoundTrip:
    def test_hit_preserves_exact_result_and_provenance(self, tmp_path):
        store, graph, result = _populated(tmp_path)
        status, value = store.get(graph.fingerprint(), "throughput",
                                  params=PARAMS)
        assert status == "hit"
        assert value.cycle_time == result.cycle_time
        assert isinstance(value.cycle_time, Fraction)
        assert value.provenance.fingerprint == graph.fingerprint()
        assert value.per_actor == result.per_actor

    def test_params_are_canonical_across_dict_order(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("fp", "x", [1], params={"a": 1, "b": 2})
        status, _ = store.get("fp", "x", params={"b": 2, "a": 1})
        assert status == "hit"
        assert canonical_params({"a": 1, "b": 2}) \
            == canonical_params({"b": 2, "a": 1})

    def test_distinct_params_are_distinct_records(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("fp", "x", "sym", params={"method": "symbolic"})
        store.put("fp", "x", "hsdf", params={"method": "hsdf"})
        assert store.get("fp", "x", params={"method": "symbolic"})[1] == "sym"
        assert store.get("fp", "x", params={"method": "hsdf"})[1] == "hsdf"

    def test_miss_on_absent_key(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("nope", "throughput") == ("miss", None)
        assert store.stats().misses == 1

    def test_put_skips_existing_record(self, tmp_path):
        store, graph, result = _populated(tmp_path)
        assert store.put(graph.fingerprint(), "throughput", result,
                         params=PARAMS)
        assert store.stats().put_skips == 1

    def test_timed_out_results_are_refused(self, tmp_path):
        store, graph, result = _populated(tmp_path)

        class FakeTimedOut:
            provenance = type("P", (), {"status": "timed-out"})()

        assert not store.put("fp-timeout", "throughput", FakeTimedOut())
        assert store.get("fp-timeout", "throughput") == ("miss", None)

    def test_unpicklable_value_is_swallowed(self, tmp_path):
        store = ResultStore(tmp_path)
        assert not store.put("fp", "x", threading.Lock())
        assert store.stats().put_errors == 1


class TestCorruptionDetection:
    def test_renamed_record_is_quarantined_not_served(self, tmp_path):
        # Stale data wearing a fresh address: record for key A moved to
        # key B's path must never answer for B.
        store, graph, _ = _populated(tmp_path)
        source = _record_file(store, graph)
        alias = key_digest("other-fingerprint", "throughput", PARAMS)
        target = store._record_path(alias)
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(source, target)
        status, value = store.get("other-fingerprint", "throughput",
                                  params=PARAMS)
        assert (status, value) == ("quarantined", None)
        assert store.stats().quarantined_records == 1

    def test_valid_checksum_but_garbage_pickle_is_quarantined(self, tmp_path):
        import hashlib
        import json

        store = ResultStore(tmp_path)
        payload = b"\x80\x04 not really a pickle"
        header = json.dumps({
            "fingerprint": "fp", "analysis": "x",
            "params": canonical_params(None),
            "payload_len": len(payload),
            "checksum": hashlib.sha256(payload).hexdigest(),
        }).encode() + b"\n"
        path = store._record_path(key_digest("fp", "x"))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"repro-store-v1\n" + header + payload)
        assert store.get("fp", "x") == ("quarantined", None)

    def test_verify_without_quarantine_reports_undetected(self, tmp_path):
        store, graph, _ = _populated(tmp_path)
        _record_file(store, graph).write_bytes(b"torn")
        report = store.verify(quarantine=False)
        assert report.records == 1 and report.valid == 0
        assert report.undetected_corrupt == 1
        assert not report.ok
        # The default (quarantining) verify then cleans up.
        report = store.verify()
        assert report.undetected_corrupt == 0
        assert report.quarantined_now == 1
        assert report.ok

    def test_verify_ok_on_healthy_store(self, tmp_path):
        store, _, _ = _populated(tmp_path)
        report = store.verify()
        assert report.ok and report.valid == report.records == 1
        assert report.as_dict()["schema"] == "repro-store-verify-v1"


def _mutate(raw: bytes, kind: str, position: int, value: int) -> bytes:
    if kind == "flip":
        index = position % len(raw)
        return raw[:index] + bytes([raw[index] ^ (value or 1)]) \
            + raw[index + 1:]
    if kind == "truncate":
        return raw[: position % len(raw)]
    if kind == "garbage":
        index = position % len(raw)
        return raw[:index] + bytes([value] * 8) + raw[index + 8:]
    raise AssertionError(kind)


class TestCorruptionProperty:
    @settings(max_examples=60)
    @given(
        kind=st.sampled_from(["flip", "truncate", "garbage", "delete"]),
        position=st.integers(min_value=0, max_value=1 << 16),
        value=st.integers(min_value=0, max_value=255),
    )
    def test_no_corruption_yields_a_wrong_result(self, kind, position, value):
        """Byte-flip/truncate/garbage/delete a record → the store serves
        the original exact value or nothing; a republish always
        converges back to a healthy record."""
        graph, result = _reference()
        fingerprint = graph.fingerprint()
        with tempfile.TemporaryDirectory() as root:
            store = ResultStore(root)
            store.put(fingerprint, "throughput", result, params=PARAMS)
            path = _record_file(store, graph)
            original = path.read_bytes()
            if kind == "delete":
                path.unlink()
                mutated = None
            else:
                mutated = _mutate(original, kind, position, value)
                path.write_bytes(mutated)

            status, value_out = store.get(fingerprint, "throughput",
                                          params=PARAMS)
            if mutated == original:
                # The mutation was an identity (flip to the same byte).
                assert status == "hit"
            else:
                assert status in ("miss", "quarantined")
                assert value_out is None
            if status == "hit":
                assert value_out.cycle_time == result.cycle_time

            # Quarantine-or-recompute: publishing again always restores
            # a servable record, and verify certifies zero undetected.
            assert store.put(fingerprint, "throughput", result,
                             params=PARAMS)
            status, value_out = store.get(fingerprint, "throughput",
                                          params=PARAMS)
            assert status == "hit"
            assert value_out.cycle_time == result.cycle_time
            assert store.verify().undetected_corrupt == 0


class TestBudgetAndCompaction:
    def test_lru_eviction_by_mtime(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=10_000_000)
        for index in range(4):
            store.put(f"fp-{index}", "x", b"p" * 64)
        # Pin explicit mtimes so LRU order is deterministic.
        for index in range(4):
            path = store._record_path(key_digest(f"fp-{index}", "x"))
            os.utime(path, (1000 + index, 1000 + index))
        size = store.stats().bytes
        outcome = store.compact(max_bytes=size // 2)
        assert outcome["evicted"] == 2
        assert store.get("fp-0", "x")[0] == "miss"   # oldest gone
        assert store.get("fp-3", "x")[0] == "hit"    # newest kept

    def test_hit_refreshes_eviction_clock(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=10_000_000)
        for index in range(2):
            store.put(f"fp-{index}", "x", b"p" * 64)
            path = store._record_path(key_digest(f"fp-{index}", "x"))
            os.utime(path, (1000 + index, 1000 + index))
        store.get("fp-0", "x")  # touch the older record
        outcome = store.compact(max_bytes=store.stats().bytes // 2)
        assert outcome["evicted"] >= 1
        assert store.get("fp-0", "x")[0] == "hit"    # survived: recently used
        assert store.get("fp-1", "x")[0] == "miss"

    def test_put_triggers_opportunistic_compaction(self, tmp_path):
        store = ResultStore(tmp_path, max_bytes=256)
        for index in range(6):
            store.put(f"fp-{index}", "x", b"p" * 200)
        assert store.stats().bytes <= 2 * 256  # bounded, not unbounded

    def test_compact_sweeps_tmp_garbage(self, tmp_path):
        store = ResultStore(tmp_path)
        (store._tmp / "dead.123.1.tmp").write_bytes(b"crash leftover")
        outcome = store.compact()
        assert outcome["tmp_removed"] == 1
        assert store.stats().tmp_files == 0

    def test_purge(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("fp", "throughput", b"t")
        store.put("fp", "latency", b"l")
        assert store.purge(analysis="latency") == 1
        assert store.get("fp", "throughput")[0] == "hit"
        assert store.get("fp", "latency")[0] == "miss"
        assert store.purge() >= 1
        assert store.stats().records == 0

    def test_rejects_nonpositive_budget(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_bytes=0)


class TestConcurrency:
    def test_concurrent_publishers_of_one_key(self, tmp_path):
        store = ResultStore(tmp_path)
        errors = []

        def publish():
            try:
                store.put("fp", "x", list(range(512)))
            except Exception as error:  # pragma: no cover - fails the test
                errors.append(error)

        threads = [threading.Thread(target=publish) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.stats().records == 1
        assert store.get("fp", "x") == ("hit", list(range(512)))
        assert store.verify().undetected_corrupt == 0

    def test_two_processes_share_one_root(self, tmp_path):
        _populated(tmp_path)
        graph, result = _reference()
        script = (
            "import sys\n"
            "from repro.analysis.store import ResultStore\n"
            "status, value = ResultStore(sys.argv[1]).get(\n"
            "    sys.argv[2], 'throughput', params={'method': 'symbolic'})\n"
            "print(status, value.cycle_time)\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path),
             graph.fingerprint()],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == f"hit {result.cycle_time}"


class TestRaiseCrashPoints:
    def test_read_failure_degrades_to_error_not_crash(self, tmp_path):
        store, graph, _ = _populated(tmp_path)
        arm_crash_points(["raise@store.read"])
        status, value = store.get(graph.fingerprint(), "throughput",
                                  params=PARAMS)
        assert (status, value) == ("error", None)
        assert store.stats().read_errors == 1
        disarm_crash_points()
        assert store.get(graph.fingerprint(), "throughput",
                         params=PARAMS)[0] == "hit"

    def test_publish_failure_is_counted_not_raised(self, tmp_path):
        graph, result = _reference()
        store = ResultStore(tmp_path)
        arm_crash_points(["raise@store.publish"])
        assert not store.put(graph.fingerprint(), "throughput", result,
                             params=PARAMS)
        assert store.stats().put_errors == 1
        assert store.stats().tmp_files == 0  # failed temp cleaned up

    def test_raise_with_custom_exception_and_hits(self, tmp_path):
        store, graph, _ = _populated(tmp_path)
        arm_crash_points(["raise@store.read:MemoryError#2"])
        assert store.get(graph.fingerprint(), "throughput",
                         params=PARAMS)[0] == "hit"   # arrival 1: no fire
        with pytest.raises(MemoryError):
            # MemoryError is not an OSError: it must escape the store's
            # I/O-failure handling (it is not a disk problem).
            store.get(graph.fingerprint(), "throughput", params=PARAMS)


#: Child flow touching every crash site in CRASH_SITES order: two gets
#: (read, then quarantine on a pre-corrupted record), one put (tmp-write,
#: tmp-sync, publish, publish-done), one compact (evict).
_CHAOS_CHILD = """
import sys
from repro.analysis.store import ResultStore
root = sys.argv[1]
store = ResultStore(root, max_bytes=1)
store.get("absent", "x")
store.get("corrupt-fp", "x")
store.put("fp-new", "x", list(range(256)))
store.compact()
print("SURVIVED")
"""


class TestKillCrashPoints:
    @pytest.mark.parametrize("site", CRASH_SITES)
    def test_kill_at_every_site_recovers_to_consistency(self, site, tmp_path):
        """A process killed at any store I/O boundary leaves a store
        that (a) verifies with zero undetected-corrupt records after
        restart and (b) still serves and accepts results."""
        # Seed: one healthy record and one corrupt record (so the
        # quarantine site is reachable).
        store = ResultStore(tmp_path)
        store.put("fp-old", "x", "healthy")
        corrupt = store._record_path(key_digest("corrupt-fp", "x"))
        corrupt.parent.mkdir(parents=True, exist_ok=True)
        corrupt.write_bytes(b"repro-store-v1\ntorn")

        run = subprocess.run(
            [sys.executable, "-c", _CHAOS_CHILD, str(tmp_path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src",
                 "REPRO_CRASH_POINTS": f"kill@{site}"},
        )
        assert run.returncode == KILL_EXIT_STATUS, (site, run.stderr)
        assert "SURVIVED" not in run.stdout

        # Restart: a fresh process over the same root.
        revived = ResultStore(tmp_path)
        report = revived.verify()
        assert report.undetected_corrupt == 0, (site, report.as_dict())
        # The healthy record either survived intact or was evicted by
        # the child's compaction — it is never served corrupted.
        status, value = revived.get("fp-old", "x")
        assert status in ("hit", "miss")
        if status == "hit":
            assert value == "healthy"
        # The store still works end to end.
        assert revived.put("fp-after", "x", [1, 2, 3])
        assert revived.get("fp-after", "x") == ("hit", [1, 2, 3])
        assert revived.verify().undetected_corrupt == 0

    def test_unarmed_child_survives(self, tmp_path):
        run = subprocess.run(
            [sys.executable, "-c", _CHAOS_CHILD, str(tmp_path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert run.returncode == 0, run.stderr
        assert "SURVIVED" in run.stdout


class TestCacheDiskTier:
    def test_memory_disk_compute_order(self, tmp_path):
        graph, _ = _reference()
        cache = AnalysisCache(maxsize=8, store=ResultStore(tmp_path))
        cold = cache.throughput(graph)
        stats = cache.stats()
        assert (stats.disk_hits, stats.disk_misses, stats.disk_puts) \
            == (0, 1, 1)

        # Same cache: memory hit, disk untouched.
        assert cache.throughput(graph) is cold
        assert cache.stats().disk_hits == 0

        # Fresh cache, same store: a *disk* hit, no recompute, result
        # exact and provenance intact.
        warm_cache = AnalysisCache(maxsize=8).attach_store(
            ResultStore(tmp_path))
        warm = warm_cache.throughput(graph)
        stats = warm_cache.stats()
        assert (stats.disk_hits, stats.misses) == (1, 1)
        assert warm.cycle_time == cold.cycle_time
        assert warm.provenance.fingerprint == graph.fingerprint()

    def test_quarantined_record_recomputes(self, tmp_path):
        graph, _ = _reference()
        store = ResultStore(tmp_path)
        cache = AnalysisCache(maxsize=8, store=store)
        cache.throughput(graph)
        _record_file(store, graph).write_bytes(b"garbage")
        fresh = AnalysisCache(maxsize=8, store=store)
        result = fresh.throughput(graph)
        stats = fresh.stats()
        assert stats.disk_quarantined == 1
        assert stats.disk_misses == 1 and stats.disk_hits == 0
        assert result.cycle_time == _reference()[1].cycle_time

    def test_per_firing_iteration_record_is_recomputed(self, tmp_path):
        """A symbolic_iteration record in the earlier per-firing layout
        is quarantined and recomputed, never served half-loaded."""
        graph = figure3_graph()
        earlier = _per_firing_iteration(graph)
        with pytest.raises(TypeError):
            pickle.loads(pickle.dumps(earlier))
        store = ResultStore(tmp_path)
        assert store.put(graph.fingerprint(), "symbolic_iteration", earlier)
        cache = AnalysisCache(maxsize=8, store=store)
        served = cache.symbolic_iteration(graph)
        stats = cache.stats()
        assert (stats.disk_quarantined, stats.disk_hits) == (1, 0)
        assert served == symbolic_iteration(graph)
        assert pickle.loads(pickle.dumps(served)) == served

    def test_per_firing_iteration_record_on_process_backend(self, tmp_path):
        graph = figure3_graph()
        store = ResultStore(tmp_path)
        assert store.put(graph.fingerprint(), "symbolic_iteration",
                         _per_firing_iteration(graph))
        report = run_batch([graph], analyses=("symbolic_iteration",),
                           backend="process", workers=1,
                           cache=AnalysisCache(maxsize=8), store=tmp_path)
        (result,) = report.results
        assert result.ok, result.error
        assert result.values["symbolic_iteration"] == symbolic_iteration(
            graph)
        assert ResultStore(tmp_path).stats().quarantined_records == 1

    def test_disk_counters_in_snapshot_invariants(self, tmp_path):
        graph, _ = _reference()
        cache = AnalysisCache(maxsize=8, store=ResultStore(tmp_path))
        cache.throughput(graph)
        cache.latency(graph)
        stats = cache.stats()
        assert stats.disk_hits + stats.disk_misses <= stats.misses
        assert stats.disk_quarantined <= stats.disk_misses
        assert stats.disk_errors <= stats.disk_misses
        as_dict = stats.as_dict()
        for field in ("disk_hits", "disk_misses", "disk_quarantined",
                      "disk_errors", "disk_puts"):
            assert as_dict[field] == getattr(stats, field)

    def test_store_back_publishes_to_disk(self, tmp_path):
        # A result computed elsewhere and inserted with cache.store()
        # becomes durable when a disk tier is attached.
        graph, result = _reference()
        store = ResultStore(tmp_path)
        cache = AnalysisCache(maxsize=8, store=store)
        cache.store(graph, "throughput", result, params=PARAMS)
        assert store.get(graph.fingerprint(), "throughput",
                         params=PARAMS)[0] == "hit"
        assert cache.stats().disk_puts == 1
