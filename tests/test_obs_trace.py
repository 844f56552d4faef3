"""Structured tracing: span nesting, exports, adoption, fast paths,
per-span memory peaks."""

from __future__ import annotations

import json
import threading

import pytest

from conftest import memory_tracing
from repro.analysis.deadline import Deadline
from repro.obs.check import (
    SchemaError,
    validate_chrome_trace,
    validate_span_jsonl,
)
from repro.obs.trace import (
    Tracer,
    add_event,
    current_span,
    current_span_id,
    current_tracer,
    span,
)
from repro.obs.trace import _NULL_SPAN


class TestDisabledFastPath:
    def test_span_returns_shared_null_object(self):
        assert current_tracer() is None
        assert span("anything", k=1) is _NULL_SPAN
        assert span("other") is _NULL_SPAN

    def test_null_span_is_inert(self):
        with span("x", a=1) as s:
            assert s.id is None
            assert s.set(b=2) is s

    def test_add_event_is_noop(self):
        add_event("cache-hit", graph="g")  # must not raise

    def test_checkpoint_hook_is_noop(self):
        deadline = Deadline.unlimited()
        progress = deadline.checkpoint("stage", {"n": 0})
        progress["n"] = 7  # live dict still works without a tracer
        assert deadline._progress["n"] == 7

    def test_no_current_span(self):
        assert current_span() is None
        assert current_span_id() is None


class TestSpanLifecycle:
    def test_nesting_and_parent_links(self):
        with Tracer() as tracer:
            with span("outer") as outer:
                assert current_span_id() == outer.id
                with span("inner") as inner:
                    assert inner.parent_id == outer.id
            assert current_span() is None
        spans = {s.name: s for s in tracer.spans()}
        assert spans["inner"].parent_id == spans["outer"].id
        assert spans["outer"].parent_id is None
        assert tracer.open_spans == 0

    def test_intervals_nest(self):
        with Tracer() as tracer:
            with span("outer"):
                with span("inner"):
                    pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["outer"].start <= spans["inner"].start
        assert spans["inner"].end <= spans["outer"].end

    def test_exception_stamps_error_and_closes(self):
        with Tracer() as tracer:
            with pytest.raises(ValueError):
                with span("doomed"):
                    raise ValueError("boom")
        (doomed,) = tracer.spans()
        assert doomed.closed and doomed.end is not None
        assert doomed.args["error"] == "ValueError"
        assert "boom" in doomed.args["error_message"]
        assert tracer.open_spans == 0

    def test_set_annotations(self):
        with Tracer() as tracer:
            with span("s", a=1) as s:
                s.set(b=2)
        (only,) = tracer.spans()
        assert only.args == {"a": 1, "b": 2}

    def test_install_restores_previous(self):
        first = Tracer()
        second = Tracer()
        with first:
            assert current_tracer() is first
            with second:
                assert current_tracer() is second
            assert current_tracer() is first
        assert current_tracer() is None

    def test_events_carry_enclosing_span(self):
        with Tracer() as tracer:
            with span("ctx") as ctx:
                add_event("ping", detail=1)
        (event,) = tracer.events()
        assert event["span"] == ctx.id
        assert event["args"] == {"detail": 1}


class TestProgressPiggyback:
    def test_checkpoint_attaches_live_dict(self):
        deadline = Deadline.unlimited()
        with Tracer() as tracer:
            with span("karp"):
                progress = deadline.checkpoint("karp-levels", {"level": 0})
                for level in range(5):
                    progress["level"] = level
        (karp,) = tracer.spans()
        assert karp.args["progress"]["karp-levels"] == {"level": 4}

    def test_final_values_snapshotted_not_referenced(self):
        deadline = Deadline.unlimited()
        with Tracer() as tracer:
            with span("stage"):
                progress = deadline.checkpoint("s", {"n": 1})
        progress["n"] = 999  # mutation after close must not leak in
        (stage,) = tracer.spans()
        assert stage.args["progress"]["s"] == {"n": 1}

    def test_repeated_checkpoint_same_dict_attaches_once(self):
        deadline = Deadline.unlimited()
        with Tracer() as tracer:
            with span("stage"):
                progress = deadline.checkpoint("s", {"n": 0})
                deadline.checkpoint("s", progress)
        (stage,) = tracer.spans()
        assert stage.args["progress"] == {"s": {"n": 0}}


class TestThreads:
    def test_worker_threads_get_own_lanes_and_nesting(self):
        with Tracer() as tracer:
            barrier = threading.Barrier(2)

            def work(name):
                barrier.wait()
                with span(f"outer-{name}"):
                    with span(f"inner-{name}"):
                        pass

            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        spans = {s.name: s for s in tracer.spans()}
        assert spans["inner-0"].parent_id == spans["outer-0"].id
        assert spans["inner-1"].parent_id == spans["outer-1"].id
        assert spans["outer-0"].tid != spans["outer-1"].tid
        assert tracer.open_spans == 0


class TestExports:
    def _sample_tracer(self):
        tracer = Tracer()
        with tracer:
            with span("root", graph="g"):
                with span("child"):
                    add_event("tick")
        return tracer

    def test_jsonl_roundtrip_validates(self, tmp_path):
        tracer = self._sample_tracer()
        path = tmp_path / "trace.jsonl"
        count = tracer.write_jsonl(path)
        summary = validate_span_jsonl(path.read_text())
        assert summary == {"spans": count, "roots": 1}

    def test_chrome_trace_validates(self, tmp_path):
        tracer = self._sample_tracer()
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path)
        data = json.loads(path.read_text())
        summary = validate_chrome_trace(data)
        assert summary["phase_X"] == 2
        assert summary["phase_i"] == 1
        names = {e["name"] for e in data["traceEvents"] if e["ph"] == "M"}
        assert {"thread_name", "process_name"} <= names

    def test_chrome_trace_carries_span_ids(self):
        tracer = self._sample_tracer()
        events = tracer.chrome_trace()["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert all(e["args"]["span_id"] for e in complete)

    def test_adopt_merges_foreign_process_lane(self):
        tracer = self._sample_tracer()
        foreign = [
            dict(row, pid=99999, id=f"f{index}")
            for index, row in enumerate(tracer.export_spans())
        ]
        parent = Tracer()
        with parent:
            with span("batch"):
                pass
        adopted = parent.adopt(foreign, lane_name="worker[99999]")
        assert adopted == len(foreign)
        trace = parent.chrome_trace()
        pids = {e["pid"] for e in trace["traceEvents"]}
        assert 99999 in pids and parent.pid in pids
        lanes = {
            (e["pid"], e["args"]["name"])
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert (99999, "worker[99999]") in lanes

    def test_validator_rejects_escaping_child(self):
        bad = "\n".join([
            json.dumps({"id": "1", "parent": None, "name": "p", "pid": 1,
                        "tid": 0, "start": 0.0, "end": 1.0, "args": {}}),
            json.dumps({"id": "2", "parent": "1", "name": "c", "pid": 1,
                        "tid": 0, "start": 0.5, "end": 2.0, "args": {}}),
        ])
        with pytest.raises(SchemaError, match="escapes parent"):
            validate_span_jsonl(bad)


class TestAnalysisIntegration:
    def test_throughput_emits_stage_spans(self):
        from repro.analysis.throughput import throughput
        from repro.graphs.examples import figure3_graph

        with Tracer() as tracer:
            throughput(figure3_graph())
        names = [s.name for s in tracer.spans()]
        root = [s for s in tracer.spans() if s.name == "throughput"]
        assert len(root) == 1
        assert {"repetition-vector", "symbolic-conversion",
                "mcm-eigenvalue"} <= set(names)
        children = {s.name for s in tracer.spans()
                    if s.parent_id == root[0].id}
        assert "symbolic-conversion" in children

    def test_cache_emits_hit_and_miss_events(self):
        from repro.analysis.cache import AnalysisCache
        from repro.graphs.examples import figure3_graph

        cache = AnalysisCache()
        graph = figure3_graph()
        with Tracer() as tracer:
            cache.throughput(graph)
            cache.throughput(graph)
        kinds = [e["name"] for e in tracer.events()]
        assert kinds.count("cache-miss") == 1
        assert kinds.count("cache-hit") == 1


class TestIdUniquenessAcrossTracers:
    def test_fresh_tracers_never_reuse_span_ids(self):
        """A process-pool worker builds one tracer per job; merged
        exports must still have globally unique ids (the span-JSONL
        validator rejects duplicates)."""
        rows = []
        for _ in range(3):
            with Tracer() as tracer:
                with span("analyse"):
                    with span("stage"):
                        pass
            rows.extend(tracer.export_spans())
        ids = [r["id"] for r in rows]
        assert len(ids) == len(set(ids)) == 6

    def test_span_from_another_tracer_is_not_a_parent(self):
        """A forked worker inherits the coordinator's innermost-span
        contextvar; a fresh tracer must not link its spans to that
        foreign span (different clock, different id space)."""
        with Tracer():
            with span("coordinator"):
                with Tracer() as inner_tracer:
                    with span("worker-job") as job:
                        assert job.parent_id is None
        (job_span,) = inner_tracer.spans()
        assert job_span.name == "worker-job"
        assert job_span.parent_id is None


class TestAdoptRebasing:
    def test_adopt_rebases_foreign_clocks_onto_the_parent_timeline(self):
        parent = Tracer()
        with parent:
            with span("batch"):
                pass
        foreign = [{"id": "w.1.1", "parent": None, "name": "analyse",
                    "pid": 9999, "tid": 0, "start": 0.0, "end": 0.5,
                    "cpu": None, "mem_peak": 0, "args": {}}]
        # The foreign tracer was built 10 wall-seconds after the parent:
        # its t=0 is the parent's t=10.
        parent.adopt(foreign, lane_name="worker[9999]",
                     epoch=parent.epoch_wall + 10.0)
        (row,) = [r for r in parent.export_spans() if r["pid"] == 9999]
        assert row["start"] == pytest.approx(10.0)
        assert row["end"] == pytest.approx(10.5)
        # The caller's dict is not mutated.
        assert foreign[0]["start"] == 0.0

    def test_adopt_without_epoch_keeps_times_verbatim(self):
        parent = Tracer()
        foreign = [{"id": "w.1.1", "parent": None, "name": "analyse",
                    "pid": 9999, "tid": 0, "start": 3.0, "end": 3.5,
                    "cpu": None, "mem_peak": 0, "args": {}}]
        parent.adopt(foreign)
        (row,) = parent.export_spans()
        assert row["start"] == 3.0


KIB = 1024


class TestMemoryPeaks:
    """A plain tracer records each span's traced-allocation peak whenever
    tracemalloc is tracing, measured from the traced size at open."""

    def test_every_span_records_a_peak_while_tracing(self):
        with memory_tracing():
            with Tracer() as tracer:
                with span("root"):
                    with span("child"):
                        pass
        assert all(isinstance(s.mem_peak, int) and s.mem_peak >= 0
                   for s in tracer.spans())
        assert all(row["mem_peak"] is not None
                   for row in tracer.export_spans())
        complete = [e for e in tracer.chrome_trace()["traceEvents"]
                    if e["ph"] == "X"]
        assert all("mem_peak_kb" in e["args"] for e in complete)

    def test_peaks_stay_null_when_not_tracing(self):
        with memory_tracing(on=False):
            with Tracer() as tracer:
                with span("root"):
                    with span("child"):
                        buffer = bytearray(256 * KIB)
                        del buffer
        assert [s.mem_peak for s in tracer.spans()] == [None, None]
        assert all(row["mem_peak"] is None for row in tracer.export_spans())
        complete = [e for e in tracer.chrome_trace()["traceEvents"]
                    if e["ph"] == "X"]
        assert not any("mem_peak_kb" in e["args"] for e in complete)

    def test_parent_peak_covers_child_peak(self):
        with memory_tracing():
            older = bytearray(KIB * KIB)
            with Tracer() as tracer:
                with span("plain-parent"):
                    with span("plain-child"):
                        buffer = bytearray(256 * KIB)
                        del buffer
                with span("freeing-parent"):
                    # Freeing memory that predates the span lowers the
                    # traced size below the parent's opening baseline.
                    del older
                    with span("freeing-child"):
                        buffer = bytearray(256 * KIB)
                        del buffer
        peaks = {s.name: s.mem_peak for s in tracer.spans()}
        for parent, child in (("plain-parent", "plain-child"),
                              ("freeing-parent", "freeing-child")):
            assert peaks[child] >= 256 * KIB
            assert peaks[parent] >= peaks[child]

    def test_peak_counts_what_the_span_allocated_not_what_was_live(self):
        with memory_tracing():
            live = bytearray(KIB * KIB)
            with Tracer() as tracer:
                with span("stage") as stage:
                    buffer = bytearray(256 * KIB)
                    del buffer
            assert len(live) == KIB * KIB  # still live across the span
        assert 256 * KIB <= stage.mem_peak < KIB * KIB
        (row,) = tracer.export_spans()
        assert row["mem_peak"] == stage.mem_peak
