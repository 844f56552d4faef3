"""Trace analytics: forest reconstruction, self time, critical paths.

Two synthetic fixtures with hand-computable timings drive the exact
arithmetic (self-time decomposition, percentile table, critical path,
collapsed stacks); a real :class:`~repro.obs.trace.Tracer` round-trip
pins the two export formats to one summary; and the process-backend
batch run proves worker lanes adopted into the parent span log come
back out with their self time attributed to the right process.
"""

from __future__ import annotations

import json

import pytest

from conftest import memory_tracing
from repro.analysis.cache import AnalysisCache, set_default_cache
from repro.cli import main
from repro.obs.analyze import (
    TRACE_SUMMARY_SCHEMA,
    build_forest,
    collapsed_stacks,
    load_trace,
    render_summary_text,
    summarize_files,
    summarize_traces,
    write_collapsed,
)
from repro.obs.check import (
    SchemaError,
    validate_collapsed,
    validate_trace_summary,
)
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.obs.trace import Tracer, span


@pytest.fixture(autouse=True)
def fresh_observability_state():
    """Isolate from the process-global registry and cache (a warm
    default cache would swallow the spans the batch test asserts)."""
    previous_registry = set_default_registry(MetricsRegistry())
    previous_cache = set_default_cache(AnalysisCache())
    try:
        yield
    finally:
        set_default_registry(previous_registry)
        set_default_cache(previous_cache)


def _row(id, parent, name, start, end, pid=1, tid=0, cpu=None,
         mem_peak=None, **args):
    return {
        "id": id, "parent": parent, "name": name, "pid": pid, "tid": tid,
        "start": start, "end": end,
        "dur": None if end is None else end - start,
        "cpu": cpu, "mem_peak": mem_peak, "args": args,
    }


#: throughput(modem): 1.0s root, 0.2s repetition, 0.6s mcm via numpy —
#: root self time is the remaining 0.2s.
FOREST = [
    _row("a", None, "throughput", 0.0, 1.0, graph="modem"),
    _row("b", "a", "repetition-vector", 0.0, 0.2),
    _row("c", "a", "mcm-eigenvalue", 0.25, 0.85, kernel_used="numpy"),
]


def _chrome_equivalent():
    """The same forest as Chrome X events — no parent links, nesting
    encoded purely by interval containment, plus M lane metadata."""
    events = [
        {"name": "throughput", "ph": "X", "ts": 0.0, "dur": 1_000_000.0,
         "pid": 1, "tid": 0, "args": {"graph": "modem"}},
        {"name": "repetition-vector", "ph": "X", "ts": 0.0, "dur": 200_000.0,
         "pid": 1, "tid": 0, "args": {}},
        {"name": "mcm-eigenvalue", "ph": "X", "ts": 250_000.0,
         "dur": 600_000.0, "pid": 1, "tid": 0,
         "args": {"kernel_used": "numpy"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "main"}},
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "repro"}},
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


class TestForest:
    def test_self_time_decomposition(self):
        roots = build_forest(FOREST)
        (root,) = roots
        assert root.name == "throughput"
        assert {c.name for c in root.children} == {
            "repetition-vector", "mcm-eigenvalue"}
        assert root.self_seconds == pytest.approx(0.2)

    def test_overlapping_children_floor_self_at_zero(self):
        rows = [
            _row("a", None, "parent", 0.0, 1.0),
            _row("b", "a", "left", 0.0, 0.8),
            _row("c", "a", "right", 0.1, 0.9),
        ]
        (root,) = build_forest(rows)
        assert root.self_seconds == 0.0

    def test_open_spans_skipped_and_orphans_become_roots(self):
        rows = FOREST + [
            _row("open", "a", "unfinished", 0.9, None),
            _row("lost", "no-such-parent", "orphan", 2.0, 2.5),
        ]
        summary = summarize_traces([("t", rows)])
        assert summary["open_spans_skipped"] == 1
        assert summary["roots"] == 2
        assert summary["spans"] == 4  # open span excluded


class TestSummary:
    def test_stage_keys_inherit_graph_and_kernel(self):
        summary = summarize_traces([("t", FOREST)])
        keys = {(r["stage"], r["graph"], r["kernel"])
                for r in summary["stages"]}
        assert keys == {
            ("throughput", "modem", None),
            ("repetition-vector", "modem", None),  # graph from ancestor
            ("mcm-eigenvalue", "modem", "numpy"),
        }
        assert summary["schema"] == TRACE_SUMMARY_SCHEMA
        assert summary["wall_seconds"] == pytest.approx(1.0)
        total_self = sum(r["self_seconds"] for r in summary["stages"])
        assert total_self == pytest.approx(1.0)  # partition of the root

    def test_validator_accepts_the_summary(self):
        summary = summarize_traces([("t", FOREST)])
        verdict = validate_trace_summary(summary)
        assert verdict["spans"] == 3

    def test_critical_path_follows_dominant_child(self):
        summary = summarize_traces([("t", FOREST)])
        path = summary["critical_path"]
        assert [h["name"] for h in path] == ["throughput", "mcm-eigenvalue"]
        assert [h["depth"] for h in path] == [0, 1]
        assert summary["critical_path_seconds"] == pytest.approx(1.0)
        assert summary["critical_path_source"] == "t"

    def test_percentiles_nearest_rank_across_runs(self):
        rows = [
            _row(f"r{i}", None, "analyse", float(i), float(i) + i / 1000.0)
            for i in range(1, 11)  # durations 1ms .. 10ms
        ]
        summary = summarize_traces([("t", rows)])
        (stage,) = summary["stages"]
        assert stage["count"] == 10
        assert stage["p50_seconds"] == pytest.approx(0.005)
        assert stage["p90_seconds"] == pytest.approx(0.009)
        assert stage["p99_seconds"] == pytest.approx(0.010)
        assert stage["max_seconds"] == pytest.approx(0.010)

    def test_chrome_containment_matches_explicit_parents(self, tmp_path):
        chrome = tmp_path / "t.json"
        chrome.write_text(json.dumps(_chrome_equivalent()))
        rows = load_trace(chrome)
        assert {r["name"]: r["parent"] is not None for r in rows} == {
            "throughput": False,
            "repetition-vector": True,
            "mcm-eigenvalue": True,
        }
        from_chrome = summarize_traces([("chrome", rows)])
        from_jsonl = summarize_traces([("jsonl", FOREST)])
        strip = lambda s: [
            {k: r[k] for k in ("stage", "graph", "kernel", "count")}
            for r in s["stages"]
        ]
        assert strip(from_chrome) == strip(from_jsonl)
        assert from_chrome["wall_seconds"] == pytest.approx(
            from_jsonl["wall_seconds"])

    def test_text_rendering_mentions_the_hot_stage(self):
        text = render_summary_text(summarize_traces([("t", FOREST)]))
        assert "mcm-eigenvalue" in text
        assert "critical path" in text


class TestStageCosts:
    """Each stage row is a cost row: wall, CPU and peak traced memory."""

    RUNS = [
        _row("a1", None, "throughput", 0.0, 1.0, cpu=0.9, mem_peak=5000,
             graph="modem"),
        _row("b1", "a1", "hsdf-expansion", 0.0, 0.4, cpu=0.3,
             mem_peak=4000),
        _row("a2", None, "throughput", 2.0, 3.0, cpu=0.8, mem_peak=3000,
             graph="modem"),
        _row("b2", "a2", "hsdf-expansion", 2.0, 2.5, cpu=0.5,
             mem_peak=2500),
    ]

    def test_rows_sum_cpu_and_keep_the_largest_peak(self):
        summary = summarize_traces([("t", self.RUNS)])
        rows = {r["stage"]: r for r in summary["stages"]}
        assert rows["throughput"]["cpu_seconds"] == pytest.approx(1.7)
        assert rows["throughput"]["mem_peak_bytes"] == 5000
        assert rows["hsdf-expansion"]["cpu_seconds"] == pytest.approx(0.8)
        assert rows["hsdf-expansion"]["mem_peak_bytes"] == 4000
        validate_trace_summary(summary)
        text = render_summary_text(summary)
        assert "cpu" in text and "peak" in text
        assert "4000" not in text and "3.9KiB" in text

    def test_untraced_memory_reads_zero(self):
        summary = summarize_traces([("t", FOREST)])
        assert {r["mem_peak_bytes"] for r in summary["stages"]} == {0}
        assert {r["cpu_seconds"] for r in summary["stages"]} == {0.0}

    def test_chrome_export_carries_the_same_costs(self, tmp_path):
        with memory_tracing():
            with Tracer() as tracer:
                with span("analyse", graph="g"):
                    with span("expand"):
                        buffer = bytearray(300_000)
                        del buffer
                    with span("solve"):
                        buffer = bytearray(100_000)
                        del buffer
        jsonl, chrome = tmp_path / "t.jsonl", tmp_path / "t.json"
        tracer.write_jsonl(jsonl)
        tracer.write_chrome_trace(chrome)
        from_jsonl = {r["stage"]: r for r in summarize_files([jsonl])["stages"]}
        from_chrome = {r["stage"]: r
                       for r in summarize_files([chrome])["stages"]}
        assert set(from_jsonl) == set(from_chrome) == {
            "analyse", "expand", "solve"}
        assert from_jsonl["expand"]["mem_peak_bytes"] >= 300_000
        for stage, row in from_jsonl.items():
            other = from_chrome[stage]
            # cpu_ms keeps 3 decimals, mem_peak_kb one: half a unit each.
            assert other["cpu_seconds"] == pytest.approx(
                row["cpu_seconds"], abs=5e-7)
            assert abs(other["mem_peak_bytes"]
                       - row["mem_peak_bytes"]) <= 0.05 * 1024

    def test_validator_rejects_negative_cpu(self):
        summary = summarize_traces([("t", self.RUNS)])
        summary["stages"][0]["cpu_seconds"] = -0.1
        with pytest.raises(SchemaError, match=r"'cpu_seconds' must be >= 0"):
            validate_trace_summary(summary)


class TestCollapsedStacks:
    def test_exact_lines_and_validator(self, tmp_path):
        lines = collapsed_stacks([("t", FOREST)])
        assert lines == [
            "throughput 200000",
            "throughput;mcm-eigenvalue 600000",
            "throughput;repetition-vector 200000",
        ]
        out = tmp_path / "trace.folded"
        assert write_collapsed([_jsonl(tmp_path, FOREST)], out) == 3
        verdict = validate_collapsed(out.read_text())
        assert verdict == {"stacks": 3, "frames": 5}

    def test_semicolons_in_names_are_sanitised(self):
        rows = [_row("a", None, "odd;name", 0.0, 0.5)]
        (line,) = collapsed_stacks([("t", rows)])
        assert line == "odd:name 500000"

    def test_zero_self_stacks_dropped(self):
        rows = [
            _row("a", None, "parent", 0.0, 1.0),
            _row("b", "a", "child", 0.0, 1.0),
        ]
        lines = collapsed_stacks([("t", rows)])
        assert lines == ["parent;child 1000000"]


def _jsonl(tmp_path, rows):
    path = tmp_path / "spans.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


class TestTracerRoundTrip:
    def test_both_export_formats_fold_into_one_summary(self, tmp_path):
        tracer = Tracer()
        with tracer:
            with span("analyse", graph="figure3"):
                with span("repetition-vector"):
                    pass
                with span("mcm-eigenvalue", kernel_used="exact"):
                    pass
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        tracer.write_jsonl(jsonl)
        tracer.write_chrome_trace(chrome)

        summary = summarize_files([jsonl, chrome])
        assert summary["sources"] == [str(jsonl), str(chrome)]
        assert summary["spans"] == 6  # each format contributes the forest
        keys = {(r["stage"], r["graph"], r["kernel"])
                for r in summary["stages"]}
        assert keys == {
            ("analyse", "figure3", None),
            ("repetition-vector", "figure3", None),
            ("mcm-eigenvalue", "figure3", "exact"),
        }
        validate_trace_summary(summary)


class TestProcessBatchLanes:
    def test_adopted_worker_lanes_attribute_self_time(self, tmp_path):
        """Satellite: span-JSONL round-trip under the process backend.

        ``run_batch`` adopts each worker's spans into the parent tracer;
        the span log must carry the workers' own pids through export so
        the analyzer can attribute per-lane self time — a batch where
        every worker lane shows zero self time means adopt() lost them.
        """
        trace = tmp_path / "batch.jsonl"
        assert main(["batch", "--registry", "--backend", "process",
                     "--workers", "2", "--trace", str(trace)]) == 0

        rows = load_trace(trace)
        pids = {r["pid"] for r in rows}
        assert len(pids) >= 2, "worker spans must keep their own pid"

        summary = summarize_traces([(str(trace), rows)])
        validate_trace_summary(summary)
        assert summary["processes"] == len(pids)

        import os
        parent = os.getpid()
        worker_lanes = [l for l in summary["lanes"] if l["pid"] != parent]
        assert worker_lanes, "no worker lanes in the summary"
        # The analyse work happens *in* the workers: each worker lane
        # carries spans and positive self time.
        for lane in worker_lanes:
            assert lane["spans"] > 0
            assert lane["self_seconds"] > 0.0
        analyse_pids = {r["pid"] for r in rows if r["name"] == "analyse"}
        assert analyse_pids <= pids - {parent}
        # Lane self times are a partition too: summed over lanes they
        # equal the summed stage self times.
        lane_self = sum(l["self_seconds"] for l in summary["lanes"])
        stage_self = sum(r["self_seconds"] for r in summary["stages"])
        assert lane_self == pytest.approx(stage_self)

    def test_chrome_batch_trace_survives_containment_reconstruction(
            self, tmp_path):
        """The CI smoke case: a Chrome batch trace has no parent links,
        so the analyzer re-derives nesting by containment per lane.
        Jobs adopted from per-job worker tracers must land at their true
        position on the parent timeline (epoch rebasing) — otherwise
        every job sits at t≈0, containment stacks them into a fictional
        tower and the self-time partition invariant breaks.
        """
        trace = tmp_path / "batch.json"
        assert main(["batch", "--registry", "--backend", "process",
                     "--workers", "2", "--trace", str(trace)]) == 0
        summary = summarize_files([trace])
        validate_trace_summary(summary)
        total_self = sum(r["self_seconds"] for r in summary["stages"])
        assert total_self <= summary["wall_seconds"] + 1e-9
        # Sibling jobs on one worker lane stay siblings: 8 registry
        # graphs means 8 `analyse` spans, one stage row per graph.
        analyse = [r for r in summary["stages"] if r["stage"] == "analyse"]
        assert sum(r["count"] for r in analyse) == 8
        assert len(analyse) == 8  # keyed by the inherited graph name
