"""Observability through the CLI: --version, --trace, --metrics and
per-stage costs from ``repro obs analyze``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.check import (
    validate_chrome_trace,
    validate_metrics_snapshot,
    validate_prometheus_text,
    validate_span_jsonl,
)
from repro.analysis.cache import AnalysisCache, set_default_cache
from repro.obs.metrics import MetricsRegistry, set_default_registry


@pytest.fixture(autouse=True)
def fresh_observability_state():
    """Isolate each test from the process-global registry *and* cache
    (a warm default cache would swallow the spans these tests assert)."""
    previous_registry = set_default_registry(MetricsRegistry())
    previous_cache = set_default_cache(AnalysisCache())
    try:
        yield
    finally:
        set_default_registry(previous_registry)
        set_default_cache(previous_cache)


class TestVersion:
    def test_version_flag_reports_pyproject_version(self, capsys):
        import pathlib
        import re

        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

        pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
        declared = re.search(r'^version\s*=\s*"([^"]+)"',
                             pyproject.read_text(), re.MULTILINE)
        assert declared and declared.group(1) == __version__


class TestTraceFlag:
    def test_throughput_writes_nested_chrome_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(["throughput", "builtin:figure3",
                     "--trace", str(trace)]) == 0
        data = json.loads(trace.read_text())
        validate_chrome_trace(data)
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in complete}
        assert {"throughput", "repetition-vector", "symbolic-conversion",
                "mcm-eigenvalue"} <= set(by_name)
        # Stage spans nest inside the analysis root on the timeline.
        root = by_name["throughput"]
        for stage in ("symbolic-conversion", "mcm-eigenvalue"):
            event = by_name[stage]
            assert root["ts"] <= event["ts"]
            assert event["ts"] + event["dur"] <= root["ts"] + root["dur"]

    def test_jsonl_extension_selects_span_log(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["throughput", "builtin:figure3",
                     "--trace", str(trace)]) == 0
        summary = validate_span_jsonl(trace.read_text())
        assert summary["spans"] >= 3

    def test_lint_supports_trace(self, tmp_path):
        trace = tmp_path / "lint.json"
        assert main(["lint", "builtin:figure3",
                     "--trace", str(trace)]) == 0
        data = json.loads(trace.read_text())
        names = {e["name"] for e in data["traceEvents"] if e["ph"] == "X"}
        assert "lint" in names


class TestMetricsFlag:
    def test_prometheus_extension(self, tmp_path):
        path = tmp_path / "metrics.prom"
        assert main(["throughput", "builtin:figure3",
                     "--metrics", str(path)]) == 0
        text = path.read_text()
        validate_prometheus_text(text)
        assert "repro_cache_" in text

    def test_json_snapshot(self, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["lint", "builtin:figure1",
                     "--metrics", str(path)]) == 0
        data = json.loads(path.read_text())
        validate_metrics_snapshot(data)
        names = {m["name"] for m in data["metrics"]}
        assert "repro_lint_findings_total" in names


class TestStageCosts:
    def test_analyze_compares_symbolic_and_hsdf_stages(self, capsys, tmp_path):
        """The paper's Section 6 comparison from two traced runs: the
        symbolic route's stages and the classical expansion's stages
        each get a cost row with wall and CPU time."""
        from repro.obs.check import validate_trace_summary

        traces = []
        for method in ("symbolic", "hsdf"):
            traces.append(str(tmp_path / f"{method}.jsonl"))
            assert main(["throughput", "builtin:figure3", "--method", method,
                         "--trace", traces[-1]]) == 0
        summary_path = tmp_path / "summary.json"
        assert main(["obs", "analyze", *traces,
                     "--json", str(summary_path)]) == 0
        out = capsys.readouterr().out
        summary = json.loads(summary_path.read_text())
        validate_trace_summary(summary)
        rows = {row["stage"]: row for row in summary["stages"]}
        for stage in ("symbolic-conversion", "mcm-eigenvalue",
                      "hsdf-expansion", "howard-mcr"):
            assert rows[stage]["cpu_seconds"] >= 0.0
            assert rows[stage]["total_seconds"] > 0.0
            assert stage in out
        assert "cpu" in out and "peak" in out


class TestBatchObservability:
    def test_process_backend_merges_worker_lanes(self, capsys, tmp_path):
        from repro.analysis.cache import default_cache
        from repro.analysis.store import ResultStore

        trace = tmp_path / "batch.json"
        metrics = tmp_path / "batch.prom"
        store = tmp_path / "store"
        assert main(["batch", "--registry", "--backend", "process",
                     "--workers", "2", "--store", str(store),
                     "--trace", str(trace),
                     "--metrics", str(metrics)]) == 0
        assert "store: 0 disk hits / 8 disk misses, 8 published" \
            in capsys.readouterr().out
        data = json.loads(trace.read_text())
        validate_chrome_trace(data)
        events = data["traceEvents"]
        pids = {e["pid"] for e in events}
        assert len(pids) >= 2, "worker spans must land in their own lanes"
        lanes = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert any(name.startswith("worker[") for name in lanes)
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "batch" in names and "analyse" in names

        text = metrics.read_text()
        validate_prometheus_text(text)
        # Worker-side registries were merged into one parent snapshot.
        assert 'repro_batch_results_total{status="ok"}' in text
        # Each worker publishes its own result; the parent adopts it
        # into memory without publishing or counting it again.
        records = ResultStore(store).stats().records
        assert records == 8
        assert f"repro_cache_disk_puts_total {records}\n" in text

        # A cold re-run over the populated store: the workers serve
        # every graph from disk, and the CLI reports their traffic.
        default_cache().clear()
        assert main(["batch", "--registry", "--backend", "process",
                     "--workers", "2", "--store", str(store)]) == 0
        assert "store: 8 disk hits / 0 disk misses, 0 published" \
            in capsys.readouterr().out

    def test_serial_batch_counts_outcomes(self, tmp_path):
        metrics = tmp_path / "batch.json"
        assert main(["batch", "builtin:figure3", "builtin:figure1",
                     "--backend", "serial",
                     "--metrics", str(metrics)]) == 0
        data = json.loads(metrics.read_text())
        validate_metrics_snapshot(data)
        by_name = {m["name"]: m for m in data["metrics"]}
        outcomes = by_name["repro_batch_results_total"]
        total = sum(s["value"] for s in outcomes["samples"])
        assert total == 2


class TestResilienceSpanIds:
    def test_outcome_records_carry_span_ids_under_tracer(self):
        from repro.analysis.resilience import AnalysisPolicy
        from repro.graphs.examples import figure3_graph
        from repro.obs.trace import Tracer

        with Tracer() as tracer:
            outcome = AnalysisPolicy().run(figure3_graph())
        span_ids = {s.id for s in tracer.spans()}
        assert outcome.span_id in span_ids
        assert outcome.provenance
        assert all(a.span_id in span_ids for a in outcome.provenance)

    def test_span_ids_absent_when_disabled(self):
        from repro.analysis.resilience import AnalysisPolicy
        from repro.graphs.examples import figure3_graph

        outcome = AnalysisPolicy().run(figure3_graph())
        assert outcome.span_id is None
        assert all(a.span_id is None for a in outcome.provenance)


class TestExplain:
    def test_explain_writes_verified_artifacts(self, capsys, tmp_path):
        from repro.graphs import modem
        from repro.obs.check import validate_provenance
        from repro.obs.provenance import verify_witness

        cert = tmp_path / "cert.json"
        html = tmp_path / "cert.html"
        dot = tmp_path / "cert.dot"
        assert main(["explain", "builtin:modem",
                     "--json", str(cert), "--html", str(html),
                     "--dot", str(dot), "--require-witness"]) == 0
        out = capsys.readouterr().out
        assert "witness" in out and "reduction steps" in out
        data = json.loads(cert.read_text())
        validate_provenance(data)
        # The shipped certificate re-verifies on a fresh graph build.
        verify_witness(modem(), data)
        page = html.read_text()
        assert page.startswith("<!DOCTYPE html>") and data["graph"] in page
        assert "digraph" in dot.read_text()

    def test_explain_forced_abstraction_is_conservative(self, capsys, tmp_path):
        from repro.graphs import mp3_playback
        from repro.obs.provenance import verify_witness

        cert = tmp_path / "cert.json"
        assert main(["explain", "builtin:mp3-playback",
                     "--stages", "abstraction",
                     "--json", str(cert), "--require-witness"]) == 0
        data = json.loads(cert.read_text())
        assert data["status"] == "conservative-bound"
        assert data["witness"]["space"] == "abstract"
        assert [t["tier"] for t in data["tiers"]] == ["abstraction"]
        assert data["bound_phase_count"] is not None
        verify_witness(mp3_playback(), data)
        assert "conservative" in capsys.readouterr().out


class TestObsFamily:
    """The `repro obs ...` analytics subcommands, end to end."""

    def _trace(self, tmp_path, name="trace.jsonl"):
        path = tmp_path / name
        assert main(["throughput", "builtin:figure3",
                     "--trace", str(path)]) == 0
        return path

    def test_analyze_text_report(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        assert main(["obs", "analyze", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "self-time attribution" in out
        assert "critical path" in out
        assert "mcm-eigenvalue" in out

    def test_analyze_json_artifact_validates(self, tmp_path, capsys):
        from repro.obs.check import validate_trace_summary

        trace = self._trace(tmp_path)
        summary_path = tmp_path / "summary.json"
        assert main(["obs", "analyze", str(trace),
                     "--json", str(summary_path)]) == 0
        summary = json.loads(summary_path.read_text())
        verdict = validate_trace_summary(summary)
        assert verdict["spans"] >= 3
        # Stage self times never exceed the root wall time.
        total_self = sum(r["self_seconds"] for r in summary["stages"])
        assert total_self <= summary["wall_seconds"] + 1e-9

    def test_analyze_folds_both_formats(self, tmp_path, capsys):
        jsonl = self._trace(tmp_path, "a.jsonl")
        chrome = tmp_path / "b.json"
        assert main(["throughput", "builtin:figure3",
                     "--trace", str(chrome)]) == 0
        capsys.readouterr()  # drain the analysis output
        assert main(["obs", "analyze", str(jsonl), str(chrome),
                     "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["sources"]) == 2

    def test_flame_output_is_collapsed_stack_format(self, tmp_path):
        import re

        from repro.obs.check import validate_collapsed

        trace = self._trace(tmp_path)
        folded = tmp_path / "trace.folded"
        assert main(["obs", "flame", str(trace),
                     "--output", str(folded)]) == 0
        text = folded.read_text()
        validate_collapsed(text)
        for line in text.splitlines():
            assert re.fullmatch(r"[^ ]+(?:;[^ ]+)* \d+", line)
        assert any(line.startswith("throughput;")
                   for line in text.splitlines())

    def test_diff_of_two_runs(self, tmp_path, capsys):
        a = self._trace(tmp_path, "a.jsonl")
        b = self._trace(tmp_path, "b.jsonl")
        sa, sb = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["obs", "analyze", str(a), "--json", str(sa)]) == 0
        assert main(["obs", "analyze", str(b), "--json", str(sb)]) == 0
        assert main(["obs", "diff", str(sa), str(sb)]) == 0
        out = capsys.readouterr().out
        assert "trace-summary diff" in out
        html_path = tmp_path / "diff.html"
        assert main(["obs", "diff", str(sa), str(sb),
                     "--format", "html", "--output", str(html_path)]) == 0
        assert html_path.read_text().startswith("<!DOCTYPE html>")

    def test_diff_rejects_mismatched_kinds(self, tmp_path, capsys):
        summary = tmp_path / "s.json"
        a = self._trace(tmp_path)
        assert main(["obs", "analyze", str(a), "--json", str(summary)]) == 0
        metrics = tmp_path / "m.json"
        assert main(["throughput", "builtin:figure3",
                     "--metrics", str(metrics)]) == 0
        assert main(["obs", "diff", str(summary), str(metrics)]) == 1

    def test_obs_check_is_the_cli_home_for_the_validator(self, tmp_path,
                                                         capsys):
        trace = self._trace(tmp_path)
        assert main(["obs", "check", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "1"}\n')
        assert main(["obs", "check", str(bad)]) == 1

    def test_module_entrypoint_stays_an_alias(self, tmp_path):
        import subprocess
        import sys

        trace = self._trace(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.check", str(trace)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "ok" in proc.stdout
