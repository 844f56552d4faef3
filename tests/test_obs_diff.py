"""A/B telemetry diffs: structural matching, noise floor, renderings."""

from __future__ import annotations

import json

import pytest

from repro.obs.check import validate_trace_diff
from repro.obs.diff import (
    TRACE_DIFF_SCHEMA,
    apply_noise_floor,
    diff_documents,
    diff_files,
    render_diff_html,
    render_diff_text,
)


def _summary(stages):
    """A minimal repro-trace-summary-v1 carrying just the stage table."""
    return {
        "schema": "repro-trace-summary-v1",
        "stages": [
            {"stage": stage, "graph": graph, "kernel": kernel,
             "count": 1, "total_seconds": self_s, "self_seconds": self_s}
            for stage, graph, kernel, self_s in stages
        ],
    }


A = _summary([
    ("mcm", "modem", "numpy", 1.0),
    ("convert", "modem", None, 0.5),
    ("lint", "modem", None, 0.2),
    ("steady", "modem", None, 0.1),
])
B = _summary([
    ("mcm", "modem", "numpy", 2.0),       # 2x slower: regressed
    ("convert", "modem", None, 0.25),     # 2x faster: improved
    ("lint", "modem", None, 0.202),       # +1%: below the noise floor
    ("parse", "modem", None, 0.05),       # new on the B side
])


class TestApplyNoiseFloor:
    def test_clamps_below_floor(self):
        assert apply_noise_floor(-0.013, 0.0) == (0.0, True)
        assert apply_noise_floor(0.08, 0.0) == (0.08, False)

    def test_is_the_primitive_behind_bench_noise_floored(self):
        import pathlib
        import sys

        root = pathlib.Path(__file__).parent.parent
        sys.path.insert(0, str(root / "benchmarks"))
        try:
            import bench_common
        finally:
            sys.path.pop(0)
        floored = bench_common.noise_floored("x", "ratio", -0.004)
        assert floored["value"] == 0.0
        assert floored["meta"]["measured"] == -0.004
        assert floored["meta"]["noise_floored"] is True


class TestTraceSummaryDiff:
    def test_directions_and_noise_floor(self):
        diff = diff_documents(A, B, noise_floor=0.05)
        assert diff["schema"] == TRACE_DIFF_SCHEMA
        assert diff["kind"] == "trace-summary"
        by_key = {r["key"]: r for r in diff["rows"]}
        assert by_key["mcm/modem/numpy"]["direction"] == "regressed"
        assert by_key["mcm/modem/numpy"]["relative"] == pytest.approx(1.0)
        assert by_key["convert/modem/-"]["direction"] == "improved"
        lint = by_key["lint/modem/-"]
        assert lint["direction"] == "unchanged"
        assert lint["relative"] == 0.0
        assert lint["noise_floored"] is True
        assert lint["measured_relative"] == pytest.approx(0.01)
        assert by_key["parse/modem/-"]["direction"] == "added"
        assert by_key["steady/modem/-"]["direction"] == "removed"
        assert diff["counts"] == {"regressed": 1, "improved": 1, "added": 1,
                                  "removed": 1, "unchanged": 1}
        validate_trace_diff(diff)

    def test_loudest_changes_sort_first(self):
        diff = diff_documents(A, B, noise_floor=0.05)
        assert diff["rows"][0]["key"] == "mcm/modem/numpy"
        assert [r["direction"] for r in diff["rows"]] == [
            "regressed", "improved", "added", "removed", "unchanged"]

    def test_totals(self):
        diff = diff_documents(A, B)
        assert diff["totals"]["a"] == pytest.approx(1.8)
        assert diff["totals"]["b"] == pytest.approx(2.502)

    def test_mismatched_kinds_rejected(self):
        metrics = {"schema": "repro-metrics-v1", "metrics": []}
        with pytest.raises(ValueError, match="cannot diff"):
            diff_documents(A, metrics)
        with pytest.raises(ValueError, match="expected"):
            diff_documents({"schema": "repro-bench-v1"}, A)


class TestMetricsDiff:
    def test_counters_and_histograms(self):
        def snapshot(ok):
            return {
                "schema": "repro-metrics-v1",
                "metrics": [
                    {"name": "repro_batch_results_total", "type": "counter",
                     "samples": [{"labels": {"status": "ok"}, "value": ok}]},
                ],
            }

        diff = diff_documents(snapshot(8), snapshot(16))
        by_key = {r["key"]: r for r in diff["rows"]}
        assert by_key['repro_batch_results_total{status=ok}']["delta"] == 8
        assert diff["kind"] == "metrics"
        validate_trace_diff(diff)


class TestRenderings:
    def test_text_mentions_noise_floor_and_totals(self):
        text = render_diff_text(diff_documents(A, B, noise_floor=0.05))
        assert "noise floor 5%" in text
        assert "1 regressed" in text
        assert "~0% (measured +1.0%)" in text
        assert text.strip().splitlines()[-1].startswith("total:")

    def test_html_is_self_contained_and_badged(self):
        page = render_diff_html(diff_documents(A, B))
        assert page.startswith("<!DOCTYPE html>")
        assert "badge fail" in page  # a regression is present
        assert "mcm/modem/numpy" in page
        clean = render_diff_html(diff_documents(A, A))
        assert "badge ok" in clean

    def test_diff_files_labels_by_path(self, tmp_path):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(A))
        pb.write_text(json.dumps(B))
        diff = diff_files(pa, pb, noise_floor=0.05)
        assert diff["a"] == str(pa) and diff["b"] == str(pb)
        validate_trace_diff(diff)
