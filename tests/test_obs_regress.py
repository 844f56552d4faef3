"""The regression sentinel: robust verdicts over synthetic histories.

Each fixture writes a hand-built ``history.jsonl`` and asserts the
verdict — including the two acceptance cases: a 3x slowdown makes
``repro obs regress`` exit 5 naming the entry, a clean history exits 0.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.check import check_file, validate_regress
from repro.obs.regress import (
    REGRESS_SCHEMA,
    evaluate_history,
    higher_is_better,
    load_history,
    render_regress_text,
)

HOST = {"platform": "linux-x86", "python": "3.12.1", "git_sha": "a" * 40}


def _doc(suite, name, value, unit="s", baseline=None, host=HOST):
    return {
        "schema": "repro-bench-v1",
        "suite": suite,
        "written": "2026-08-08T00:00:00+00:00",
        "host": dict(host),
        "entries": [{"name": name, "unit": unit, "value": value,
                     "baseline": baseline, "meta": {}}],
    }


def _history(tmp_path, docs, name="history.jsonl"):
    path = tmp_path / name
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    return path


def _series(values, **over):
    return [_doc("kernels", "mcm_seconds", v, **over) for v in values]


class TestDirection:
    def test_units_imply_direction(self):
        assert higher_is_better("x")
        assert higher_is_better("graphs/s")
        assert not higher_is_better("s")
        assert not higher_is_better("ratio")


class TestVerdicts:
    def test_3x_slowdown_regresses(self, tmp_path):
        path = _history(tmp_path, _series([1.0, 1.01, 0.99, 1.0, 3.0]))
        report = evaluate_history(path)
        (result,) = report["results"]
        assert result["verdict"] == "regressed"
        assert report["regressed"] == ["kernels/mcm_seconds"]
        assert result["median"] == pytest.approx(1.0, abs=0.01)
        assert "vs median" in result["reason"]
        validate_regress(report)

    def test_stable_series_is_ok(self, tmp_path):
        path = _history(tmp_path, _series([1.0, 1.02, 0.98, 1.01]))
        (result,) = evaluate_history(path)["results"]
        assert result["verdict"] == "ok"

    def test_speedup_unit_flips_direction(self, tmp_path):
        # A rate *dropping* 3x is the regression; rising is improvement.
        drop = _history(tmp_path, _series([30.0, 31.0, 29.0, 10.0],
                                          unit="graphs/s"), name="drop.jsonl")
        (result,) = evaluate_history(drop)["results"]
        assert result["verdict"] == "regressed"
        rise = _history(tmp_path, _series([30.0, 31.0, 29.0, 90.0],
                                          unit="graphs/s"), name="rise.jsonl")
        (result,) = evaluate_history(rise)["results"]
        assert result["verdict"] == "improved"

    def test_insufficient_data(self, tmp_path):
        path = _history(tmp_path, _series([1.0, 1.0]))
        (result,) = evaluate_history(path)["results"]
        assert result["verdict"] == "insufficient-data"
        assert result["samples"] == 1

    def test_host_incompatible_priors_are_excluded(self, tmp_path):
        other = {**HOST, "platform": "darwin-arm64"}
        docs = _series([0.1, 0.1, 0.1], host=other) + _series([1.0])
        (result,) = evaluate_history(_history(tmp_path, docs))["results"]
        # Three priors exist, none comparable: no drift call.
        assert result["verdict"] == "insufficient-data"
        assert result["samples"] == 0

    def test_noisy_series_refuses_a_call(self, tmp_path):
        path = _history(tmp_path, _series([1.0, 2.0, 0.5, 3.0, 0.4, 2.5]))
        (result,) = evaluate_history(path)["results"]
        assert result["verdict"] == "noisy"
        assert "noise ceiling" in result["reason"]

    def test_mad_widens_the_band_for_jittery_series(self, tmp_path):
        # MAD ~ 0.1 on median 1.0: a +0.35 excursion is within 4*MAD
        # even though it exceeds the 25% relative threshold.
        path = _history(tmp_path, _series([0.9, 1.1, 1.0, 0.85, 1.15, 1.35]))
        (result,) = evaluate_history(path)["results"]
        assert result["verdict"] == "ok"

    def test_declared_baseline_always_wins(self, tmp_path):
        # Rolling stats say "consistent with history" — but the suite's
        # own asserted ceiling is violated, and that contract wins.
        docs = _series([0.30, 0.31, 0.29]) + _series([0.32], baseline=0.25)
        (result,) = evaluate_history(_history(tmp_path, docs))["results"]
        assert result["verdict"] == "regressed"
        assert "declared baseline violated" in result["reason"]
        # Higher-is-better entries treat the baseline as a floor.
        docs = [_doc("kernels", "speedup", v, unit="x", baseline=2.0)
                for v in (3.0, 1.5)]
        results = evaluate_history(_history(tmp_path, docs,
                                            name="floor.jsonl"))["results"]
        assert results[0]["verdict"] == "regressed"
        assert "below floor" in results[0]["reason"]

    def test_window_limits_the_lookback(self, tmp_path):
        # Ancient fast samples age out of a window of 3: the recent
        # plateau is the baseline, so the newest sample is ok.
        path = _history(tmp_path, _series([0.1, 0.1, 2.0, 2.1, 1.9, 2.0]))
        (result,) = evaluate_history(path, window=3)["results"]
        assert result["verdict"] == "ok"

    def test_entry_missing_from_newest_sample_is_not_judged(self, tmp_path):
        # The suite's newest run no longer publishes ``retired``: its
        # series has enough priors, but the suite has retired it.
        retired = [_doc("kernels", "retired", v) for v in (1.0, 1.0, 1.0, 3.0)]
        docs = retired + _series([1.0, 1.0, 1.0, 1.0])
        report = evaluate_history(_history(tmp_path, docs))
        assert [r["entry"] for r in report["results"]] == ["mcm_seconds"]
        assert report["regressed"] == []
        # Another suite's newest sample does not retire it.
        docs = retired + [_doc("other", "mcm_seconds", 1.0)]
        report = evaluate_history(_history(tmp_path, docs, name="b.jsonl"))
        assert {(r["suite"], r["entry"]) for r in report["results"]} == {
            ("kernels", "retired"), ("other", "mcm_seconds")}

    def test_torn_journal_is_an_error(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps(_doc("s", "e", 1.0)) + "\n{torn")
        with pytest.raises(ValueError, match="line 2"):
            load_history(path)


class TestReportDocument:
    def test_counts_and_ordering(self, tmp_path):
        docs = (
            _series([1.0, 1.0, 1.0, 3.0])                  # regressed
            + [_doc("cache", "hits", v, unit="ratio")
               for v in (0.9, 0.9, 0.9, 0.9)]              # ok
            + [_doc("obs", "new_metric", 1.0)]             # insufficient
        )
        report = evaluate_history(_history(tmp_path, docs))
        assert report["schema"] == REGRESS_SCHEMA
        assert report["entries"] == 3
        assert report["counts"]["regressed"] == 1
        assert report["counts"]["ok"] == 1
        assert report["counts"]["insufficient-data"] == 1
        # Loud verdicts sort first.
        assert report["results"][0]["verdict"] == "regressed"
        validate_regress(report)

    def test_text_rendering_summarises_quiet_series(self, tmp_path):
        docs = _series([1.0, 1.0, 1.0, 1.0])
        report = evaluate_history(_history(tmp_path, docs))
        quiet = render_regress_text(report)
        assert "1 ok" in quiet
        assert "mcm_seconds" not in quiet  # ok series elided
        verbose = render_regress_text(report, verbose=True)
        assert "kernels/mcm_seconds" in verbose

    def test_deterministic_for_a_given_journal(self, tmp_path):
        path = _history(tmp_path, _series([1.0, 1.0, 1.0, 3.0]))
        assert evaluate_history(path) == evaluate_history(path)


class TestCliGate:
    def test_slowdown_exits_5_and_names_the_entry(self, tmp_path, capsys):
        path = _history(tmp_path, _series([1.0, 1.01, 0.99, 3.0]))
        assert main(["obs", "regress", "--history", str(path)]) == 5
        out = capsys.readouterr().out
        assert "kernels/mcm_seconds" in out
        assert "REGRESSED" in out

    def test_clean_history_exits_0(self, tmp_path):
        path = _history(tmp_path, _series([1.0, 1.01, 0.99, 1.0]))
        assert main(["obs", "regress", "--history", str(path)]) == 0

    def test_report_only_suppresses_the_gate(self, tmp_path):
        path = _history(tmp_path, _series([1.0, 1.0, 1.0, 3.0]))
        assert main(["obs", "regress", "--history", str(path),
                     "--report-only"]) == 0

    def test_json_artifact_passes_repro_obs_check(self, tmp_path):
        path = _history(tmp_path, _series([1.0, 1.0, 1.0, 3.0]))
        out = tmp_path / "regress.json"
        assert main(["obs", "regress", "--history", str(path),
                     "--report-only", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == REGRESS_SCHEMA
        assert check_file(out)["regressed"] == 1

    def test_missing_history_is_a_clean_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["obs", "regress", "--history", str(missing)]) == 1

    def test_threshold_knob_reaches_the_judge(self, tmp_path):
        # +30% drift: regressed at the default 25%, ok at 50%.
        path = _history(tmp_path, _series([1.0, 1.0, 1.0, 1.3]))
        assert main(["obs", "regress", "--history", str(path)]) == 5
        assert main(["obs", "regress", "--history", str(path),
                     "--threshold", "0.5"]) == 0
