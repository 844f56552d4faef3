"""Every BENCH_*.json at the repo root satisfies ``repro-bench-v1``."""

from __future__ import annotations

import json
import pathlib
import platform
import sys

import pytest

from repro.obs.check import BENCH_SCHEMA, SchemaError, check_file, validate_bench

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))

sys.path.insert(0, str(ROOT / "benchmarks"))
from bench_common import entry, host_stamp, noise_floored, write_bench  # noqa: E402


def test_all_expected_baselines_present():
    # One per bench suite that publishes a baseline; perfbench's
    # end-to-end samples go to the history journal, not to a root file.
    names = {path.name for path in BENCH_FILES}
    assert names == {"BENCH_kernels.json", "BENCH_obs.json",
                     "BENCH_resilience.json", "BENCH_scenarios.json"}


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_baseline_validates(path):
    doc = json.loads(path.read_text())
    summary = validate_bench(doc)
    assert doc["schema"] == BENCH_SCHEMA
    assert summary["entries"] > 0


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_asserted_budgets_hold_in_shipped_baseline(path):
    """Entries carrying a baseline must satisfy it in the shipped file
    (ceilings for fractions, floors for speedups)."""
    doc = json.loads(path.read_text())
    for entry in doc["entries"]:
        if entry["baseline"] is None:
            continue
        if entry["unit"] == "ratio":
            assert entry["value"] <= entry["baseline"], entry["name"]
        else:  # speedup-style floors
            assert entry["value"] >= entry["baseline"], entry["name"]


def test_validator_rejects_malformed():
    with pytest.raises(SchemaError):
        validate_bench({"schema": BENCH_SCHEMA, "suite": "x",
                        "entries": [{"name": "n"}]})
    with pytest.raises(SchemaError):
        validate_bench({"schema": "other", "suite": "x", "entries": []})


class TestHostStamp:
    def test_stamp_names_platform_interpreter_and_commit(self):
        stamp = host_stamp()
        assert set(stamp) == {"platform", "python", "git_sha"}
        assert stamp["platform"] == platform.platform()
        assert stamp["python"] == platform.python_version()
        # This test runs inside the repo's own checkout.
        assert stamp["git_sha"] is not None and len(stamp["git_sha"]) == 40

    def test_write_bench_stamps_host_and_accumulates_history(self, tmp_path):
        target = tmp_path / "BENCH_demo.json"
        history = tmp_path / "history.jsonl"
        for _ in range(2):
            doc = write_bench(target, "demo", [entry("m", "s", 1.0)],
                              history=history)
        assert doc["host"] == json.loads(target.read_text())["host"]
        assert doc["host"]["python"] == platform.python_version()
        lines = [json.loads(line) for line in history.read_text().splitlines()]
        assert len(lines) == 2  # appended, not overwritten
        for line in lines:
            validate_bench(line)
            assert line["written"].endswith("+00:00")  # UTC stamped
        # check_file recognises the journal as a bench history.
        assert check_file(str(history)) == {"runs": 2}

    def test_history_opt_out(self, tmp_path):
        target = tmp_path / "BENCH_demo.json"
        write_bench(target, "demo", [entry("m", "s", 1.0)], history=False)
        assert target.exists()
        assert not (tmp_path / "history.jsonl").exists()

    def test_shipped_obs_baseline_carries_a_host_stamp(self):
        doc = json.loads((ROOT / "BENCH_obs.json").read_text())
        assert doc["host"] is not None
        assert doc["host"]["platform"]


class TestNoiseFloor:
    def test_negative_measurement_clamps_and_flags(self):
        clamped = noise_floored("ab_overhead", "ratio", -0.0181, note="a/b")
        assert clamped["value"] == 0.0
        assert clamped["meta"]["noise_floored"] is True
        assert clamped["meta"]["measured"] == -0.0181
        assert clamped["meta"]["note"] == "a/b"

    def test_positive_measurement_passes_through(self):
        clean = noise_floored("ab_overhead", "ratio", 0.004)
        assert clean["value"] == 0.004
        assert "noise_floored" not in clean["meta"]
        assert "measured" not in clean["meta"]

    def test_shipped_obs_overhead_is_not_negative(self):
        doc = json.loads((ROOT / "BENCH_obs.json").read_text())
        ab = next(e for e in doc["entries"]
                  if e["name"] == "tracing_ab_overhead_fraction")
        assert ab["value"] >= 0.0
