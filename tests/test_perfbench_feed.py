"""The perfbench feed: canned benchmark output becomes journal lines.

``benchmarks/perfbench_feed.py`` is driven here with canned perfbench
output, so no benchmark process is spawned.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

from repro.obs.check import check_file, validate_bench

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]

sys.path.insert(0, str(ROOT / "benchmarks"))
import perfbench_feed  # noqa: E402


def canned(workload, correct=True, failed=0, unit=None):
    """What ``perfbench/run.py --workload W --trace 0`` prints: the
    descriptor line, then the result line."""
    metrics = {name: {"value": 1.0 + index, "unit": unit or metric_unit}
               for index, (name, metric_unit) in enumerate(END_TO_END)}
    metrics["latency_tail_ms"] = {"value": 9.0, "unit": "ms"}  # not fed
    result = {"correct": correct, "attempted": 120, "failed": failed,
              "metrics": metrics}
    return (json.dumps({"descriptor": {"workload": workload}}) + "\n"
            + json.dumps(result) + "\n")


def runner(outputs):
    calls = []

    def run(command, workload, seed, seconds):
        assert command == BENCHMARK["command"]
        calls.append((workload, seed, seconds))
        return outputs.get(workload) or canned(workload)
    run.calls = calls
    return run


def test_three_workloads_become_three_valid_history_lines(tmp_path):
    history = tmp_path / "history.jsonl"
    run = runner({})
    assert perfbench_feed.main(["--seed", "3", "--seconds", "2"], run=run,
                               history=history) == 0
    assert run.calls == [(name, 3, 2.0) for name in WORKLOADS]
    docs = [json.loads(line) for line in history.read_text().splitlines()]
    assert [doc["suite"] for doc in docs] == WORKLOADS
    for doc in docs:
        validate_bench(doc)
        assert doc["written"].endswith("+00:00")
        assert set(doc["host"]) == {"platform", "python", "git_sha"}
        assert [(e["name"], e["unit"]) for e in doc["entries"]] == END_TO_END
        for e in doc["entries"]:
            assert e["baseline"] is None
            assert e["meta"] == {"seed": 3, "seconds": 2.0,
                                 "attempted": 120, "failed": 0}
    assert check_file(str(history)) == {"runs": 3}


def test_seconds_default_to_the_declared_run_length(tmp_path):
    run = runner({})
    assert perfbench_feed.main(["--seed", "1"], run=run,
                               history=tmp_path / "h.jsonl") == 0
    assert {seconds for _, _, seconds in run.calls} == {
        BENCHMARK["run_seconds"]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("outcome", [{"correct": False},
                                     {"failed": 2},
                                     {"unit": "us"}],
                         ids=["incorrect", "failed", "unit"])
def test_a_bad_run_appends_nothing(tmp_path, capsys, workload, outcome):
    history = tmp_path / "history.jsonl"
    history.write_text("")
    run = runner({workload: canned(workload, **outcome)})
    assert perfbench_feed.main(["--seed", "1"], run=run,
                               history=history) == 1
    assert history.read_text() == ""
    assert "nothing appended" in capsys.readouterr().err


def test_the_declared_command_runs_untraced(monkeypatch):
    seen = []

    def fake_run(command, **kwargs):
        seen.append((command, kwargs["cwd"]))
        return subprocess.CompletedProcess(command, 0, canned("table1"))

    monkeypatch.setattr(perfbench_feed.subprocess, "run", fake_run)
    assert perfbench_feed.perfbench(BENCHMARK["command"], "table1", 4,
                                    20) == canned("table1")
    assert seen == [([*BENCHMARK["command"], "--workload", "table1",
                      "--seed", "4", "--seconds", "20", "--trace", "0"],
                     ROOT)]


def test_a_crashed_benchmark_appends_nothing(monkeypatch, tmp_path):
    monkeypatch.setattr(
        perfbench_feed.subprocess, "run",
        lambda command, **kwargs: subprocess.CompletedProcess(command, 2, ""))
    history = tmp_path / "history.jsonl"
    assert perfbench_feed.main(["--seed", "1"], history=history) == 1
    assert not history.exists()
