"""Feed the repository benchmark's end-to-end results to the sentinel.

Usage, from the repository root::

    PYTHONPATH=src python benchmarks/perfbench_feed.py --seed 1
    PYTHONPATH=src python benchmarks/perfbench_feed.py --seed 1 --seconds 1

Runs the command ``BENCHMARK.json`` declares once per workload, with
``--trace 0`` and the given seed and seconds (default: its
``run_seconds``).  When every run is ``correct`` with no failed
request, appends one ``repro-bench-v1`` document per workload to
``benchmarks/results/history.jsonl``, which ``repro obs regress``
judges: suite = the workload, entries = the ``end_to_end`` metrics with
perfbench's units, each entry's meta = seed, seconds, attempted and
failed.  Otherwise it appends nothing and exits 1.

Per-layer metrics stay out: perfbench times them on re-runs after the
request, not inside it, and two of them are differences that read
negative.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Any, Callable, Dict, List, Optional

from bench_common import HISTORY_FILE, append_history, bench_document, entry

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"


class FeedError(RuntimeError):
    """A run the journal must not record."""


def perfbench(command: List[str], workload: str, seed: int,
              seconds: float) -> str:
    """Standard output of one end-to-end run of the declared command."""
    command = [*command, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
    if completed.returncode != 0:
        raise FeedError(f"{workload}: {' '.join(command)} exited with "
                        f"code {completed.returncode}")
    return completed.stdout


def workload_document(end_to_end: List[Dict[str, str]], workload: str,
                      stdout: str, seed: int,
                      seconds: float) -> Dict[str, Any]:
    """The journal document of one run, from its last output line."""
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise FeedError(
            f"{workload}: correct={result['correct']}, "
            f"failed={result['failed']} of {result['attempted']}")
    meta = {"seed": seed, "seconds": seconds,
            "attempted": result["attempted"], "failed": result["failed"]}
    entries = []
    for metric in end_to_end:
        measured = result["metrics"][metric["name"]]
        if measured["unit"] != metric["unit"]:
            raise FeedError(
                f"{workload}: {metric['name']} is in {measured['unit']!r}, "
                f"BENCHMARK.json declares {metric['unit']!r}")
        entries.append(entry(metric["name"], measured["unit"],
                             measured["value"], **meta))
    return bench_document(workload, entries)


def main(argv: Optional[List[str]] = None,
         run: Callable[[List[str], str, int, float], str] = perfbench,
         history: pathlib.Path = HISTORY_FILE) -> int:
    declared = json.loads(BENCHMARK_FILE.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    args = parser.parse_args(argv)
    try:
        docs = [workload_document(
                    declared["end_to_end"], workload["name"],
                    run(declared["command"], workload["name"], args.seed,
                        args.seconds),
                    args.seed, args.seconds)
                for workload in declared["workloads"]]
    except FeedError as error:
        print(f"error: {error}; nothing appended", file=sys.stderr)
        return 1
    append_history(docs, history)
    for doc in docs:
        print(doc["suite"], " ".join(
            f"{e['name']}={e['value']:.6g}" for e in doc["entries"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
