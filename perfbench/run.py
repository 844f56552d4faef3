"""Run one benchmark workload, or all of them, and print the metrics.

Usage, from the repository root (nothing to install or build)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

For one workload the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the run's descriptor (seed, input distributions, layer
shares, failure reasons, host stamp).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
``--workload all`` runs the workloads one after another and prints every
metric, ``latency_tail_ms`` and ``failed_ratio`` included, as a
``workload metric value unit`` table before its JSON line.  See README.md.

Every run starts fresh interpreters one after another: ``SETUP_PROBES``
that only set up, so that set-up time is a median, and between them one
that sets up, measures and checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("table1", "random-mcm", "batch-reuse")
#: Set-up-only interpreters per run, besides the measuring one.
SETUP_PROBES = 6
#: Wall-clock budget of one workload's run, set-up probes included.
RUN_BUDGET_S = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child(args: argparse.Namespace) -> int:
    """Set up in this interpreter, then (``measure``) run and check."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    workload = harness.WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.child == "setup":
            return 0
        spans = (harness.OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
                 if args.trace else None)
        result = harness.measure(workload, args.seconds, bool(args.trace),
                                 spans)
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


def spawn(args: argparse.Namespace, workload: str, role: str, budget: float):
    """Run one child interpreter to completion.

    Returns the seconds from its start until it reported being set up,
    and everything it printed after that.  The child is killed when it
    outlives ``budget``.
    """
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--child", role,
    ]
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               cwd=ROOT)
    watchdog = threading.Timer(budget, process.kill)
    watchdog.start()
    try:
        ready = process.stdout.readline()
        elapsed = time.perf_counter() - start
        output = process.stdout.read()
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
        process.wait()
        process.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(
            f"{workload} {role} interpreter failed with exit code {code}")
    return elapsed, output


def run(args: argparse.Namespace, workload: str):
    """One workload's run: its result document and its descriptor."""
    deadline = time.monotonic() + RUN_BUDGET_S
    # Half the set-up probes run before the measuring interpreter and
    # half after it, so their median spans the whole run rather than one
    # burst of the host's contention.
    before = SETUP_PROBES // 2
    roles = ["setup"] * before + ["measure"] + ["setup"] * (SETUP_PROBES - before)
    setups = []
    for role in roles:
        elapsed, output = spawn(args, workload, role,
                                max(deadline - time.monotonic(), 1.0))
        setups.append(elapsed)
        if role == "measure":
            measured = output
    result = json.loads(measured.strip().splitlines()[-1])
    descriptor = result.pop("descriptor")
    descriptor["setup_samples_s"] = setups
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(descriptor, indent=2) + "\n")
    return result, descriptor


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: the library sources (src/repro) are missing; run "
              "from a full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = {name: run(args, name) for name in names}
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.workload != "all":
        result, descriptor = runs[args.workload]
        print(json.dumps({"descriptor": descriptor}))
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, (result, descriptor) in runs.items():
        metrics = {
            **result["metrics"],
            "latency_tail_ms": {"value": descriptor["latency_tail_ms"],
                                "unit": "ms"},
            "failed_ratio": {"value": descriptor["failed_ratio"],
                             "unit": "ratio"},
        }
        for metric, entry in metrics.items():
            print(f"{name:12s} {metric:26s} {entry['value']:14.6g} "
                  f"{entry['unit']}")
            combined["metrics"][f"{name}/{metric}"] = entry
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
