"""Kernel baseline: vectorized numpy backends vs the exact reference.

Three measurements, persisted to ``BENCH_kernels.json`` at the
repository root (``repro-bench-v1`` schema, see
``benchmarks/bench_common.py``):

* **max-plus eigenvalue** of two Algorithm-1 iteration matrices —
  ``critical_cycle(kernel="numpy")`` vs ``kernel="exact"``: a
  ``random_consistent_sdf`` graph's matrix of order 64 (the shape of
  perfbench's ``random-mcm`` pool, ~80% finite) and the order-600
  matrix of a ring of 300 self-looped actors (two finite entries per
  row, 0.3% dense);
* **self-timed simulation** of the registry graph with the busiest
  state space the exact engine still explores quickly — vectorized
  per-instant firing passes vs the reference event loop.

Every timed pair first asserts *bit-identical* results (the kernels'
whole contract); the speedup entries carry their asserted floors as
``baseline`` so `repro.obs.check` flags a regression below them.  Both
eigenvalue entries assert >= 10x; simulation asserts a >= 2x floor and
reports the measured figure honestly.
"""

from __future__ import annotations

import pathlib
import random
import time

from bench_common import entry, write_bench
from repro.core.symbolic import symbolic_iteration
from repro.graphs import TABLE1_CASES
from repro.graphs.random_sdf import random_consistent_sdf
from repro.kernels.simulation import simulation_throughput_numpy
from repro.maxplus.spectral import critical_cycle
from repro.sdf.graph import SDFGraph
from repro.sdf.simulation import simulation_throughput

BENCH_FILE = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
)

#: Repeats per timing; min-of-N suppresses scheduler noise.
REPEATS = 3

#: Asserted speedup floors (also the ``baseline`` of each entry).
EIGENVALUE_FLOOR = 10.0
SIMULATION_FLOOR = 2.0

#: The registry graph timed for the simulation kernel: busiest
#: state space among the ones the exact engine explores in well under
#: a second (keeps the suite fast and the timing stable).
SIMULATION_CASE = "mp3 dec. block par."


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def pool_matrix(order: int = 64):
    """Iteration matrix of the first ``random_consistent_sdf`` graph (the
    ``random-mcm`` pool's generator) whose matrix has ``order``."""
    rng = random.Random(20090726)
    while True:
        graph = random_consistent_sdf(rng, n_actors=16, extra_edges=12,
                                      max_repetition=4)
        if sum(edge.tokens for edge in graph.edges) == order:
            return symbolic_iteration(graph).matrix


def ring_matrix(actors: int = 300):
    """Iteration matrix of ``actors`` self-looped actors on a one-token
    ring: order ``2·actors``, two finite entries per row."""
    rng = random.Random(20090726)
    graph = SDFGraph("ring")
    names = [f"a{i}" for i in range(actors)]
    for name in names:
        graph.add_actor(name, rng.randint(1, 50))
        graph.add_edge(name, name, tokens=1)
    for source, target in zip(names, names[1:] + names[:1]):
        graph.add_edge(source, target, tokens=1)
    return symbolic_iteration(graph).matrix


def measure_eigenvalue(matrix) -> dict:
    exact = critical_cycle(matrix, kernel="exact")
    vectorized = critical_cycle(matrix, kernel="numpy")
    assert vectorized.value == exact.value  # bit identity first

    exact_seconds = _best_of(
        REPEATS, lambda: critical_cycle(matrix, kernel="exact"))
    numpy_seconds = _best_of(
        max(REPEATS, 10), lambda: critical_cycle(matrix, kernel="numpy"))
    return {
        "order": matrix.nrows, "finite": matrix.finite_entry_count(),
        "value": str(exact.value),
        "exact_seconds": round(exact_seconds, 6),
        "numpy_seconds": round(numpy_seconds, 6),
        "speedup": round(exact_seconds / numpy_seconds, 2),
    }


def measure_simulation() -> dict:
    case = next(c for c in TABLE1_CASES if c.name == SIMULATION_CASE)
    graph = case.build()
    exact = simulation_throughput(graph)
    vectorized = simulation_throughput_numpy(graph)
    assert vectorized.period == exact.period
    assert vectorized.firings_per_period == exact.firings_per_period

    exact_seconds = _best_of(REPEATS, lambda: simulation_throughput(graph))
    numpy_seconds = _best_of(
        REPEATS, lambda: simulation_throughput_numpy(graph))
    return {
        "graph": graph.name,
        "period": str(exact.period),
        "exact_seconds": round(exact_seconds, 6),
        "numpy_seconds": round(numpy_seconds, 6),
        "speedup": round(exact_seconds / numpy_seconds, 2),
    }


def _eigenvalue_entries(prefix: str, measured: dict) -> list:
    return [
        entry(f"{prefix}_speedup", "x", measured["speedup"],
              baseline=EIGENVALUE_FLOOR, order=measured["order"],
              finite=measured["finite"],
              note="baseline is the asserted floor"),
        entry(f"{prefix}_exact_seconds", "s", measured["exact_seconds"]),
        entry(f"{prefix}_numpy_seconds", "s", measured["numpy_seconds"]),
    ]


def _entries(pool: dict, ring: dict, simulation: dict) -> list:
    return [
        *_eigenvalue_entries("eigenvalue_pool", pool),
        *_eigenvalue_entries("eigenvalue_ring", ring),
        entry("simulation_speedup", "x", simulation["speedup"],
              baseline=SIMULATION_FLOOR, graph=simulation["graph"],
              period=simulation["period"],
              note="baseline is the asserted floor"),
        entry("simulation_exact_seconds", "s", simulation["exact_seconds"]),
        entry("simulation_numpy_seconds", "s", simulation["numpy_seconds"]),
    ]


def test_kernel_baseline(report):
    pool = measure_eigenvalue(pool_matrix())
    ring = measure_eigenvalue(ring_matrix())
    simulation = measure_simulation()

    report("Kernels: numpy vs exact, bit-identical results "
           "(BENCH_kernels.json)")
    for label, measured in (("random-mcm pool", pool), ("sparse ring", ring)):
        report(f"eigenvalue, {label} matrix of order {measured['order']} "
               f"({measured['finite']} finite): "
               f"exact {measured['exact_seconds'] * 1e3:.2f}ms, "
               f"numpy {measured['numpy_seconds'] * 1e3:.2f}ms "
               f"({measured['speedup']:.0f}x, "
               f"floor {EIGENVALUE_FLOOR:.0f}x)")
    report(f"self-timed simulation of {simulation['graph']}: "
           f"exact {simulation['exact_seconds']:.3f}s, "
           f"numpy {simulation['numpy_seconds']:.3f}s "
           f"({simulation['speedup']:.1f}x, floor {SIMULATION_FLOOR:.0f}x)")
    write_bench(BENCH_FILE, "kernels",
                _entries(pool, ring, simulation))
    report(f"written to {BENCH_FILE.name}")
    report.save("kernels")

    # Acceptance: both eigenvalue matrices clear the 10x criterion and
    # nothing regresses below its floor.
    assert pool["speedup"] >= EIGENVALUE_FLOOR
    assert ring["speedup"] >= EIGENVALUE_FLOOR
    assert simulation["speedup"] >= SIMULATION_FLOOR


if __name__ == "__main__":  # standalone: regenerate the JSON baseline
    import json

    doc = write_bench(
        BENCH_FILE, "kernels",
        _entries(measure_eigenvalue(pool_matrix()),
                 measure_eigenvalue(ring_matrix()), measure_simulation()),
    )
    print(json.dumps(doc, indent=2))
