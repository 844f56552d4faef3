"""The parallel batch runner: equivalence, error isolation, hit rates."""

from __future__ import annotations

import sys

import pytest

from repro.analysis.batch import ANALYSES, BatchReport, analyse_graph, run_batch
from repro.analysis.cache import AnalysisCache
from repro.analysis.latency import latency
from repro.analysis.throughput import throughput
from repro.graphs import TABLE1_CASES
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import repetition_vector


@pytest.fixture(scope="module")
def registry_graphs():
    return [case.build() for case in TABLE1_CASES]


def inconsistent_graph() -> SDFGraph:
    g = SDFGraph("broken-rates")
    g.add_actor("A", 1)
    g.add_actor("B", 1)
    g.add_edge("A", "B", production=2, consumption=3, name="fwd")
    g.add_edge("B", "A", production=1, consumption=1, tokens=1, name="back")
    return g


def deadlocked_graph() -> SDFGraph:
    g = SDFGraph("deadlocked")
    g.add_actor("A", 1)
    g.add_actor("B", 1)
    g.add_edge("A", "B")
    g.add_edge("B", "A")  # token-free cycle
    return g


class TestEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_matches_sequential_loop(self, registry_graphs, backend):
        graphs = registry_graphs[:4] if backend == "process" else registry_graphs
        expected = {
            g.name: (repetition_vector(g), throughput(g).cycle_time) for g in graphs
        }
        report = run_batch(
            graphs,
            analyses=("repetition", "throughput"),
            backend=backend,
            workers=4,
            cache=AnalysisCache(),
        )
        assert len(report.results) == len(graphs)
        assert not report.failures
        for g, result in zip(graphs, report.results):
            assert result.name == g.name  # input order preserved
            gamma, cycle = expected[g.name]
            assert result.values["repetition"] == gamma
            assert result.values["throughput"].cycle_time == cycle

    def test_latency_analysis(self, registry_graphs):
        g = registry_graphs[2]  # modem: small enough for a direct check
        report = run_batch([g], analyses=("latency",), backend="serial")
        assert report.results[0].values["latency"].makespan == latency(g).makespan

    def test_analyse_graph_single(self, registry_graphs):
        result = analyse_graph(registry_graphs[2], analyses=("throughput",))
        assert result.ok
        assert result.fingerprint == registry_graphs[2].fingerprint()
        assert result.value("throughput").cycle_time == throughput(
            registry_graphs[2]
        ).cycle_time


class TestErrorIsolation:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_failures_do_not_kill_the_pool(self, backend):
        good = [case.build() for case in TABLE1_CASES[2:4]]
        graphs = [good[0], inconsistent_graph(), deadlocked_graph(), good[1]]
        report = run_batch(graphs, backend=backend, workers=2, cache=AnalysisCache())
        assert [r.ok for r in report.results] == [True, False, False, True]
        by_name = {r.name: r for r in report.results}
        assert by_name["broken-rates"].error_type == "InconsistentGraphError"
        assert by_name["deadlocked"].error_type == "DeadlockError"
        assert "inconsistent" in by_name["broken-rates"].error
        assert len(report.ok) == 2 and len(report.failures) == 2
        for g, result in zip(good, (report.results[0], report.results[3])):
            assert result.values["throughput"].cycle_time == throughput(g).cycle_time

    def test_failed_result_value_raises(self):
        report = run_batch([inconsistent_graph()], backend="serial")
        with pytest.raises(RuntimeError, match="failed"):
            report.results[0].value("throughput")

    def test_unknown_backend(self, registry_graphs):
        with pytest.raises(ValueError, match="unknown backend"):
            run_batch(registry_graphs[:1], backend="fibers")

    def test_unknown_analysis(self, registry_graphs):
        with pytest.raises(ValueError, match="unknown analyses"):
            run_batch(registry_graphs[:1], analyses=("vibes",))

    def test_bad_workers(self, registry_graphs):
        with pytest.raises(ValueError, match="workers"):
            run_batch(registry_graphs[:1], workers=0)


class TestCacheIntegration:
    def test_hit_rate_reported(self, registry_graphs, monkeypatch):
        cache = AnalysisCache()
        cold = run_batch(registry_graphs, cache=cache)
        assert cold.cache_stats.hits == 0
        assert cold.cache_stats.misses == len(registry_graphs)

        def no_analysis(*args, **kwargs):
            raise AssertionError("the warm pass ran an analysis")

        # The cache computes through this module attribute, so a warm
        # pass that computed anything would fail that graph.
        monkeypatch.setattr(sys.modules["repro.analysis.throughput"],
                            "throughput", no_analysis)
        warm = run_batch(registry_graphs, cache=cache)
        assert not warm.failures
        assert ([r.values["throughput"].cycle_time for r in warm.results]
                == [r.values["throughput"].cycle_time for r in cold.results])
        assert warm.cache_stats.hits == len(registry_graphs)
        assert warm.cache_stats.misses == len(registry_graphs)  # unchanged
        assert warm.hit_rate == 0.5

    def test_duplicate_variants_deduped(self, registry_graphs):
        """Scenario-suite shape: repeated identical variants compute once."""
        cache = AnalysisCache()
        g = registry_graphs[2]
        suite = [g.copy(f"variant-{i}") for i in range(6)]
        report = run_batch(suite, backend="thread", workers=4, cache=cache)
        assert not report.failures
        stats = report.cache_stats
        assert stats.misses == 1  # one distinct fingerprint
        assert stats.hits + stats.coalesced == 5
        cycles = {r.values["throughput"].cycle_time for r in report.results}
        assert cycles == {throughput(g).cycle_time}

    def test_process_backend_warms_local_cache(self):
        cache = AnalysisCache()
        graphs = [case.build() for case in TABLE1_CASES[2:4]]
        run_batch(graphs, backend="process", workers=2, cache=cache)
        assert len(cache) == len(graphs)  # results adopted locally
        warm = run_batch(graphs, backend="process", workers=2, cache=cache)
        assert warm.cache_stats.hits == len(graphs)

    def test_process_backend_matches_serial(self):
        """Graphs travel to the workers as compact pickles; the results
        must equal the in-process ones."""
        graphs = [case.build() for case in TABLE1_CASES[2:5]]
        analyses = ("repetition", "throughput")
        serial = run_batch(graphs, analyses, backend="serial",
                           cache=AnalysisCache())
        process = run_batch(graphs, analyses, backend="process", workers=2,
                            cache=AnalysisCache())
        assert not serial.failures and not process.failures
        for mine, theirs in zip(serial.results, process.results):
            assert (mine.name, mine.fingerprint) == \
                (theirs.name, theirs.fingerprint)
            assert mine.values["repetition"] == theirs.values["repetition"]
            here, there = (r.values["throughput"] for r in (mine, theirs))
            assert here.cycle_time == there.cycle_time
            assert here.provenance.as_dict() == there.provenance.as_dict()

    def test_repr_mentions_outcome(self, registry_graphs):
        report = run_batch(registry_graphs[:2], backend="serial")
        assert isinstance(report, BatchReport)
        assert "2 ok" in repr(report)

    def test_all_analyses_known(self):
        assert set(ANALYSES) == {
            "repetition",
            "throughput",
            "latency",
            "symbolic_iteration",
        }
