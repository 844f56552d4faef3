"""Metrics registry: semantics, exporters, merge, cache collector."""

from __future__ import annotations

import json

import pytest

from repro.analysis.cache import AnalysisCache
from repro.graphs.examples import figure3_graph
from repro.obs.check import (
    validate_metrics_snapshot,
    validate_prometheus_text,
)
from repro.obs.metrics import (
    MetricsRegistry,
    default_registry,
    set_default_registry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("jobs_total", "jobs")
        c.inc()
        c.inc(2)
        assert registry.value("jobs_total") == 3

    def test_labels_are_independent_children(self, registry):
        c = registry.counter("results_total", "", labels=("status",))
        c.labels(status="ok").inc(5)
        c.labels(status="error").inc()
        assert c.value(status="ok") == 5
        assert c.value(status="error") == 1

    def test_get_or_create_returns_same_family(self, registry):
        first = registry.counter("x_total", "help")
        second = registry.counter("x_total", "help")
        assert first is second

    def test_type_conflict_raises(self, registry):
        registry.counter("x_total", "")
        with pytest.raises(ValueError):
            registry.gauge("x_total", "")


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("depth", "")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert registry.value("depth") == 13


class TestExporters:
    def _populated(self, registry):
        registry.counter("jobs_total", "jobs run",
                         labels=("status",)).labels(status="ok").inc(3)
        registry.gauge("size", "current size").set(7)
        return registry

    def test_snapshot_validates(self, registry):
        snapshot = self._populated(registry).as_dict()
        summary = validate_metrics_snapshot(snapshot)
        assert summary["families"] == 2

    def test_prometheus_text_validates(self, registry):
        text = self._populated(registry).to_prometheus()
        summary = validate_prometheus_text(text)
        assert summary["samples"] > 0
        assert 'jobs_total{status="ok"} 3' in text
        assert "# TYPE jobs_total counter" in text

    def test_write_picks_format_by_extension(self, registry, tmp_path):
        self._populated(registry)
        prom = tmp_path / "m.prom"
        registry.write(prom)
        validate_prometheus_text(prom.read_text())
        js = tmp_path / "m.json"
        registry.write(js)
        validate_metrics_snapshot(json.loads(js.read_text()))


class TestMerge:
    def test_counters_add_gauges_max(self, registry):
        registry.counter("n_total", "").inc(2)
        registry.gauge("peak", "").set(5)
        other = MetricsRegistry()
        other.counter("n_total", "").inc(3)
        other.gauge("peak", "").set(4)
        other.counter("only_remote_total", "").inc()
        registry.merge(other.as_dict())
        assert registry.value("n_total") == 5
        assert registry.value("peak") == 5  # max, not sum
        assert registry.value("only_remote_total") == 1

    def test_labelled_merge_keys_align(self, registry):
        c = registry.counter("r_total", "", labels=("status",))
        c.labels(status="ok").inc()
        other = MetricsRegistry()
        other.counter("r_total", "", labels=("status",)).labels(
            status="ok").inc(2)
        registry.merge(other.as_dict())
        assert c.value(status="ok") == 3


class TestDefaultRegistry:
    def test_set_default_returns_previous(self):
        original = default_registry()
        fresh = MetricsRegistry()
        previous = set_default_registry(fresh)
        try:
            assert previous is original
            assert default_registry() is fresh
        finally:
            set_default_registry(previous)
        assert default_registry() is original


class TestCollectors:
    def test_collector_runs_at_export(self, registry):
        g = registry.gauge("live", "")
        registry.register_collector(lambda _registry: g.set(42))
        assert registry.as_dict()  # triggers the collector
        assert registry.value("live") == 42

    def test_cache_register_metrics_exports_deltas(self, registry):
        cache = AnalysisCache()
        cache.register_metrics(registry)
        cache.throughput(figure3_graph())
        cache.throughput(figure3_graph())
        registry.as_dict()
        assert registry.value("repro_cache_misses_total") == 1
        assert registry.value("repro_cache_hits_total") == 1
        assert registry.value("repro_cache_size") == 1

    def test_cache_register_metrics_is_idempotent(self, registry):
        cache = AnalysisCache()
        cache.register_metrics(registry)
        cache.register_metrics(registry)  # second call must not double-count
        cache.throughput(figure3_graph())
        registry.as_dict()
        assert registry.value("repro_cache_misses_total") == 1

    def test_cache_deltas_not_double_counted_across_exports(self, registry):
        cache = AnalysisCache()
        cache.register_metrics(registry)
        cache.throughput(figure3_graph())
        registry.as_dict()
        registry.as_dict()  # second export: no new activity, no new deltas
        assert registry.value("repro_cache_misses_total") == 1
