"""A zero-dependency metrics registry: counters and gauges.

One :class:`MetricsRegistry` unifies the stats previously siloed in
``CacheStats`` (hit/miss/eviction/coalesced/errors), the batch runner's
retry/quarantine/timeout counts, the fallback-tier outcomes of
:class:`repro.analysis.resilience.AnalysisPolicy` and the lint engine's
per-rule fire counts — behind two exporters:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text
  exposition format (``# TYPE``/``# HELP`` headers), scrape- and
  ``promtool``-compatible;
* :meth:`MetricsRegistry.as_dict` — a JSON-stable snapshot
  (``repro-metrics-v1``) that also round-trips through
  :meth:`MetricsRegistry.merge`, which is how per-process batch workers
  are aggregated into one exported registry.

Metrics are always on (an increment is a dict probe and an int add
under a lock, at per-analysis — not per-iteration — granularity);
*collectors* (:meth:`MetricsRegistry.register_collector`) let pull-style
sources such as a live :class:`~repro.analysis.cache.CacheStats`
refresh gauges only at export time, Prometheus-client style.

>>> registry = MetricsRegistry()
>>> results = registry.counter("repro_batch_results_total",
...                            "Batch outcomes.", labels=("status",))
>>> results.labels(status="ok").inc()
>>> registry.value("repro_batch_results_total", status="ok")
1.0
"""

from __future__ import annotations

import json
import re
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "default_registry",
    "set_default_registry",
]

SCHEMA = "repro-metrics-v1"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class _Child:
    """One labelled time series of a metric family."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: "_Metric", key: Tuple[str, ...]):
        self._family = family
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._family._update(self._key, amount, mode="add")

    def dec(self, amount: float = 1.0) -> None:
        self._family._update(self._key, -amount, mode="add")

    def set(self, value: float) -> None:
        self._family._update(self._key, value, mode="set")


class _Metric:
    """Shared machinery of one metric family (all its label children)."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labels: Tuple[str, ...]):
        self._registry = registry
        self.name = name
        self.help = help
        self.label_names = labels
        self._series: Dict[Tuple[str, ...], Any] = {}

    # -- label plumbing -------------------------------------------------

    def labels(self, **labels: Any) -> _Child:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.label_names)
        return _Child(self, key)

    def _default_child(self) -> _Child:
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} is labelled {self.label_names}; "
                "use .labels(...)"
            )
        return _Child(self, ())

    # -- value plumbing (all under the registry lock) -------------------

    def _update(self, key: Tuple[str, ...], amount: float, mode: str) -> None:
        if self.kind == "counter" and (mode == "set" or amount < 0):
            raise ValueError(f"counter {self.name!r} can only increase")
        with self._registry._lock:
            if mode == "set":
                self._series[key] = float(amount)
            else:
                self._series[key] = self._series.get(key, 0.0) + amount

    def _get(self, key: Tuple[str, ...]) -> Any:
        with self._registry._lock:
            return self._series.get(key)

    # -- convenience when unlabelled ------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def value(self, **labels: Any):
        """Current value of one series (None when never touched)."""
        key = tuple(str(labels[n]) for n in self.label_names)
        return self._get(key)

    # -- export ---------------------------------------------------------

    def _samples(self) -> List[Dict[str, Any]]:
        with self._registry._lock:
            series = dict(self._series)
        rows = []
        for key in sorted(series):
            rows.append({
                "labels": dict(zip(self.label_names, key)),
                "value": series[key],
            })
        return rows

    def _merge_sample(self, labels: Dict[str, str], sample: Dict[str, Any]) -> None:
        key = tuple(str(labels[n]) for n in self.label_names)
        with self._registry._lock:
            if self.kind == "gauge":
                # Cross-worker gauges keep the maximum: sizes/levels from
                # different processes are not additive.
                current = self._series.get(key)
                value = float(sample["value"])
                if current is None or value > current:
                    self._series[key] = value
            else:
                self._series[key] = self._series.get(key, 0.0) + float(
                    sample["value"]
                )


class Counter(_Metric):
    """A monotonically increasing count (``_total`` naming convention)."""

    kind = "counter"


class Gauge(_Metric):
    """A value that can go up and down (sizes, rates, levels)."""

    kind = "gauge"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


class MetricsRegistry:
    """Get-or-create metric families plus the two exporters.

    Creation is idempotent: asking twice for the same name returns the
    same family, and asking with a conflicting type or label set raises
    — one name means one schema, process-wide.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[str, _Metric] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- get-or-create --------------------------------------------------

    def _register(self, cls, name: str, help: str,
                  labels: Sequence[str]) -> _Metric:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labels = tuple(labels)
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.label_names != labels:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.label_names}"
                    )
                return existing
            metric = cls(self, name, help, labels)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def register_collector(
        self, collect: Callable[["MetricsRegistry"], None]
    ) -> Callable[["MetricsRegistry"], None]:
        """Add a pull-style source invoked (once each) before every
        export/snapshot — e.g. refreshing cache gauges from live
        :class:`~repro.analysis.cache.CacheStats`."""
        with self._lock:
            self._collectors.append(collect)
        return collect

    # -- reads ----------------------------------------------------------

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def value(self, name: str, **labels: Any):
        metric = self.get(name)
        return None if metric is None else metric.value(**labels)

    def _collect(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collect in collectors:
            collect(self)

    # -- exports --------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """The ``repro-metrics-v1`` JSON snapshot (also the merge wire
        format for cross-process aggregation)."""
        self._collect()
        with self._lock:
            metrics = list(self._metrics.values())
        return {
            "schema": SCHEMA,
            "metrics": [
                {
                    "name": m.name,
                    "type": m.kind,
                    "help": m.help,
                    "labels": list(m.label_names),
                    "samples": m._samples(),
                }
                for m in sorted(metrics, key=lambda m: m.name)
            ],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        self._collect()
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: List[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {_escape(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for sample in metric._samples():
                lines.append(
                    f"{metric.name}{_label_str(sample['labels'])} "
                    f"{_fmt_value(sample['value'])}"
                )
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        """Write the registry to ``path``: Prometheus text for ``.prom``
        / ``.txt``, the JSON snapshot otherwise."""
        text = (
            self.to_prometheus()
            if str(path).endswith((".prom", ".txt"))
            else self.to_json() + "\n"
        )
        with open(path, "w") as handle:
            handle.write(text)

    # -- merging --------------------------------------------------------

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold another registry's :meth:`as_dict` snapshot into this
        one: counters add, gauges keep the maximum.  This
        is how per-worker registries from the process backend aggregate
        into the batch's single exported registry."""
        if snapshot.get("schema") != SCHEMA:
            raise ValueError(
                f"cannot merge metrics snapshot with schema "
                f"{snapshot.get('schema')!r}; expected {SCHEMA!r}"
            )
        kinds = {"counter": Counter, "gauge": Gauge}
        for entry in snapshot["metrics"]:
            cls = kinds.get(entry["type"])
            if cls is None:
                raise ValueError(f"unknown metric type {entry['type']!r}")
            metric = self._register(
                cls, entry["name"], entry.get("help", ""),
                entry.get("labels", ()),
            )
            for sample in entry["samples"]:
                metric._merge_sample(sample["labels"], sample)

    def __repr__(self) -> str:
        with self._lock:
            return f"MetricsRegistry({len(self._metrics)} metrics)"


def _label_str(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(str(v))}"' for k, v in labels.items())
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-wide registry (used when no explicit one is given)."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (returns the previous one) — the
    process-backend workers use this to record into a fresh registry
    whose snapshot ships back with each result."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous
