"""Content-addressed memoization of SDF analyses.

Parametric sweeps, scenario analyses and design-space exploration call
the same exact analyses on the same graphs over and over (hundreds of
variants differing in a single rate or token count).  This module makes
repeated analysis O(1): results are keyed on the graph's canonical
content hash (:meth:`repro.sdf.graph.SDFGraph.fingerprint`) plus the
analysis name and its parameters, and kept in a bounded LRU store.

Invalidation contract
---------------------
A cache entry is *never* invalidated in place — it is addressed by
content.  Mutating a graph through the builder API changes its
fingerprint, so the mutated graph simply misses the cache and the stale
entry ages out of the LRU.  Two structurally identical graphs (same
actors, execution times and edge multiset, regardless of insertion
order or display name) share entries; results that enumerate initial
tokens (``LatencyResult.token_times``) follow the token order of the
graph that populated the entry, which for equal-fingerprint graphs can
only permute slots of identically named edges.

Concurrency
-----------
All operations are thread-safe.  Concurrent misses on the same key are
*coalesced* (single-flight): one thread computes, the others wait and
share the result — this is what lets the batch runner dedupe scenario
suites full of repeated graphs.

Disk tier
---------
:meth:`AnalysisCache.attach_store` adds a durable second tier (a
:class:`repro.analysis.store.ResultStore`): lookups go memory → disk →
compute.  Only the single-flight *leader* probes the disk (so a key is
read at most once per miss storm) and publishes the freshly computed
result back; waiters share whatever the leader found.  Timed-out
computations raise before any insert, so — exactly as for the memory
tier — budget-shaped results are never persisted.  Disk traffic is
observable through the ``disk_*`` fields of :class:`CacheStats`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, Hashable, Optional, Tuple

from repro.obs.trace import add_event
from repro.sdf.graph import SDFGraph

__all__ = [
    "AnalysisCache",
    "CacheStats",
    "default_cache",
    "set_default_cache",
]


@dataclass
class CacheStats:
    """Observability counters of one :class:`AnalysisCache`.

    Instances are immutable-by-convention *snapshots*: every counter is
    read in one critical section of the cache lock (:meth:`AnalysisCache.
    stats`), so a snapshot is internally consistent even while other
    threads keep hitting the cache — ``hits + misses == lookups`` and
    ``size <= maxsize`` hold in every snapshot, never just eventually
    (property-tested under the thread backend in ``tests/test_cache.py``).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    coalesced: int = 0
    #: Computations that raised instead of producing a value.  Errors are
    #: never cached: the in-flight entry is evicted so later callers
    #: retry (transient failures — timeouts, cancellations — must not
    #: poison the key).
    errors: int = 0
    #: Disk-tier traffic (all zero when no store is attached).  Probes
    #: happen only on leader misses, so every snapshot satisfies
    #: ``disk_hits + disk_misses <= misses``; quarantines and read
    #: errors are subsets of ``disk_misses`` (both degrade to a miss).
    disk_hits: int = 0
    disk_misses: int = 0
    disk_quarantined: int = 0
    disk_errors: int = 0
    #: Results durably published to the disk tier by this cache.
    disk_puts: int = 0
    size: int = 0
    maxsize: int = 0

    #: The cumulative counters (every field but the size gauges); each
    #: is exported as ``repro_cache_<name>_total``.
    COUNTERS: ClassVar[Tuple[str, ...]] = (
        "hits", "misses", "evictions", "coalesced", "errors",
        "disk_hits", "disk_misses", "disk_quarantined", "disk_errors",
        "disk_puts",
    )

    @classmethod
    def exported(cls, snapshot: Dict[str, Any]) -> Dict[str, int]:
        """The counters a cache exported into a ``repro-metrics-v1``
        snapshot (:meth:`AnalysisCache.register_metrics`), by field."""
        samples = {entry["name"]: entry["samples"]
                   for entry in snapshot["metrics"]}
        return {
            field: int(sum(sample["value"] for sample in
                           samples.get(f"repro_cache_{field}_total", ())))
            for field in cls.COUNTERS
        }

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "coalesced": self.coalesced,
            "errors": self.errors,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "disk_quarantined": self.disk_quarantined,
            "disk_errors": self.disk_errors,
            "disk_puts": self.disk_puts,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": self.hit_rate,
        }


class _InFlight:
    """A computation in progress: waiters block on ``done``."""

    __slots__ = ("done", "value", "error")

    def __init__(self):
        self.done = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None


def _freeze(params: Optional[Dict[str, Any]]) -> Tuple:
    """A hashable canonical form of a parameter dict."""
    if not params:
        return ()
    return tuple(sorted(params.items()))


#: Sentinel distinguishing "the disk tier had nothing" from a stored
#: ``None`` value.
_DISK_MISS = object()


class AnalysisCache:
    """A bounded, thread-safe LRU cache of analysis results.

    Keys are ``(fingerprint, analysis, frozen-params)``; values are
    whatever the analysis returned.  Use :meth:`get_or_compute` for
    arbitrary analyses, or the typed conveniences
    (:meth:`repetition_vector`, :meth:`symbolic_iteration`,
    :meth:`throughput`, :meth:`latency`) which pair the key with the
    right library call.

    >>> from repro.graphs.examples import figure3_graph
    >>> cache = AnalysisCache(maxsize=64)
    >>> cold = cache.throughput(figure3_graph())
    >>> warm = cache.throughput(figure3_graph())
    >>> cold is warm, cache.stats().hits
    (True, 1)
    """

    def __init__(self, maxsize: int = 1024, store=None):
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize!r}")
        self.maxsize = maxsize
        self._store: "OrderedDict[Tuple[str, str, Tuple], Any]" = OrderedDict()
        self._inflight: Dict[Tuple[str, str, Tuple], _InFlight] = {}
        self._lock = threading.Lock()
        # Counter increments happen ONLY inside self._lock (including the
        # error path of get_or_compute): under the thread backend many
        # workers hammer one cache, and unguarded "+= 1" on these would
        # lose updates and break CacheStats snapshot consistency.
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._coalesced = 0
        self._errors = 0
        self._disk_hits = 0
        self._disk_misses = 0
        self._disk_quarantined = 0
        self._disk_errors = 0
        self._disk_puts = 0
        self._metrics_registries: set = set()
        #: The durable second tier (a ResultStore), or None.
        self._disk = store

    def attach_store(self, store) -> "AnalysisCache":
        """Attach a :class:`repro.analysis.store.ResultStore` as the
        durable second tier (replacing any previous one; ``None``
        detaches).  Returns ``self`` for chaining.

        A bare reference swap (atomic in CPython): readers snapshot
        ``self._disk`` once per operation, so no lock is needed and a
        concurrent probe simply finishes against the tier it started
        with.
        """
        self._disk = store
        return self

    @property
    def disk_store(self):
        """The attached :class:`ResultStore`, or ``None``."""
        return self._disk

    # ------------------------------------------------------------------
    # core protocol
    # ------------------------------------------------------------------

    def key(
        self,
        graph: SDFGraph,
        analysis: str,
        params: Optional[Dict[str, Any]] = None,
    ) -> Tuple[str, str, Tuple]:
        return (graph.fingerprint(), analysis, _freeze(params))

    def lookup(
        self,
        graph: SDFGraph,
        analysis: str,
        params: Optional[Dict[str, Any]] = None,
    ) -> Optional[Any]:
        """The cached result, or ``None`` (counts as a hit/miss)."""
        key = self.key(graph, analysis, params)
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                self._hits += 1
                return self._store[key]
            self._misses += 1
            return None

    def store(
        self,
        graph: SDFGraph,
        analysis: str,
        value: Any,
        params: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """Insert a result computed elsewhere (e.g. by a worker process).

        With a disk tier attached the result is also published durably.
        """
        key = self.key(graph, analysis, params)
        with self._lock:
            self._insert(key, value)
        self._disk_publish(key[0], analysis, value, params)
        return value

    # ------------------------------------------------------------------
    # disk tier
    # ------------------------------------------------------------------

    def _disk_probe(
        self, fingerprint: str, analysis: str, params: Optional[Dict[str, Any]]
    ) -> Any:
        """Probe the durable tier; :data:`_DISK_MISS` when it has
        nothing (or no store is attached).  Runs outside the cache lock
        — disk latency must never block the memory tier."""
        disk = self._disk
        if disk is None:
            return _DISK_MISS
        status, value = disk.get(fingerprint, analysis, params=params)
        with self._lock:
            if status == "hit":
                self._disk_hits += 1
            else:
                self._disk_misses += 1
                if status == "quarantined":
                    self._disk_quarantined += 1
                elif status == "error":
                    self._disk_errors += 1
        return value if status == "hit" else _DISK_MISS

    def _disk_publish(
        self, fingerprint: str, analysis: str, value: Any,
        params: Optional[Dict[str, Any]],
    ) -> None:
        disk = self._disk
        if disk is None:
            return
        if disk.put(fingerprint, analysis, value, params=params):
            with self._lock:
                self._disk_puts += 1

    def _insert(self, key: Tuple[str, str, Tuple], value: Any) -> None:
        # Caller holds the lock.
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)
            self._evictions += 1

    def get_or_compute(
        self,
        graph: SDFGraph,
        analysis: str,
        compute: Callable[[], Any],
        params: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """The cached result for ``(graph, analysis, params)``, computing
        it with ``compute()`` on a miss.

        Concurrent misses on one key run ``compute`` exactly once; the
        other threads wait for it.  A ``compute`` that raises poisons
        nothing: the in-flight entry is evicted *unconditionally* (even
        if bookkeeping itself fails), the error is re-raised in the
        leader and every waiter retries from scratch — so a transient
        failure (an :class:`repro.errors.AnalysisTimeout`, a cancelled
        token, an injected fault) never leaves a stale error or a
        wedged in-flight marker behind.  Failed computations count in
        ``stats().errors``.
        """
        key = self.key(graph, analysis, params)
        while True:
            with self._lock:
                if key in self._store:
                    self._store.move_to_end(key)
                    self._hits += 1
                    value = self._store[key]
                    hit = True
                else:
                    flight = self._inflight.get(key)
                    if flight is None:
                        flight = _InFlight()
                        self._inflight[key] = flight
                        self._misses += 1
                        leader = True
                    else:
                        self._coalesced += 1
                        leader = False
                    hit = False
            if hit:
                add_event("cache-hit", analysis=analysis, graph=graph.name)
                return value
            add_event(
                "cache-miss" if leader else "cache-coalesced",
                analysis=analysis, graph=graph.name,
            )
            if leader:
                try:
                    # Second tier: only the leader probes the disk, so a
                    # miss storm costs one read; waiters share the result
                    # through the normal single-flight protocol.
                    value = self._disk_probe(key[0], analysis, params)
                    if value is _DISK_MISS:
                        value = compute()
                        # A timed-out compute() raised above, so only
                        # final results ever reach the durable tier.
                        self._disk_publish(key[0], analysis, value, params)
                    else:
                        add_event("cache-disk-hit", analysis=analysis,
                                  graph=graph.name)
                    with self._lock:
                        self._insert(key, value)
                    flight.value = value
                    return value
                except BaseException as error:
                    flight.error = error
                    with self._lock:
                        self._errors += 1
                    raise
                finally:
                    # Unconditional eviction: whatever happened, the key
                    # must not stay in flight, and waiters must wake.
                    with self._lock:
                        self._inflight.pop(key, None)
                    flight.done.set()
            flight.done.wait()
            if flight.error is None:
                return flight.value
            # The leader failed; loop and recompute (or fail) ourselves.

    # ------------------------------------------------------------------
    # typed conveniences
    # ------------------------------------------------------------------

    def repetition_vector(self, graph: SDFGraph) -> Dict[str, int]:
        from repro.sdf.repetition import repetition_vector

        value = self.get_or_compute(
            graph, "repetition", lambda: repetition_vector(graph)
        )
        return dict(value)  # defensive copy: callers often scale γ in place

    def symbolic_iteration(self, graph: SDFGraph, deadline=None):
        from repro.core.symbolic import symbolic_iteration

        return self.get_or_compute(
            graph,
            "symbolic_iteration",
            lambda: symbolic_iteration(graph, deadline=deadline),
        )

    def throughput(self, graph: SDFGraph, method: str = "symbolic",
                   deadline=None, kernel: str = "auto"):
        """Cached exact throughput.

        ``deadline`` bounds a cache-miss computation but is *not* part
        of the key: an exact result does not depend on how long it was
        allowed to take, and a timed-out computation raises before
        anything is inserted — timed-out results are never cached as
        final, so a later call with a larger budget recomputes.

        ``kernel`` is likewise *not* part of the key: the numpy and
        exact backends return bit-identical results (the numpy path
        certifies its answers exactly, see :mod:`repro.kernels`), so a
        hit produced by one kernel is a correct answer for the other
        and cache entries stay shared across kernels.
        """
        from repro.analysis.throughput import throughput

        return self.get_or_compute(
            graph,
            "throughput",
            lambda: throughput(graph, method=method, deadline=deadline,
                               kernel=kernel),
            params={"method": method},
        )

    def latency(self, graph: SDFGraph):
        from repro.analysis.latency import latency

        return self.get_or_compute(graph, "latency", lambda: latency(graph))

    def lint(self, graph: SDFGraph, config=None):
        """The cached lint report of ``graph`` (see :mod:`repro.lint`).

        Keyed on the graph fingerprint plus the config digest, so runs
        with different rule selections or severity overrides do not
        alias; any builder mutation invalidates via the fingerprint.
        """
        from repro.lint.engine import run_lint

        return run_lint(graph, config=config, cache=self)

    # ------------------------------------------------------------------
    # observability / management
    # ------------------------------------------------------------------

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                coalesced=self._coalesced,
                errors=self._errors,
                disk_hits=self._disk_hits,
                disk_misses=self._disk_misses,
                disk_quarantined=self._disk_quarantined,
                disk_errors=self._disk_errors,
                disk_puts=self._disk_puts,
                size=len(self._store),
                maxsize=self.maxsize,
            )

    def register_metrics(self, registry=None) -> None:
        """Expose this cache through a :class:`repro.obs.metrics.
        MetricsRegistry` (the process-wide default when none is given).

        Registers a pull-style collector that, at every export, folds
        the *delta* of each stat since the previous export into the
        unified ``repro_cache_*_total`` counters and refreshes the
        ``repro_cache_size``/``repro_cache_maxsize`` gauges — so many
        caches (e.g. per-worker ones) aggregate additively into one
        registry.  Idempotent per (cache, registry) pair.
        """
        from repro.obs.metrics import default_registry

        registry = registry if registry is not None else default_registry()
        with self._lock:
            if id(registry) in self._metrics_registries:
                return
            self._metrics_registries.add(id(registry))

        fields = CacheStats.COUNTERS
        counters = {
            field: registry.counter(
                f"repro_cache_{field}_total",
                f"Cumulative analysis-cache {field}.",
            )
            for field in fields
        }
        size = registry.gauge("repro_cache_size", "Entries currently cached.")
        maxsize = registry.gauge("repro_cache_maxsize", "Cache capacity bound.")
        last = {field: 0 for field in fields}

        def collect(_registry) -> None:
            snapshot = self.stats()
            for field in fields:
                value = getattr(snapshot, field)
                delta = value - last[field]
                if delta > 0:
                    counters[field].inc(delta)
                    last[field] = value
            size.set(snapshot.size)
            maxsize.set(snapshot.maxsize)

        registry.register_collector(collect)

    def clear(self) -> None:
        """Drop all entries (counters are kept; see :meth:`reset_stats`)."""
        with self._lock:
            self._store.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = self._misses = self._evictions = 0
            self._coalesced = self._errors = 0
            self._disk_hits = self._disk_misses = 0
            self._disk_quarantined = self._disk_errors = self._disk_puts = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __contains__(self, key: Tuple[str, str, Tuple]) -> bool:
        with self._lock:
            return key in self._store

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"AnalysisCache(size={s.size}/{s.maxsize}, hits={s.hits}, "
            f"misses={s.misses}, hit_rate={s.hit_rate:.2f})"
        )


_default_cache = AnalysisCache(maxsize=4096)
_default_lock = threading.Lock()


def default_cache() -> AnalysisCache:
    """The process-wide shared cache (used by the CLI and batch runner
    when no explicit cache is given)."""
    return _default_cache


def set_default_cache(cache: AnalysisCache) -> AnalysisCache:
    """Swap the process-wide cache (returns the previous one)."""
    global _default_cache
    with _default_lock:
        previous = _default_cache
        _default_cache = cache
    return previous
