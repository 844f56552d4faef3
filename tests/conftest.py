"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings

from repro.sdf.graph import SDFGraph

# Hypothesis profiles: "dev" (default) keeps runs quick; "ci" disables
# the wall-clock deadline (shared runners jitter) and derandomizes so
# every CI run covers the same example corpus.  Select with
# HYPOTHESIS_PROFILE=ci (the GitHub Actions workflow does).
settings.register_profile(
    "dev",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

#: Set to any string to run the collected tests in a seeded random
#: order (one CI leg does); unset or empty keeps file order.
ORDER_SEED = os.environ.get("REPRO_TEST_ORDER_SEED") or None


def pytest_report_header(config):
    if ORDER_SEED is not None:
        return f"test order shuffled: REPRO_TEST_ORDER_SEED={ORDER_SEED}"
    return None


def pytest_collection_modifyitems(session, config, items):
    """Shuffle the collected tests when ``REPRO_TEST_ORDER_SEED`` is
    set, so a test that leans on state another one leaves behind fails
    reproducibly under that seed."""
    if ORDER_SEED is not None:
        random.Random(ORDER_SEED).shuffle(items)


@pytest.fixture
def two_actor_multirate() -> SDFGraph:
    """A minimal strongly connected multirate graph (γ = (2, 1))."""
    g = SDFGraph("two-actor")
    g.add_actor("A", execution_time=3)
    g.add_actor("B", execution_time=1)
    g.add_edge("A", "B", production=1, consumption=2, tokens=0)
    g.add_edge("B", "A", production=2, consumption=1, tokens=2)
    return g


@pytest.fixture
def simple_ring() -> SDFGraph:
    """A 3-actor homogeneous ring with one token (cycle time = ΣT)."""
    g = SDFGraph("ring")
    for name, time in (("X", 2), ("Y", 3), ("Z", 4)):
        g.add_actor(name, time)
    g.add_edge("X", "Y")
    g.add_edge("Y", "Z")
    g.add_edge("Z", "X", tokens=1)
    return g


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20090726)  # the paper's conference date


class TickingClock:
    """A monotonic clock that advances ``tick`` seconds on every read.

    A deadline of ``b`` seconds then expires after about ``b / tick``
    clock reads, however fast or loaded the host is.
    """

    def __init__(self, tick: float):
        self.tick = tick
        self.now = 0.0

    def monotonic(self) -> float:
        self.now += self.tick
        return self.now


@contextmanager
def ticking_deadlines(tick: float = 0.002):
    """Run every :class:`repro.analysis.deadline.Deadline` on a
    :class:`TickingClock` (monkeypatched into the deadline module; the
    library takes no clock parameter).  With the default 2 ms tick a
    1 ms stage budget expires at the stage's first poll, while a 10 s
    budget allows thousands of polls."""
    clock = TickingClock(tick)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.analysis.deadline.time", clock)
        yield


@contextmanager
def memory_tracing(on: bool = True):
    """Switch :mod:`tracemalloc` on (or off) for the block, then put it
    back the way it was, traceback depth included — so a suite run under
    ``python -X tracemalloc`` keeps tracing after the test."""
    was_tracing = tracemalloc.is_tracing()
    frames = tracemalloc.get_traceback_limit()
    if on and not was_tracing:
        tracemalloc.start()
    elif not on and was_tracing:
        tracemalloc.stop()
    try:
        yield
    finally:
        if tracemalloc.is_tracing() and not was_tracing:
            tracemalloc.stop()
        elif was_tracing and not tracemalloc.is_tracing():
            tracemalloc.start(frames)


def replay_schedule(graph: SDFGraph, schedule) -> bool:
    """Check a schedule is admissible and a whole iteration (test oracle)."""
    from repro.sdf.repetition import repetition_vector

    tokens = {e.name: e.tokens for e in graph.edges}
    for actor in schedule:
        for e in graph.in_edges(actor):
            tokens[e.name] -= e.consumption
            if tokens[e.name] < 0:
                return False
        for e in graph.out_edges(actor):
            tokens[e.name] += e.production
    if any(tokens[e.name] != e.tokens for e in graph.edges):
        return False
    gamma = repetition_vector(graph)
    counts = {a: 0 for a in graph.actor_names}
    for actor in schedule:
        counts[actor] += 1
    return counts == gamma
