"""Sequential schedules and liveness."""

from collections import deque
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import replay_schedule
from strategies import consistent_connected_sdf_graphs
from repro.errors import DeadlockError
from repro.graphs import TABLE1_CASES
from repro.graphs.examples import figure3_graph, section41_example
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import repetition_vector
from repro.sdf.schedule import block_schedule, is_live, sequential_schedule


def greedy_schedule(graph, repetitions):
    """Reference: the demand-free greedy simulation one firing at a time
    (worklist in actor order; an actor fires while enabled, then its
    successors and itself re-enter the worklist).  Returns the firing
    list or raises DeadlockError like the library does."""
    remaining = dict(repetitions)
    tokens = {e.name: e.tokens for e in graph.edges}
    schedule = []

    def enabled(actor):
        return remaining[actor] > 0 and all(
            tokens[e.name] >= e.consumption for e in graph.in_edges(actor))

    queue = deque(graph.actor_names)
    queued = set(queue)
    while queue:
        actor = queue.popleft()
        queued.discard(actor)
        fired = False
        while enabled(actor):
            for e in graph.in_edges(actor):
                tokens[e.name] -= e.consumption
            for e in graph.out_edges(actor):
                tokens[e.name] += e.production
            remaining[actor] -= 1
            schedule.append(actor)
            fired = True
        if fired:
            for target in [e.target for e in graph.out_edges(actor)] + [actor]:
                if remaining[target] > 0 and target not in queued:
                    queue.append(target)
                    queued.add(target)
    total = sum(repetitions.values())
    if len(schedule) != total:
        blocked = {a: r for a, r in remaining.items() if r > 0}
        raise DeadlockError(
            f"graph {graph.name!r} deadlocks: "
            f"{total - len(schedule)} of {total} firings could not be "
            f"scheduled (blocked actors: {sorted(blocked)})",
            blocked=blocked,
        )
    return schedule


@st.composite
def arbitrary_rate_graphs(draw):
    """Any rates, tokens and self-loop shapes (``p ≠ c`` included) with
    an arbitrary firing-count vector: consistency is not required, and
    many draws deadlock."""
    n = draw(st.integers(min_value=1, max_value=5))
    g = SDFGraph("arbitrary")
    for i in range(n):
        g.add_actor(f"a{i}")
    rate = st.integers(min_value=1, max_value=3)
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        source = draw(st.integers(min_value=0, max_value=n - 1))
        target = draw(st.integers(min_value=0, max_value=n - 1))
        g.add_edge(f"a{source}", f"a{target}", draw(rate), draw(rate),
                   draw(st.integers(min_value=0, max_value=5)))
    repetitions = {
        a: draw(st.integers(min_value=0, max_value=5)) for a in g.actor_names
    }
    return g, repetitions


def _outcome(schedule_fn, graph, repetitions):
    try:
        return schedule_fn(graph, repetitions), None
    except DeadlockError as error:
        return None, (str(error), error.blocked)


class TestBlockSchedule:
    """``block_schedule`` run-length-decodes to the greedy one-firing-at-
    a-time order, and deadlocks the same way."""

    @given(case=arbitrary_rate_graphs())
    @settings(max_examples=300, deadline=None)
    def test_decodes_to_greedy_order(self, case):
        graph, repetitions = case
        runs, error = _outcome(block_schedule, graph, repetitions)
        greedy, greedy_error = _outcome(greedy_schedule, graph, repetitions)
        assert error == greedy_error
        if error is None:
            assert runs == [(a, len(list(group)))
                            for a, group in groupby(greedy)]
            assert all(count > 0 for _, count in runs)
            assert sequential_schedule(graph, repetitions) == greedy

    @given(g=consistent_connected_sdf_graphs(max_extra_tokens=2),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_default_repetitions_match_greedy(self, g, data):
        for edge in g.edges:  # drop tokens now and then: some deadlock
            if data.draw(st.booleans()):
                g.set_tokens(edge.name, max(0, edge.tokens - 1))
        gamma = repetition_vector(g)
        assert (_outcome(sequential_schedule, g, None)
                == _outcome(greedy_schedule, g, gamma))

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
    def test_registry_runs(self, case):
        g = case.build()
        runs = block_schedule(g)
        assert sum(count for _, count in runs) == case.paper_traditional
        assert [a for a, k in runs for _ in range(k)] == greedy_schedule(
            g, repetition_vector(g))


class TestScheduleConstruction:
    def test_ring_schedule(self, simple_ring):
        schedule = sequential_schedule(simple_ring)
        assert schedule == ["Z", "X", "Y"] or replay_schedule(simple_ring, schedule)

    def test_schedule_is_admissible_iteration(self, two_actor_multirate):
        schedule = sequential_schedule(two_actor_multirate)
        assert replay_schedule(two_actor_multirate, schedule)

    def test_figure3_three_firings(self):
        schedule = sequential_schedule(figure3_graph())
        assert len(schedule) == 3
        assert schedule.count("L") == 2 and schedule.count("R") == 1

    def test_section41_schedule_length(self):
        g = section41_example()
        assert len(sequential_schedule(g)) == g.actor_count()

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
    def test_benchmark_schedules_replay(self, case):
        g = case.build()
        assert replay_schedule(g, sequential_schedule(g))

    def test_multi_iteration_schedule(self, two_actor_multirate):
        gamma = repetition_vector(two_actor_multirate)
        double = {a: 2 * v for a, v in gamma.items()}
        schedule = sequential_schedule(two_actor_multirate, repetitions=double)
        assert len(schedule) == 2 * sum(gamma.values())

    def test_zero_repetitions_supported(self, simple_ring):
        zero = {a: 0 for a in simple_ring.actor_names}
        assert sequential_schedule(simple_ring, repetitions=zero) == []


class TestDeadlock:
    def test_tokenless_ring_deadlocks(self):
        g = SDFGraph("dead")
        g.add_actors("a", "b")
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with pytest.raises(DeadlockError) as excinfo:
            sequential_schedule(g)
        assert excinfo.value.blocked == {"a": 1, "b": 1}
        assert not is_live(g)

    def test_partial_deadlock_reports_blocked_only(self):
        g = SDFGraph()
        g.add_actors("free", "a", "b")
        g.add_edge("free", "free", tokens=1)
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with pytest.raises(DeadlockError) as excinfo:
            sequential_schedule(g)
        assert set(excinfo.value.blocked) == {"a", "b"}

    def test_insufficient_tokens_on_multirate_cycle(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b", production=1, consumption=2, tokens=1)
        g.add_edge("b", "a", production=2, consumption=1, tokens=0)
        assert not is_live(g)

    def test_enough_tokens_make_it_live(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b", production=1, consumption=2, tokens=2)
        g.add_edge("b", "a", production=2, consumption=1, tokens=0)
        assert is_live(g)

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
    def test_all_benchmarks_live(self, case):
        assert is_live(case.build())

    def test_liveness_depends_on_token_placement(self):
        # Same ring, token moved: still live (any single token works).
        g = SDFGraph()
        g.add_actors("a", "b", "c")
        g.add_edge("a", "b", tokens=1)
        g.add_edge("b", "c")
        g.add_edge("c", "a")
        assert is_live(g)
