"""Tests of the benchmark harness's own logic.

Run from the repository root with ``python -m pytest perfbench``.
"""

import itertools
from fractions import Fraction

import pytest

import harness
from repro import throughput
from repro.obs.analyze import build_forest, load_trace


class FakeClock:
    """A clock that advances by ``step`` every time it is read."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


# ----------------------------------------------------------------------
# the tail-percentile rule
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [11, 25, 100, 1000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    values = list(range(n, 0, -1))
    percentile, tail = harness.tail_percentile(values)
    assert sum(v > tail for v in values) == harness.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentile_at_100():
    assert harness.tail_percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (100.0, 10)
    assert harness.tail_percentile([90, 100, 1]) == (100.0, 100)
    assert harness.tail_percentile(range(1, 101)) == (90.0, 90)
    with pytest.raises(ValueError):
        harness.tail_percentile([])


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_table1():
    """The Table-1 workload cut to two small graphs (its answers are
    still checked against the pinned references)."""
    workload = harness.Table1(seed=0)
    workload.setup()
    workload.cases = [workload.by_index[2], workload.by_index[5]]
    return workload


def test_checker_rejects_a_perturbed_fraction(small_table1):
    case = small_table1.by_index[5]
    result = throughput(case.build())
    provenance = result.provenance.as_dict()
    reference = Fraction(small_table1.reference[5]["cycle_time"])
    assert harness.check_throughput(
        case.build(), str(result.cycle_time), provenance, reference) is None
    reason = harness.check_throughput(
        case.build(), str(result.cycle_time), provenance,
        reference + Fraction(1, 10 ** 9))
    assert reason is not None and "reference" in reason


def test_checker_rejects_a_missing_or_forged_witness(small_table1):
    case = small_table1.by_index[5]
    result = throughput(case.build())
    reference = result.cycle_time
    assert "provenance" in harness.check_throughput(
        case.build(), str(reference), None, reference)
    forged = result.provenance.as_dict()
    forged["cycle_time"] = str(reference + 1)
    assert "witness" in harness.check_throughput(
        case.build(), str(reference), forged, reference)


def test_wrong_answer_counts_like_an_exception(small_table1):
    workload = small_table1
    samples = harness.drive(workload, 0.0)
    assert harness.count_failures(samples, workload.wrong_answers()) == {}

    pinned = workload.reference[5]["cycle_time"]
    workload.reference[5]["cycle_time"] = str(
        Fraction(pinned) + Fraction(1, 10 ** 9))
    try:
        reasons = harness.count_failures(samples, workload.wrong_answers())
    finally:
        workload.reference[5]["cycle_time"] = pinned
    # Only graph 5's throughput request answered the cycle time.
    assert sum(reasons.values()) == 1
    (reason,) = reasons
    assert reason.startswith("mp3 dec. granule par.")

    samples[0].error = "RuntimeError: injected"
    reasons = harness.count_failures(samples, workload.wrong_answers())
    assert reasons == {"RuntimeError: injected": 1}


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------

class ScriptedWorkload(harness.Workload):
    """Three requests a round; the one keyed ``fail`` raises."""

    name = "scripted"

    def __init__(self, keys=("a", "b", "c")):
        super().__init__(seed=0)
        self.keys = keys
        self.events = []
        self.fresh = itertools.count()

    def _prepare(self, key):
        def prepare():
            instance = (key, next(self.fresh))
            self.events.append(("prepare", instance))
            return instance
        return prepare

    def _call(self, instance):
        self.events.append(("call", instance))
        if instance[0] == "fail":
            raise RuntimeError("boom")
        return instance

    def round(self):
        return [harness.Request("k", key, self._prepare(key), self._call)
                for key in self.keys]

    def observe(self, request, arg, result, sample):
        sample.answered = 1
        return None

    def wrong_answers(self):
        return {}


def test_loop_issues_one_request_at_a_time_on_a_fresh_input():
    workload = ScriptedWorkload()
    harness.drive(workload, 5.0, clock=FakeClock(), cpu_clock=FakeClock())
    events = workload.events
    assert [kind for kind, _ in events] == ["prepare", "call"] * (len(events) // 2)
    for (_, prepared), (_, called) in zip(events[::2], events[1::2]):
        assert called is prepared
    instances = [instance for kind, instance in events if kind == "prepare"]
    assert len(set(instances)) == len(instances)


def test_loop_stops_at_a_round_boundary_past_the_deadline():
    # A request reads the clock twice and a round once more, so the
    # deadline at 21 falls inside the third round (ticks 15..22).
    samples = harness.drive(ScriptedWorkload(), 20.0, clock=FakeClock(),
                            cpu_clock=FakeClock())
    assert [s.round for s in samples] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert all(s.latency == 1.0 for s in samples)

    # Without whole rounds the deadline (16) is checked after every
    # request, and the fifth request ends past it mid-round.
    partial = harness.drive(ScriptedWorkload(), 15.0, clock=FakeClock(),
                            cpu_clock=FakeClock(), whole_rounds=False)
    assert [s.key for s in partial] == ["a", "b", "c", "a", "b"]


def test_loop_records_a_raising_request_and_goes_on():
    workload = ScriptedWorkload(keys=("a", "fail", "c"))
    samples = harness.drive(workload, 10.0, clock=FakeClock(),
                            cpu_clock=FakeClock())
    failed = [s for s in samples if s.error]
    assert failed and all(s.key == "fail" for s in failed)
    assert all(s.error == "RuntimeError: boom" and s.answered == 0
               for s in failed)
    assert samples[-1].key == "c"
    assert harness.count_failures(samples, {}) == {
        "RuntimeError: boom": len(failed)}


def test_end_to_end_uses_each_request_fastest_repeat():
    def sample(key, latency, round_):
        return harness.Sample("k", key, latency, latency / 2, round=round_,
                              answered=1)

    samples = [sample("a", 2.0, 0), sample("b", 3.0, 0),
               sample("a", 1.0, 1), sample("b", 4.0, 1),
               sample("a", 9.0, 2), sample("b", 3.0, 2)]
    metrics, descriptor = harness.end_to_end(samples)
    assert metrics["analyses_per_s"] == pytest.approx(2 / 4.0)
    assert metrics["latency_p50_ms"] == pytest.approx(2000.0)
    assert metrics["cpu_per_analysis_ms"] == pytest.approx(1000.0)
    assert descriptor["latency_tail_ms"] == pytest.approx(9000.0)
    assert descriptor["tail_percentile"] == 100.0
    assert descriptor["rounds"] == 3 and descriptor["latency_samples"] == 6


def test_trace_overhead_compares_medians_of_shared_requests():
    def sample(key, latency):
        return harness.Sample("k", key, latency, latency, answered=1)

    untraced = [sample("a", t) for t in (0.5, 1.0, 1.0, 1.5, 1.0)]
    untraced.append(sample("b", 5.0))
    # One traced repeat of "a" only: its fastest untraced repeat would
    # make tracing look like a slowdown of 120 %.
    assert harness.matched_overhead(untraced, [sample("a", 1.1)]) == \
        pytest.approx(0.1)
    # Chunks never repeat: every request of each phase counts.
    assert harness.matched_overhead([sample(0, 1.0)], [sample(1, 2.0)]) == \
        pytest.approx(1.0)


# ----------------------------------------------------------------------
# fresh instance per request
# ----------------------------------------------------------------------

def test_table1_requests_get_fresh_graphs(small_table1):
    for request in small_table1.round():
        first, second = request.prepare(), request.prepare()
        assert first is not second
        assert first.fingerprint() == second.fingerprint()


def test_random_pool_requests_get_fresh_copies():
    workload = harness.RandomMcm(seed=3)
    workload.setup()
    orders = sorted(harness.matrix_order(g) for g in workload.pool)
    assert orders == sorted(list(workload.ORDERS) * workload.PER_ORDER)
    for request in workload.round()[:5]:
        template = workload.pool[request.key]
        graph = request.prepare()
        assert graph is not template and graph is not request.prepare()
        assert graph.fingerprint() == template.fingerprint()


def test_random_pool_is_a_function_of_the_seed():
    def pool(seed):
        workload = harness.RandomMcm(seed)
        workload.setup()
        return [g.fingerprint() for g in workload.pool]

    assert pool(5) == pool(5)
    assert pool(5) != pool(6)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children(tmp_path):
    clock = FakeClock()
    log = harness.SpanLog(clock=clock)
    log.request = 7
    with log.span("request.x"):
        log.record("store.get", 2.0, 5.0)
        log.record("store.get", 4.0, 8.0)
        with log.span("core.symbolic"):
            pass
    rows = {row["name"]: row for row in log.rows}
    parent, inner = rows["request.x"], rows["core.symbolic"]
    assert parent["dur"] == 3.0 and inner["dur"] == 1.0
    assert all(row["args"]["request"] == 7 for row in log.rows)
    self_time = log.self_times()
    # Children cover 1..3 relative to the epoch (2..5 and 4..8 clip to
    # the parent's 1..4 span, overlapping) plus the nested span.
    assert self_time[parent["id"]] == pytest.approx(
        parent["dur"] - harness.covered(
            (parent["start"], parent["end"]),
            [(r["start"], r["end"]) for r in log.rows
             if r["parent"] == parent["id"]]))
    assert self_time[inner["id"]] == inner["dur"]

    path = tmp_path / "spans.jsonl"
    log.write_jsonl(path)
    (root,) = build_forest(load_trace(path))
    assert root.name == "request.x"
    assert sorted(child.name for child in root.children) == [
        "core.symbolic", "store.get", "store.get"]


def test_covered_merges_overlaps_and_clips():
    assert harness.covered((0, 10), [(1, 4), (3, 6), (8, 12)]) == 7
    assert harness.covered((0, 10), []) == 0
    assert harness.covered((5, 6), [(0, 10)]) == 1
