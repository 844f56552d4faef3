"""Experiment E11 (extension): scenario-aware worst-case analysis.

The paper's reference [7] machinery at work: worst-case throughput of a
two-mode decoder over protocol FSMs of growing permissiveness, checked
against the brute-force periodic-sequence oracle and timed.
"""

import pytest

from repro.analysis.batch import run_batch
from repro.analysis.cache import AnalysisCache
from repro.analysis.throughput import throughput
from repro.scenarios import (
    Scenario,
    ScenarioFSM,
    enumerate_periodic_sequences,
    sequence_cycle_time,
    worst_case_cycle_time,
)
from repro.sdf.graph import SDFGraph


def frame_scenario(name, parse, decode, render):
    g = SDFGraph(name)
    g.add_actor("parse", parse)
    g.add_actor("decode", decode)
    g.add_actor("render", render)
    g.add_edge("parse", "parse", tokens=1, name="t_parse")
    g.add_edge("parse", "decode", name="pd")
    g.add_edge("decode", "decode", tokens=1, name="t_decode")
    g.add_edge("decode", "render", name="dr")
    g.add_edge("render", "render", tokens=1, name="t_render")
    g.add_edge("render", "parse", tokens=2, name="frame_buffer")
    return Scenario(name, g)


SCENARIOS = {
    "I": frame_scenario("I", 7, 9, 2),
    "P": frame_scenario("P", 2, 3, 4),
}


def protocol(min_p_frames: int) -> ScenarioFSM:
    """An I-frame must be followed by at least ``min_p_frames`` P-frames."""
    fsm = ScenarioFSM("i")
    previous = "i"
    for index in range(1, min_p_frames + 1):
        fsm.add_transition(previous, "I" if index == 1 else "P", f"p{index}")
        previous = f"p{index}"
    # Entering state p1 consumed the I; chain P's then allow free P/I.
    fsm.add_transition(previous, "P", "p*")
    fsm.add_transition("p*", "P", "p*")
    fsm.add_transition("p*", "I", "p1")
    return fsm


def test_worst_case_vs_protocol(report):
    report("FSM-SADF worst case: I/P-frame decoder under protocols")
    naive = max(throughput(s.graph).cycle_time for s in SCENARIOS.values())
    report(f"naive per-frame bound (always the slow mode): {naive}")
    report(f"{'min P-frames':>13} {'worst case':>11} {'witness':>20} {'states':>7}")
    previous = None
    for min_p in (1, 2, 3, 5, 8):
        result = worst_case_cycle_time(SCENARIOS, protocol(min_p))
        witness = " ".join(result.witness)
        report(f"{min_p:>13} {str(result.cycle_time):>11} {witness:>20} {result.explored:>7}")
        assert result.cycle_time <= naive
        if previous is not None:
            # More forced P-frames can only lower the worst case.
            assert result.cycle_time <= previous
        previous = result.cycle_time
    report.save("scenarios")


def test_matches_enumeration_oracle(report):
    fsm = protocol(3)
    result = worst_case_cycle_time(SCENARIOS, fsm)
    oracle = max(
        sequence_cycle_time(SCENARIOS, seq)
        for seq in enumerate_periodic_sequences(fsm, max_length=8)
    )
    report(f"exploration {result.cycle_time} == oracle (<=8 frames) {oracle}")
    assert result.cycle_time == oracle
    report.save("scenarios_oracle")


def test_scenario_suite_through_batch_runner(report):
    """Per-mode throughput of a scenario sweep via the batch runner.

    A protocol exploration touches each mode's graph once per FSM state;
    the batch runner's content-addressed cache collapses those repeats
    to one computation per distinct mode."""
    sweep = [
        scenario.graph.copy(f"{scenario.name}@state{state}")
        for state in range(4)
        for scenario in SCENARIOS.values()
    ]
    batch = run_batch(sweep, backend="thread", workers=4, cache=AnalysisCache())
    assert not batch.failures
    stats = batch.cache_stats
    assert stats.misses == len(SCENARIOS)  # one compute per distinct mode
    report("Scenario sweep through the batch runner (4 thread workers)")
    report(f"{len(sweep)} jobs over {len(SCENARIOS)} modes: "
           f"{stats.misses} computed, {stats.hits + stats.coalesced} served "
           f"from cache, {batch.duration:.4f}s")
    for name, scenario in SCENARIOS.items():
        expected = throughput(scenario.graph).cycle_time
        for result in batch.results:
            if result.name.startswith(f"{name}@"):
                assert result.values["throughput"].cycle_time == expected
        report(f"  mode {name}: cycle time {expected}")
    report.save("scenarios_batch")


@pytest.mark.parametrize("min_p", [1, 3, 8])
def test_worst_case_runtime(benchmark, min_p):
    fsm = protocol(min_p)
    result = benchmark(worst_case_cycle_time, SCENARIOS, fsm)
    assert result.cycle_time is not None
