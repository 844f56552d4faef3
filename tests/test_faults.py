"""Deterministic fault injection: selectors, actions, CLI spec parsing."""

from __future__ import annotations

import pickle

import pytest

from conftest import ticking_deadlines
from repro.analysis.deadline import Deadline
from repro.analysis.faults import (
    CRASH_SITES,
    CrashPoint,
    FaultInjected,
    FaultPlan,
    FaultRule,
    arm_crash_points,
    crash_point,
    disarm_crash_points,
    parse_crash_point,
    parse_fault,
)
from repro.errors import (
    AnalysisTimeout,
    TransientWorkerError,
    WorkerCrashed,
)


class TestFaultRule:
    def test_exactly_one_selector(self):
        with pytest.raises(ValueError):
            FaultRule(action="raise")
        with pytest.raises(ValueError):
            FaultRule(action="raise", name="g", probability=0.5)

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(action="explode", name="g")

    def test_unknown_exception_rejected_eagerly(self):
        with pytest.raises(ValueError):
            FaultRule(action="raise", name="g", exception="TotallyMadeUp")

    def test_name_selector(self):
        rule = FaultRule(action="raise", name="modem")
        assert rule.matches("modem", "fp", attempt=0, seed=0, index=0)
        assert not rule.matches("satellite", "fp", attempt=0, seed=0, index=0)

    def test_fingerprint_prefix_selector(self):
        rule = FaultRule(action="raise", fingerprint="sdfg-v1:ab")
        assert rule.matches("x", "sdfg-v1:abcd", attempt=0, seed=0, index=0)
        assert not rule.matches("x", "sdfg-v1:ffff", attempt=0, seed=0, index=0)

    def test_attempt_limit(self):
        rule = FaultRule(action="raise", name="g", attempts=2)
        assert rule.matches("g", "fp", attempt=0, seed=0, index=0)
        assert rule.matches("g", "fp", attempt=1, seed=0, index=0)
        assert not rule.matches("g", "fp", attempt=2, seed=0, index=0)

    def test_probability_is_deterministic_per_fingerprint(self):
        rule = FaultRule(action="raise", probability=0.5)
        draws = [
            rule.matches("g", f"fp-{i}", attempt=0, seed=42, index=0)
            for i in range(200)
        ]
        again = [
            rule.matches("g", f"fp-{i}", attempt=0, seed=42, index=0)
            for i in range(200)
        ]
        assert draws == again  # same seed, same verdicts
        assert 40 < sum(draws) < 160  # roughly the requested rate

    def test_probability_depends_on_seed(self):
        rule = FaultRule(action="raise", probability=0.5)
        a = [rule.matches("g", f"fp-{i}", 0, seed=1, index=0) for i in range(100)]
        b = [rule.matches("g", f"fp-{i}", 0, seed=2, index=0) for i in range(100)]
        assert a != b

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultRule(action="raise", probability=1.5)


class TestFaultPlan:
    def test_raise_default_exception(self):
        plan = FaultPlan((FaultRule(action="raise", name="g"),))
        with pytest.raises(FaultInjected, match="fp-full"):
            plan.fire("g", "fp-full-fingerprint")

    def test_raise_named_exception(self):
        plan = FaultPlan((FaultRule(
            action="raise", name="g", exception="TransientWorkerError"
        ),))
        with pytest.raises(TransientWorkerError):
            plan.fire("g", "fp")

    def test_no_match_is_a_noop(self):
        plan = FaultPlan((FaultRule(action="kill", name="other"),))
        plan.fire("g", "fp")  # nothing happens

    def test_delay_honours_deadline(self):
        plan = FaultPlan((FaultRule(action="delay", name="g", seconds=30.0),))
        with ticking_deadlines(), pytest.raises(AnalysisTimeout):
            plan.fire("g", "fp", deadline=Deadline.after(0.01))

    def test_hang_without_deadline_refuses(self):
        plan = FaultPlan((FaultRule(action="hang", name="g"),))
        with pytest.raises(FaultInjected, match="no deadline"):
            plan.fire("g", "fp")

    def test_kill_degrades_without_allow_kill(self):
        plan = FaultPlan((FaultRule(action="kill", name="g"),))
        with pytest.raises(WorkerCrashed) as exc:
            plan.fire("g", "fp", allow_kill=False)
        assert exc.value.fingerprint == "fp"

    def test_plan_pickles(self):
        plan = FaultPlan(
            (FaultRule(action="raise", probability=0.25, exception="ValueError"),),
            seed=9,
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.matching("g", "fp", 0) == plan.matching("g", "fp", 0)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan((FaultRule(action="kill", name="g"),))


class TestParseFault:
    def test_name_kill(self):
        rule = parse_fault("name=modem:kill")
        assert rule.action == "kill" and rule.name == "modem"

    def test_fingerprint_hang(self):
        rule = parse_fault("fp=sdfg-v1:ab:hang")
        assert rule.action == "hang" and rule.fingerprint == "sdfg-v1:ab"

    def test_delay_with_seconds(self):
        rule = parse_fault("name=g:delay:0.25")
        assert rule.action == "delay" and rule.seconds == 0.25

    def test_probability_raise_with_attempts(self):
        rule = parse_fault("p=0.25:raise:TransientWorkerError@1")
        assert rule.probability == 0.25
        assert rule.exception == "TransientWorkerError"
        assert rule.attempts == 1

    @pytest.mark.parametrize("bad", [
        "modem:kill",          # no selector kind
        "name=g",              # no action
        "name=g:delay",        # delay without seconds
        "name=g:kill:arg",     # kill takes no argument
        "name=g:frobnicate",   # unknown action
        "host=g:kill",         # unknown selector
        "name=g:kill@soon",    # non-integer attempts
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_fault(bad)


class TestCrashPoint:
    def teardown_method(self):
        disarm_crash_points()

    def test_parse_minimal(self):
        point = parse_crash_point("kill@store.publish")
        assert point == CrashPoint(action="kill", site="store.publish")
        assert point.hits == 1 and point.exception is None

    def test_parse_full_grammar(self):
        point = parse_crash_point("raise@store.read:MemoryError#3")
        assert point.action == "raise"
        assert point.site == "store.read"
        assert point.exception == "MemoryError"
        assert point.hits == 3

    @pytest.mark.parametrize("bad", [
        "store.publish",            # no action
        "detonate@store.publish",   # unknown action
        "kill@nowhere",             # unknown site
        "kill@store.publish#0",     # hits must be >= 1
        "kill@store.publish#two",   # non-integer hits
        "kill@store.publish:OSError",   # kill takes no exception
        "",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_crash_point(bad)

    def test_sites_are_closed_set(self):
        # The chaos suite iterates CRASH_SITES; every advertised site
        # must parse and every parse must name an advertised site.
        for site in CRASH_SITES:
            assert parse_crash_point(f"kill@{site}").site == site

    def test_unarmed_is_a_noop(self):
        disarm_crash_points()
        crash_point("store.publish")  # must not raise

    def test_raise_fires_on_exact_arrival(self):
        arm_crash_points(["raise@store.publish#2"])
        crash_point("store.publish")           # arrival 1: pass
        with pytest.raises(OSError):
            crash_point("store.publish")       # arrival 2: fire
        crash_point("store.publish")           # arrival 3: pass again

    def test_raise_custom_exception(self):
        arm_crash_points(["raise@store.read:MemoryError"])
        with pytest.raises(MemoryError):
            crash_point("store.read")

    def test_sites_are_independent(self):
        arm_crash_points(["raise@store.read"])
        crash_point("store.publish")  # different site: no fire
        with pytest.raises(OSError):
            crash_point("store.read")

    def test_arm_accepts_parsed_points(self):
        plan = arm_crash_points([CrashPoint(action="raise",
                                            site="store.evict")])
        assert plan == (CrashPoint(action="raise", site="store.evict"),)
        with pytest.raises(OSError):
            crash_point("store.evict")

    def test_disarm_resets_counts(self):
        arm_crash_points(["raise@store.read#2"])
        crash_point("store.read")
        arm_crash_points(["raise@store.read#2"])  # re-arm resets arrivals
        crash_point("store.read")                 # arrival 1 again: pass
        with pytest.raises(OSError):
            crash_point("store.read")
