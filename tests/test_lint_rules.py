"""Every built-in lint rule: one triggering and one clean fixture."""

from fractions import Fraction

import pytest

from repro.analysis.throughput import throughput
from repro.csdf.graph import CSDFEdge, CSDFGraph
from repro.graphs.examples import figure3_graph
from repro.lint import LintConfig, lint_csdf, lint_scenarios, run_lint
from repro.lint.rules import check_abstraction_safety, zero_time_token_cycle
from repro.scenarios.model import Scenario, ScenarioFSM
from repro.sdf.graph import SDFGraph


def codes(report):
    return set(report.codes())


def lint(graph, **options):
    if options:
        return run_lint(graph, options=options)
    return run_lint(graph)


def ring(tokens_ab=1, tokens_ba=1, t_a=1, t_b=1) -> SDFGraph:
    g = SDFGraph("ring")
    g.add_actor("a", t_a)
    g.add_actor("b", t_b)
    g.add_edge("a", "b", tokens=tokens_ab, name="ab")
    g.add_edge("b", "a", tokens=tokens_ba, name="ba")
    return g


# ---------------------------------------------------------------------------
# SDF · structural
# ---------------------------------------------------------------------------


class TestEmpty:
    def test_fires(self):
        report = lint(SDFGraph())
        assert codes(report) == {"empty"}
        assert report.ok  # warning only

    def test_clean(self):
        assert "empty" not in codes(lint(ring()))


class TestDisconnected:
    def test_fires(self):
        g = SDFGraph()
        g.add_actor("a", 1)
        g.add_actor("b", 1)
        g.add_edge("a", "a", tokens=1)
        g.add_edge("b", "b", tokens=1)
        report = lint(g)
        (finding,) = report.by_code("disconnected")
        assert finding.data["components"] == 2

    def test_clean(self):
        assert "disconnected" not in codes(lint(ring()))


class TestUnboundedActor:
    def test_fires(self):
        g = SDFGraph()
        g.add_actor("src", 1)
        g.add_actor("dst", 1)
        g.add_edge("src", "dst")
        g.add_edge("dst", "dst", tokens=1)
        (finding,) = lint(g).by_code("unbounded-actor")
        assert finding.actors == ("src",)
        assert finding.fix  # actionable: add a self-loop

    def test_clean(self):
        assert "unbounded-actor" not in codes(lint(ring()))


class TestSelfLoopMissingToken:
    def test_fires(self):
        g = SDFGraph()
        g.add_actor("a", 1)
        g.add_edge("a", "a", production=2, consumption=2, tokens=1, name="spin")
        report = lint(g)
        (finding,) = report.by_code("self-loop-missing-token")
        assert finding.severity == "error"
        assert finding.edges == ("spin",)
        assert finding.data == {"tokens": 1, "consumption": 2}
        assert not report.ok

    def test_clean_with_enough_tokens(self):
        g = SDFGraph()
        g.add_actor("a", 1)
        g.add_edge("a", "a", production=2, consumption=2, tokens=2)
        assert "self-loop-missing-token" not in codes(lint(g))


class TestParallelRedundantEdge:
    def test_fires(self):
        g = ring()
        g.add_edge("a", "b", tokens=5, name="slack")
        (finding,) = lint(g).by_code("parallel-redundant-edge")
        assert finding.data == {"redundant": "slack", "binding": "ab"}

    def test_distinct_rates_are_not_parallel(self):
        g = ring()
        g.add_edge("a", "b", production=2, consumption=2, tokens=4)
        assert "parallel-redundant-edge" not in codes(lint(g))


# ---------------------------------------------------------------------------
# SDF · rate
# ---------------------------------------------------------------------------


class TestInconsistent:
    def test_fires(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b", production=2, consumption=1)
        g.add_edge("b", "a", production=1, consumption=1)
        report = lint(g)
        assert not report.ok
        (finding,) = report.by_code("inconsistent")
        assert finding.severity == "error"

    def test_rate_independent_rules_still_run(self):
        g = SDFGraph()
        g.add_actors("a", "b", "src")
        g.add_edge("a", "b", production=2, consumption=1)
        g.add_edge("b", "a", production=1, consumption=1)
        g.add_edge("src", "a")
        assert {"inconsistent", "unbounded-actor"} <= codes(lint(g))

    def test_clean(self):
        assert "inconsistent" not in codes(lint(figure3_graph()))


class TestRateGcdReducible:
    def test_fires(self):
        g = SDFGraph()
        g.add_actor("a", 1)
        g.add_edge("a", "a", production=2, consumption=2, tokens=2, name="fat")
        (finding,) = lint(g).by_code("rate-gcd-reducible")
        assert finding.data["gcd"] == 2
        assert finding.edges == ("fat",)

    def test_coprime_rates_clean(self):
        g = SDFGraph()
        g.add_actor("a", 1)
        g.add_edge("a", "a", production=3, consumption=3, tokens=4)
        assert "rate-gcd-reducible" not in codes(lint(g))


class TestUnreadTokens:
    def test_fires(self):
        g = SDFGraph()
        g.add_actor("a", 1)
        g.add_edge("a", "a", tokens=5)
        (finding,) = lint(g).by_code("unread-tokens")
        assert finding.data["consumed_per_iteration"] == 1

    def test_skipped_on_inconsistent_graph(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b", production=2, consumption=1, tokens=50)
        g.add_edge("b", "a", production=1, consumption=1)
        assert "unread-tokens" not in codes(lint(g))

    def test_clean(self):
        assert "unread-tokens" not in codes(lint(figure3_graph()))


class TestUnfoldingBlowup:
    def test_fires_under_tight_budget(self):
        from repro.sdf.repetition import repetition_vector

        g = figure3_graph()
        report = lint(g, unfold_budget=2)
        (finding,) = report.by_code("unfolding-blowup")
        assert finding.data["iteration_length"] == sum(
            repetition_vector(g).values()
        )
        tokens = g.total_tokens()
        assert finding.data["symbolic_bound"] == tokens * (tokens + 2)

    def test_clean_under_default_budget(self):
        assert "unfolding-blowup" not in codes(lint(figure3_graph()))


class TestAbstractionUnsafeGroup:
    def graph(self):
        # a, b, c in a homogeneous ring: γ = (1, 1, 1).
        g = SDFGraph("trio")
        for name in "abc":
            g.add_actor(name, 1)
        g.add_edge("a", "b", name="ab")
        g.add_edge("b", "c", name="bc")
        g.add_edge("c", "a", tokens=1, name="ca")
        return g

    def conditions(self, graph, mapping, index):
        report = run_lint(
            graph, options={"abstraction": {"mapping": mapping, "index": index}}
        )
        return [f.data["condition"] for f in report.by_code("abstraction-unsafe-group")]

    def test_safe_proposal_is_clean(self):
        mapping = {"a": "g", "b": "g", "c": "g"}
        index = {"a": 0, "b": 1, "c": 2}
        assert self.conditions(self.graph(), mapping, index) == []

    def test_coverage(self):
        mapping = {"a": "g", "b": "g"}
        index = {"a": 0, "b": 1}
        assert self.conditions(self.graph(), mapping, index) == ["coverage"]

    def test_index_type(self):
        mapping = {"a": "g", "b": "g", "c": "g"}
        index = {"a": 0, "b": "one", "c": 2}
        assert self.conditions(self.graph(), mapping, index) == ["index-type"]

    def test_equal_repetition(self):
        # L fires 2x, R fires 3x in figure 3: grouping them violates
        # the Definition 3 equal-repetition precondition.
        mapping = {"L": "g", "R": "g"}
        index = {"L": 0, "R": 1}
        conditions = self.conditions(figure3_graph(), mapping, index)
        assert "equal-repetition" in conditions

    def test_injective_index(self):
        mapping = {"a": "g", "b": "g", "c": "g"}
        index = {"a": 0, "b": 0, "c": 1}
        assert "injective-index" in self.conditions(self.graph(), mapping, index)

    def test_zero_delay_order(self):
        mapping = {"a": "g", "b": "g", "c": "g"}
        index = {"a": 1, "b": 0, "c": 2}  # zero-delay ab goes 1 -> 0
        assert "zero-delay-order" in self.conditions(self.graph(), mapping, index)

    def test_not_run_without_a_proposal(self):
        assert "abstraction-unsafe-group" not in codes(lint(self.graph()))

    def test_check_abstraction_safety_helper(self):
        mapping = {"a": "g", "b": "g", "c": "g"}
        diagnostics = check_abstraction_safety(
            self.graph(), {"mapping": mapping, "index": {"a": 0, "b": 0, "c": 1}}
        )
        assert [d.code for d in diagnostics] == ["abstraction-unsafe-group"]


# ---------------------------------------------------------------------------
# SDF · temporal
# ---------------------------------------------------------------------------


class TestDeadlock:
    def test_fires(self):
        report = lint(ring(tokens_ab=0, tokens_ba=0))
        (finding,) = report.by_code("deadlock")
        assert finding.severity == "error"
        assert set(finding.data["blocked"]) == {"a", "b"}

    def test_clean(self):
        assert "deadlock" not in codes(lint(ring()))


class TestZeroTimeCycle:
    def test_fires_on_self_loop(self):
        g = SDFGraph()
        g.add_actor("z", 0)
        g.add_edge("z", "z", tokens=1)
        assert "zero-time-cycle" in codes(lint(g))

    def test_fires_on_two_actor_token_cycle(self):
        # Regression: the helper must find multi-actor zero-time cycles,
        # not just self-loops (and its RatioGraph dependency is a
        # module-level import, so this path cannot fail lazily).
        g = ring(t_a=0, t_b=0)
        cycle = zero_time_token_cycle(g)
        assert cycle is not None and set(cycle) == {"a", "b"}
        (finding,) = lint(g).by_code("zero-time-cycle")
        assert set(finding.actors) == {"a", "b"}

    def test_clean_when_one_actor_is_timed(self):
        assert zero_time_token_cycle(ring(t_a=0, t_b=1)) is None
        assert "zero-time-cycle" not in codes(lint(ring(t_a=0, t_b=1)))

    def test_clean_when_cycle_has_no_tokens(self):
        g = SDFGraph()
        g.add_actor("z", 0)
        g.add_actor("a", 3)
        g.add_edge("a", "a", tokens=1)
        g.add_edge("a", "z")
        assert "zero-time-cycle" not in codes(lint(g))


# ---------------------------------------------------------------------------
# CSDF
# ---------------------------------------------------------------------------


def csdf_ring() -> CSDFGraph:
    g = CSDFGraph("csdf-ring")
    g.add_actor("P", [1, 2])
    g.add_actor("C", [4])
    g.add_edge("P", "C", production=[2, 1], consumption=[3], name="data")
    g.add_edge("C", "P", production=[3], consumption=[2, 1], tokens=3, name="space")
    return g


class TestCSDFInconsistent:
    def test_fires(self):
        g = CSDFGraph()
        g.add_actor("a", [1])
        g.add_actor("b", [1])
        g.add_edge("a", "b", production=[1], consumption=[1])
        g.add_edge("b", "a", production=[1], consumption=[2], tokens=2)
        report = lint_csdf(g)
        assert "csdf-inconsistent" in set(report.codes())
        assert not report.ok

    def test_clean(self):
        assert "csdf-inconsistent" not in set(lint_csdf(csdf_ring()).codes())


class TestCSDFPhaseMismatch:
    def test_length_mismatch_is_error(self):
        # The builder refuses mismatched sequences, so break the
        # invariant directly — models loaded from foreign formats can.
        g = csdf_ring()
        bad = CSDFEdge("bad", "P", "C", production=(1,), consumption=(1,))
        g._edges["bad"] = bad
        g._out["P"].append("bad")
        g._in["C"].append("bad")
        report = lint_csdf(g)
        lengths = [
            f for f in report.by_code("csdf-phase-mismatch")
            if f.data["kind"] == "length"
        ]
        assert lengths and all(f.severity == "error" for f in lengths)

    def test_periodic_phases_warn(self):
        g = CSDFGraph()
        g.add_actor("a", [1, 1])
        g.add_actor("b", [1])
        g.add_edge("a", "b", production=[2, 2], consumption=[4], tokens=4)
        g.add_edge("b", "a", production=[4], consumption=[2, 2], tokens=4)
        report = lint_csdf(g)
        (finding,) = report.by_code("csdf-phase-mismatch")
        assert finding.data == {"kind": "periodic", "phases": 2, "period": 1}
        assert finding.severity == "warning"

    def test_genuinely_cyclostatic_actor_is_clean(self):
        assert "csdf-phase-mismatch" not in set(lint_csdf(csdf_ring()).codes())


class TestCSDFDeadlock:
    def test_fires(self):
        g = CSDFGraph()
        g.add_actor("a", [1])
        g.add_actor("b", [1])
        g.add_edge("a", "b", production=[1], consumption=[1])
        g.add_edge("b", "a", production=[1], consumption=[1])
        report = lint_csdf(g)
        assert "csdf-deadlock" in set(report.codes())

    def test_skipped_when_inconsistent(self):
        g = CSDFGraph()
        g.add_actor("a", [1])
        g.add_actor("b", [1])
        g.add_edge("a", "b", production=[1], consumption=[1])
        g.add_edge("b", "a", production=[1], consumption=[2])
        assert "csdf-deadlock" not in set(lint_csdf(g).codes())

    def test_clean(self):
        assert "csdf-deadlock" not in set(lint_csdf(csdf_ring()).codes())


# ---------------------------------------------------------------------------
# FSM-SADF scenarios
# ---------------------------------------------------------------------------


def scenario(name: str, t_a=1, t_b=1, extra_tokens=0) -> Scenario:
    g = SDFGraph(name)
    g.add_actor("a", t_a)
    g.add_actor("b", t_b)
    g.add_edge("a", "a", tokens=1, name="self_a")
    g.add_edge("a", "b", tokens=1, name="ab")
    g.add_edge("b", "a", tokens=1 + extra_tokens, name="ba")
    return Scenario(name, g)


@pytest.fixture
def modes():
    return {"fast": scenario("fast"), "slow": scenario("slow", 5, 3)}


class TestScenarioUndefined:
    def test_fires(self, modes):
        fsm = ScenarioFSM.free_choice(["fast", "ghost"])
        report = lint_scenarios({"fast": modes["fast"]}, fsm)
        (finding,) = report.by_code("scenario-undefined")
        assert finding.data["scenario"] == "ghost"
        assert not report.ok

    def test_clean(self, modes):
        fsm = ScenarioFSM.free_choice(["fast", "slow"])
        assert "scenario-undefined" not in set(lint_scenarios(modes, fsm).codes())


class TestScenarioUnreachable:
    def test_fires(self, modes):
        fsm = ScenarioFSM.free_choice(["fast"])  # "slow" defined, unused
        (finding,) = lint_scenarios(modes, fsm).by_code("scenario-unreachable")
        assert finding.data["scenario"] == "slow"

    def test_clean(self, modes):
        fsm = ScenarioFSM.free_choice(["fast", "slow"])
        assert "scenario-unreachable" not in set(lint_scenarios(modes, fsm).codes())


class TestScenarioDeadState:
    def test_fires(self, modes):
        fsm = ScenarioFSM("s0")
        fsm.add_transition("s0", "fast", "s1")  # s1 has no way out
        (finding,) = lint_scenarios(modes, fsm).by_code("scenario-dead-state")
        assert "s1" in finding.data["state"]

    def test_unreachable_dead_state_does_not_fire(self, modes):
        fsm = ScenarioFSM("s0")
        fsm.add_transition("s0", "fast", "s0")
        fsm.add_transition("s9", "slow", "s_dead")  # unreachable island
        report = lint_scenarios(modes, fsm)
        assert "scenario-dead-state" not in set(report.codes())


class TestScenarioTokenMismatch:
    def test_fires(self, modes):
        unbalanced = dict(modes, slow=scenario("slow", 5, 3, extra_tokens=1))
        fsm = ScenarioFSM.free_choice(["fast", "slow"])
        (finding,) = lint_scenarios(unbalanced, fsm).by_code("scenario-token-mismatch")
        assert finding.data["tokens"] == {"fast": 3, "slow": 4}

    def test_clean(self, modes):
        fsm = ScenarioFSM.free_choice(["fast", "slow"])
        assert "scenario-token-mismatch" not in set(
            lint_scenarios(modes, fsm).codes()
        )


# ---------------------------------------------------------------------------
# SDF · rate · kernel guard
# ---------------------------------------------------------------------------


class TestKernelGuardOverflow:
    def test_fires_on_huge_execution_times(self):
        report = lint(ring(t_a=2 ** 60, t_b=2 ** 60))
        (finding,) = report.by_code("kernel-guard-overflow")
        assert finding.severity == "warning"
        assert finding.data["estimate_bits"] >= 53
        assert finding.data["guard_bits"] == 53

    def test_fires_on_huge_denominator_lcm(self):
        # A fine-grained denominator scales the other actor's (tame)
        # integer time past the guard once both sit on a common base.
        g = ring(t_a=Fraction(1, 2 ** 30 - 1), t_b=2 ** 30)
        (finding,) = lint(g).by_code("kernel-guard-overflow")
        assert finding.data["scale"] == 2 ** 30 - 1

    def test_margin_is_configurable(self):
        # ~2**50 estimate: inside the default 16x margin, outside 1x.
        g = ring(t_a=2 ** 48, t_b=2 ** 48)
        assert "kernel-guard-overflow" in codes(lint(g))
        assert "kernel-guard-overflow" not in codes(
            lint(g, overflow_margin=1)
        )

    def test_clean_on_small_graphs(self):
        assert "kernel-guard-overflow" not in codes(lint(ring()))
        assert "kernel-guard-overflow" not in codes(lint(figure3_graph()))

    @pytest.mark.parametrize("t_a, t_b", [
        (2 ** 60, 2 ** 60),
        (Fraction(1, 2 ** 30 - 1), 2 ** 30),
    ], ids=["huge-times", "huge-lcm"])
    def test_flagged_rings_fall_back_to_exact(self, t_a, t_b):
        """The rule tracks the real guard: a ring it flags trips the
        numpy path, which reruns on the exact kernel."""
        pytest.importorskip("numpy")
        g = ring(t_a=t_a, t_b=t_b)
        assert "kernel-guard-overflow" in codes(lint(g))
        record = throughput(g, kernel="numpy").provenance
        assert record.kernel == "exact"
        assert record.degradation_reason is not None

    def test_clean_ring_stays_on_numpy(self):
        pytest.importorskip("numpy")
        assert "kernel-guard-overflow" not in codes(lint(ring()))
        record = throughput(ring(), kernel="numpy").provenance
        assert record.kernel == "numpy"
        assert record.degradation_reason is None

    def test_requires_consistency(self):
        g = SDFGraph("inconsistent")
        g.add_actor("a", 2 ** 60)
        g.add_actor("b", 2 ** 60)
        g.add_edge("a", "b", production=2, consumption=1, tokens=1)
        g.add_edge("b", "a", production=2, consumption=1, tokens=1)
        assert "kernel-guard-overflow" not in codes(lint(g))
