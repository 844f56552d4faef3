"""The model linter's verdicts on paper, registry and broken graphs,
through :func:`repro.lint.run_lint`."""

import pytest

from repro.graphs import TABLE1_CASES
from repro.graphs.examples import figure3_graph, section41_example
from repro.sdf.graph import SDFGraph
from repro.lint import run_lint


def codes(report):
    return set(report.codes())


class TestCleanGraphs:
    @pytest.mark.parametrize(
        "factory", [figure3_graph, section41_example], ids=["fig3", "fig1"]
    )
    def test_paper_graphs_clean(self, factory):
        report = run_lint(factory())
        assert report.ok
        assert not report.findings
        assert str(report) == "graph is clean"

    @pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda c: c.name)
    def test_benchmarks_have_no_errors(self, case):
        report = run_lint(case.build())
        assert report.ok, str(report)


class TestFindings:
    def test_empty_graph(self):
        report = run_lint(SDFGraph())
        assert codes(report) == {"empty"}
        assert report.ok  # a warning, not an error

    def test_disconnected(self):
        g = SDFGraph()
        g.add_actor("a", 1)
        g.add_actor("b", 1)
        g.add_edge("a", "a", tokens=1)
        g.add_edge("b", "b", tokens=1)
        assert "disconnected" in codes(run_lint(g))

    def test_inconsistent_is_error(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b", production=2, consumption=1)
        g.add_edge("b", "a", production=1, consumption=1)
        report = run_lint(g)
        assert not report.ok
        assert codes(report) == {"inconsistent"}

    def test_inconsistent_does_not_mask_structural_findings(self):
        # Inconsistency used to short-circuit validation; now every
        # rate-independent rule still reports.
        g = SDFGraph()
        g.add_actors("a", "b", "src")
        g.add_edge("a", "b", production=2, consumption=1)
        g.add_edge("b", "a", production=1, consumption=1)
        g.add_edge("src", "a")  # src never blocks: no incoming edge
        report = run_lint(g)
        assert not report.ok
        assert {"inconsistent", "unbounded-actor"} <= codes(report)

    def test_deadlock_is_error(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        report = run_lint(g)
        assert not report.ok
        assert "deadlock" in codes(report)

    def test_unbounded_actor_warning(self):
        g = SDFGraph()
        g.add_actor("src", 1)
        g.add_actor("dst", 1)
        g.add_edge("src", "dst")
        g.add_edge("dst", "dst", tokens=1)
        report = run_lint(g)
        assert report.ok
        assert "unbounded-actor" in codes(report)

    def test_zero_time_cycle_warning(self):
        g = SDFGraph()
        g.add_actor("z", 0)
        g.add_edge("z", "z", tokens=1)
        report = run_lint(g)
        assert "zero-time-cycle" in codes(report)

    def test_zero_time_actors_without_token_cycle_are_fine(self):
        g = SDFGraph()
        g.add_actor("z", 0)
        g.add_actor("a", 3)
        g.add_edge("a", "a", tokens=1)
        g.add_edge("a", "z")
        report = run_lint(g)
        assert "zero-time-cycle" not in codes(report)

    def test_unread_tokens_warning(self):
        g = SDFGraph()
        g.add_actor("a", 1)
        g.add_edge("a", "a", tokens=5)  # one iteration consumes 1
        report = run_lint(g)
        assert "unread-tokens" in codes(report)

    def test_report_rendering(self):
        g = SDFGraph()
        g.add_actors("a", "b")
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        text = str(run_lint(g))
        assert "[error] deadlock" in text
