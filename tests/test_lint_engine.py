"""The lint driver: ordering, config, caching, and the analysis hooks."""

import pytest

from repro.analysis.batch import run_batch
from repro.analysis.cache import AnalysisCache
from repro.analysis.throughput import throughput
from repro.core.abstraction import Abstraction, abstract_graph
from repro.errors import DeadlockError, LintError, NotAbstractableError
from repro.graphs.examples import figure3_graph
from repro.lint import (
    LintConfig,
    all_rules,
    ensure_lint_clean,
    get_rule,
    rule,
    rule_codes,
    run_lint,
)
from repro.lint.registry import CATEGORIES, unregister
from repro.sdf.graph import SDFGraph


def deadlocked() -> SDFGraph:
    g = SDFGraph("stuck")
    g.add_actors("a", "b")
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    return g


def noisy() -> SDFGraph:
    """One graph, findings in every category: disconnected (structural),
    unread-tokens (rate), zero-time-cycle (temporal)."""
    g = SDFGraph("noisy")
    g.add_actor("a", 1)
    g.add_actor("z", 0)
    g.add_edge("a", "a", tokens=5)
    g.add_edge("z", "z", tokens=1)
    return g


class TestRegistry:
    def test_at_least_15_rules_with_unique_codes(self):
        codes = rule_codes()
        assert len(codes) >= 15
        assert len(set(codes)) == len(codes)

    def test_every_rule_has_metadata(self):
        for registered in all_rules():
            meta = registered.meta
            assert meta.code and meta.summary
            assert meta.category in CATEGORIES
            assert meta.doc_url.endswith(f"#{meta.code}")

    def test_execution_order_is_structural_rate_temporal(self):
        seen = [r.meta.category for r in all_rules()]
        ranks = [CATEGORIES.index(c) for c in seen]
        assert ranks == sorted(ranks)

    def test_duplicate_code_is_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):

            @rule("deadlock", "temporal", "error", "clash")
            def _clash(ctx):
                yield  # pragma: no cover

    def test_plugin_rule_runs_and_unregisters(self):
        @rule("test-plugin", "structural", "warning", "a test-only rule")
        def _plugin(ctx):
            yield ctx.diag("test-plugin", "plugin fired")

        try:
            report = run_lint(figure3_graph(), cache=AnalysisCache())
            assert "test-plugin" in report.codes()
        finally:
            unregister("test-plugin")
        report = run_lint(figure3_graph(), cache=AnalysisCache())
        assert "test-plugin" not in report.codes()

    def test_unknown_code_lookup_is_loud(self):
        with pytest.raises(KeyError, match="no lint rule"):
            get_rule("no-such-rule")


class TestDriver:
    def test_findings_follow_category_order(self):
        report = run_lint(noisy(), cache=AnalysisCache())
        categories = [f.category for f in report.findings]
        ranks = [CATEGORIES.index(c) for c in categories]
        assert {"disconnected", "unread-tokens", "zero-time-cycle"} <= set(
            report.codes()
        )
        assert ranks == sorted(ranks)

    def test_noisy_graph_has_exactly_its_three_warnings(self):
        report = run_lint(noisy(), cache=AnalysisCache())
        assert set(report.codes()) == {
            "disconnected",
            "unread-tokens",
            "zero-time-cycle",
        }
        assert report.ok  # warnings only

    def test_findings_are_stamped_with_graph_name(self):
        report = run_lint(noisy(), cache=AnalysisCache())
        assert all(f.graph == "noisy" for f in report.findings)

    def test_select_restricts_to_listed_codes(self):
        config = LintConfig.build(select=["disconnected"])
        report = run_lint(noisy(), config=config, cache=AnalysisCache())
        assert set(report.codes()) == {"disconnected"}

    def test_ignore_suppresses_codes(self):
        config = LintConfig.build(ignore=["unread-tokens", "zero-time-cycle"])
        report = run_lint(noisy(), config=config, cache=AnalysisCache())
        assert set(report.codes()) == {"disconnected"}

    def test_severity_override_gates_a_warning(self):
        config = LintConfig.build(severity={"unread-tokens": "error"})
        report = run_lint(noisy(), config=config, cache=AnalysisCache())
        (finding,) = report.by_code("unread-tokens")
        assert finding.severity == "error"
        assert not report.ok

    def test_option_flows_to_rules(self):
        config = LintConfig.build(options={"unfold_budget": 2})
        report = run_lint(figure3_graph(), config=config, cache=AnalysisCache())
        assert "unfolding-blowup" in report.codes()


class TestCaching:
    def test_repeat_lint_is_served_from_cache(self):
        cache = AnalysisCache()
        g = figure3_graph()
        cold = run_lint(g, cache=cache)
        warm = run_lint(g, cache=cache)
        assert warm is cold
        assert cache.stats().hits == 1

    def test_builder_mutation_invalidates(self):
        cache = AnalysisCache()
        g = figure3_graph()
        run_lint(g, cache=cache)
        g.add_actor("extra", 1)  # fingerprint changes
        run_lint(g, cache=cache)
        assert cache.stats().hits == 0
        assert cache.stats().misses == 2

    def test_different_configs_do_not_alias(self):
        cache = AnalysisCache()
        g = noisy()
        plain = run_lint(g, cache=cache)
        selected = run_lint(
            g, config=LintConfig.build(select=["disconnected"]), cache=cache
        )
        assert len(selected.findings) < len(plain.findings)
        assert cache.stats().hits == 0

    def test_per_call_options_bypass_the_cache(self):
        cache = AnalysisCache()
        g = figure3_graph()
        run_lint(g, cache=cache, options={"unfold_budget": 2})
        assert cache.stats().lookups == 0

    def test_cache_lint_convenience(self):
        cache = AnalysisCache()
        report = cache.lint(figure3_graph())
        assert report.clean
        assert cache.lint(figure3_graph()) is report


class TestEnsureLintClean:
    def test_clean_graph_passes(self):
        report = ensure_lint_clean(figure3_graph(), cache=AnalysisCache())
        assert report.clean

    def test_errors_raise_with_report_attached(self):
        with pytest.raises(LintError) as excinfo:
            ensure_lint_clean(deadlocked(), cache=AnalysisCache())
        assert "deadlock" in str(excinfo.value)
        assert not excinfo.value.report.ok

    def test_warnings_gate_only_under_fail_on_warning(self):
        g = noisy()
        report = ensure_lint_clean(g, cache=AnalysisCache())  # warnings only
        assert report.warnings
        with pytest.raises(LintError):
            ensure_lint_clean(g, cache=AnalysisCache(), fail_on="warning")


class TestAnalysisHooks:
    def test_throughput_precheck_reports_lint_not_first_crash(self):
        with pytest.raises(DeadlockError):
            throughput(deadlocked())
        with pytest.raises(LintError):
            throughput(deadlocked(), precheck=True)

    def test_throughput_precheck_passes_clean_graph(self):
        result = throughput(figure3_graph(), precheck=True)
        assert result.cycle_time is not None

    def test_batch_lint_gate(self):
        cache = AnalysisCache()
        report = run_batch(
            [figure3_graph(), deadlocked()],
            backend="serial",
            cache=cache,
            lint="error",
        )
        ok, failed = report.ok, report.failures
        assert [r.name for r in ok] == ["figure3"]
        assert [r.error_type for r in failed] == ["LintError"]

    def test_batch_gate_warning_level(self):
        report = run_batch(
            [noisy()], backend="serial", cache=AnalysisCache(), lint="warning"
        )
        assert report.failures and report.failures[0].error_type == "LintError"

    def test_batch_rejects_bad_gate_value(self):
        with pytest.raises(ValueError, match="lint gate"):
            run_batch([figure3_graph()], lint="sometimes")

    def test_abstract_graph_refuses_unsafe_grouping(self):
        # Figure 3's L and R have unequal repetition entries (2 vs 3):
        # grouping them breaks the Definition 3 precondition.
        bad = Abstraction(
            mapping={"L": "g", "R": "g"}, index={"L": 0, "R": 1}
        )
        with pytest.raises(NotAbstractableError) as excinfo:
            abstract_graph(figure3_graph(), bad, allow_multirate=True)
        diagnostics = excinfo.value.diagnostics
        assert [d.code for d in diagnostics] == ["abstraction-unsafe-group"]
        assert diagnostics[0].data["condition"] == "equal-repetition"

    def test_abstract_graph_accepts_safe_grouping(self):
        g = SDFGraph("pipe")
        for name in "abc":
            g.add_actor(name, 1)
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("c", "a", tokens=1)
        safe = Abstraction(
            mapping={"a": "g", "b": "g", "c": "g"},
            index={"a": 0, "b": 1, "c": 2},
        )
        abstracted = abstract_graph(g, safe)
        assert abstracted.actor_count() == 1
