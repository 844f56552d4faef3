"""Every devlint rule: a triggering and a clean fixture per facet.

Fixtures are small source snippets compiled with :mod:`ast` through
``lint_source``; the *path* given to the engine places each snippet in
(or out of) the module scopes the contracts cover, so the same snippet
can assert both the positive and the scope-exemption case.
"""

import textwrap

from repro.devlint import lint_source
from repro.lint.config import LintConfig


def run(source, path="src/repro/mcm/fixture.py", config=None):
    return lint_source(textwrap.dedent(source), path=path, config=config)


def codes(report):
    return set(report.codes())


def only(report, code):
    found = report.by_code(code)
    assert found, f"expected a {code} finding, got {codes(report)}"
    return found


# ---------------------------------------------------------------------------
# exactness-discipline
# ---------------------------------------------------------------------------


class TestExactnessDiscipline:
    def test_float_cast_in_exact_module_fires(self):
        report = run(
            """
            def mean(value):
                return float(value)
            """
        )
        (finding,) = only(report, "exactness-discipline")
        assert finding.line == 3
        assert finding.actors == ("mean",)
        assert finding.severity == "error"

    def test_float_literal_arithmetic_fires(self):
        report = run(
            """
            def half(value):
                return value * 0.5
            """
        )
        assert "exactness-discipline" in codes(report)

    def test_infinity_sentinel_is_exempt(self):
        report = run(
            """
            EPSILON = float("-inf")
            TOP = float("inf")
            """
        )
        assert "exactness-discipline" not in codes(report)

    def test_outside_exact_scope_is_clean(self):
        report = run(
            """
            def mean(value):
                return float(value) * 0.5
            """,
            path="src/repro/obs/fixture.py",
        )
        assert "exactness-discipline" not in codes(report)

    def test_kernel_float_equality_fires(self):
        report = run(
            """
            def accept(candidate):
                if candidate == 0.5:
                    return True
            """,
            path="src/repro/kernels/fixture.py",
        )
        (finding,) = only(report, "exactness-discipline")
        assert finding.line == 3
        assert "certify it with integers" in finding.message
        assert "kernels/maxplus.py" in finding.fix
        assert "tolerance" not in finding.message + finding.fix

    def test_kernel_isclose_fires(self):
        report = run(
            """
            import math

            def accept(a, b):
                return math.isclose(a, b)
            """,
            path="src/repro/kernels/fixture.py",
        )
        assert "exactness-discipline" in codes(report)

    def test_kernel_ordering_comparisons_are_fine(self):
        report = run(
            """
            def accept(a, b, slack):
                return a < b + slack
            """,
            path="src/repro/kernels/fixture.py",
        )
        assert "exactness-discipline" not in codes(report)


# ---------------------------------------------------------------------------
# fraction-float-mixing
# ---------------------------------------------------------------------------


class TestFractionFloatMixing:
    def test_mixed_arithmetic_fires_everywhere(self):
        report = run(
            """
            from fractions import Fraction

            def bad():
                return Fraction(1, 3) + 0.5
            """,
            path="src/repro/obs/fixture.py",  # outside the exact scope
        )
        (finding,) = only(report, "fraction-float-mixing")
        assert finding.line == 5

    def test_mixed_comparison_fires(self):
        report = run(
            """
            from fractions import Fraction

            def bad(x):
                return Fraction(x) > 0.25
            """,
            path="src/repro/obs/fixture.py",
        )
        assert "fraction-float-mixing" in codes(report)

    def test_pure_fraction_arithmetic_is_clean(self):
        report = run(
            """
            from fractions import Fraction

            def good():
                return Fraction(1, 3) + Fraction(1, 2)
            """,
            path="src/repro/obs/fixture.py",
        )
        assert "fraction-float-mixing" not in codes(report)


# ---------------------------------------------------------------------------
# deadline-polling
# ---------------------------------------------------------------------------


class TestDeadlinePolling:
    def test_unpolled_while_loop_fires_at_the_loop(self):
        report = run(
            """
            def iterate(graph, deadline=None):
                deadline.check_now()
                done = False
                while not done:
                    done = graph.relax()
            """
        )
        (finding,) = only(report, "deadline-polling")
        assert finding.line == 5  # the while statement

    def test_polled_loop_is_clean(self):
        report = run(
            """
            def iterate(graph, deadline=None):
                done = False
                while not done:
                    deadline.check()
                    done = graph.relax()
            """
        )
        assert "deadline-polling" not in codes(report)

    def test_forwarding_to_callee_is_clean(self):
        report = run(
            """
            def iterate(sccs, deadline=None):
                out = []
                for scc in sccs:
                    out.append(solve(scc, deadline))
                return out
            """
        )
        assert "deadline-polling" not in codes(report)

    def test_alias_via_sub_is_tracked(self):
        report = run(
            """
            def iterate(graph, deadline=None):
                d = deadline.sub(1)
                while graph.busy():
                    d.check_now()
            """
        )
        assert "deadline-polling" not in codes(report)

    def test_never_consulted_fires_at_the_def(self):
        report = run(
            """
            def iterate(graph, deadline=None):
                return graph.solve()
            """
        )
        (finding,) = only(report, "deadline-polling")
        assert finding.line == 2
        assert "never consults" in finding.message

    def test_validation_only_loop_is_exempt(self):
        report = run(
            """
            def iterate(graph, deadline=None):
                for edge in graph.edges:
                    if edge.transit < 0:
                        raise ValueError(f"bad transit on {edge.name}")
                while graph.busy():
                    deadline.check()
            """
        )
        assert "deadline-polling" not in codes(report)

    def test_fraction_annotated_deadline_is_exempt(self):
        report = run(
            """
            def run_until(self, deadline: Fraction):
                while self.now < deadline:
                    self.step()
            """,
            path="src/repro/sdf/simulation.py",
        )
        assert "deadline-polling" not in codes(report)

    def test_storing_on_self_hands_off_the_obligation(self):
        report = run(
            """
            class Engine:
                def __init__(self, deadline=None):
                    self.deadline = deadline or default_deadline()
            """
        )
        assert "deadline-polling" not in codes(report)

    def test_cold_module_is_out_of_scope(self):
        report = run(
            """
            def iterate(graph, deadline=None):
                while graph.busy():
                    graph.relax()
            """,
            path="src/repro/obs/fixture.py",
        )
        assert "deadline-polling" not in codes(report)


# ---------------------------------------------------------------------------
# provenance-hygiene
# ---------------------------------------------------------------------------


class TestProvenanceHygiene:
    def test_unrecorded_builder_fires_at_the_def(self):
        report = run(
            """
            def reduce_graph(graph):
                result = SDFGraph(graph.name + "-reduced")
                for actor in graph.actors:
                    result.add_actor(actor.name, actor.time)
                return result
            """,
            path="src/repro/core/fixture.py",
        )
        (finding,) = only(report, "provenance-hygiene")
        assert finding.line == 2
        assert "record_step" in finding.message

    def test_unrecorded_bulk_builder_fires(self):
        report = run(
            """
            def reduce_graph(graph):
                actors = [(a.name, a.execution_time) for a in graph.actors]
                return SDFGraph.from_tuples(graph.name + "-reduced",
                                            actors, [])
            """,
            path="src/repro/core/fixture.py",
        )
        (finding,) = only(report, "provenance-hygiene")
        assert finding.line == 2
        assert "record_step" in finding.message

    def test_recording_builder_is_clean(self):
        report = run(
            """
            def reduce_graph(graph):
                result = SDFGraph(graph.name + "-reduced")
                record_step("reduce", before=graph, after=result)
                return result
            """,
            path="src/repro/core/fixture.py",
        )
        assert "provenance-hygiene" not in codes(report)

    def test_recording_via_helper_closure_is_clean(self):
        report = run(
            """
            def reduce_graph(graph):
                result = SDFGraph(graph.name + "-reduced")
                _note(graph, result)
                return result

            def _note(before, after):
                record_step("reduce", before=before, after=after)
            """,
            path="src/repro/core/fixture.py",
        )
        assert "provenance-hygiene" not in codes(report)

    def test_private_and_non_building_functions_are_exempt(self):
        report = run(
            """
            def _helper(graph):
                result = SDFGraph("x")
                result.add_actor("a", 1)
                return result

            def describe(graph):
                return graph.name
            """,
            path="src/repro/core/fixture.py",
        )
        assert "provenance-hygiene" not in codes(report)

    def test_dropped_span_fires(self):
        report = run(
            """
            def traced():
                span("convert")
                do_work()
            """,
            path="src/repro/obs/fixture.py",
        )
        (finding,) = only(report, "provenance-hygiene")
        assert finding.line == 3

    def test_manual_enter_fires(self):
        report = run(
            """
            def traced():
                s = recording().__enter__()
                return s
            """,
            path="src/repro/obs/fixture.py",
        )
        assert "provenance-hygiene" in codes(report)

    def test_with_span_is_clean(self):
        report = run(
            """
            def traced():
                with span("convert"):
                    do_work()
            """,
            path="src/repro/obs/fixture.py",
        )
        assert "provenance-hygiene" not in codes(report)


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------

LOCKED_CLASS = """
import threading

class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self._hits = 0

    def record(self):
        with self._lock:
            self._hits += 1

    def {reader}
"""


class TestLockDiscipline:
    def test_unlocked_read_fires(self):
        report = run(
            LOCKED_CLASS.format(reader="hits(self):\n        return self._hits"),
            path="src/repro/analysis/fixture.py",
        )
        (finding,) = only(report, "lock-discipline")
        assert "_hits" in finding.message
        assert finding.actors == ("Cache.hits",)

    def test_unlocked_write_fires(self):
        report = run(
            LOCKED_CLASS.format(
                reader="reset(self):\n        self._hits = 0"
            ),
            path="src/repro/analysis/fixture.py",
        )
        (finding,) = only(report, "lock-discipline")
        assert "written" in finding.message

    def test_locked_read_is_clean(self):
        report = run(
            LOCKED_CLASS.format(
                reader="hits(self):\n        with self._lock:\n"
                       "            return self._hits"
            ),
            path="src/repro/analysis/fixture.py",
        )
        assert "lock-discipline" not in codes(report)

    def test_init_and_repr_are_exempt(self):
        report = run(
            LOCKED_CLASS.format(
                reader="__repr__(self):\n        return str(self._hits)"
            ),
            path="src/repro/analysis/fixture.py",
        )
        assert "lock-discipline" not in codes(report)

    def test_nested_lock_attribute_counts_as_a_lock(self):
        report = run(
            """
            class Child:
                def inc(self):
                    with self._registry._lock:
                        self._series = {}

                def read(self):
                    with self._registry._lock:
                        return self._series
            """,
            path="src/repro/obs/fixture.py",
        )
        assert "lock-discipline" not in codes(report)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_wall_clock_fires(self):
        report = run(
            """
            import time

            def stamp():
                return time.time()
            """,
            path="src/repro/analysis/fixture.py",
        )
        (finding,) = only(report, "determinism")
        assert finding.line == 5
        assert finding.severity == "error"

    def test_global_rng_fires(self):
        report = run(
            """
            import random

            def jitter():
                return random.random()
            """,
            path="src/repro/analysis/fixture.py",
        )
        assert "determinism" in codes(report)

    def test_monotonic_clock_is_fine(self):
        report = run(
            """
            import time

            def elapsed(start):
                return time.monotonic() - start
            """,
            path="src/repro/analysis/fixture.py",
        )
        assert "determinism" not in codes(report)

    def test_obs_modules_are_out_of_scope(self):
        report = run(
            """
            import time

            def stamp():
                return time.time()
            """,
            path="src/repro/obs/fixture.py",
        )
        assert "determinism" not in codes(report)


# ---------------------------------------------------------------------------
# hygiene
# ---------------------------------------------------------------------------


class TestBroadExcept:
    def test_except_exception_fires(self):
        report = run(
            """
            def guarded():
                try:
                    work()
                except Exception:
                    pass
            """,
            path="src/repro/obs/fixture.py",
        )
        (finding,) = only(report, "broad-except")
        assert finding.line == 5

    def test_bare_except_fires(self):
        report = run(
            """
            def guarded():
                try:
                    work()
                except:
                    pass
            """,
            path="src/repro/obs/fixture.py",
        )
        assert "broad-except" in codes(report)

    def test_tuple_hiding_exception_fires(self):
        report = run(
            """
            def guarded():
                try:
                    work()
                except (ValueError, Exception):
                    pass
            """,
            path="src/repro/obs/fixture.py",
        )
        assert "broad-except" in codes(report)

    def test_narrow_except_is_clean(self):
        report = run(
            """
            def guarded():
                try:
                    work()
                except ValueError:
                    pass
            """,
            path="src/repro/obs/fixture.py",
        )
        assert "broad-except" not in codes(report)


class TestMutableDefault:
    def test_list_default_fires(self):
        report = run(
            """
            def collect(into=[]):
                return into
            """,
            path="src/repro/obs/fixture.py",
        )
        (finding,) = only(report, "mutable-default")
        assert finding.severity == "error"

    def test_constructor_and_kwonly_defaults_fire(self):
        report = run(
            """
            def collect(*, into=dict()):
                return into
            """,
            path="src/repro/obs/fixture.py",
        )
        assert "mutable-default" in codes(report)

    def test_none_default_is_clean(self):
        report = run(
            """
            def collect(into=None):
                return into or []
            """,
            path="src/repro/obs/fixture.py",
        )
        assert "mutable-default" not in codes(report)


# ---------------------------------------------------------------------------
# config interplay
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# durability-discipline
# ---------------------------------------------------------------------------


class TestDurabilityDiscipline:
    DURABLE = "src/repro/analysis/store.py"

    def test_direct_final_path_write_fires(self):
        report = run(
            """
            def publish(path, data):
                with open(path, "wb") as handle:
                    handle.write(data)
            """,
            path=self.DURABLE,
        )
        (finding,) = only(report, "durability-discipline")
        assert "final path directly" in finding.message
        assert finding.severity == "error"

    def test_write_text_fires(self):
        report = run(
            """
            def publish(path, data):
                path.write_text(data)
            """,
            path=self.DURABLE,
        )
        (finding,) = only(report, "durability-discipline")
        assert "truncates its target in place" in finding.message

    def test_append_without_fsync_fires(self):
        report = run(
            """
            def log(path, line):
                with open(path, "a") as handle:
                    handle.write(line)
            """,
            path=self.DURABLE,
        )
        (finding,) = only(report, "durability-discipline")
        assert "not durable" in finding.message

    def test_append_with_fsync_is_clean(self):
        report = run(
            """
            import os

            def log(path, line):
                with open(path, "a") as handle:
                    handle.write(line)
                    handle.flush()
                    os.fsync(handle.fileno())
            """,
            path=self.DURABLE,
        )
        assert "durability-discipline" not in codes(report)

    def test_blessed_publish_protocol_is_clean(self):
        report = run(
            """
            import os

            def publish(tmp_path, final, data):
                with open(tmp_path, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, final)
            """,
            path=self.DURABLE,
        )
        assert "durability-discipline" not in codes(report)

    def test_temp_write_without_replace_fires(self):
        report = run(
            """
            import os

            def publish(tmp_path, data):
                with open(tmp_path, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
            """,
            path=self.DURABLE,
        )
        (finding,) = only(report, "durability-discipline")
        assert "os.replace" in finding.message

    def test_temp_write_without_fsync_fires(self):
        report = run(
            """
            import os

            def publish(tmp_path, final, data):
                with open(tmp_path, "wb") as handle:
                    handle.write(data)
                os.replace(tmp_path, final)
            """,
            path=self.DURABLE,
        )
        (finding,) = only(report, "durability-discipline")
        assert "os.fsync" in finding.message

    def test_reads_are_exempt(self):
        report = run(
            """
            def load(path):
                with open(path) as handle:
                    return handle.read()
            """,
            path=self.DURABLE,
        )
        assert "durability-discipline" not in codes(report)

    def test_outside_durable_modules_is_exempt(self):
        report = run(
            """
            def publish(path, data):
                path.write_text(data)
            """,
            path="src/repro/obs/fixture.py",
        )
        assert "durability-discipline" not in codes(report)

    def test_dogfood_real_persistence_layer(self):
        # The rule must hold on the very modules it was written for.
        from pathlib import Path

        source = Path("src/repro/analysis/store.py").read_text()
        report = lint_source(source, path="src/repro/analysis/store.py")
        assert "durability-discipline" not in codes(report)


class TestScopeOptions:
    def test_scopes_are_configurable(self):
        config = LintConfig.build(options={"exact_modules": ["obs/"]})
        report = run(
            """
            def mean(value):
                return float(value)
            """,
            path="src/repro/obs/fixture.py",
            config=config,
        )
        assert "exactness-discipline" in codes(report)

    def test_severity_override(self):
        config = LintConfig.build(severity={"broad-except": "error"})
        report = run(
            """
            try:
                work()
            except Exception:
                pass
            """,
            path="src/repro/obs/fixture.py",
            config=config,
        )
        (finding,) = report.by_code("broad-except")
        assert finding.severity == "error"
        assert not report.ok

