"""Exception hierarchy and the public package surface."""

import pytest

import repro
from repro import errors


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "ValidationError",
            "InconsistentGraphError",
            "DeadlockError",
            "UnboundedThroughputError",
            "ConvergenceError",
            "NotAbstractableError",
            "NoAbstractionFoundError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError)

    def test_value_errors_also_value_errors(self):
        assert issubclass(errors.ValidationError, ValueError)
        assert issubclass(errors.InconsistentGraphError, ValueError)

    def test_runtime_errors(self):
        assert issubclass(errors.DeadlockError, RuntimeError)
        assert issubclass(errors.ConvergenceError, RuntimeError)

    def test_witness_payloads(self):
        e = errors.DeadlockError("stuck", blocked={"a": 2})
        assert e.blocked == {"a": 2}
        u = errors.UnboundedThroughputError("free", actor="src")
        assert u.actor == "src"

    def test_catch_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.NotAbstractableError("nope")


class TestUnknownChoices:
    """An unknown method, backend or strategy is refused with the list
    the library owns, the same list the CLI offers as choices."""

    def test_unknown_method(self):
        from repro.analysis.throughput import METHODS
        from repro.graphs.examples import figure3_graph

        with pytest.raises(ValueError, match=", ".join(METHODS)):
            repro.throughput(figure3_graph(), method="nope")

    def test_unknown_backend(self):
        from repro.analysis.batch import BACKENDS, run_batch
        from repro.graphs.examples import figure3_graph

        with pytest.raises(ValueError, match=", ".join(BACKENDS)):
            run_batch([figure3_graph()], backend="nope")

    def test_unknown_strategy(self):
        from repro.core.grouping import STRATEGIES
        from repro.graphs.examples import section41_example

        with pytest.raises(ValueError, match=", ".join(STRATEGIES)):
            repro.discover_abstraction(section41_example(), strategy="nope")


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_surface(self):
        # The README quickstart names; breaking any of these is a
        # breaking change for downstream users.
        for name in (
            "SDFGraph",
            "throughput",
            "convert_to_hsdf",
            "traditional_hsdf",
            "abstract_graph",
            "Abstraction",
            "unfold",
            "dominates",
            "repetition_vector",
            "latency",
            "prune_redundant_edges",
            "discover_abstraction",
            "sdf_to_maxplus_matrix",
        ):
            assert name in repro.__all__

    def test_public_items_documented(self):
        import inspect

        for name in repro.__all__:
            item = getattr(repro, name)
            if inspect.isclass(item) or inspect.isfunction(item):
                assert item.__doc__, f"{name} lacks a docstring"

    def test_docstring_example_runs(self):
        from fractions import Fraction

        g = repro.SDFGraph("example")
        g.add_actor("A", execution_time=3)
        g.add_actor("B", execution_time=1)
        g.add_edge("A", "B", production=1, consumption=2, tokens=2)
        g.add_edge("B", "A", production=2, consumption=1, tokens=2)
        result = repro.throughput(g)
        assert result.per_actor["A"] == Fraction(2, result.cycle_time)
        conv = repro.convert_to_hsdf(g)
        assert conv.graph.is_homogeneous()
