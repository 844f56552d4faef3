"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import BUILTIN_GRAPHS, load_graph, main
from repro.sdf.io import to_json
from repro.graphs.examples import figure3_graph


@pytest.fixture
def fig3_file(tmp_path):
    path = tmp_path / "fig3.json"
    path.write_text(to_json(figure3_graph()))
    return str(path)


class TestLoading:
    def test_builtin_specs(self):
        g = load_graph("builtin:figure3")
        assert g.actor_count() == 2

    def test_unknown_builtin(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="available"):
            load_graph("builtin:nope")

    def test_all_builtins_load(self):
        for name in BUILTIN_GRAPHS:
            assert load_graph(f"builtin:{name}").actor_count() > 0

    def test_json_file(self, fig3_file):
        assert load_graph(fig3_file).actor_count() == 2

    def test_xml_file(self, tmp_path):
        from repro.sdf.io import to_sdf3_xml

        path = tmp_path / "g.xml"
        path.write_text(to_sdf3_xml(figure3_graph()))
        assert load_graph(str(path)).actor_count() == 2


class TestCommands:
    def test_info(self, capsys, fig3_file):
        assert main(["info", fig3_file, "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "actors:     2" in out
        assert "gamma(L) = 2" in out
        assert "live:       True" in out

    def test_throughput(self, capsys):
        assert main(["throughput", "builtin:figure3"]) == 0
        out = capsys.readouterr().out
        assert "iteration period: 7" in out
        assert "rate(L) = 2/7" in out

    def test_throughput_methods(self, capsys):
        for method in ("symbolic", "simulation", "hsdf"):
            assert main(["throughput", "builtin:figure3", "--method", method]) == 0
            assert "iteration period: 7" in capsys.readouterr().out

    def test_latency(self, capsys):
        assert main(["latency", "builtin:figure1"]) == 0
        out = capsys.readouterr().out
        assert "makespan: 23" in out

    def test_convert_compact(self, capsys, tmp_path):
        out_file = tmp_path / "compact.json"
        assert main(["convert", "builtin:figure3", "-o", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "compact HSDF" in out
        data = json.loads(out_file.read_text())
        assert any(a["name"].startswith("g_") for a in data["actors"])

    def test_convert_traditional(self, capsys, tmp_path):
        out_file = tmp_path / "trad.xml"
        assert main(["convert", "builtin:figure3", "--traditional", "-o", str(out_file)]) == 0
        assert "traditional HSDF: 3 actors" in capsys.readouterr().out
        assert "<sdf3" in out_file.read_text()

    def test_abstract_with_verification(self, capsys):
        assert main(["abstract", "builtin:figure1", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "conservative:      True" in out
        assert "abstract graph: 2 actors" in out

    def test_abstract_writes_output(self, capsys, tmp_path):
        out_file = tmp_path / "abs.json"
        assert main(["abstract", "builtin:prefetch", "-o", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert len(data["actors"]) == 2

    def test_abstract_failure_is_clean_error(self, capsys, fig3_file):
        assert main(["abstract", fig3_file]) == 1
        assert "error:" in capsys.readouterr().err

    def test_lint_clean(self, capsys):
        assert main(["lint", "builtin:figure3"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_reports_errors(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"name": "bad", "actors": [{"name": "a"}, {"name": "b"}], '
            '"edges": [{"source": "a", "target": "b"}, '
            '{"source": "b", "target": "a"}]}'
        )
        assert main(["lint", str(bad)]) == 2
        assert "deadlock" in capsys.readouterr().out

    def test_gantt(self, capsys):
        assert main(["gantt", "builtin:figure1", "--horizon", "46"]) == 0
        out = capsys.readouterr().out
        assert "A1" in out and "[" in out

    def test_bottleneck(self, capsys):
        assert main(["bottleneck", "builtin:figure1"]) == 0
        out = capsys.readouterr().out
        assert "iteration period 23" in out
        assert "critical tokens" in out

    def test_schedule(self, capsys):
        assert main(["schedule", "builtin:figure3"]) == 0
        out = capsys.readouterr().out
        assert "period 7" in out
        assert "L#0" in out and "R#0" in out

    def test_dot_stdout(self, capsys):
        assert main(["dot", "builtin:figure3"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_dot_file(self, capsys, tmp_path):
        out_file = tmp_path / "g.dot"
        assert main(["dot", "builtin:figure3", "-o", str(out_file)]) == 0
        assert out_file.read_text().startswith("digraph")

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "modem" in out and "satellite" in out

    def test_builtins_listing(self, capsys):
        assert main(["builtins"]) == 0
        assert "builtin:modem" in capsys.readouterr().out

    def test_missing_file_is_clean_error(self, capsys):
        assert main(["info", "/no/such/file.json"]) == 1
        assert "error:" in capsys.readouterr().err


class TestBatchCommand:
    def test_batch_registry(self, capsys):
        assert main(["batch", "--registry", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "modem" in out and "satellite" in out
        assert "8/8 ok" in out
        assert "cache:" in out and "hit rate" in out

    def test_batch_specs_and_analyses(self, capsys):
        assert main([
            "batch", "builtin:figure3", "builtin:modem",
            "--analysis", "throughput", "latency", "--backend", "serial",
        ]) == 0
        out = capsys.readouterr().out
        assert "2/2 ok" in out

    def test_batch_warm_run_hits_cache(self, capsys):
        assert main(["batch", "builtin:figure3"]) == 0
        capsys.readouterr()
        assert main(["batch", "builtin:figure3"]) == 0
        out = capsys.readouterr().out
        assert "1 hits / 0 misses" in out

    def test_batch_reports_per_graph_failure(self, capsys, tmp_path):
        from repro.sdf.io import to_json

        bad = _inconsistent_graph()
        path = tmp_path / "bad.json"
        path.write_text(to_json(bad))
        assert main(["batch", str(path), "builtin:figure3"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "1/2 ok" in out

    def test_batch_without_graphs_errors(self, capsys):
        assert main(["batch"]) == 2
        assert "no graphs" in capsys.readouterr().err

    def test_batch_zero_workers_clean_error(self, capsys):
        assert main(["batch", "builtin:figure3", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err


def _inconsistent_graph():
    from repro.sdf.graph import SDFGraph

    g = SDFGraph("bad")
    g.add_actor("A", 1)
    g.add_actor("B", 1)
    g.add_edge("A", "B", production=2, consumption=3)
    g.add_edge("B", "A", production=1, consumption=1, tokens=1)
    return g


class TestCsdfCommand:
    @pytest.fixture
    def csdf_file(self, tmp_path):
        from repro.csdf.graph import CSDFGraph
        from repro.csdf.io import to_json as csdf_to_json

        g = CSDFGraph("cli-csdf")
        g.add_actor("P", [1, 2])
        g.add_actor("C", [4])
        g.add_edge("P", "P", [1, 1], [1, 1], 1, name="self_P")
        g.add_edge("C", "C", [1], [1], 1, name="self_C")
        g.add_edge("P", "C", production=[2, 1], consumption=[3], name="data")
        g.add_edge("C", "P", production=[3], consumption=[2, 1], tokens=3, name="space")
        path = tmp_path / "g.json"
        path.write_text(csdf_to_json(g))
        return str(path)

    def test_csdf_analysis(self, capsys, csdf_file):
        assert main(["csdf", csdf_file]) == 0
        out = capsys.readouterr().out
        assert "iteration period: 7" in out
        assert "rate(P) = 2/7" in out
        assert "compact HSDF" in out

    def test_csdf_writes_hsdf(self, capsys, csdf_file, tmp_path):
        out_file = tmp_path / "compact.json"
        assert main(["csdf", csdf_file, "-o", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert any(a["name"].startswith("g_") for a in data["actors"])

    def test_csdf_deadlock_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"name": "bad", "type": "csdf", '
            '"actors": [{"name": "a", "execution_times": [1]}, '
            '{"name": "b", "execution_times": [1]}], '
            '"edges": [{"source": "a", "target": "b", "production": [1], "consumption": [1]}, '
            '{"source": "b", "target": "a", "production": [1], "consumption": [1]}]}'
        )
        assert main(["csdf", str(bad)]) == 1
        assert "deadlocked" in capsys.readouterr().out


class TestMapCommand:
    def test_sweep(self, capsys):
        assert main(["map", "builtin:figure3", "--max-processors", "2"]) == 0
        out = capsys.readouterr().out
        assert "guaranteed period" in out
        assert "1.00x" in out

    def test_single_mapping(self, capsys):
        assert main(["map", "builtin:figure3", "--processors", "1"]) == 0
        out = capsys.readouterr().out
        assert "guaranteed period 7" in out
        assert "utilisation 1.00" in out


class TestCacheCommand:
    def _seed(self, tmp_path, capsys):
        """One cold serial batch publishing into a store; returns its root.

        The CLI shares one process-global memory cache across ``main()``
        calls, so each stage clears it first — the disk tier is what is
        under test here.
        """
        from repro.analysis.cache import default_cache

        default_cache().clear()
        store = tmp_path / "store"
        assert main(["batch", "builtin:figure3", "--backend", "serial",
                     "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "1 published" in out
        return store

    def test_batch_store_then_warm_disk_hits(self, capsys, tmp_path):
        from repro.analysis.cache import default_cache

        store = self._seed(tmp_path, capsys)
        # A cold memory cache over the same store: the result comes
        # back from disk, nothing is recomputed or republished.
        default_cache().clear()
        assert main(["batch", "builtin:figure3", "--backend", "serial",
                     "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "store: 1 disk hits / 0 disk misses, 0 published" in out

    def test_cache_stats(self, capsys, tmp_path):
        store = self._seed(tmp_path, capsys)
        assert main(["cache", "stats", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "records" in out and "1" in out

    def test_cache_stats_json_validates(self, capsys, tmp_path):
        from repro.obs.check import validate_store_stats

        store = self._seed(tmp_path, capsys)
        assert main(["cache", "stats", "--store", str(store),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_store_stats(doc)["records"] == 1

    def test_cache_verify_clean_json_validates(self, capsys, tmp_path):
        from repro.obs.check import validate_store_verify

        store = self._seed(tmp_path, capsys)
        report_path = tmp_path / "verify.json"
        assert main(["cache", "verify", "--store", str(store),
                     "--json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "1 valid, 0 corrupt" in out
        summary = validate_store_verify(json.loads(report_path.read_text()))
        assert summary == {"records": 1, "corrupt": 0,
                           "undetected_corrupt": 0}

    def test_cache_verify_fails_on_undetected_corruption(
            self, capsys, tmp_path):
        from repro.obs.check import validate_store_verify

        store = self._seed(tmp_path, capsys)
        record = next((store / "records").rglob("*.rec"))
        record.write_bytes(b"garbage")
        # Left in place, the corrupt record is still live: exit 1.
        report_path = tmp_path / "verify.json"
        assert main(["cache", "verify", "--store", str(store),
                     "--no-quarantine", "--json", str(report_path)]) == 1
        summary = validate_store_verify(json.loads(report_path.read_text()))
        assert summary["undetected_corrupt"] == 1
        # Quarantining it makes the store consistent again: exit 0.
        assert main(["cache", "verify", "--store", str(store)]) == 0
        assert "0 undetected" in capsys.readouterr().out

    def test_cache_verify_quarantines_corruption(self, capsys, tmp_path):
        store = self._seed(tmp_path, capsys)
        record = next((store / "records").rglob("*.rec"))
        record.write_bytes(b"garbage")
        assert main(["cache", "verify", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "1 quarantined now" in out and "0 undetected" in out

    def test_cache_purge_and_compact(self, capsys, tmp_path):
        store = self._seed(tmp_path, capsys)
        assert main(["cache", "compact", "--store", str(store),
                     "--max-bytes", "1"]) == 0
        assert "evicted 1" in capsys.readouterr().out
        assert main(["cache", "purge", "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--store", str(store)]) == 0
        assert "records:     0" in capsys.readouterr().out
