"""The overhauled ``repro lint`` subcommand: exit codes, formats,
selection, baselines and config files."""

import json

import pytest

from repro.cli import main
from repro.csdf.graph import CSDFGraph
from repro.csdf.io import to_json as csdf_to_json
from repro.graphs.examples import figure3_graph
from repro.sdf.graph import SDFGraph
from repro.sdf.io import to_json


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "fig3.json"
    path.write_text(to_json(figure3_graph()))
    return str(path)


@pytest.fixture
def warn_file(tmp_path):
    g = SDFGraph("loose")
    g.add_actor("src", 1)
    g.add_actor("dst", 1)
    g.add_edge("src", "dst")
    g.add_edge("dst", "dst", tokens=1)
    path = tmp_path / "loose.json"
    path.write_text(to_json(g))
    return str(path)


@pytest.fixture
def error_file(tmp_path):
    g = SDFGraph("stuck")
    g.add_actors("a", "b")
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    path = tmp_path / "stuck.json"
    path.write_text(to_json(g))
    return str(path)


class TestExitCodes:
    def test_clean_is_zero(self, clean_file, capsys):
        assert main(["lint", clean_file]) == 0
        assert "clean" in capsys.readouterr().out

    def test_warnings_only_is_zero_by_default(self, warn_file, capsys):
        assert main(["lint", warn_file]) == 0
        assert "unbounded-actor" in capsys.readouterr().out

    def test_warnings_gate_under_fail_on_warning(self, warn_file):
        assert main(["lint", warn_file, "--fail-on", "warning"]) == 1

    def test_errors_are_two(self, error_file):
        assert main(["lint", error_file]) == 2

    def test_fail_on_never_reports_but_passes(self, error_file, capsys):
        assert main(["lint", error_file, "--fail-on", "never"]) == 0
        assert "deadlock" in capsys.readouterr().out

    def test_no_graphs_is_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert "no graphs" in capsys.readouterr().err


class TestSelection:
    def test_select(self, warn_file, capsys):
        assert main(["lint", warn_file, "--select", "disconnected"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_ignore(self, warn_file, capsys):
        assert (
            main(
                [
                    "lint",
                    warn_file,
                    "--ignore",
                    "unbounded-actor",
                    "--fail-on",
                    "warning",
                ]
            )
            == 0
        )

    def test_unknown_code_is_rejected(self, warn_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", warn_file, "--select", "no-such-code"])
        assert excinfo.value.code == 2
        assert "unknown rule code" in capsys.readouterr().err


class TestFormats:
    def test_json(self, error_file, capsys):
        assert main(["lint", error_file, "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 1
        assert payload["runs"][0]["findings"][0]["code"] == "deadlock"

    def test_sarif(self, error_file, capsys):
        assert main(["lint", error_file, "--format", "sarif"]) == 2
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"][0]["ruleId"] == "deadlock"

    def test_output_file(self, error_file, tmp_path, capsys):
        out = tmp_path / "report.sarif"
        assert (
            main(["lint", error_file, "--format", "sarif", "-o", str(out)]) == 2
        )
        assert json.loads(out.read_text())["version"] == "2.1.0"


class TestRegistry:
    def test_registry_has_no_errors(self, capsys):
        assert main(["lint", "--registry", "--fail-on", "error"]) == 0

    def test_registry_combines_with_specs(self, error_file):
        assert main(["lint", "--registry", error_file]) == 2

    def test_builtin_specs_work(self, capsys):
        assert main(["lint", "builtin:figure3"]) == 0


class TestBaseline:
    def test_roundtrip_suppresses_known_findings(self, warn_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            main(["lint", warn_file, "--write-baseline", str(baseline)]) == 0
        )
        recorded = json.loads(baseline.read_text())
        assert recorded["findings"][0]["code"] == "unbounded-actor"
        capsys.readouterr()
        assert (
            main(
                [
                    "lint",
                    warn_file,
                    "--baseline",
                    str(baseline),
                    "--fail-on",
                    "warning",
                ]
            )
            == 0
        )
        assert "clean" in capsys.readouterr().out

    def test_new_findings_still_gate(self, warn_file, error_file, tmp_path):
        baseline = tmp_path / "baseline.json"
        main(["lint", warn_file, "--write-baseline", str(baseline)])
        assert (
            main(["lint", warn_file, error_file, "--baseline", str(baseline)])
            == 2
        )


class TestConfigFile:
    def test_config_severity_override(self, warn_file, tmp_path):
        config = tmp_path / "lint.json"
        config.write_text(json.dumps({"severity": {"unbounded-actor": "error"}}))
        assert main(["lint", warn_file, "--config", str(config)]) == 2

    def test_config_ignore_with_cli_select_override(self, warn_file, tmp_path):
        config = tmp_path / "lint.json"
        config.write_text(json.dumps({"ignore": ["unbounded-actor"]}))
        assert (
            main(
                [
                    "lint",
                    warn_file,
                    "--config",
                    str(config),
                    "--fail-on",
                    "warning",
                ]
            )
            == 0
        )

    def test_invalid_config_is_clean_error(self, warn_file, tmp_path, capsys):
        config = tmp_path / "lint.json"
        config.write_text(json.dumps({"bogus": 1}))
        assert main(["lint", warn_file, "--config", str(config)]) == 1
        assert "unknown keys" in capsys.readouterr().err


class TestCSDF:
    def test_clean_csdf(self, tmp_path, capsys):
        g = CSDFGraph("updown")
        g.add_actor("P", [1, 2])
        g.add_actor("C", [4])
        g.add_edge("P", "C", production=[2, 1], consumption=[3])
        g.add_edge("C", "P", production=[3], consumption=[2, 1], tokens=3)
        path = tmp_path / "updown.json"
        path.write_text(csdf_to_json(g))
        assert main(["lint", "--csdf", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_inconsistent_csdf(self, tmp_path, capsys):
        g = CSDFGraph("bad")
        g.add_actor("a", [1])
        g.add_actor("b", [1])
        g.add_edge("a", "b", production=[1], consumption=[1])
        g.add_edge("b", "a", production=[1], consumption=[2], tokens=2)
        path = tmp_path / "bad.json"
        path.write_text(csdf_to_json(g))
        assert main(["lint", "--csdf", str(path)]) == 2
        assert "csdf-inconsistent" in capsys.readouterr().out

    @pytest.mark.parametrize("with_spec", [True, False],
                             ids=["spec", "no-spec"])
    def test_registry_is_a_usage_error(self, with_spec, tmp_path, capsys):
        # The registry holds SDF graphs: with --csdf it was silently
        # ignored (with a spec) or blamed for a missing spec (without).
        g = CSDFGraph("one")
        g.add_actor("a", [1])
        g.add_edge("a", "a", production=[1], consumption=[1], tokens=1)
        path = tmp_path / "one.json"
        path.write_text(csdf_to_json(g))
        specs = [str(path)] if with_spec else []
        assert main(["lint", "--csdf", "--registry", *specs]) == 2
        captured = capsys.readouterr()
        assert "--registry" in captured.err and "--csdf" in captured.err
        assert captured.out == ""
