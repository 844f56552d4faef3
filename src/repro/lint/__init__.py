"""Pluggable static analysis (lint) for dataflow models.

The library's model linter: a rule registry with
per-rule metadata, structured :class:`Diagnostic` findings with graph
anchors and fix-it suggestions, a driver that runs rules in dependency
order over one memoized analysis context, severity/suppression/baseline
configuration, and text / JSON / SARIF 2.1.0 emitters.  See
``docs/lint.md`` for the full diagnostic catalogue.

Quickstart::

    from repro.lint import run_lint

    report = run_lint(graph)
    if not report.ok:
        print(report)          # [error] deadlock: ...
"""

from repro.lint.diagnostics import (
    Diagnostic,
    ERROR,
    INFO,
    LintReport,
    SEVERITIES,
    WARNING,
    severity_rank,
)
from repro.lint.registry import RuleMeta, all_rules, get_rule, rule, rule_codes
from repro.lint.config import (
    CONFIG_FILENAME,
    LintConfig,
    load_baseline,
    load_config,
    write_baseline,
)
from repro.lint.context import (
    CSDFLintContext,
    LintContext,
    ScenarioLintContext,
)
from repro.lint.engine import (
    ensure_lint_clean,
    lint_csdf,
    lint_scenarios,
    run_lint,
)
from repro.lint.rules import check_abstraction_safety
from repro.lint.formats import (
    render_json,
    render_sarif,
    render_text,
    to_json_dict,
    to_sarif,
)

__all__ = [
    "Diagnostic",
    "LintReport",
    "ERROR",
    "WARNING",
    "INFO",
    "SEVERITIES",
    "severity_rank",
    "RuleMeta",
    "rule",
    "all_rules",
    "get_rule",
    "rule_codes",
    "LintConfig",
    "CONFIG_FILENAME",
    "load_config",
    "load_baseline",
    "write_baseline",
    "LintContext",
    "CSDFLintContext",
    "ScenarioLintContext",
    "run_lint",
    "lint_csdf",
    "lint_scenarios",
    "ensure_lint_clean",
    "check_abstraction_safety",
    "render_text",
    "render_json",
    "render_sarif",
    "to_json_dict",
    "to_sarif",
]
