"""Diagnostic output formats: text, stable JSON, SARIF 2.1.0.

The JSON shape (``--format json``) is versioned and documented in
``docs/lint.md``; the SARIF emitter targets the SARIF 2.1.0 schema so
reports upload directly to code-scanning UIs (one *run*, one *result*
per finding, rules carried in the tool's driver with their metadata).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.lint.diagnostics import ERROR, INFO, WARNING, LintReport
from repro.lint.registry import all_rules

#: Version of the ``--format json`` envelope.
JSON_FORMAT_VERSION = 1

TOOL_NAME = "repro-lint"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"

_SARIF_LEVEL = {ERROR: "error", WARNING: "warning", INFO: "note"}


def _tool_version() -> str:
    import repro

    return getattr(repro, "__version__", "0")


def render_text(reports: Sequence[LintReport]) -> str:
    """The human-readable report (what the CLI prints by default)."""
    blocks: List[str] = []
    for report in reports:
        summary = report.summary()
        if report.clean:
            blocks.append(f"{report.graph}: clean")
            continue
        lines = [
            f"{report.graph}: {summary['errors']} error(s), "
            f"{summary['warnings']} warning(s)"
        ]
        for finding in report.findings:
            lines.append(f"  {finding}")
            if finding.fix:
                lines.append(f"      fix: {finding.fix}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks)


def to_json_dict(reports: Sequence[LintReport]) -> Dict[str, Any]:
    """The stable machine-readable envelope of one lint invocation."""
    return {
        "version": JSON_FORMAT_VERSION,
        "tool": {"name": TOOL_NAME, "version": _tool_version()},
        "runs": [report.as_dict() for report in reports],
        "summary": {
            "graphs": len(reports),
            "findings": sum(len(r.findings) for r in reports),
            "errors": sum(len(r.errors) for r in reports),
            "warnings": sum(len(r.warnings) for r in reports),
        },
    }


def render_json(reports: Sequence[LintReport]) -> str:
    return json.dumps(
        to_json_dict(reports), indent=2, sort_keys=True, default=str
    )


def to_sarif(reports: Sequence[LintReport]) -> Dict[str, Any]:
    """A SARIF 2.1.0 log: one run, all reports' findings as results,
    anchored with *logical locations* (``<graph>::<actor>``)."""
    rule_index: Dict[str, int] = {}
    sarif_rules: List[Dict[str, Any]] = []
    for registered in all_rules():
        meta = registered.meta
        rule_index[meta.code] = len(sarif_rules)
        sarif_rules.append(
            {
                "id": meta.code,
                "name": _pascal(meta.code),
                "shortDescription": {"text": meta.summary},
                "helpUri": meta.doc_url,
                "defaultConfiguration": {
                    "level": _SARIF_LEVEL[meta.default_severity]
                },
                "properties": {"category": meta.category, "model": meta.model},
            }
        )

    results: List[Dict[str, Any]] = []
    for report in reports:
        for finding in report.findings:
            result: Dict[str, Any] = {
                "ruleId": finding.code,
                "level": _SARIF_LEVEL[finding.severity],
                "message": {"text": finding.message},
                "partialFingerprints": {"reproLint/v1": finding.fingerprint},
                "properties": {
                    "graph": report.graph,
                    "category": finding.category,
                    "edges": list(finding.edges),
                    "data": {k: str(v) for k, v in finding.data.items()},
                },
            }
            if finding.code in rule_index:
                result["ruleIndex"] = rule_index[finding.code]
            if finding.actors:
                result["locations"] = [
                    {"logicalLocations": [{
                        "name": actor, "kind": "member",
                        "fullyQualifiedName": f"{report.graph}::{actor}"}]}
                    for actor in finding.actors
                ]
            if finding.fix:
                result["properties"]["fix"] = finding.fix
            results.append(result)

    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": _tool_version(),
                        "informationUri": "https://github.com/repro-sdf/repro",
                        "rules": sarif_rules,
                    }
                },
                "results": results,
                "columnKind": "unicodeCodePoints",
            }
        ],
    }


def render_sarif(reports: Sequence[LintReport]) -> str:
    return json.dumps(to_sarif(reports), indent=2, sort_keys=True, default=str)


def _pascal(code: str) -> str:
    return "".join(part.capitalize() for part in code.split("-"))
