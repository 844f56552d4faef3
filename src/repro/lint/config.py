"""Lint configuration: severity overrides, suppressions, baselines.

The on-disk form is ``.reprolint.json`` next to the models (or wherever
``--config`` points)::

    {
        "select": [],                       // only these codes (empty = all)
        "ignore": ["disconnected"],         // suppressed codes
        "severity": {"unread-tokens": "error"},
        "options": {"unfold_budget": 500},
        "baseline": ".reprolint-baseline.json"
    }

A *baseline* is the set of fingerprints of known, accepted findings; a
lint run subtracts it so only new findings gate.  Write one with
``repro lint … --write-baseline FILE`` and adopt it via the config or
``--baseline``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.lint.diagnostics import severity_rank

#: Default config filename probed in the working directory.
CONFIG_FILENAME = ".reprolint.json"

_BASELINE_VERSION = 1


@dataclass(frozen=True)
class LintConfig:
    """Immutable engine configuration (hashable parts feed the cache key)."""

    select: Tuple[str, ...] = ()
    ignore: Tuple[str, ...] = ()
    severity: Tuple[Tuple[str, str], ...] = ()
    options: Tuple[Tuple[str, Any], ...] = ()
    baseline: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "select", tuple(self.select))
        object.__setattr__(self, "ignore", tuple(self.ignore))
        severity = tuple(sorted(dict(self.severity).items()))
        for _, level in severity:
            severity_rank(level)
        object.__setattr__(self, "severity", severity)
        object.__setattr__(
            self, "options", tuple(sorted(dict(self.options).items()))
        )

    @classmethod
    def build(
        cls,
        select: Sequence[str] = (),
        ignore: Sequence[str] = (),
        severity: Optional[Dict[str, str]] = None,
        options: Optional[Dict[str, Any]] = None,
        baseline: Optional[str] = None,
    ) -> "LintConfig":
        return cls(
            select=tuple(select),
            ignore=tuple(ignore),
            severity=tuple((severity or {}).items()),
            options=tuple((options or {}).items()),
            baseline=baseline,
        )

    @property
    def severity_map(self) -> Dict[str, str]:
        return dict(self.severity)

    @property
    def option_map(self) -> Dict[str, Any]:
        return dict(self.options)

    def merged(
        self,
        select: Sequence[str] = (),
        ignore: Sequence[str] = (),
        baseline: Optional[str] = None,
    ) -> "LintConfig":
        """This config with CLI-level overrides applied (non-empty CLI
        ``select``/``ignore`` replace the file's; baseline path wins)."""
        return LintConfig(
            select=tuple(select) or self.select,
            ignore=tuple(ignore) or self.ignore,
            severity=self.severity,
            options=self.options,
            baseline=baseline or self.baseline,
        )

    def cache_params(self) -> Dict[str, Any]:
        """The cache-key contribution of this config: everything that
        changes the computed findings (the baseline does not — it is
        subtracted after the engine runs)."""
        return {
            "config": json.dumps(
                {
                    "select": list(self.select),
                    "ignore": list(self.ignore),
                    "severity": [list(kv) for kv in self.severity],
                    "options": [list(kv) for kv in self.options],
                },
                sort_keys=True,
                default=str,
            )
        }


def load_config(path: Optional[str] = None) -> LintConfig:
    """Load ``path`` (or ``./.reprolint.json`` when present; an absent
    default file yields the empty config)."""
    probe = pathlib.Path(path or CONFIG_FILENAME)
    if not probe.exists():
        if path:
            raise ReproError(f"lint config {path!r} not found")
        return LintConfig()
    try:
        raw = json.loads(probe.read_text())
    except json.JSONDecodeError as error:
        raise ReproError(f"lint config {probe}: invalid JSON ({error})") from error
    if not isinstance(raw, dict):
        raise ReproError(f"lint config {probe}: expected a JSON object")
    unknown = set(raw) - {"select", "ignore", "severity", "options", "baseline"}
    if unknown:
        raise ReproError(
            f"lint config {probe}: unknown keys {sorted(unknown)}"
        )
    try:
        return LintConfig.build(
            select=raw.get("select", ()),
            ignore=raw.get("ignore", ()),
            severity=raw.get("severity"),
            options=raw.get("options"),
            baseline=raw.get("baseline"),
        )
    except (TypeError, ValueError) as error:
        raise ReproError(f"lint config {probe}: {error}") from error


def load_baseline(path: str) -> set:
    """The fingerprint set of a baseline file."""
    probe = pathlib.Path(path)
    if not probe.exists():
        raise ReproError(f"lint baseline {path!r} not found")
    try:
        raw = json.loads(probe.read_text())
    except json.JSONDecodeError as error:
        raise ReproError(f"lint baseline {path}: invalid JSON ({error})") from error
    if isinstance(raw, list):  # bare fingerprint list is accepted too
        return set(raw)
    if not isinstance(raw, dict) or "findings" not in raw:
        raise ReproError(
            f"lint baseline {path}: expected a fingerprint list or a "
            '{"version", "findings"} object'
        )
    return {entry["fingerprint"] for entry in raw["findings"]}


def write_baseline(path: str, reports: Iterable) -> int:
    """Write the baseline of every finding in ``reports``; returns the
    number of baselined findings."""
    findings = []
    for report in reports:
        for diagnostic in report.findings:
            findings.append(
                {
                    "fingerprint": diagnostic.fingerprint,
                    "graph": diagnostic.graph or report.graph,
                    "code": diagnostic.code,
                    "message": diagnostic.message,
                }
            )
    payload = {"version": _BASELINE_VERSION, "findings": findings}
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return len(findings)
