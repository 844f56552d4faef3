"""Structured lint diagnostics.

A :class:`Diagnostic` is one finding of one rule: a stable code, a
severity, a human message, *graph anchors* (the actor and edge names it
is about), structured ``data`` for machine consumers, and an optional
fix-it suggestion.  A :class:`LintReport` is the ordered collection of
findings for one model, with the filtering operations the engine and the
CLI compose (severity overrides, code selection, baseline subtraction).

Reports are value objects: every filtering operation returns a new
report, so a report served from the :class:`~repro.analysis.cache.
AnalysisCache` can be shared safely between callers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

#: Severity levels, weakest to strongest.  ``info`` findings never gate;
#: ``warning`` findings gate under ``--fail-on warning``; ``error``
#: findings make analyses refuse the model.
INFO = "info"
WARNING = "warning"
ERROR = "error"

SEVERITIES = (INFO, WARNING, ERROR)

_RANK = {INFO: 0, WARNING: 1, ERROR: 2}


def severity_rank(severity: str) -> int:
    """Numeric rank of a severity (higher is more severe)."""
    try:
        return _RANK[severity]
    except KeyError:
        raise ValueError(
            f"unknown severity {severity!r}; use one of {', '.join(SEVERITIES)}"
        ) from None


@dataclass(frozen=True)
class Diagnostic:
    """One finding: code + severity + message, anchored to its subject.

    ``actors`` and ``edges`` name the graph elements the finding is
    about (empty for whole-graph findings); ``data`` carries the rule's
    structured evidence (counts, group members, budgets) and ``fix`` an
    actionable suggestion.  ``graph`` is the display name of the model
    the finding belongs to — set by the engine, so rules may leave it
    empty.
    """

    code: str
    severity: str
    message: str
    category: str = "structural"
    actors: Tuple[str, ...] = ()
    edges: Tuple[str, ...] = ()
    data: Mapping[str, Any] = field(default_factory=dict)
    fix: Optional[str] = None
    graph: str = ""

    def __post_init__(self):
        severity_rank(self.severity)  # validates
        object.__setattr__(self, "actors", tuple(self.actors))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "data", dict(self.data))

    @property
    def fingerprint(self) -> str:
        """A stable identity for baselines: the graph, code and anchors
        (deliberately *not* the message, so rewording a rule does not
        resurrect baselined findings)."""
        digest = hashlib.sha256()
        for part in (self.graph, self.code, *sorted(self.actors), *sorted(self.edges)):
            digest.update(part.encode())
            digest.update(b"\x1f")
        return digest.hexdigest()[:16]

    def with_severity(self, severity: str) -> "Diagnostic":
        severity_rank(severity)
        return replace(self, severity=severity)

    def as_dict(self) -> Dict[str, Any]:
        """The stable JSON shape of one finding (documented in
        ``docs/lint.md``)."""
        return {
            "code": self.code,
            "severity": self.severity,
            "category": self.category,
            "message": self.message,
            "actors": list(self.actors),
            "edges": list(self.edges),
            "data": dict(self.data),
            "fix": self.fix,
            "fingerprint": self.fingerprint,
        }

    def __str__(self) -> str:
        anchors = ""
        if self.actors:
            anchors += f" [actors: {', '.join(self.actors)}]"
        if self.edges:
            anchors += f" [edges: {', '.join(self.edges)}]"
        return f"[{self.severity}] {self.code}: {self.message}{anchors}"


@dataclass(frozen=True)
class LintReport:
    """All findings of one lint pass over one model.

    ``fingerprint`` is the model's content hash when it has one
    (:meth:`repro.sdf.graph.SDFGraph.fingerprint`); CSDF and scenario
    models report ``None``.
    """

    graph: str
    findings: Tuple[Diagnostic, ...] = ()
    fingerprint: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "findings", tuple(self.findings))

    # -- inspection ------------------------------------------------------

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(f for f in self.findings if f.severity == ERROR)

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(f for f in self.findings if f.severity == WARNING)

    @property
    def ok(self) -> bool:
        """True iff the report has no error-severity findings."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """True iff the report has no findings at all."""
        return not self.findings

    def codes(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for finding in self.findings:
            seen.setdefault(finding.code)
        return tuple(seen)

    def by_code(self, code: str) -> Tuple[Diagnostic, ...]:
        return tuple(f for f in self.findings if f.code == code)

    def max_severity(self) -> Optional[str]:
        if not self.findings:
            return None
        return max(self.findings, key=lambda f: severity_rank(f.severity)).severity

    # -- derivation ------------------------------------------------------

    def replace_findings(self, findings: Iterable[Diagnostic]) -> "LintReport":
        return LintReport(self.graph, tuple(findings), self.fingerprint)

    def without_fingerprints(self, fingerprints: Iterable[str]) -> "LintReport":
        """The report minus baselined findings."""
        drop = set(fingerprints)
        return self.replace_findings(
            f for f in self.findings if f.fingerprint not in drop
        )

    def summary(self) -> Dict[str, int]:
        return {
            "findings": len(self.findings),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
        }

    def as_dict(self) -> Dict[str, Any]:
        return {
            "graph": self.graph,
            "fingerprint": self.fingerprint,
            "summary": self.summary(),
            "findings": [f.as_dict() for f in self.findings],
        }

    def __str__(self) -> str:
        if not self.findings:
            return "graph is clean"
        return "\n".join(str(f) for f in self.findings)
