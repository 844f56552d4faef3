"""The rule registry: how lint rules plug into the engine.

A rule is a generator function over a lint context, registered with the
:func:`rule` decorator::

    @rule(
        code="deadlock",
        category="temporal",
        severity=ERROR,
        summary="no iteration can complete",
        requires=("consistent",),
    )
    def _deadlock(ctx):
        if ctx.schedule is None and ctx.deadlock is not None:
            yield ctx.diag("deadlock", str(ctx.deadlock))

The decorator records per-rule metadata — stable code, category
(``structural`` → ``rate`` → ``temporal``, which is also the execution
order), default severity, the model kind it applies to, the analyses it
requires, and a documentation anchor — and makes the rule discoverable
by the engine and by the SARIF/JSON emitters.  Third-party code can
register additional rules with the same decorator; codes are unique and
collisions fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.lint.diagnostics import severity_rank

#: Graph-rule categories in execution (dependency) order: structural
#: rules need only the raw graph, rate rules need the balance equations,
#: temporal rules need schedules / timing.
CATEGORIES = ("structural", "rate", "temporal")

#: Model kinds graph rules can apply to.
MODELS = ("sdf", "csdf", "scenario")

#: Base location of the human documentation; every graph rule's
#: ``doc_url`` is an anchor into this page (mirrored by ``docs/lint.md``).
DOC_PAGE = "https://repro-sdf.readthedocs.io/lint"


@dataclass(frozen=True)
class RuleMeta:
    """Metadata of one registered rule."""

    code: str
    category: str
    default_severity: str
    summary: str
    model: str = "sdf"
    requires: Tuple[str, ...] = ()

    def __post_init__(self):
        if not self.code:
            raise ValueError("rule code must be non-empty")
        severity_rank(self.default_severity)
        object.__setattr__(self, "requires", tuple(self.requires))

    @property
    def doc_url(self) -> str:
        """Anchor into the diagnostic catalogue (``docs/lint.md``)."""
        return f"{DOC_PAGE}#{self.code}"

    @property
    def order(self) -> Tuple[int, str]:
        return (CATEGORIES.index(self.category), self.code)


@dataclass(frozen=True)
class RegisteredRule:
    """A rule function paired with its metadata."""

    meta: RuleMeta
    check: Callable = field(compare=False)


_RULES: Dict[str, RegisteredRule] = {}


def rule(
    code: str,
    category: str,
    severity: str,
    summary: str,
    model: str = "sdf",
    requires: Tuple[str, ...] = (),
) -> Callable[[Callable], Callable]:
    """Register a lint rule (decorator); see the module docstring."""
    if category not in CATEGORIES:
        raise ValueError(
            f"unknown category {category!r}; use one of {CATEGORIES}"
        )
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; use one of {MODELS}")
    meta = RuleMeta(
        code=code,
        category=category,
        default_severity=severity,
        summary=summary,
        model=model,
        requires=requires,
    )

    def decorate(check: Callable) -> Callable:
        if code in _RULES:
            raise ValueError(f"duplicate lint rule code {code!r}")
        _RULES[code] = RegisteredRule(meta=meta, check=check)
        return check

    return decorate


def all_rules(model: Optional[str] = None) -> List[RegisteredRule]:
    """Registered rules (for one model kind), in execution order."""
    rules = [
        r for r in _RULES.values() if model is None or r.meta.model == model
    ]
    return sorted(rules, key=lambda r: r.meta.order)


def rule_codes(model: Optional[str] = None) -> List[str]:
    return [r.meta.code for r in all_rules(model)]


def get_rule(code: str) -> RegisteredRule:
    try:
        return _RULES[code]
    except KeyError:
        raise KeyError(
            f"no lint rule {code!r}; registered: {', '.join(sorted(_RULES))}"
        ) from None


def unregister(code: str) -> None:
    """Remove a rule (tests and plugin teardown)."""
    _RULES.pop(code, None)
