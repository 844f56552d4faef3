"""The devlint rule registry.

Devlint rules live in their own :class:`repro.lint.registry.RuleRegistry`
namespace so they never collide with graph-model rules, get their own
documentation page (``docs/devlint.md``) and their own category order.
Categories group the project invariants each rule enforces:

* ``exactness`` — the exact-Fraction discipline (PR 7's kernels made
  every float a *candidate* that must be certified; nothing else in the
  analysis stack may do float arithmetic).
* ``resilience`` — the cooperative-deadline contract of PR 4 (hot loops
  must poll).
* ``provenance`` — the flight-recorder contract of PR 6 (reductions
  record steps; spans open via context managers).
* ``concurrency`` — the lock discipline of the shared cache/metrics/
  trace layers (PRs 2 and 5).
* ``determinism`` — analyses must be replayable: no wall-clock or
  unseeded randomness outside the sanctioned call sites.
* ``durability`` — the crash-consistency contract of the persistence
  layer (the result store): files under a durable root publish via
  write-temp → fsync → atomic rename, never by writing the final path
  in place.
* ``hygiene`` — generic Python footguns (broad excepts, mutable
  defaults) plus the suppression-comment grammar itself.
"""

from __future__ import annotations

from repro.lint.registry import RuleRegistry

CATEGORIES = (
    "exactness",
    "resilience",
    "provenance",
    "concurrency",
    "determinism",
    "durability",
    "hygiene",
)

DOC_PAGE = "https://repro-sdf.readthedocs.io/devlint"

#: The one registry all devlint rules register into.
DEVLINT = RuleRegistry(CATEGORIES, models=("source",), doc_page=DOC_PAGE)

#: Decorator shorthand mirroring ``repro.lint.registry.rule``.
rule = DEVLINT.rule
