"""Shared writer for the ``repro-bench-v1`` baseline schema.

Every ``BENCH_*.json`` at the repository root uses one flat shape so CI
can validate them with a single check (``repro.obs.check.validate_bench``)
and trend tooling does not need per-suite parsers::

    {
      "schema": "repro-bench-v1",
      "suite": "cache",
      "host": {"platform": "...", "python": "3.12.1", "git_sha": "..."},
      "entries": [
        {"name": "...", "unit": "s", "value": 1.23,
         "baseline": null, "meta": {...}},
        ...
      ]
    }

``value`` is the measurement of this run; ``baseline`` is an optional
reference number (a budget/floor the suite asserts against, ``null``
when the entry is informational); ``meta`` carries the measurement's
context (graph, batch size, methodology knobs).  ``host`` stamps where
the numbers were measured — benchmark results are only comparable
within a host, so trend tooling must partition on it.

Besides the per-suite baseline file, :func:`write_bench` appends every
run to ``benchmarks/results/history.jsonl`` (one ``repro-bench-v1``
document per line, with a ``written`` UTC timestamp), so a bench
trajectory accumulates across commits instead of each run overwriting
the last.  :func:`append_history` is the journal's one writer: the
perfbench feed (``perfbench_feed.py``) appends through it too.

Measurements that are *differences* of noisy timings (A/B overhead
fractions) can come out negative when the true cost sits below the
noise floor; :func:`noise_floored` clamps them to zero and flags the
clamp in ``meta`` rather than publishing a negative cost.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import platform
import subprocess
from typing import Any, Dict, List, Optional, Union

from repro.obs.check import BENCH_SCHEMA, validate_bench
from repro.obs.diff import apply_noise_floor

__all__ = [
    "BENCH_SCHEMA",
    "HISTORY_FILE",
    "append_history",
    "bench_document",
    "entry",
    "host_stamp",
    "noise_floored",
    "write_bench",
]

HISTORY_FILE = pathlib.Path(__file__).resolve().parent / "results" / "history.jsonl"


def entry(name: str, unit: str, value: float,
          baseline: Optional[float] = None,
          **meta: Any) -> Dict[str, Any]:
    """One ``repro-bench-v1`` entry."""
    return {
        "name": name,
        "unit": unit,
        "value": value,
        "baseline": baseline,
        "meta": meta,
    }


def noise_floored(name: str, unit: str, value: float,
                  baseline: Optional[float] = None,
                  floor: float = 0.0,
                  **meta: Any) -> Dict[str, Any]:
    """Like :func:`entry`, but clamp ``value`` at ``floor``.

    For derived costs that cannot physically be negative (an overhead
    fraction, a slowdown): when the measured difference lands below
    ``floor`` it is measurement noise, so the published value is the
    floor and ``meta`` records both the raw measurement
    (``measured``) and the fact of the clamp (``noise_floored``).
    The scalar clamp itself is :func:`repro.obs.diff.apply_noise_floor`
    — the same primitive ``repro obs diff`` uses on relative deltas, so
    "what counts as noise" is defined once.
    """
    published, clamped = apply_noise_floor(value, floor)
    if clamped:
        meta = {**meta, "measured": value, "noise_floored": True}
    return entry(name, unit, published, baseline, **meta)


def _git_sha() -> Optional[str]:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def host_stamp() -> Dict[str, Optional[str]]:
    """Where this run was measured: platform, interpreter, commit."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


def bench_document(suite: str,
                   entries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One host-stamped, self-validated ``repro-bench-v1`` document."""
    doc = {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "host": host_stamp(),
        "entries": entries,
    }
    validate_bench(doc)  # never ship a baseline CI would reject
    return doc


def append_history(docs: List[Dict[str, Any]],
                   path: Union[str, pathlib.Path] = HISTORY_FILE) -> None:
    """Append ``docs`` to the history journal, one line each, stamped
    with the same ``written`` UTC time."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    written = (datetime.datetime.now(datetime.timezone.utc)
               .isoformat(timespec="seconds"))
    with path.open("a") as handle:
        for doc in docs:
            handle.write(json.dumps({**doc, "written": written}) + "\n")


def write_bench(path: Union[str, pathlib.Path], suite: str,
                entries: List[Dict[str, Any]],
                history: Union[bool, str, pathlib.Path] = True) -> Dict[str, Any]:
    """Assemble, self-validate and write one baseline file.

    Also appends the document (plus a ``written`` UTC timestamp) to the
    shared history journal unless ``history`` is falsy; pass a path to
    redirect the journal (tests do).
    """
    doc = bench_document(suite, entries)
    pathlib.Path(path).write_text(json.dumps(doc, indent=2) + "\n")
    if history:
        append_history([doc], HISTORY_FILE if history is True else history)
    return doc
