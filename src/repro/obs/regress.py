"""Performance-regression sentinel over the benchmark history journal.

``benchmarks/results/history.jsonl`` accumulates one stamped
``repro-bench-v1`` document per benchmark run.  This module reads that
trajectory and answers, per ``(suite, entry)``: *is the newest sample
consistent with its own past?*  The coarse per-suite assertion floors
catch 50x collapses; this sentinel is the fine-grained gate that
catches the 1.5x drift those floors let through.

The statistics are deliberately robust, not parametric:

* the baseline is the **median** of the last *K* *host-compatible*
  samples (same platform + interpreter — benchmark numbers are only
  comparable within a host, per ``bench_common.host_stamp``), and the
  spread is the **MAD** (median absolute deviation) — one wild outlier
  in the history cannot move either;
* the regression threshold is ``max(threshold·|median|,
  mad_mult·MAD)``: a relative band for stable series, widened to the
  series' own observed jitter for noisy ones;
* direction comes from the unit: speedups (``x``) and rates (``…/s``)
  are higher-is-better, everything else (``s``, ``ns``, ``ratio``,
  ``fraction``) is lower-is-better;
* an entry's *declared* ``baseline`` (the floor/budget its suite
  asserts) is always honored: violating it is a regression no matter
  what the rolling statistics say;
* a series is judged only while its suite's newest sample still
  carries the entry, so a suite retires an entry by no longer
  publishing it.

Verdicts: ``ok`` | ``regressed`` | ``improved`` | ``noisy`` (the
series' own spread exceeds the noise ceiling, so no drift call is
trustworthy) | ``insufficient-data`` (fewer than ``min_samples``
host-compatible priors).  The machine-readable form is
``repro-regress-v1`` (validated by
:func:`repro.obs.check.validate_regress`); ``repro obs regress`` exits
5 when any entry regresses, so CI can gate on it.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Any, Dict, List, Optional, Sequence, Union

__all__ = [
    "REGRESS_SCHEMA",
    "evaluate_history",
    "higher_is_better",
    "load_history",
    "render_regress_text",
]

REGRESS_SCHEMA = "repro-regress-v1"

#: Rolling-window defaults; every knob is a CLI flag on ``repro obs regress``.
DEFAULT_WINDOW = 20
DEFAULT_MIN_SAMPLES = 3
DEFAULT_THRESHOLD = 0.25
DEFAULT_NOISE_REL = 0.20
DEFAULT_MAD_MULT = 4.0


def higher_is_better(unit: str) -> bool:
    """Direction of goodness, inferred from the entry's unit: speedup
    factors and rates go up, times/ratios/fractions go down."""
    return unit == "x" or unit.endswith("/s")


def load_history(path: Union[str, pathlib.Path]) -> List[Dict[str, Any]]:
    """The stamped bench documents of a history journal, file order.

    Blank lines are skipped; a torn/invalid line is an error (the
    journal is append-only JSON-per-line — a bad line means a bad
    write, and a sentinel fed garbage must say so, not guess)."""
    docs = []
    for lineno, line in enumerate(
        pathlib.Path(path).read_text().splitlines(), 1
    ):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{path}: line {lineno} is not valid JSON ({error})"
            ) from None
        if not isinstance(doc, dict) or "suite" not in doc:
            raise ValueError(f"{path}: line {lineno} is not a bench document")
        docs.append(doc)
    return docs


def _flatten(docs: Sequence[Dict[str, Any]]) -> Dict[tuple, List[Dict[str, Any]]]:
    """``(suite, entry-name) -> samples`` in journal order."""
    series: Dict[tuple, List[Dict[str, Any]]] = {}
    for doc in docs:
        host = doc.get("host") or {}
        for entry in doc.get("entries", ()):
            series.setdefault((doc["suite"], entry["name"]), []).append({
                "value": entry["value"],
                "unit": entry.get("unit", ""),
                "baseline": entry.get("baseline"),
                "platform": host.get("platform"),
                "python": host.get("python"),
                "git_sha": host.get("git_sha"),
                "written": doc.get("written"),
            })
    return series


def _mad(values: Sequence[float], median: float) -> float:
    return statistics.median(abs(v - median) for v in values)


def _judge(
    samples: List[Dict[str, Any]],
    *,
    window: int,
    min_samples: int,
    threshold: float,
    noise_rel: float,
    mad_mult: float,
) -> Dict[str, Any]:
    """Verdict for one series; the candidate is the newest sample."""
    candidate = samples[-1]
    value = candidate["value"]
    unit = candidate["unit"]
    up = higher_is_better(unit)
    result: Dict[str, Any] = {
        "unit": unit,
        "value": value,
        "declared_baseline": candidate["baseline"],
        "direction": "higher-is-better" if up else "lower-is-better",
        "git_sha": candidate["git_sha"],
    }

    # The declared floor/budget always wins: it is the contract the
    # suite itself asserts, independent of the rolling statistics.
    declared = candidate["baseline"]
    if declared is not None:
        violated = value < declared if up else value > declared
        if violated:
            result.update(
                verdict="regressed",
                reason=(
                    f"declared baseline violated: {value:g} {unit} is "
                    f"{'below floor' if up else 'above ceiling'} {declared:g}"
                ),
                samples=0,
            )
            return result

    priors = [
        s for s in samples[:-1]
        if s["platform"] == candidate["platform"]
        and s["python"] == candidate["python"]
    ][-window:]
    result["samples"] = len(priors)
    if len(priors) < min_samples:
        result.update(
            verdict="insufficient-data",
            reason=(
                f"{len(priors)} host-compatible prior(s), "
                f"need {min_samples}"
            ),
        )
        return result

    values = [s["value"] for s in priors]
    median = statistics.median(values)
    mad = _mad(values, median)
    delta = value - median
    result.update(
        median=median,
        mad=mad,
        delta=delta,
        relative=(delta / abs(median)) if median else None,
    )

    if median and mad / abs(median) > noise_rel:
        result.update(
            verdict="noisy",
            reason=(
                f"series spread MAD/|median| = {mad / abs(median):.0%} "
                f"exceeds noise ceiling {noise_rel:.0%}; no drift call "
                "is trustworthy"
            ),
        )
        return result

    scale = max(threshold * abs(median), mad_mult * mad)
    if abs(delta) > scale:
        worse = delta < 0 if up else delta > 0
        rel = f"{delta / abs(median):+.0%} vs median" if median \
            else f"{delta:+g} vs median 0"
        result.update(
            verdict="regressed" if worse else "improved",
            reason=(
                f"{rel} {median:g} {unit} over {len(priors)} sample(s) "
                f"(threshold ±{scale:g})"
            ),
        )
        return result

    result.update(verdict="ok", reason=None)
    return result


def evaluate_history(
    path: Union[str, pathlib.Path],
    *,
    window: int = DEFAULT_WINDOW,
    min_samples: int = DEFAULT_MIN_SAMPLES,
    threshold: float = DEFAULT_THRESHOLD,
    noise_rel: float = DEFAULT_NOISE_REL,
    mad_mult: float = DEFAULT_MAD_MULT,
) -> Dict[str, Any]:
    """The ``repro-regress-v1`` verdict document for a history journal.

    Deterministic for a given journal — no timestamps, no host probing
    — so the same history always yields the same document."""
    docs = load_history(path)
    published = {doc["suite"]: {e["name"] for e in doc.get("entries", ())}
                 for doc in docs}  # each suite's newest sample wins
    series = _flatten(docs)
    results = []
    for (suite, name), samples in sorted(series.items()):
        if name not in published[suite]:
            continue
        judged = _judge(
            samples,
            window=window, min_samples=min_samples, threshold=threshold,
            noise_rel=noise_rel, mad_mult=mad_mult,
        )
        judged = {"suite": suite, "entry": name, **judged}
        results.append(judged)

    verdict_order = ("regressed", "noisy", "improved",
                     "insufficient-data", "ok")
    rank = {v: i for i, v in enumerate(verdict_order)}
    results.sort(key=lambda r: (rank[r["verdict"]], r["suite"], r["entry"]))
    counts = {v: sum(1 for r in results if r["verdict"] == v)
              for v in verdict_order}
    return {
        "schema": REGRESS_SCHEMA,
        "history": str(path),
        "params": {
            "window": window,
            "min_samples": min_samples,
            "threshold": threshold,
            "noise_rel": noise_rel,
            "mad_mult": mad_mult,
        },
        "entries": len(results),
        "counts": counts,
        "regressed": [
            f"{r['suite']}/{r['entry']}" for r in results
            if r["verdict"] == "regressed"
        ],
        "results": results,
    }


# ----------------------------------------------------------------------
# text rendering
# ----------------------------------------------------------------------

_MARK = {
    "regressed": "REGRESSED",
    "improved": "improved",
    "noisy": "noisy",
    "insufficient-data": "insufficient-data",
    "ok": "ok",
}


def render_regress_text(report: Dict[str, Any],
                        verbose: bool = False) -> str:
    """The terminal report ``repro obs regress`` prints.  Quiet series
    (``ok``/``insufficient-data``) are summarised unless ``verbose``."""
    counts = report["counts"]
    lines = [
        f"regression sentinel over {report['history']}: "
        f"{report['entries']} series",
        f"  {counts['regressed']} regressed, {counts['improved']} improved, "
        f"{counts['noisy']} noisy, {counts['insufficient-data']} "
        f"insufficient-data, {counts['ok']} ok",
    ]
    for result in report["results"]:
        quiet = result["verdict"] in ("ok", "insufficient-data")
        if quiet and not verbose:
            continue
        lines.append("")
        lines.append(
            f"  [{_MARK[result['verdict']]}] "
            f"{result['suite']}/{result['entry']}: "
            f"{result['value']:g} {result['unit']} "
            f"({result['direction']}, {result['samples']} prior(s))"
        )
        if result.get("reason"):
            lines.append(f"    {result['reason']}")
    if not report["results"]:
        lines.append("  (empty history)")
    return "\n".join(lines)
