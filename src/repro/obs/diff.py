"""Structural A/B diff of telemetry documents.

Given two ``repro-trace-summary-v1`` documents (from
:mod:`repro.obs.analyze`) or two ``repro-metrics-v1`` snapshots (from
:mod:`repro.obs.metrics`), produce the per-key delta table a reviewer
actually wants from "did my change make it faster?": keys matched
structurally (stage/graph/kernel for traces, name/type/labels for
metrics), absolute and relative deltas per key, and keys present on
only one side reported as ``added``/``removed`` instead of silently
dropped.

Relative deltas get the same *noise-floor* treatment
``benchmarks/bench_common.py`` applies to A/B overhead measurements:
two runs of the same code differ by scheduler jitter, so a relative
change whose magnitude sits below the floor (default 5%) is published
as ``unchanged`` with the raw measurement preserved in
``measured_relative`` — the diff never cries wolf over noise, and
never hides the raw number either.  :func:`apply_noise_floor` is the
single scalar-clamp primitive, shared with ``bench_common.noise_floored``.

The machine-readable form is ``repro-trace-diff-v1``
(:func:`diff_documents`), validated by
:func:`repro.obs.check.validate_trace_diff`; renderings are text
(:func:`render_diff_text`), JSON, and one self-contained HTML page
(:func:`render_diff_html`, built on :func:`repro.obs.report.html_page`)
— the ``repro obs diff`` subcommand.
"""

from __future__ import annotations

import html
import json
import pathlib
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.analyze import TRACE_SUMMARY_SCHEMA
from repro.obs.metrics import SCHEMA as METRICS_SCHEMA
from repro.obs.report import html_page, html_table

__all__ = [
    "TRACE_DIFF_SCHEMA",
    "apply_noise_floor",
    "diff_documents",
    "diff_files",
    "render_diff_html",
    "render_diff_text",
]

TRACE_DIFF_SCHEMA = "repro-trace-diff-v1"

#: Relative changes below this magnitude are indistinguishable from
#: run-to-run jitter on a shared host.
DEFAULT_NOISE_FLOOR = 0.05


def apply_noise_floor(value: float, floor: float = 0.0) -> Tuple[float, bool]:
    """Clamp ``value`` at ``floor``; returns ``(published, clamped)``.

    The scalar primitive behind both noise treatments in the repo: a
    derived cost that cannot physically be negative (an overhead
    fraction — ``bench_common.noise_floored``) is clamped from below,
    and a relative delta too small to mean anything (this module) is
    clamped toward zero by passing its magnitude through the same
    floor.  Centralising the clamp keeps "what counts as noise"
    consistent between the benchmark writers and the diff reader.
    """
    if value < floor:
        return floor, True
    return value, False


# ----------------------------------------------------------------------
# key extraction per document kind
# ----------------------------------------------------------------------

def _kind_of(doc: Dict[str, Any]) -> str:
    schema = doc.get("schema")
    if schema == TRACE_SUMMARY_SCHEMA:
        return "trace-summary"
    if schema == METRICS_SCHEMA:
        return "metrics"
    raise ValueError(
        f"cannot diff a {schema!r} document: expected {TRACE_SUMMARY_SCHEMA} "
        f"or {METRICS_SCHEMA}"
    )


def _trace_values(doc: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """``key -> {self_seconds, total_seconds, count}`` for a summary."""
    out: Dict[str, Dict[str, float]] = {}
    for row in doc.get("stages", ()):
        key = "/".join((
            row["stage"],
            row.get("graph") or "-",
            row.get("kernel") or "-",
        ))
        out[key] = {
            "value": row["self_seconds"],
            "total": row["total_seconds"],
            "count": row["count"],
        }
    return out


def _metric_values(doc: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """``key -> {value}`` for a metrics snapshot.  Counters and gauges
    contribute one key per label set; a histogram contributes its
    ``count`` and ``sum`` as two keys (the shape a reader can act on
    without re-deriving bucket arithmetic)."""
    out: Dict[str, Dict[str, float]] = {}
    for metric in doc.get("metrics", ()):
        name = metric["name"]
        for sample in metric.get("samples", ()):
            labels = sample.get("labels") or {}
            label_part = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            base = f"{name}{{{label_part}}}" if label_part else name
            if metric.get("type") == "histogram":
                out[f"{base}.count"] = {"value": float(sample["count"])}
                out[f"{base}.sum"] = {"value": float(sample["sum"])}
            else:
                out[base] = {"value": float(sample["value"])}
    return out


# ----------------------------------------------------------------------
# the diff document
# ----------------------------------------------------------------------

def diff_documents(
    a: Dict[str, Any],
    b: Dict[str, Any],
    *,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
    a_label: str = "a",
    b_label: str = "b",
) -> Dict[str, Any]:
    """The ``repro-trace-diff-v1`` document for ``b`` relative to ``a``.

    Both inputs must be the same kind.  Per-key rows carry the raw
    values, the absolute delta and the noise-floored relative delta;
    ``direction`` is one of ``regressed|improved|unchanged|added|removed``
    where lower is always better for trace self-time and direction is
    reported neutrally (sign of the delta) for metrics.
    """
    kind = _kind_of(a)
    if _kind_of(b) != kind:
        raise ValueError(
            f"cannot diff a {_kind_of(a)} against a {_kind_of(b)}"
        )
    extract = _trace_values if kind == "trace-summary" else _metric_values
    va, vb = extract(a), extract(b)

    rows: List[Dict[str, Any]] = []
    for key in sorted(set(va) | set(vb)):
        in_a, in_b = key in va, key in vb
        row: Dict[str, Any] = {
            "key": key,
            "a": va[key]["value"] if in_a else None,
            "b": vb[key]["value"] if in_b else None,
        }
        if not in_a:
            row.update(delta=None, relative=None, direction="added")
        elif not in_b:
            row.update(delta=None, relative=None, direction="removed")
        else:
            delta = vb[key]["value"] - va[key]["value"]
            row["delta"] = delta
            if va[key]["value"]:
                measured = delta / abs(va[key]["value"])
                magnitude, clamped = apply_noise_floor(
                    abs(measured), noise_floor
                )
                if clamped:
                    # below the floor: published as no change, raw kept
                    row["relative"] = 0.0
                    row["measured_relative"] = measured
                    row["noise_floored"] = True
                    row["direction"] = "unchanged"
                else:
                    row["relative"] = measured
                    row["direction"] = (
                        "regressed" if measured > 0 else "improved"
                    )
            else:
                row["relative"] = None
                row["direction"] = (
                    "unchanged" if delta == 0
                    else ("regressed" if delta > 0 else "improved")
                )
        rows.append(row)

    # the loudest changes first; added/removed after, then unchanged
    order = {"regressed": 0, "improved": 1, "added": 2, "removed": 3,
             "unchanged": 4}
    rows.sort(key=lambda r: (
        order[r["direction"]],
        -abs(r.get("relative") or 0.0),
        r["key"],
    ))

    total_a = sum(v["value"] for v in va.values())
    total_b = sum(v["value"] for v in vb.values())
    return {
        "schema": TRACE_DIFF_SCHEMA,
        "kind": kind,
        "a": a_label,
        "b": b_label,
        "noise_floor": noise_floor,
        "rows": rows,
        "totals": {
            "a": total_a,
            "b": total_b,
            "delta": total_b - total_a,
            "relative": ((total_b - total_a) / abs(total_a)
                         if total_a else None),
        },
        "counts": {
            direction: sum(1 for r in rows if r["direction"] == direction)
            for direction in order
        },
    }


def diff_files(
    path_a: Union[str, pathlib.Path],
    path_b: Union[str, pathlib.Path],
    *,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
) -> Dict[str, Any]:
    """:func:`diff_documents` over two JSON files, labelled by path."""
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    return diff_documents(
        a, b, noise_floor=noise_floor,
        a_label=str(path_a), b_label=str(path_b),
    )


# ----------------------------------------------------------------------
# renderings
# ----------------------------------------------------------------------

def _fmt_value(value: Optional[float], kind: str) -> str:
    if value is None:
        return "-"
    if kind == "trace-summary":
        return f"{value * 1e3:.1f}ms"
    return f"{value:g}"


def _fmt_rel(row: Dict[str, Any]) -> str:
    if row["direction"] in ("added", "removed"):
        return row["direction"]
    if row.get("noise_floored"):
        return f"~0% (measured {row['measured_relative']:+.1%})"
    if row.get("relative") is None:
        return "-"
    return f"{row['relative']:+.1%}"


def render_diff_text(diff: Dict[str, Any], top: int = 40) -> str:
    """The terminal table ``repro obs diff`` prints."""
    kind = diff["kind"]
    counts = diff["counts"]
    lines = [
        f"{kind} diff: {diff['a']} -> {diff['b']} "
        f"(noise floor {diff['noise_floor']:.0%})",
        f"  {counts['regressed']} regressed, {counts['improved']} improved, "
        f"{counts['added']} added, {counts['removed']} removed, "
        f"{counts['unchanged']} unchanged",
        "",
        f"  {'key':<48} {'a':>10} {'b':>10} {'change':>26}",
    ]
    shown = diff["rows"][:top]
    for row in shown:
        lines.append(
            f"  {row['key']:<48} {_fmt_value(row['a'], kind):>10} "
            f"{_fmt_value(row['b'], kind):>10} {_fmt_rel(row):>26}"
        )
    if len(diff["rows"]) > len(shown):
        lines.append(f"  ... {len(diff['rows']) - len(shown)} more row(s)")
    totals = diff["totals"]
    rel = (f" ({totals['relative']:+.1%})"
           if totals.get("relative") is not None else "")
    lines.append("")
    lines.append(
        f"total: {_fmt_value(totals['a'], kind)} -> "
        f"{_fmt_value(totals['b'], kind)}{rel}"
    )
    return "\n".join(lines)


def render_diff_html(diff: Dict[str, Any]) -> str:
    """One self-contained HTML page for the diff (CI artefact style)."""
    kind = diff["kind"]
    counts = diff["counts"]
    badge_class = "fail" if counts["regressed"] else "ok"
    badge_text = (
        f"{counts['regressed']} regressed" if counts["regressed"]
        else "no regressions above the noise floor"
    )
    parts = [
        f"<h1>Telemetry diff: <code>{html.escape(str(diff['a']))}</code> "
        f"&rarr; <code>{html.escape(str(diff['b']))}</code></h1>",
        f"<p><span class='badge {badge_class}'>{html.escape(badge_text)}</span> "
        f"<span class='muted'>{html.escape(kind)}, noise floor "
        f"{diff['noise_floor']:.0%}</span></p>",
        html_table(
            ("key", "a", "b", "delta", "change", "direction"),
            [
                (
                    row["key"],
                    _fmt_value(row["a"], kind),
                    _fmt_value(row["b"], kind),
                    _fmt_value(row.get("delta"), kind),
                    _fmt_rel(row),
                    row["direction"],
                )
                for row in diff["rows"]
            ],
        ),
    ]
    totals = diff["totals"]
    rel = (f" ({totals['relative']:+.1%})"
           if totals.get("relative") is not None else "")
    parts.append(
        f"<p>Total: {html.escape(_fmt_value(totals['a'], kind))} &rarr; "
        f"{html.escape(_fmt_value(totals['b'], kind))}{html.escape(rel)}</p>"
    )
    return html_page("repro obs diff", parts)
