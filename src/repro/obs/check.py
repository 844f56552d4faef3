"""Schema checks for every observability artefact the pipeline emits.

Dependency-free validators (no jsonschema in this environment) for:

* Chrome ``trace_event`` JSON written by ``--trace`` /
  :meth:`repro.obs.trace.Tracer.write_chrome_trace`;
* the JSONL span export (:meth:`~repro.obs.trace.Tracer.write_jsonl`);
* the Prometheus text exposition written by ``--metrics``;
* the ``repro-metrics-v1`` JSON snapshot;
* the shared ``repro-bench-v1`` benchmark baseline schema used by every
  ``BENCH_*.json`` at the repository root (``name``/``unit``/``value``/
  ``baseline``/``meta`` entries, plus the optional ``host`` stamp);
* the ``repro-provenance-v1`` certificate written by ``repro explain
  --json`` (and embedded in outcome dicts);
* the SARIF 2.1.0 logs written by ``repro lint`` and ``repro devlint``
  with ``--format sarif`` (what CI uploads to code scanning);
* the binary ``repro-store-v1`` record files of the durable result
  store (magic line, self-describing JSON header, SHA-256-checksummed
  payload — see :mod:`repro.analysis.store`), re-verified here
  *independently* of the store's own read path;
* the ``repro-store-verify-v1`` report written by ``repro cache verify
  --json`` and the ``repro-store-stats-v1`` census from ``repro cache
  stats --json``;
* the ``repro-trace-summary-v1`` analytics document from ``repro obs
  analyze`` — the stage-cost table (self, CPU and peak traced memory
  per stage) — including its structural invariant: stage self-times
  partition the forest, so they sum to at most the root durations;
* the ``repro-trace-diff-v1`` A/B diff from ``repro obs diff``;
* the ``repro-regress-v1`` sentinel verdict from ``repro obs regress``;
* collapsed-stack flamegraph files from ``repro obs flame``
  (``a;b;c <int>`` lines);
* the benchmark history journal (``history.jsonl``), held to a
  *stricter* standard than a lone baseline file: every line needs a
  host stamp (trend tooling partitions on it) and, per suite, git_sha
  runs must be contiguous — the same commit reappearing after a
  different one means interleaved/rewritten history the sentinel
  cannot order.

Each ``validate_*`` function raises :class:`SchemaError` with a precise
location on the first violation and returns a small summary dict on
success.  CI runs these over the artefacts of the batch smoke via
``repro obs check`` (``python -m repro.obs.check`` is kept as an
alias)::

    python -m repro obs check trace.json metrics.prom BENCH_obs.json

File type is inferred from name/content; exit status is non-zero on the
first invalid artefact.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys
from typing import Any, Dict, List, Union

__all__ = [
    "SchemaError",
    "validate_bench",
    "validate_chrome_trace",
    "validate_collapsed",
    "validate_history",
    "validate_metrics_snapshot",
    "validate_prometheus_text",
    "validate_provenance",
    "validate_regress",
    "validate_sarif",
    "validate_span_jsonl",
    "validate_store_record",
    "validate_store_stats",
    "validate_store_verify",
    "validate_trace_diff",
    "validate_trace_summary",
]

BENCH_SCHEMA = "repro-bench-v1"
#: Kept in sync with repro.obs.provenance.PROVENANCE_SCHEMA (tested).
PROVENANCE_SCHEMA = "repro-provenance-v1"
#: Kept in sync with repro.analysis.store.STORE_SCHEMA (tested).
STORE_SCHEMA = "repro-store-v1"
STORE_VERIFY_SCHEMA = "repro-store-verify-v1"
STORE_STATS_SCHEMA = "repro-store-stats-v1"
#: Kept in sync with repro.obs.analyze.TRACE_SUMMARY_SCHEMA (tested).
TRACE_SUMMARY_SCHEMA = "repro-trace-summary-v1"
#: Kept in sync with repro.obs.diff.TRACE_DIFF_SCHEMA (tested).
TRACE_DIFF_SCHEMA = "repro-trace-diff-v1"
#: Kept in sync with repro.obs.regress.REGRESS_SCHEMA (tested).
REGRESS_SCHEMA = "repro-regress-v1"

_PROM_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_PROM_SAMPLE = re.compile(
    rf"^({_PROM_NAME})(\{{.*\}})? ([0-9eE+.\-]+|NaN|[+-]Inf)$"
)
_PROM_TYPE = re.compile(
    rf"^# TYPE ({_PROM_NAME}) (counter|gauge|histogram|summary|untyped)$"
)
_PROM_HELP = re.compile(rf"^# HELP ({_PROM_NAME}) .*$")


class SchemaError(ValueError):
    """An artefact violates its documented schema."""


def _need(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{where}: {message}")


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------

_PHASES = {"X", "i", "M", "B", "E"}


def validate_chrome_trace(data: Any) -> Dict[str, int]:
    """Validate a Chrome ``trace_event`` object (the JSON Object Format:
    a dict with ``traceEvents``; a bare event array is also accepted)."""
    if isinstance(data, list):
        events = data
    else:
        _need(isinstance(data, dict), "trace", "must be an object or array")
        _need("traceEvents" in data, "trace", "missing 'traceEvents'")
        events = data["traceEvents"]
        _need(isinstance(events, list), "traceEvents", "must be an array")
    counts = {"X": 0, "i": 0, "M": 0}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        _need(isinstance(event, dict), where, "must be an object")
        _need(isinstance(event.get("name"), str), where, "needs a string 'name'")
        phase = event.get("ph")
        _need(phase in _PHASES, where, f"unknown phase {phase!r}")
        _need("pid" in event and "tid" in event, where, "needs pid and tid")
        if phase in ("X", "i"):
            _need(
                isinstance(event.get("ts"), (int, float)) and event["ts"] >= 0,
                where, "needs a non-negative numeric 'ts'",
            )
        if phase == "X":
            _need(
                isinstance(event.get("dur"), (int, float)) and event["dur"] >= 0,
                where, "needs a non-negative numeric 'dur'",
            )
        if phase in counts:
            counts[phase] += 1
    _need(counts["X"] > 0, "trace", "contains no complete ('X') span events")
    return {"events": len(events), **{f"phase_{k}": v for k, v in counts.items()}}


def validate_span_jsonl(text: str) -> Dict[str, int]:
    """Validate a JSONL span export: ids unique, parents resolvable,
    every closed child nested inside its parent's interval."""
    rows: List[Dict[str, Any]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as error:
            raise SchemaError(f"line {lineno}: not valid JSON ({error})") from None
        where = f"line {lineno}"
        for key in ("id", "name", "pid", "tid", "start", "args"):
            _need(key in row, where, f"missing {key!r}")
        _need(isinstance(row["args"], dict), where, "'args' must be an object")
        rows.append(row)
    by_id = {}
    for row in rows:
        _need(row["id"] not in by_id, f"span {row['id']}", "duplicate id")
        by_id[row["id"]] = row
    tolerance = 1e-9
    for row in rows:
        parent_id = row.get("parent")
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        _need(parent is not None, f"span {row['id']}",
              f"parent {parent_id} not in export")
        if row.get("end") is not None and parent.get("end") is not None:
            _need(
                parent["start"] - tolerance <= row["start"]
                and row["end"] <= parent["end"] + tolerance,
                f"span {row['id']}",
                f"interval [{row['start']}, {row['end']}] escapes parent "
                f"[{parent['start']}, {parent['end']}]",
            )
    return {"spans": len(rows),
            "roots": sum(1 for r in rows if r.get("parent") is None)}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def validate_prometheus_text(text: str) -> Dict[str, int]:
    """Validate Prometheus text exposition: well-formed comment/sample
    lines, samples preceded by a TYPE, histogram series consistent."""
    typed: Dict[str, str] = {}
    samples = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        where = f"line {lineno}"
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            match = _PROM_TYPE.match(line)
            _need(match is not None, where, f"malformed TYPE line {line!r}")
            _need(match.group(1) not in typed, where,
                  f"duplicate TYPE for {match.group(1)!r}")
            typed[match.group(1)] = match.group(2)
            continue
        if line.startswith("# HELP "):
            _need(_PROM_HELP.match(line) is not None, where,
                  f"malformed HELP line {line!r}")
            continue
        if line.startswith("#"):
            continue
        match = _PROM_SAMPLE.match(line)
        _need(match is not None, where, f"malformed sample line {line!r}")
        name = match.group(1)
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        _need(
            name in typed or base in typed,
            where, f"sample {name!r} has no preceding # TYPE",
        )
        samples += 1
    _need(samples > 0, "metrics", "no samples present")
    return {"families": len(typed), "samples": samples}


def validate_metrics_snapshot(data: Any) -> Dict[str, int]:
    """Validate a ``repro-metrics-v1`` JSON snapshot."""
    from repro.obs.metrics import SCHEMA

    _need(isinstance(data, dict), "snapshot", "must be an object")
    _need(data.get("schema") == SCHEMA, "snapshot",
          f"schema must be {SCHEMA!r}, got {data.get('schema')!r}")
    metrics = data.get("metrics")
    _need(isinstance(metrics, list), "snapshot", "'metrics' must be an array")
    samples = 0
    for index, entry in enumerate(metrics):
        where = f"metrics[{index}]"
        _need(isinstance(entry, dict), where, "must be an object")
        _need(isinstance(entry.get("name"), str), where, "needs a string name")
        _need(entry.get("type") in ("counter", "gauge", "histogram"),
              where, f"unknown type {entry.get('type')!r}")
        _need(isinstance(entry.get("samples"), list), where,
              "'samples' must be an array")
        for sindex, sample in enumerate(entry["samples"]):
            swhere = f"{where}.samples[{sindex}]"
            _need(isinstance(sample.get("labels"), dict), swhere,
                  "needs a labels object")
            if entry["type"] == "histogram":
                _need(isinstance(sample.get("buckets"), dict), swhere,
                      "histogram sample needs buckets")
                _need("count" in sample and "sum" in sample, swhere,
                      "histogram sample needs sum and count")
            else:
                _need(isinstance(sample.get("value"), (int, float)), swhere,
                      "needs a numeric value")
            samples += 1
    return {"families": len(metrics), "samples": samples}


# ----------------------------------------------------------------------
# provenance certificates
# ----------------------------------------------------------------------

_PROVENANCE_STATUSES = ("exact", "conservative-bound", "timed-out")
_WITNESS_SPACES = ("token", "actor", "abstract")
_TIER_STATUSES = ("ok", "timeout", "cancelled", "error", "skipped")


def _need_fraction(value: Any, where: str, what: str,
                   nullable: bool = False) -> None:
    """``value`` must parse as an exact rational (or be null)."""
    if value is None and nullable:
        return
    _need(isinstance(value, str), where,
          f"{what} must be a string-encoded rational"
          + (" or null" if nullable else "") + f", got {value!r}")
    from fractions import Fraction

    try:
        Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(
            f"{where}: {what} {value!r} is not a valid rational"
        ) from None


def validate_provenance(data: Any) -> Dict[str, int]:
    """Validate a ``repro-provenance-v1`` certificate.

    Checks *structure* (the record can be loaded, shipped and rendered);
    the semantic certificate check — arcs close a cycle whose mean
    equals the claimed cycle time on the actual graph — is
    :func:`repro.obs.provenance.verify_witness`'s job and needs the
    graph.
    """
    _need(isinstance(data, dict), "provenance", "must be an object")
    _need(data.get("schema") == PROVENANCE_SCHEMA, "provenance",
          f"schema must be {PROVENANCE_SCHEMA!r}, got {data.get('schema')!r}")
    for key in ("graph", "fingerprint", "algorithm", "method"):
        _need(isinstance(data.get(key), str) and data[key], "provenance",
              f"needs a non-empty string {key!r}")
    _need(data.get("status") in _PROVENANCE_STATUSES, "provenance",
          f"status must be one of {_PROVENANCE_STATUSES}, "
          f"got {data.get('status')!r}")
    _need_fraction(data.get("cycle_time"), "provenance", "'cycle_time'",
                   nullable=True)

    steps = data.get("steps", [])
    _need(isinstance(steps, list), "provenance", "'steps' must be an array")
    for index, step in enumerate(steps):
        where = f"steps[{index}]"
        _need(isinstance(step, dict), where, "must be an object")
        _need(isinstance(step.get("kind"), str) and step["kind"], where,
              "needs a non-empty string 'kind'")
        for side in ("before", "after"):
            fp = step.get(f"{side}_fingerprint")
            _need(fp is None or isinstance(fp, str), where,
                  f"'{side}_fingerprint' must be a string or null")
            size = step.get(f"{side}_size", {})
            _need(isinstance(size, dict), where,
                  f"'{side}_size' must be an object")
            for key, value in size.items():
                _need(isinstance(value, int) and not isinstance(value, bool),
                      where, f"size {key!r} must be an integer, got {value!r}")

    witness = data.get("witness")
    arcs = 0
    if witness is not None:
        _need(isinstance(witness, dict), "witness", "must be an object or null")
        _need(witness.get("space") in _WITNESS_SPACES, "witness",
              f"space must be one of {_WITNESS_SPACES}, "
              f"got {witness.get('space')!r}")
        _need(isinstance(witness.get("source"), str), "witness",
              "needs a string 'source'")
        arc_list = witness.get("arcs")
        _need(isinstance(arc_list, list) and arc_list, "witness",
              "'arcs' must be a non-empty array")
        for index, arc in enumerate(arc_list):
            where = f"witness.arcs[{index}]"
            _need(isinstance(arc, dict), where, "must be an object")
            for key in ("source", "target"):
                _need(isinstance(arc.get(key), str) and arc[key], where,
                      f"needs a non-empty string {key!r}")
            _need_fraction(arc.get("weight"), where, "'weight'")
            _need(isinstance(arc.get("tokens"), int)
                  and not isinstance(arc["tokens"], bool)
                  and arc["tokens"] >= 0, where,
                  f"'tokens' must be a non-negative integer, "
                  f"got {arc.get('tokens')!r}")
        groups = witness.get("groups", {})
        _need(isinstance(groups, dict), "witness", "'groups' must be an object")
        for name, members in groups.items():
            _need(isinstance(members, list)
                  and all(isinstance(m, str) for m in members),
                  f"witness.groups[{name!r}]", "must be an array of strings")
        arcs = len(arc_list)
    else:
        _need(data.get("witness_unavailable") is None
              or isinstance(data["witness_unavailable"], str),
              "provenance", "'witness_unavailable' must be a string or null")

    tiers = data.get("tiers", [])
    _need(isinstance(tiers, list), "provenance", "'tiers' must be an array")
    for index, tier in enumerate(tiers):
        where = f"tiers[{index}]"
        _need(isinstance(tier, dict), where, "must be an object")
        _need(isinstance(tier.get("tier"), str) and tier["tier"], where,
              "needs a non-empty string 'tier'")
        _need(tier.get("status") in _TIER_STATUSES, where,
              f"status must be one of {_TIER_STATUSES}, "
              f"got {tier.get('status')!r}")
    if data.get("status") == "conservative-bound":
        _need(isinstance(data.get("bound_phase_count"), int), "provenance",
              "conservative-bound records need an integer 'bound_phase_count'")
        _need_fraction(data.get("bound_abstract_cycle_time"), "provenance",
                       "'bound_abstract_cycle_time'")
    kernel = data.get("kernel")
    _need(kernel is None or (isinstance(kernel, str) and kernel),
          "provenance", "'kernel' must be a non-empty string or null")
    return {"steps": len(steps), "witness_arcs": arcs, "tiers": len(tiers)}


# ----------------------------------------------------------------------
# SARIF logs (repro lint / repro devlint --format sarif)
# ----------------------------------------------------------------------

_SARIF_LEVELS = ("none", "note", "warning", "error")


def validate_sarif(data: Any) -> Dict[str, int]:
    """Validate a SARIF 2.1.0 log as emitted by ``repro lint`` /
    ``repro devlint --format sarif``: runs carry a tool driver with rule
    metadata, every result references a known rule with a valid level
    and message, and locations are well-formed (physical locations need
    a uri and a positive startLine; logical locations a name)."""
    _need(isinstance(data, dict), "sarif", "must be an object")
    _need(data.get("version") == "2.1.0", "sarif",
          f"version must be '2.1.0', got {data.get('version')!r}")
    runs = data.get("runs")
    _need(isinstance(runs, list) and runs, "sarif",
          "'runs' must be a non-empty array")
    total_results = 0
    total_rules = 0
    for rindex, run in enumerate(runs):
        where = f"runs[{rindex}]"
        _need(isinstance(run, dict), where, "must be an object")
        driver = run.get("tool", {}).get("driver") \
            if isinstance(run.get("tool"), dict) else None
        _need(isinstance(driver, dict), where, "needs tool.driver")
        _need(isinstance(driver.get("name"), str) and driver["name"],
              f"{where}.tool.driver", "needs a non-empty 'name'")
        rules = driver.get("rules", [])
        _need(isinstance(rules, list), f"{where}.tool.driver",
              "'rules' must be an array")
        rule_ids = set()
        for index, rule in enumerate(rules):
            rwhere = f"{where}.tool.driver.rules[{index}]"
            _need(isinstance(rule, dict), rwhere, "must be an object")
            _need(isinstance(rule.get("id"), str) and rule["id"], rwhere,
                  "needs a non-empty string 'id'")
            _need(rule["id"] not in rule_ids, rwhere,
                  f"duplicate rule id {rule['id']!r}")
            rule_ids.add(rule["id"])
        total_rules += len(rule_ids)
        results = run.get("results", [])
        _need(isinstance(results, list), where, "'results' must be an array")
        for index, result in enumerate(results):
            rwhere = f"{where}.results[{index}]"
            _need(isinstance(result, dict), rwhere, "must be an object")
            _need(isinstance(result.get("ruleId"), str) and result["ruleId"],
                  rwhere, "needs a non-empty string 'ruleId'")
            if rule_ids:
                _need(result["ruleId"] in rule_ids, rwhere,
                      f"ruleId {result['ruleId']!r} not in the driver's rules")
            _need(result.get("level") in _SARIF_LEVELS, rwhere,
                  f"level must be one of {_SARIF_LEVELS}, "
                  f"got {result.get('level')!r}")
            message = result.get("message")
            _need(isinstance(message, dict)
                  and isinstance(message.get("text"), str)
                  and message["text"], rwhere,
                  "needs a message object with non-empty 'text'")
            ri = result.get("ruleIndex")
            if ri is not None:
                _need(isinstance(ri, int) and 0 <= ri < len(rules), rwhere,
                      f"ruleIndex {ri!r} out of range")
                _need(rules[ri]["id"] == result["ruleId"], rwhere,
                      "ruleIndex does not point at ruleId")
            for lindex, location in enumerate(result.get("locations", [])):
                lwhere = f"{rwhere}.locations[{lindex}]"
                _need(isinstance(location, dict), lwhere, "must be an object")
                physical = location.get("physicalLocation")
                logical = location.get("logicalLocations")
                _need(physical is not None or logical is not None, lwhere,
                      "needs a physicalLocation or logicalLocations")
                if physical is not None:
                    _need(isinstance(physical, dict), lwhere,
                          "'physicalLocation' must be an object")
                    artifact = physical.get("artifactLocation", {})
                    _need(isinstance(artifact, dict)
                          and isinstance(artifact.get("uri"), str)
                          and artifact["uri"], lwhere,
                          "physicalLocation needs artifactLocation.uri")
                    region = physical.get("region", {})
                    _need(isinstance(region, dict), lwhere,
                          "'region' must be an object")
                    start = region.get("startLine")
                    _need(isinstance(start, int) and start >= 1, lwhere,
                          f"region.startLine must be a positive integer, "
                          f"got {start!r}")
                if logical is not None:
                    _need(isinstance(logical, list) and logical, lwhere,
                          "'logicalLocations' must be a non-empty array")
                    for entry in logical:
                        _need(isinstance(entry, dict)
                              and isinstance(entry.get("name"), str)
                              and entry["name"], lwhere,
                              "logical locations need a non-empty 'name'")
        total_results += len(results)
    return {"runs": len(runs), "rules": total_rules, "results": total_results}


# ----------------------------------------------------------------------
# durable result store (repro.analysis.store)
# ----------------------------------------------------------------------

def validate_store_record(raw: bytes,
                          expected_digest: str = None) -> Dict[str, int]:
    """Validate one binary ``repro-store-v1`` record file.

    Deliberately re-implements the store's verification (magic line,
    JSON header with a complete key echo, payload length, SHA-256
    checksum, content-address consistency) so CI checks records with
    code that shares nothing with the writer.  ``expected_digest`` is
    the record's file stem; when given, the header's key must hash to
    it (a renamed record is a schema violation).
    """
    import hashlib

    magic = (STORE_SCHEMA + "\n").encode("ascii")
    _need(raw.startswith(magic), "record",
          f"must start with the {STORE_SCHEMA!r} magic line")
    rest = raw[len(magic):]
    newline = rest.find(b"\n")
    _need(newline >= 0, "record", "header line is truncated")
    try:
        header = json.loads(rest[:newline])
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise SchemaError("record: header is not valid JSON") from None
    _need(isinstance(header, dict), "record.header", "must be an object")
    for key in ("fingerprint", "analysis", "params"):
        _need(isinstance(header.get(key), str) and header[key],
              "record.header", f"needs a non-empty string {key!r}")
    try:
        params = json.loads(header["params"])
    except json.JSONDecodeError:
        raise SchemaError(
            "record.header: 'params' must itself be valid JSON"
        ) from None
    _need(isinstance(params, dict), "record.header",
          "'params' must encode an object")
    length = header.get("payload_len")
    _need(isinstance(length, int) and not isinstance(length, bool)
          and length >= 0, "record.header",
          f"'payload_len' must be a non-negative integer, got {length!r}")
    checksum = header.get("checksum")
    _need(isinstance(checksum, str) and len(checksum) == 64,
          "record.header", "'checksum' must be a 64-char SHA-256 hex digest")
    payload = rest[newline + 1:]
    _need(len(payload) == length, "record",
          f"payload is {len(payload)} bytes, header claims {length} (torn write)")
    _need(hashlib.sha256(payload).hexdigest() == checksum, "record",
          "payload checksum mismatch (corrupt record)")
    if expected_digest is not None:
        blob = "\x00".join(
            (header["fingerprint"], header["analysis"], header["params"])
        )
        _need(hashlib.sha256(blob.encode("utf-8")).hexdigest()
              == expected_digest, "record",
              "header key does not hash to the record's file name "
              "(renamed or aliased record)")
    return {"payload_bytes": length, "header_keys": len(header)}


def validate_store_verify(data: Any) -> Dict[str, int]:
    """Validate a ``repro-store-verify-v1`` report (``repro cache verify
    --json``), including its internal arithmetic: ``undetected_corrupt``
    must equal ``len(corrupt) - quarantined_now``."""
    _need(isinstance(data, dict), "store-verify", "must be an object")
    _need(data.get("schema") == STORE_VERIFY_SCHEMA, "store-verify",
          f"schema must be {STORE_VERIFY_SCHEMA!r}, got {data.get('schema')!r}")
    _need(isinstance(data.get("root"), str) and data["root"], "store-verify",
          "needs a non-empty string 'root'")
    for key in ("records", "valid", "quarantined_now", "quarantined_records",
                "undetected_corrupt", "tmp_files", "bytes"):
        value = data.get(key)
        _need(isinstance(value, int) and not isinstance(value, bool)
              and value >= 0, "store-verify",
              f"{key!r} must be a non-negative integer, got {value!r}")
    corrupt = data.get("corrupt")
    _need(isinstance(corrupt, list), "store-verify",
          "'corrupt' must be an array")
    for index, entry in enumerate(corrupt):
        where = f"store-verify.corrupt[{index}]"
        _need(isinstance(entry, dict), where, "must be an object")
        for key in ("path", "reason"):
            _need(isinstance(entry.get(key), str) and entry[key], where,
                  f"needs a non-empty string {key!r}")
    _need(data["valid"] + len(corrupt) == data["records"], "store-verify",
          f"valid ({data['valid']}) + corrupt ({len(corrupt)}) must equal "
          f"records ({data['records']})")
    _need(data["undetected_corrupt"]
          == len(corrupt) - data["quarantined_now"], "store-verify",
          "'undetected_corrupt' must equal len(corrupt) - quarantined_now")
    return {"records": data["records"], "corrupt": len(corrupt),
            "undetected_corrupt": data["undetected_corrupt"]}


def validate_store_stats(data: Any) -> Dict[str, int]:
    """Validate a ``repro-store-stats-v1`` census (``repro cache stats
    --json``)."""
    _need(isinstance(data, dict), "store-stats", "must be an object")
    _need(data.get("schema") == STORE_STATS_SCHEMA, "store-stats",
          f"schema must be {STORE_STATS_SCHEMA!r}, got {data.get('schema')!r}")
    _need(isinstance(data.get("root"), str) and data["root"], "store-stats",
          "needs a non-empty string 'root'")
    for key in ("hits", "misses", "puts", "put_skips", "put_errors",
                "quarantined", "evictions", "read_errors", "records",
                "bytes", "quarantined_records", "tmp_files", "max_bytes"):
        value = data.get(key)
        _need(isinstance(value, int) and not isinstance(value, bool)
              and value >= 0, "store-stats",
              f"{key!r} must be a non-negative integer, got {value!r}")
    rate = data.get("hit_rate")
    _need(isinstance(rate, (int, float)) and not isinstance(rate, bool)
          and 0.0 <= rate <= 1.0, "store-stats",
          f"'hit_rate' must be in [0, 1], got {rate!r}")
    return {"records": data["records"], "bytes": data["bytes"]}


# ----------------------------------------------------------------------
# benchmark baselines
# ----------------------------------------------------------------------

def validate_bench(data: Any) -> Dict[str, int]:
    """Validate a ``repro-bench-v1`` baseline: a ``suite`` name plus a
    flat list of ``{name, unit, value, baseline, meta}`` entries."""
    _need(isinstance(data, dict), "bench", "must be an object")
    _need(data.get("schema") == BENCH_SCHEMA, "bench",
          f"schema must be {BENCH_SCHEMA!r}, got {data.get('schema')!r}")
    _need(isinstance(data.get("suite"), str) and data["suite"], "bench",
          "needs a non-empty 'suite' string")
    host = data.get("host")
    if host is not None:
        _need(isinstance(host, dict), "bench", "'host' must be an object")
        for key in ("platform", "python", "git_sha"):
            _need(key in host, "bench.host", f"missing {key!r}")
            _need(host[key] is None or isinstance(host[key], str),
                  "bench.host", f"{key!r} must be a string or null")
    entries = data.get("entries")
    _need(isinstance(entries, list) and entries, "bench",
          "'entries' must be a non-empty array")
    names = set()
    for index, entry in enumerate(entries):
        where = f"entries[{index}]"
        _need(isinstance(entry, dict), where, "must be an object")
        missing = [k for k in ("name", "unit", "value", "baseline", "meta")
                   if k not in entry]
        _need(not missing, where, f"missing keys {missing}")
        _need(isinstance(entry["name"], str) and entry["name"], where,
              "'name' must be a non-empty string")
        _need(entry["name"] not in names, where,
              f"duplicate entry name {entry['name']!r}")
        names.add(entry["name"])
        _need(isinstance(entry["unit"], str) and entry["unit"], where,
              "'unit' must be a non-empty string")
        _need(isinstance(entry["value"], (int, float))
              and not isinstance(entry["value"], bool), where,
              "'value' must be a number")
        _need(entry["baseline"] is None
              or (isinstance(entry["baseline"], (int, float))
                  and not isinstance(entry["baseline"], bool)), where,
              "'baseline' must be a number or null")
        _need(isinstance(entry["meta"], dict), where, "'meta' must be an object")
    return {"entries": len(entries)}


def validate_history(text: str) -> Dict[str, int]:
    """Validate a benchmark history journal (``history.jsonl``).

    Stricter than per-line :func:`validate_bench`: the journal is the
    regression sentinel's feed, so every line additionally needs a
    ``host`` stamp with non-null ``platform``/``python`` (verdicts are
    computed per host — an unstamped line poisons every series in its
    suite), and within each suite the ``git_sha`` sequence must be
    *contiguous*: once a suite's runs move to a new commit, an earlier
    commit must not reappear (that is interleaved or rewritten history
    the journal order cannot date).  Unknown shas (``null``) are
    exempt — a non-git environment still gets a usable journal.
    """
    runs = 0
    seen_shas: Dict[str, set] = {}
    current_sha: Dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as error:
            raise SchemaError(f"{where}: not valid JSON ({error})") from None
        try:
            validate_bench(doc)
        except SchemaError as error:
            raise SchemaError(f"{where}: {error}") from None
        host = doc.get("host")
        _need(isinstance(host, dict), where,
              "history entries need a host stamp (see bench_common.host_stamp)")
        for key in ("platform", "python"):
            _need(isinstance(host.get(key), str) and host[key], where,
                  f"host stamp needs a non-empty {key!r} "
                  "(verdicts are computed per host)")
        suite = doc["suite"]
        sha = host.get("git_sha")
        if sha is not None:
            if current_sha.get(suite) != sha:
                _need(sha not in seen_shas.setdefault(suite, set()), where,
                      f"suite {suite!r}: git_sha {sha[:12]} reappears after "
                      "a different commit (non-contiguous history)")
                seen_shas[suite].add(sha)
                current_sha[suite] = sha
        runs += 1
    return {"runs": runs}


# ----------------------------------------------------------------------
# trace analytics (repro obs analyze / flame / diff / regress)
# ----------------------------------------------------------------------

def _need_number(value: Any, where: str, what: str,
                 minimum: float = None) -> None:
    _need(isinstance(value, (int, float)) and not isinstance(value, bool),
          where, f"{what} must be a number, got {value!r}")
    if minimum is not None:
        _need(value >= minimum, where,
              f"{what} must be >= {minimum}, got {value!r}")


def validate_trace_summary(data: Any) -> Dict[str, int]:
    """Validate a ``repro-trace-summary-v1`` analytics document.

    Beyond shape, this enforces the structural invariant the analyzer
    guarantees: self times decompose total time, so the stage self-time
    sum may not exceed the summed root durations (``wall_seconds``),
    and the critical path is a root-to-leaf chain — depths consecutive
    from 0 and each hop no longer than its parent.
    """
    _need(isinstance(data, dict), "trace-summary", "must be an object")
    _need(data.get("schema") == TRACE_SUMMARY_SCHEMA, "trace-summary",
          f"schema must be {TRACE_SUMMARY_SCHEMA!r}, got {data.get('schema')!r}")
    sources = data.get("sources")
    _need(isinstance(sources, list) and sources
          and all(isinstance(s, str) for s in sources),
          "trace-summary", "'sources' must be a non-empty array of strings")
    for key in ("spans", "roots", "processes"):
        value = data.get(key)
        _need(isinstance(value, int) and not isinstance(value, bool)
              and value >= 0, "trace-summary",
              f"{key!r} must be a non-negative integer, got {value!r}")
    _need_number(data.get("wall_seconds"), "trace-summary",
                 "'wall_seconds'", minimum=0.0)

    stages = data.get("stages")
    _need(isinstance(stages, list), "trace-summary",
          "'stages' must be an array")
    self_sum = 0.0
    for index, row in enumerate(stages):
        where = f"trace-summary.stages[{index}]"
        _need(isinstance(row, dict), where, "must be an object")
        _need(isinstance(row.get("stage"), str) and row["stage"], where,
              "needs a non-empty string 'stage'")
        for key in ("graph", "kernel"):
            _need(row.get(key) is None or isinstance(row[key], str), where,
                  f"{key!r} must be a string or null")
        _need(isinstance(row.get("count"), int) and row["count"] >= 1,
              where, f"'count' must be a positive integer, got {row.get('count')!r}")
        for key in ("total_seconds", "self_seconds", "p50_seconds",
                    "p90_seconds", "p99_seconds", "max_seconds",
                    "cpu_seconds", "mem_peak_bytes"):
            _need_number(row.get(key), where, repr(key), minimum=0.0)
        _need(row["self_seconds"] <= row["total_seconds"] + 1e-9, where,
              "self time cannot exceed total time")
        _need(row["p50_seconds"] <= row["p90_seconds"] + 1e-9
              and row["p90_seconds"] <= row["p99_seconds"] + 1e-9
              and row["p99_seconds"] <= row["max_seconds"] + 1e-9, where,
              "percentiles must be non-decreasing (p50 <= p90 <= p99 <= max)")
        self_sum += row["self_seconds"]
    _need(self_sum <= data["wall_seconds"] + 1e-6, "trace-summary",
          f"stage self-time sum {self_sum!r} exceeds the summed root "
          f"durations {data['wall_seconds']!r}: self times must "
          "partition the span forest")

    lanes = data.get("lanes", [])
    _need(isinstance(lanes, list), "trace-summary", "'lanes' must be an array")
    for index, lane in enumerate(lanes):
        where = f"trace-summary.lanes[{index}]"
        _need(isinstance(lane, dict), where, "must be an object")
        _need(isinstance(lane.get("pid"), int), where,
              "needs an integer 'pid'")
        _need(isinstance(lane.get("spans"), int) and lane["spans"] >= 1,
              where, "'spans' must be a positive integer")
        _need_number(lane.get("self_seconds"), where,
                     "'self_seconds'", minimum=0.0)

    path = data.get("critical_path")
    _need(isinstance(path, list), "trace-summary",
          "'critical_path' must be an array")
    previous = None
    for index, hop in enumerate(path):
        where = f"trace-summary.critical_path[{index}]"
        _need(isinstance(hop, dict), where, "must be an object")
        _need(isinstance(hop.get("name"), str) and hop["name"], where,
              "needs a non-empty string 'name'")
        _need(hop.get("depth") == index, where,
              f"depths must be consecutive from 0, got {hop.get('depth')!r}")
        _need_number(hop.get("duration_seconds"), where,
                     "'duration_seconds'", minimum=0.0)
        _need_number(hop.get("self_seconds"), where,
                     "'self_seconds'", minimum=0.0)
        if previous is not None:
            _need(hop["duration_seconds"] <= previous + 1e-9, where,
                  "a child hop cannot outlast its parent")
        previous = hop["duration_seconds"]
    return {"stages": len(stages), "spans": data["spans"],
            "critical_path": len(path)}


_DIFF_DIRECTIONS = ("regressed", "improved", "unchanged", "added", "removed")


def validate_trace_diff(data: Any) -> Dict[str, int]:
    """Validate a ``repro-trace-diff-v1`` A/B diff document."""
    _need(isinstance(data, dict), "trace-diff", "must be an object")
    _need(data.get("schema") == TRACE_DIFF_SCHEMA, "trace-diff",
          f"schema must be {TRACE_DIFF_SCHEMA!r}, got {data.get('schema')!r}")
    _need(data.get("kind") in ("trace-summary", "metrics"), "trace-diff",
          f"kind must be 'trace-summary' or 'metrics', got {data.get('kind')!r}")
    for key in ("a", "b"):
        _need(isinstance(data.get(key), str) and data[key], "trace-diff",
              f"needs a non-empty string {key!r} label")
    _need_number(data.get("noise_floor"), "trace-diff",
                 "'noise_floor'", minimum=0.0)
    rows = data.get("rows")
    _need(isinstance(rows, list), "trace-diff", "'rows' must be an array")
    for index, row in enumerate(rows):
        where = f"trace-diff.rows[{index}]"
        _need(isinstance(row, dict), where, "must be an object")
        _need(isinstance(row.get("key"), str) and row["key"], where,
              "needs a non-empty string 'key'")
        direction = row.get("direction")
        _need(direction in _DIFF_DIRECTIONS, where,
              f"direction must be one of {_DIFF_DIRECTIONS}, got {direction!r}")
        _need(direction != "added" or row.get("a") is None, where,
              "an 'added' row cannot have an 'a' value")
        _need(direction != "removed" or row.get("b") is None, where,
              "a 'removed' row cannot have a 'b' value")
        if direction not in ("added", "removed"):
            for key in ("a", "b", "delta"):
                _need_number(row.get(key), where, repr(key))
        if row.get("noise_floored"):
            _need(row.get("relative") == 0.0, where,
                  "a noise-floored row must publish relative == 0")
            _need_number(row.get("measured_relative"), where,
                         "'measured_relative'")
    counts = data.get("counts")
    _need(isinstance(counts, dict), "trace-diff", "'counts' must be an object")
    for direction in _DIFF_DIRECTIONS:
        _need(isinstance(counts.get(direction), int), "trace-diff.counts",
              f"missing integer count for {direction!r}")
        _need(counts[direction]
              == sum(1 for r in rows if r.get("direction") == direction),
              "trace-diff.counts",
              f"count for {direction!r} does not match the rows")
    return {"rows": len(rows), "regressed": counts["regressed"]}


_REGRESS_VERDICTS = ("ok", "regressed", "improved", "noisy",
                     "insufficient-data")


def validate_regress(data: Any) -> Dict[str, int]:
    """Validate a ``repro-regress-v1`` sentinel verdict document,
    including its internal consistency: counts match the results, and
    ``regressed`` lists exactly the regressed ``suite/entry`` pairs."""
    _need(isinstance(data, dict), "regress", "must be an object")
    _need(data.get("schema") == REGRESS_SCHEMA, "regress",
          f"schema must be {REGRESS_SCHEMA!r}, got {data.get('schema')!r}")
    _need(isinstance(data.get("history"), str) and data["history"], "regress",
          "needs a non-empty string 'history'")
    params = data.get("params")
    _need(isinstance(params, dict), "regress", "'params' must be an object")
    for key in ("window", "min_samples"):
        _need(isinstance(params.get(key), int) and params[key] >= 1,
              "regress.params", f"{key!r} must be a positive integer")
    for key in ("threshold", "noise_rel", "mad_mult"):
        _need_number(params.get(key), "regress.params", repr(key), minimum=0.0)
    results = data.get("results")
    _need(isinstance(results, list), "regress", "'results' must be an array")
    regressed = []
    for index, result in enumerate(results):
        where = f"regress.results[{index}]"
        _need(isinstance(result, dict), where, "must be an object")
        for key in ("suite", "entry", "unit"):
            _need(isinstance(result.get(key), str) and result[key], where,
                  f"needs a non-empty string {key!r}")
        _need_number(result.get("value"), where, "'value'")
        verdict = result.get("verdict")
        _need(verdict in _REGRESS_VERDICTS, where,
              f"verdict must be one of {_REGRESS_VERDICTS}, got {verdict!r}")
        _need(verdict == "ok" or isinstance(result.get("reason"), str),
              where, f"a {verdict!r} verdict needs a string 'reason'")
        _need(result.get("direction") in ("higher-is-better",
                                          "lower-is-better"), where,
              f"bad direction {result.get('direction')!r}")
        _need(isinstance(result.get("samples"), int)
              and result["samples"] >= 0, where,
              "'samples' must be a non-negative integer")
        if verdict == "regressed":
            regressed.append(f"{result['suite']}/{result['entry']}")
    _need(data.get("entries") == len(results), "regress",
          f"'entries' ({data.get('entries')!r}) must equal the number of "
          f"results ({len(results)})")
    counts = data.get("counts")
    _need(isinstance(counts, dict), "regress", "'counts' must be an object")
    for verdict in _REGRESS_VERDICTS:
        _need(isinstance(counts.get(verdict), int), "regress.counts",
              f"missing integer count for {verdict!r}")
        _need(counts[verdict]
              == sum(1 for r in results if r.get("verdict") == verdict),
              "regress.counts", f"count for {verdict!r} does not match results")
    _need(sorted(data.get("regressed", [])) == sorted(regressed), "regress",
          "'regressed' must list exactly the regressed suite/entry pairs")
    return {"entries": len(results), "regressed": len(regressed)}


_COLLAPSED_LINE = re.compile(r"^(?P<stack>[^ ]+(?:;[^ ]+)*) (?P<count>\d+)$")


def validate_collapsed(text: str) -> Dict[str, int]:
    """Validate a collapsed-stack flamegraph file: every line is
    ``frame;frame;... <positive int>`` (Brendan Gregg's format, the
    input contract of ``flamegraph.pl`` and speedscope), no duplicate
    stacks."""
    stacks = 0
    frames = 0
    seen = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        where = f"line {lineno}"
        match = _COLLAPSED_LINE.match(line)
        _need(match is not None, where,
              f"not a collapsed-stack line {line!r} "
              "(expected 'a;b;c <integer>')")
        _need(int(match.group("count")) > 0, where,
              "sample count must be positive")
        stack = match.group("stack")
        _need(stack not in seen, where, f"duplicate stack {stack!r}")
        seen.add(stack)
        stacks += 1
        frames += stack.count(";") + 1
    _need(stacks > 0, "collapsed", "no stacks present")
    return {"stacks": stacks, "frames": frames}


# ----------------------------------------------------------------------
# CLI driver (used by CI to gate the emitted artefacts)
# ----------------------------------------------------------------------

def check_file(path: Union[str, pathlib.Path]) -> Dict[str, int]:
    """Validate one artefact, inferring its kind from name/content."""
    path = str(path)
    name = path.rsplit("/", 1)[-1]
    if name.endswith(".rec"):
        with open(path, "rb") as handle:
            raw = handle.read()
        stem = name[: -len(".rec")]
        # Quarantined records carry a ".reason" suffix after the digest
        # and are expected to be corrupt — only live records (a bare
        # 64-hex stem) must round-trip their content address.
        digest = stem if re.fullmatch(r"[0-9a-f]{64}", stem) else None
        return validate_store_record(raw, expected_digest=digest)
    with open(path) as handle:
        text = handle.read()
    if name.endswith((".prom", ".txt")):
        return validate_prometheus_text(text)
    if name.endswith((".folded", ".collapsed")):
        return validate_collapsed(text)
    if name.endswith(".jsonl"):
        head = next((line for line in text.splitlines() if line.strip()), "")
        try:
            first = json.loads(head)
        except json.JSONDecodeError:
            first = None
        if isinstance(first, dict) and first.get("schema") == BENCH_SCHEMA:
            # A bench history: one repro-bench-v1 document per line,
            # plus the journal-level hygiene rules (host stamps,
            # contiguous per-suite git_sha runs).
            return validate_history(text)
        return validate_span_jsonl(text)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise SchemaError(f"{path}: not valid JSON ({error})") from None
    if isinstance(data, dict):
        if data.get("version") == "2.1.0" and "runs" in data:
            return validate_sarif(data)
        if data.get("schema") == BENCH_SCHEMA:
            return validate_bench(data)
        if data.get("schema") == PROVENANCE_SCHEMA:
            return validate_provenance(data)
        if data.get("schema") == STORE_VERIFY_SCHEMA:
            return validate_store_verify(data)
        if data.get("schema") == STORE_STATS_SCHEMA:
            return validate_store_stats(data)
        if data.get("schema") == TRACE_SUMMARY_SCHEMA:
            return validate_trace_summary(data)
        if data.get("schema") == TRACE_DIFF_SCHEMA:
            return validate_trace_diff(data)
        if data.get("schema") == REGRESS_SCHEMA:
            return validate_regress(data)
        if "metrics" in data and "schema" in data:
            return validate_metrics_snapshot(data)
        if "traceEvents" in data:
            return validate_chrome_trace(data)
    if isinstance(data, list):
        return validate_chrome_trace(data)
    raise SchemaError(f"{path}: unrecognised artefact shape")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: python -m repro.obs.check ARTEFACT...", file=sys.stderr)
        return 2
    status = 0
    for path in argv:
        try:
            summary = check_file(path)
        except (SchemaError, OSError) as error:
            print(f"FAIL {path}: {error}", file=sys.stderr)
            status = 1
            continue
        detail = ", ".join(f"{k}={v}" for k, v in summary.items())
        print(f"ok   {path}: {detail}")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
