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
success: field tables (one kind per field) say the shape, and code only
the invariants a table cannot.  Each tag is imported from the module
that writes it; :data:`VALIDATORS` maps JSON document tags to their
validators.  CI runs these over the artefacts of the batch smoke via
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
from fractions import Fraction
from typing import Any, Callable, Dict, Iterator, List, Tuple, Union

from repro.analysis.store import STORE_SCHEMA, STORE_STATS_SCHEMA, VerifyReport
from repro.obs.analyze import TRACE_SUMMARY_SCHEMA
from repro.obs.diff import TRACE_DIFF_SCHEMA
from repro.obs.metrics import SCHEMA as METRICS_SCHEMA
from repro.obs.provenance import PROVENANCE_SCHEMA
from repro.obs.provenance import WITNESS_SPACES as _WITNESS_SPACES
from repro.obs.regress import REGRESS_SCHEMA

__all__ = [
    "SchemaError",
    "VALIDATORS",
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

#: The one tag owned here: its writer, ``benchmarks/bench_common.py``,
#: lives outside the package and imports it from this module.
BENCH_SCHEMA = "repro-bench-v1"
STORE_VERIFY_SCHEMA = VerifyReport.SCHEMA

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
# field kinds and the table reader
# ----------------------------------------------------------------------

def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _kind(test: Callable[[Any], bool], message: str) -> Callable:
    """A field kind: ``(key, value)`` maps to ``None`` when ``test(value)``
    holds, else to ``message`` with ``key`` and ``value`` filled in."""
    return lambda key, value: (
        None if test(value) else message.format(key=key, value=value))


def _is_rational(value: Any) -> bool:
    try:
        return isinstance(value, str) and Fraction(value) is not None
    except (ValueError, ZeroDivisionError):
        return False


STR = _kind(lambda v: isinstance(v, str) and v != "",
            "needs a non-empty string {key!r}")
STR_OR_NULL = _kind(lambda v: v is None or isinstance(v, str),
                    "{key!r} must be a string or null")
NAT = _kind(lambda v: _is_int(v) and v >= 0,
            "{key!r} must be a non-negative integer, got {value!r}")
POS = _kind(lambda v: _is_int(v) and v >= 1,
            "{key!r} must be a positive integer, got {value!r}")
NUM = _kind(_is_number, "{key!r} must be a number, got {value!r}")
NUM_OR_NULL = _kind(lambda v: v is None or _is_number(v),
                    "{key!r} must be a number or null, got {value!r}")
NON_NEG = _kind(lambda v: _is_number(v) and v >= 0,
                "{key!r} must be >= 0, got {value!r}")
RATIO = _kind(lambda v: _is_number(v) and 0 <= v <= 1,
              "{key!r} must be in [0, 1], got {value!r}")
OBJ = _kind(lambda v: isinstance(v, dict), "{key!r} must be an object")
ARR = _kind(lambda v: isinstance(v, list), "{key!r} must be an array")
RATIONAL = _kind(_is_rational, "{key!r} {value!r} is not a valid rational: "
                 "it must be a string-encoded rational")
RATIONAL_OR_NULL = _kind(lambda v: v is None or _is_rational(v),
                         "{key!r} {value!r} is not a valid rational: it must "
                         "be a string-encoded rational or null")


def _fields(doc: Any, where: str, table: Dict[str, Any],
            schema: str = None) -> None:
    """Check that ``doc`` is an object, tagged ``schema`` when one is
    given, that spells out every field of ``table`` (null is a value,
    absence is not) with its kind: one of the kinds above, or a tuple of
    the allowed values."""
    _need(isinstance(doc, dict), where, "must be an object")
    if schema is not None:
        _need(doc.get("schema") == schema, where,
              f"schema must be {schema!r}, got {doc.get('schema')!r}")
    for key, kind in table.items():
        _need(key in doc, where, f"missing {key!r}")
        value = doc[key]
        if isinstance(kind, tuple):
            _need(value in kind, where,
                  f"{key} must be one of {kind}, got {value!r}")
        else:
            problem = kind(key, value)
            _need(problem is None, where, problem)


def _rows(items: List[Any], where: str,
          table: Dict[str, Any]) -> List[Tuple[str, Any]]:
    """Check every element of the array ``items`` against ``table``, and
    return ``(location, element)`` pairs for the checks a table cannot
    state."""
    located = [(f"{where}[{index}]", item) for index, item in enumerate(items)]
    for at, item in located:
        _fields(item, at, table)
    return located


def _json_lines(text: str) -> Iterator[Tuple[str, Any]]:
    """``(location, document)`` for every non-blank line of a JSONL text."""
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                document = json.loads(line)
            except json.JSONDecodeError as error:
                raise SchemaError(
                    f"line {lineno}: not valid JSON ({error})") from None
            yield f"line {lineno}", document


def _counts_match(doc: Dict[str, Any], where: str, rows: List[Any],
                  field: str, values: Tuple[str, ...]) -> None:
    """``doc["counts"]`` holds, per value, how many ``rows`` carry it in
    ``field``."""
    at = f"{where}.counts"
    for value in values:
        count = doc["counts"].get(value)
        _need(isinstance(count, int), at,
              f"missing integer count for {value!r}")
        _need(count == sum(1 for row in rows if row.get(field) == value), at,
              f"count for {value!r} does not match the rows")


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------

_EVENT = {"name": STR, "ph": ("X", "i", "M", "B", "E"),
          "pid": NAT, "tid": NAT}
#: Timestamps each Chrome event phase must carry.
_TIMED = {"X": {"ts": NON_NEG, "dur": NON_NEG}, "i": {"ts": NON_NEG}}


def validate_chrome_trace(data: Any) -> Dict[str, int]:
    """Validate a Chrome ``trace_event`` object (the JSON Object Format:
    a dict with ``traceEvents``; a bare event array is also accepted)."""
    events = data
    if not isinstance(data, list):
        _fields(data, "trace", {"traceEvents": ARR})
        events = data["traceEvents"]
    counts = {"X": 0, "i": 0, "M": 0}
    for where, event in _rows(events, "traceEvents", _EVENT):
        _fields(event, where, _TIMED.get(event["ph"], {}))
        if event["ph"] in counts:
            counts[event["ph"]] += 1
    _need(counts["X"] > 0, "trace", "contains no complete ('X') span events")
    return {"events": len(events), **{f"phase_{k}": v for k, v in counts.items()}}


def validate_span_jsonl(text: str) -> Dict[str, int]:
    """Validate a JSONL span export: ids unique, parents resolvable,
    every closed child nested inside its parent's interval."""
    rows: List[Dict[str, Any]] = []
    for where, row in _json_lines(text):
        _fields(row, where, {"args": OBJ})
        for key in ("id", "name", "pid", "tid", "start"):
            _need(key in row, where, f"missing {key!r}")
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


_METRIC = {"name": STR, "type": ("counter", "gauge", "histogram"),
           "samples": ARR}
_HISTOGRAM_SAMPLE = {"labels": OBJ, "buckets": OBJ, "count": NUM, "sum": NUM}


def validate_metrics_snapshot(data: Any) -> Dict[str, int]:
    """Validate a ``repro-metrics-v1`` JSON snapshot."""
    _fields(data, "snapshot", {"metrics": ARR}, METRICS_SCHEMA)
    samples = 0
    for where, entry in _rows(data["metrics"], "metrics", _METRIC):
        histogram = entry["type"] == "histogram"
        for swhere, sample in _rows(
                entry["samples"], f"{where}.samples",
                _HISTOGRAM_SAMPLE if histogram else {"labels": OBJ}):
            _need(histogram or isinstance(sample.get("value"), (int, float)),
                  swhere, "needs a numeric value")
            samples += 1
    return {"families": len(data["metrics"]), "samples": samples}


# ----------------------------------------------------------------------
# provenance certificates
# ----------------------------------------------------------------------

_PROVENANCE = {
    "graph": STR, "fingerprint": STR, "algorithm": STR, "method": STR,
    "status": ("exact", "conservative-bound", "timed-out"),
    "cycle_time": RATIONAL_OR_NULL, "steps": ARR, "tiers": ARR,
    "witness_unavailable": STR_OR_NULL,
}
_STEP = {"kind": STR, "before_fingerprint": STR_OR_NULL,
         "after_fingerprint": STR_OR_NULL, "before_size": OBJ,
         "after_size": OBJ}
_WITNESS = {"space": _WITNESS_SPACES, "source": STR, "arcs": ARR,
            "groups": OBJ}
_ARC = {"source": STR, "target": STR, "weight": RATIONAL, "tokens": NAT}
_TIER = {"tier": STR,
         "status": ("ok", "timeout", "cancelled", "error", "skipped")}


def validate_provenance(data: Any) -> Dict[str, int]:
    """Validate a ``repro-provenance-v1`` certificate.

    Checks *structure* (the record can be loaded, shipped and rendered);
    the semantic certificate check — arcs close a cycle whose mean
    equals the claimed cycle time on the actual graph — is
    :func:`repro.obs.provenance.verify_witness`'s job and needs the
    graph.
    """
    _fields(data, "provenance", _PROVENANCE, PROVENANCE_SCHEMA)
    for where, step in _rows(data["steps"], "steps", _STEP):
        for key, value in (*step["before_size"].items(),
                           *step["after_size"].items()):
            _need(_is_int(value), where,
                  f"size {key!r} must be an integer, got {value!r}")

    witness = data.get("witness")
    arcs = 0
    if witness is not None:
        _fields(witness, "witness", _WITNESS)
        _need(witness["arcs"], "witness", "'arcs' must be a non-empty array")
        _rows(witness["arcs"], "witness.arcs", _ARC)
        for name, members in witness["groups"].items():
            _need(isinstance(members, list)
                  and all(isinstance(m, str) for m in members),
                  f"witness.groups[{name!r}]", "must be an array of strings")
        arcs = len(witness["arcs"])

    _rows(data["tiers"], "tiers", _TIER)
    if data["status"] == "conservative-bound":
        _need(isinstance(data.get("bound_phase_count"), int), "provenance",
              "conservative-bound records need an integer 'bound_phase_count'")
        _fields(data, "provenance", {"bound_abstract_cycle_time": RATIONAL})
    kernel = data.get("kernel")  # absent from records before the kernel layer
    _need(kernel is None or (isinstance(kernel, str) and kernel),
          "provenance", "'kernel' must be a non-empty string or null")
    return {"steps": len(data["steps"]), "witness_arcs": arcs,
            "tiers": len(data["tiers"])}


# ----------------------------------------------------------------------
# SARIF logs (repro lint / repro devlint --format sarif)
# ----------------------------------------------------------------------

_SARIF_RESULT = {"ruleId": STR, "level": ("none", "note", "warning", "error")}


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
        _fields(driver, f"{where}.tool.driver", {"name": STR})
        rules = driver.get("rules", [])
        _need(isinstance(rules, list), f"{where}.tool.driver",
              "'rules' must be an array")
        rule_ids = set()
        for rwhere, rule in _rows(rules, f"{where}.tool.driver.rules",
                                  {"id": STR}):
            _need(rule["id"] not in rule_ids, rwhere,
                  f"duplicate rule id {rule['id']!r}")
            rule_ids.add(rule["id"])
        total_rules += len(rule_ids)
        results = run.get("results", [])
        _need(isinstance(results, list), where, "'results' must be an array")
        for rwhere, result in _rows(results, f"{where}.results",
                                    _SARIF_RESULT):
            if rule_ids:
                _need(result["ruleId"] in rule_ids, rwhere,
                      f"ruleId {result['ruleId']!r} not in the driver's rules")
            _fields(result.get("message"), f"{rwhere}.message", {"text": STR})
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
                    _fields(physical, lwhere, {"region": OBJ})
                    start = physical["region"].get("startLine")
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

_RECORD_HEADER = {"fingerprint": STR, "analysis": STR, "params": STR,
                  "payload_len": NAT, "checksum": STR}


def validate_store_record(raw: bytes,
                          expected_digest: str = None) -> Dict[str, int]:
    """Validate one binary ``repro-store-v1`` record file.

    Deliberately re-implements the store's verification (magic line,
    JSON header with a complete key echo, payload length, SHA-256
    checksum, content-address consistency) so CI checks records with
    code that shares nothing with the writer but the schema tag.
    ``expected_digest`` is the record's file stem; when given, the
    header's key must hash to it (a renamed record is a schema
    violation).
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
    _fields(header, "record.header", _RECORD_HEADER)
    try:
        params = json.loads(header["params"])
    except json.JSONDecodeError:
        raise SchemaError(
            "record.header: 'params' must itself be valid JSON"
        ) from None
    _need(isinstance(params, dict), "record.header",
          "'params' must encode an object")
    length = header["payload_len"]
    checksum = header["checksum"]
    _need(len(checksum) == 64, "record.header",
          "'checksum' must be a 64-char SHA-256 hex digest")
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


_STORE_VERIFY = {
    "root": STR,
    **dict.fromkeys(("records", "valid", "quarantined_now",
                     "quarantined_records", "undetected_corrupt",
                     "tmp_files", "bytes"), NAT),
    "corrupt": ARR,
}
_STORE_STATS = {
    "root": STR,
    **dict.fromkeys(("hits", "misses", "puts", "put_skips", "put_errors",
                     "quarantined", "evictions", "read_errors", "records",
                     "bytes", "quarantined_records", "tmp_files",
                     "max_bytes"), NAT),
    "hit_rate": RATIO,
}


def validate_store_verify(data: Any) -> Dict[str, int]:
    """Validate a ``repro-store-verify-v1`` report (``repro cache verify
    --json``), including its internal arithmetic: ``undetected_corrupt``
    must equal ``len(corrupt) - quarantined_now``."""
    _fields(data, "store-verify", _STORE_VERIFY, STORE_VERIFY_SCHEMA)
    corrupt = data["corrupt"]
    _rows(corrupt, "store-verify.corrupt", {"path": STR, "reason": STR})
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
    _fields(data, "store-stats", _STORE_STATS, STORE_STATS_SCHEMA)
    return {"records": data["records"], "bytes": data["bytes"]}


# ----------------------------------------------------------------------
# benchmark baselines
# ----------------------------------------------------------------------

_BENCH_HOST = dict.fromkeys(("platform", "python", "git_sha"), STR_OR_NULL)
_BENCH_ENTRY = {"name": STR, "unit": STR, "value": NUM,
                "baseline": NUM_OR_NULL, "meta": OBJ}


def validate_bench(data: Any) -> Dict[str, int]:
    """Validate a ``repro-bench-v1`` baseline: a ``suite`` name plus a
    flat list of ``{name, unit, value, baseline, meta}`` entries."""
    _fields(data, "bench", {"suite": STR}, BENCH_SCHEMA)
    host = data.get("host")
    if host is not None:
        _fields(host, "bench.host", _BENCH_HOST)
    entries = data.get("entries")
    _need(isinstance(entries, list) and entries, "bench",
          "'entries' must be a non-empty array")
    names = set()
    for where, entry in _rows(entries, "entries", _BENCH_ENTRY):
        _need(entry["name"] not in names, where,
              f"duplicate entry name {entry['name']!r}")
        names.add(entry["name"])
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
    for where, doc in _json_lines(text):
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

_SUMMARY = {
    **dict.fromkeys(("spans", "roots", "processes"), NAT),
    "wall_seconds": NON_NEG, "stages": ARR, "lanes": ARR,
    "critical_path": ARR,
}
_STAGE = {
    "stage": STR, "graph": STR_OR_NULL, "kernel": STR_OR_NULL, "count": POS,
    **dict.fromkeys(("total_seconds", "self_seconds", "p50_seconds",
                     "p90_seconds", "p99_seconds", "max_seconds",
                     "cpu_seconds", "mem_peak_bytes"), NON_NEG),
}
_LANE = {"pid": NAT, "spans": POS, "self_seconds": NON_NEG}
_HOP = {"name": STR, "duration_seconds": NON_NEG, "self_seconds": NON_NEG}


def validate_trace_summary(data: Any) -> Dict[str, int]:
    """Validate a ``repro-trace-summary-v1`` analytics document.

    Beyond shape, this enforces the structural invariant the analyzer
    guarantees: self times decompose total time, so the stage self-time
    sum may not exceed the summed root durations (``wall_seconds``),
    and the critical path is a root-to-leaf chain — depths consecutive
    from 0 and each hop no longer than its parent.
    """
    _fields(data, "trace-summary", _SUMMARY, TRACE_SUMMARY_SCHEMA)
    sources = data.get("sources")
    _need(isinstance(sources, list) and sources
          and all(isinstance(s, str) for s in sources),
          "trace-summary", "'sources' must be a non-empty array of strings")
    self_sum = 0.0
    for where, row in _rows(data["stages"], "trace-summary.stages", _STAGE):
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

    _rows(data["lanes"], "trace-summary.lanes", _LANE)

    previous = None
    for index, (where, hop) in enumerate(
            _rows(data["critical_path"], "trace-summary.critical_path", _HOP)):
        _need(hop.get("depth") == index, where,
              f"depths must be consecutive from 0, got {hop.get('depth')!r}")
        if previous is not None:
            _need(hop["duration_seconds"] <= previous + 1e-9, where,
                  "a child hop cannot outlast its parent")
        previous = hop["duration_seconds"]
    return {"stages": len(data["stages"]), "spans": data["spans"],
            "critical_path": len(data["critical_path"])}


_DIFF_DIRECTIONS = ("regressed", "improved", "unchanged", "added", "removed")
_DIFF = {"kind": ("trace-summary", "metrics"), "a": STR, "b": STR,
         "noise_floor": NON_NEG, "rows": ARR, "counts": OBJ}
_DIFF_ROW = {"key": STR, "direction": _DIFF_DIRECTIONS}


def validate_trace_diff(data: Any) -> Dict[str, int]:
    """Validate a ``repro-trace-diff-v1`` A/B diff document."""
    _fields(data, "trace-diff", _DIFF, TRACE_DIFF_SCHEMA)
    rows = data["rows"]
    for where, row in _rows(rows, "trace-diff.rows", _DIFF_ROW):
        direction = row["direction"]
        _need(direction != "added" or row.get("a") is None, where,
              "an 'added' row cannot have an 'a' value")
        _need(direction != "removed" or row.get("b") is None, where,
              "a 'removed' row cannot have a 'b' value")
        if direction not in ("added", "removed"):
            _fields(row, where, dict.fromkeys(("a", "b", "delta"), NUM))
        if row.get("noise_floored"):
            _need(row.get("relative") == 0.0, where,
                  "a noise-floored row must publish relative == 0")
            _fields(row, where, {"measured_relative": NUM})
    _counts_match(data, "trace-diff", rows, "direction", _DIFF_DIRECTIONS)
    return {"rows": len(rows), "regressed": data["counts"]["regressed"]}


_REGRESS_VERDICTS = ("ok", "regressed", "improved", "noisy",
                     "insufficient-data")
_REGRESS = {"history": STR, "params": OBJ, "results": ARR, "counts": OBJ}
_REGRESS_PARAMS = {
    "window": POS, "min_samples": POS,
    **dict.fromkeys(("threshold", "noise_rel", "mad_mult"), NON_NEG),
}
_REGRESS_RESULT = {
    "suite": STR, "entry": STR, "unit": STR, "value": NUM,
    "verdict": _REGRESS_VERDICTS,
    "direction": ("higher-is-better", "lower-is-better"),
    "samples": NAT,
}


def validate_regress(data: Any) -> Dict[str, int]:
    """Validate a ``repro-regress-v1`` sentinel verdict document,
    including its internal consistency: counts match the results, and
    ``regressed`` lists exactly the regressed ``suite/entry`` pairs."""
    _fields(data, "regress", _REGRESS, REGRESS_SCHEMA)
    _fields(data["params"], "regress.params", _REGRESS_PARAMS)
    results = data["results"]
    regressed = []
    for where, result in _rows(results, "regress.results", _REGRESS_RESULT):
        verdict = result["verdict"]
        _need(verdict == "ok" or isinstance(result.get("reason"), str),
              where, f"a {verdict!r} verdict needs a string 'reason'")
        if verdict == "regressed":
            regressed.append(f"{result['suite']}/{result['entry']}")
    _need(data.get("entries") == len(results), "regress",
          f"'entries' ({data.get('entries')!r}) must equal the number of "
          f"results ({len(results)})")
    _counts_match(data, "regress", results, "verdict", _REGRESS_VERDICTS)
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

#: The validator of every JSON document kind, by its ``schema`` tag.
#: ``repro-store-v1`` records are binary and dispatched by their
#: ``.rec`` suffix instead.
VALIDATORS: Dict[str, Callable[[Any], Dict[str, int]]] = {
    BENCH_SCHEMA: validate_bench,
    METRICS_SCHEMA: validate_metrics_snapshot,
    PROVENANCE_SCHEMA: validate_provenance,
    REGRESS_SCHEMA: validate_regress,
    STORE_STATS_SCHEMA: validate_store_stats,
    STORE_VERIFY_SCHEMA: validate_store_verify,
    TRACE_DIFF_SCHEMA: validate_trace_diff,
    TRACE_SUMMARY_SCHEMA: validate_trace_summary,
}


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
        first = next(_json_lines(text), (None, None))[1]
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
        schema = data.get("schema")
        if isinstance(schema, str) and schema in VALIDATORS:
            return VALIDATORS[schema](data)
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
