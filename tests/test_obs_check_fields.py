"""A field-mutation corpus for the artefact validators.

Every schema :data:`repro.obs.check.VALIDATORS` dispatches on starts
from a valid document: a fixture of ``test_obs_check.py`` or writer
output.  Each field of each of its field tables is then replaced, one
mutation at a time, by every value the field's kind must refuse: a
missing key, a null where null is not allowed, ``""``, ``-1``, ``1.5``,
``True``, ``[]``, ``{}`` and a string where a number belongs.  The
validator must reject the document with a message that starts with that
field's location.

A second, table-blind pass swaps any field at any depth for a value of
each other JSON type: whatever the validator makes of it, only
:class:`~repro.obs.check.SchemaError` may escape, so ``repro obs check``
reports ``FAIL`` for that file and goes on to the next.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs import check
from repro.obs.diff import diff_documents
from repro.obs.metrics import MetricsRegistry
from repro.obs.regress import evaluate_history
from test_obs_check import (
    _bench,
    _provenance,
    _sarif,
    _store_stats_doc,
    _store_verify_doc,
    _trace_summary,
)

MISSING = object()
CANDIDATES = (MISSING, None, "", -1, 1.5, True, [], {}, "x")

#: The candidates each field kind accepts; it must refuse all the others.
#: A tuple kind accepts exactly its own values.
ACCEPTS = {
    check.STR: ("x",),
    check.STR_OR_NULL: (None, "", "x"),
    check.NAT: (),
    check.POS: (),
    check.NUM: (-1, 1.5),
    check.NUM_OR_NULL: (None, -1, 1.5),
    check.NON_NEG: (1.5,),
    check.RATIO: (),
    check.OBJ: ({},),
    check.ARR: ([],),
    check.RATIONAL: (),
    check.RATIONAL_OR_NULL: (None,),
}


def refused(kind):
    accepted = kind if isinstance(kind, tuple) else ACCEPTS[kind]
    return [value for value in CANDIDATES
            if not any(type(value) is type(a) and value == a
                       for a in accepted)]


def _metrics():
    registry = MetricsRegistry()
    registry.counter("hits_total", "cache hits").inc()
    registry.histogram("latency_seconds", "latency").observe(0.5)
    return registry.as_dict()


def _regress(tmp_path):
    host = {"platform": "linux", "python": "3.12", "git_sha": None}
    path = tmp_path / "history.jsonl"
    path.write_text("".join(json.dumps(_bench(host=host)) + "\n"
                            for _ in range(4)))
    return evaluate_history(path)


def _metric_index(doc, kind):
    return next(i for i, m in enumerate(doc["metrics"]) if m["type"] == kind)


def corpus(tmp_path):
    """Per schema: ``(document, [(path, location, table), ...])`` lists,
    one for each valid starting document."""
    metrics = _metrics()
    counter = _metric_index(metrics, "counter")
    histogram = _metric_index(metrics, "histogram")
    bound = _provenance(status="conservative-bound", bound_phase_count=2,
                        bound_abstract_cycle_time="7/2")
    return {
        check.BENCH_SCHEMA: [(_bench(), [
            ((), "bench", {"suite": check.STR}),
            (("host",), "bench.host", check._BENCH_HOST),
            (("entries", 0), "entries[0]", check._BENCH_ENTRY),
        ])],
        check.METRICS_SCHEMA: [(metrics, [
            ((), "snapshot", {"metrics": check.ARR}),
            (("metrics", counter), f"metrics[{counter}]", check._METRIC),
            (("metrics", counter, "samples", 0),
             f"metrics[{counter}].samples[0]", {"labels": check.OBJ}),
            (("metrics", histogram, "samples", 0),
             f"metrics[{histogram}].samples[0]", check._HISTOGRAM_SAMPLE),
        ])],
        check.PROVENANCE_SCHEMA: [
            (_provenance(), [
                ((), "provenance", check._PROVENANCE),
                (("steps", 0), "steps[0]", check._STEP),
                (("witness",), "witness", check._WITNESS),
                (("witness", "arcs", 0), "witness.arcs[0]", check._ARC),
                (("tiers", 0), "tiers[0]", check._TIER),
            ]),
            (bound, [((), "provenance",
                      {"bound_abstract_cycle_time": check.RATIONAL})]),
        ],
        check.REGRESS_SCHEMA: [(_regress(tmp_path), [
            ((), "regress", check._REGRESS),
            (("params",), "regress.params", check._REGRESS_PARAMS),
            (("results", 0), "regress.results[0]", check._REGRESS_RESULT),
        ])],
        check.STORE_STATS_SCHEMA: [(_store_stats_doc(), [
            ((), "store-stats", check._STORE_STATS),
        ])],
        check.STORE_VERIFY_SCHEMA: [(_store_verify_doc(), [
            ((), "store-verify", check._STORE_VERIFY),
            (("corrupt", 0), "store-verify.corrupt[0]",
             {"path": check.STR, "reason": check.STR}),
        ])],
        check.TRACE_DIFF_SCHEMA: [(
            diff_documents(_trace_summary(), _trace_summary()), [
                ((), "trace-diff", check._DIFF),
                (("rows", 0), "trace-diff.rows[0]", {
                    **check._DIFF_ROW,
                    **dict.fromkeys(("a", "b", "delta", "measured_relative"),
                                    check.NUM),
                }),
            ])],
        check.TRACE_SUMMARY_SCHEMA: [(_trace_summary(), [
            ((), "trace-summary", check._SUMMARY),
            (("stages", 0), "trace-summary.stages[0]", check._STAGE),
            (("lanes", 0), "trace-summary.lanes[0]", check._LANE),
            (("critical_path", 0), "trace-summary.critical_path[0]",
             check._HOP),
        ])],
    }


def mutations(tmp_path):
    """``(schema, location, key, value, document)`` for every mutation."""
    for schema, bases in corpus(tmp_path).items():
        for base, tables in bases:
            for path, location, table in tables:
                for key, kind in table.items():
                    for value in refused(kind):
                        doc = copy.deepcopy(base)
                        target = doc
                        for step in path:
                            target = target[step]
                        if value is MISSING:
                            del target[key]
                        else:
                            target[key] = copy.deepcopy(value)
                        yield schema, location, key, value, doc


def test_corpus_covers_every_dispatched_schema(tmp_path):
    assert set(corpus(tmp_path)) == set(check.VALIDATORS)


@pytest.mark.parametrize("schema", sorted(check.VALIDATORS))
def test_every_refused_value_is_rejected_at_its_field(schema, tmp_path):
    for base, _ in corpus(tmp_path)[schema]:
        check.VALIDATORS[schema](copy.deepcopy(base))  # the base is valid
    escaped = []
    count = 0
    for tag, location, key, value, doc in mutations(tmp_path):
        if tag != schema:
            continue
        count += 1
        shown = "<missing>" if value is MISSING else repr(value)
        try:
            check.VALIDATORS[schema](doc)
        except check.SchemaError as error:
            if not str(error).startswith(f"{location}: "):
                escaped.append(f"{location} {key}={shown}: {error}")
        else:
            escaped.append(f"{location} {key}={shown}: accepted")
    assert count > 0
    assert escaped == []


#: One value of each JSON type: null, boolean, number, string, array, object.
JSON_TYPES = (None, True, 1, "x", [], {})


def _json_type(value):
    if isinstance(value, bool):
        return bool
    return (int, float) if isinstance(value, (int, float)) else type(value)


def _field_paths(doc, path=()):
    """Every field of ``doc`` at any depth; arrays contribute their
    first three items."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc[:3]) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _field_paths(value, path + (key,))


def type_swaps(base):
    """``(path, value, document)`` with the field at ``path`` swapped for
    ``value``, a value of another JSON type."""
    for path, current in _field_paths(base):
        for value in JSON_TYPES:
            if _json_type(value) == _json_type(current):
                continue
            doc = copy.deepcopy(base)
            target = doc
            for step in path[:-1]:
                target = target[step]
            target[path[-1]] = copy.deepcopy(value)
            yield path, value, doc


@pytest.mark.parametrize("schema", sorted(check.VALIDATORS) + ["sarif"])
def test_type_swaps_raise_only_schema_errors(schema, tmp_path):
    if schema == "sarif":
        validate, bases = check.validate_sarif, [_sarif()]
    else:
        validate = check.VALIDATORS[schema]
        bases = [base for base, _ in corpus(tmp_path)[schema]]
    escaped = []
    count = 0
    for base in bases:
        validate(copy.deepcopy(base))  # the base is valid
        for path, value, doc in type_swaps(base):
            count += 1
            try:
                validate(doc)
            except check.SchemaError:
                pass
            except Exception as error:  # any other type is the finding
                escaped.append(f"{path} = {value!r}: "
                               f"{type(error).__name__}: {error}")
    assert count > 0
    assert escaped == []
