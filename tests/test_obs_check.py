"""The artefact validators reject malformed inputs with precise messages.

``repro.obs.check`` is the CI gate for every artefact the pipeline
emits; these tests feed it truncated, mistagged and type-confused
inputs and assert the error names the exact location — a validator
that says "invalid" without a place is useless in a CI log.
"""

from __future__ import annotations

import json

import pytest

from repro.graphs import modem
from repro.analysis.throughput import throughput
from repro.obs import check
from repro.obs import provenance as provenance_mod
from repro.obs.check import (
    BENCH_SCHEMA,
    PROVENANCE_SCHEMA,
    SchemaError,
    check_file,
    main,
    validate_bench,
    validate_metrics_snapshot,
    validate_provenance,
    validate_span_jsonl,
)


def test_schema_constants_in_sync_with_the_emitters():
    assert check.PROVENANCE_SCHEMA == provenance_mod.PROVENANCE_SCHEMA
    assert tuple(check._WITNESS_SPACES) == provenance_mod.WITNESS_SPACES


# ----------------------------------------------------------------------
# fixtures: minimal valid documents to mutate
# ----------------------------------------------------------------------

def _span_line(**over):
    row = {"id": "s1", "name": "analysis", "pid": 1, "tid": 1,
           "start": 0.0, "end": 1.0, "args": {}}
    row.update(over)
    return json.dumps(row)


def _bench(**over):
    doc = {
        "schema": BENCH_SCHEMA,
        "suite": "demo",
        "host": {"platform": "linux", "python": "3.12", "git_sha": None},
        "entries": [{"name": "t", "unit": "s", "value": 1.5,
                     "baseline": None, "meta": {}}],
    }
    doc.update(over)
    return doc


def _provenance(**over):
    doc = {
        "schema": PROVENANCE_SCHEMA,
        "graph": "g",
        "fingerprint": "abc123",
        "algorithm": "karp",
        "method": "symbolic",
        "status": "exact",
        "cycle_time": "31/2",
        "steps": [{"kind": "pruning", "before_fingerprint": "a",
                   "after_fingerprint": "b",
                   "before_size": {"actors": 3, "edges": 4, "tokens": 2},
                   "after_size": {"actors": 3, "edges": 3, "tokens": 2},
                   "detail": {}}],
        "witness": {"space": "token", "source": "karp",
                    "arcs": [{"source": "e[0]", "target": "e[0]",
                              "weight": "31/2", "tokens": 1, "key": None}],
                    "groups": {}},
        "witness_unavailable": None,
        "tiers": [{"tier": "simulation", "status": "ok", "reason": None}],
        "degradation_reason": None,
        "bound_phase_count": None,
        "bound_abstract_cycle_time": None,
    }
    doc.update(over)
    return doc


# ----------------------------------------------------------------------
# truncated JSONL
# ----------------------------------------------------------------------

class TestTruncatedJsonl:
    def test_span_export_truncated_mid_line(self):
        text = _span_line() + "\n" + _span_line(id="s2")[:20]
        with pytest.raises(SchemaError, match=r"line 2: not valid JSON"):
            validate_span_jsonl(text)

    def test_bench_history_truncated_mid_line(self, tmp_path):
        path = tmp_path / "history.jsonl"
        full = json.dumps(_bench())
        path.write_text(full + "\n" + full[:-25] + "\n")
        with pytest.raises(SchemaError, match=r"line 2: not valid JSON"):
            check_file(str(path))

    def test_intact_bench_history_counts_runs(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text("\n".join(json.dumps(_bench()) for _ in range(3)) + "\n")
        assert check_file(str(path)) == {"runs": 3}


# ----------------------------------------------------------------------
# wrong schema tags
# ----------------------------------------------------------------------

class TestWrongSchemaTag:
    def test_bench(self):
        with pytest.raises(SchemaError,
                           match=r"schema must be 'repro-bench-v1', "
                                 r"got 'repro-bench-v0'"):
            validate_bench(_bench(schema="repro-bench-v0"))

    def test_provenance(self):
        with pytest.raises(SchemaError,
                           match=r"schema must be 'repro-provenance-v1', "
                                 r"got 'certificate'"):
            validate_provenance(_provenance(schema="certificate"))

    def test_metrics_snapshot(self):
        with pytest.raises(SchemaError, match=r"schema must be"):
            validate_metrics_snapshot({"schema": "nope", "metrics": []})


# ----------------------------------------------------------------------
# non-numeric values where numbers are required
# ----------------------------------------------------------------------

class TestNonNumericValues:
    def test_bench_entry_value(self):
        doc = _bench()
        doc["entries"][0]["value"] = "fast"
        with pytest.raises(SchemaError,
                           match=r"entries\[0\]: 'value' must be a number"):
            validate_bench(doc)

    def test_bench_boolean_is_not_a_number(self):
        doc = _bench()
        doc["entries"][0]["value"] = True
        with pytest.raises(SchemaError, match=r"'value' must be a number"):
            validate_bench(doc)

    def test_metrics_sample_value(self):
        doc = {"schema": "repro-metrics-v1", "metrics": [
            {"name": "hits", "type": "counter",
             "samples": [{"labels": {}, "value": "many"}]}]}
        with pytest.raises(SchemaError,
                           match=r"metrics\[0\].samples\[0\]: needs a numeric"):
            validate_metrics_snapshot(doc)

    def test_provenance_weight_not_a_rational(self):
        doc = _provenance()
        doc["witness"]["arcs"][0]["weight"] = "fifteen and a half"
        with pytest.raises(SchemaError,
                           match=r"witness.arcs\[0\]: 'weight' .* is not a "
                                 r"valid rational"):
            validate_provenance(doc)

    def test_provenance_weight_must_be_string_encoded(self):
        doc = _provenance()
        doc["witness"]["arcs"][0]["weight"] = 15.5
        with pytest.raises(SchemaError,
                           match=r"must be a string-encoded rational"):
            validate_provenance(doc)


# ----------------------------------------------------------------------
# provenance structure
# ----------------------------------------------------------------------

class TestProvenanceValidator:
    def test_missing_fingerprint(self):
        with pytest.raises(SchemaError,
                           match=r"needs a non-empty string 'fingerprint'"):
            validate_provenance(_provenance(fingerprint=""))

    def test_unknown_status(self):
        with pytest.raises(SchemaError, match=r"status must be one of .* "
                                              r"got 'approximate'"):
            validate_provenance(_provenance(status="approximate"))

    def test_unknown_witness_space(self):
        doc = _provenance()
        doc["witness"]["space"] = "quantum"
        with pytest.raises(SchemaError, match=r"space must be one of .* "
                                              r"got 'quantum'"):
            validate_provenance(doc)

    def test_empty_arc_list(self):
        doc = _provenance()
        doc["witness"]["arcs"] = []
        with pytest.raises(SchemaError, match=r"'arcs' must be a non-empty"):
            validate_provenance(doc)

    def test_negative_tokens(self):
        doc = _provenance()
        doc["witness"]["arcs"][0]["tokens"] = -1
        with pytest.raises(SchemaError,
                           match=r"'tokens' must be a non-negative integer"):
            validate_provenance(doc)

    def test_step_size_must_be_integral(self):
        doc = _provenance()
        doc["steps"][0]["after_size"]["edges"] = 3.5
        with pytest.raises(SchemaError,
                           match=r"steps\[0\]: size 'edges' must be an "
                                 r"integer, got 3.5"):
            validate_provenance(doc)

    def test_unknown_tier_status(self):
        doc = _provenance()
        doc["tiers"][0]["status"] = "maybe"
        with pytest.raises(SchemaError,
                           match=r"tiers\[0\]: status must be one of"):
            validate_provenance(doc)

    def test_conservative_needs_bound_ingredients(self):
        doc = _provenance(status="conservative-bound")
        with pytest.raises(SchemaError,
                           match=r"need an integer 'bound_phase_count'"):
            validate_provenance(doc)

    def test_summary_counts(self):
        assert validate_provenance(_provenance()) == {
            "steps": 1, "witness_arcs": 1, "tiers": 1}

    def test_real_record_round_trips_through_the_validator(self):
        record = throughput(modem()).provenance
        data = json.loads(json.dumps(record.as_dict()))
        summary = validate_provenance(data)
        assert summary["witness_arcs"] == len(record.witness.arcs)
        assert provenance_mod.ProvenanceRecord.from_dict(data) == record


# ----------------------------------------------------------------------
# file-kind inference and the CLI gate
# ----------------------------------------------------------------------

class TestCheckFile:
    def test_provenance_json_is_inferred(self, tmp_path):
        path = tmp_path / "certificate.json"
        path.write_text(json.dumps(_provenance()))
        assert check_file(str(path))["witness_arcs"] == 1

    def test_unrecognised_shape(self, tmp_path):
        path = tmp_path / "mystery.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(SchemaError, match=r"unrecognised artefact shape"):
            check_file(str(path))

    def test_main_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_provenance()))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_provenance(status="approximate")))
        assert main([str(good)]) == 0
        assert "ok" in capsys.readouterr().out
        assert main([str(good), str(bad)]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.err and "approximate" in captured.err
        assert main([]) == 2


# ----------------------------------------------------------------------
# SARIF logs
# ----------------------------------------------------------------------


def _sarif(**overrides):
    doc = {
        "version": "2.1.0",
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-devlint",
                        "rules": [
                            {"id": "broad-except"},
                            {"id": "determinism"},
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": "broad-except",
                        "ruleIndex": 0,
                        "level": "warning",
                        "message": {"text": "except clause catches Exception"},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {"uri": "src/a.py"},
                                    "region": {"startLine": 5},
                                },
                                "logicalLocations": [{"name": "guarded"}],
                            }
                        ],
                    }
                ],
            }
        ],
    }
    doc.update(overrides)
    return doc


class TestSarifValidator:
    def test_valid_log(self):
        assert check.validate_sarif(_sarif()) == {
            "runs": 1, "rules": 2, "results": 1,
        }

    def test_wrong_version(self):
        with pytest.raises(SchemaError, match=r"version must be '2\.1\.0'"):
            check.validate_sarif(_sarif(version="2.0.0"))

    def test_empty_runs(self):
        with pytest.raises(SchemaError, match=r"non-empty array"):
            check.validate_sarif(_sarif(runs=[]))

    def test_missing_driver(self):
        doc = _sarif()
        doc["runs"][0]["tool"] = {}
        with pytest.raises(SchemaError, match=r"runs\[0\]: needs tool\.driver"):
            check.validate_sarif(doc)

    def test_duplicate_rule_id(self):
        doc = _sarif()
        doc["runs"][0]["tool"]["driver"]["rules"].append({"id": "broad-except"})
        with pytest.raises(SchemaError, match=r"rules\[2\].*duplicate rule id"):
            check.validate_sarif(doc)

    def test_unknown_rule_id(self):
        doc = _sarif()
        doc["runs"][0]["results"][0]["ruleId"] = "no-such-rule"
        with pytest.raises(
            SchemaError, match=r"results\[0\].*not in the driver's rules"
        ):
            check.validate_sarif(doc)

    def test_bad_level(self):
        doc = _sarif()
        doc["runs"][0]["results"][0]["level"] = "fatal"
        with pytest.raises(SchemaError, match=r"level must be one of"):
            check.validate_sarif(doc)

    def test_mismatched_rule_index(self):
        doc = _sarif()
        doc["runs"][0]["results"][0]["ruleIndex"] = 1
        with pytest.raises(
            SchemaError, match=r"ruleIndex does not point at ruleId"
        ):
            check.validate_sarif(doc)

    def test_bad_start_line(self):
        doc = _sarif()
        doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"][
            "region"
        ]["startLine"] = 0
        with pytest.raises(
            SchemaError, match=r"locations\[0\].*startLine must be a positive"
        ):
            check.validate_sarif(doc)

    def test_missing_artifact_uri(self):
        doc = _sarif()
        del doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"][
            "artifactLocation"
        ]
        with pytest.raises(
            SchemaError, match=r"needs artifactLocation\.uri"
        ):
            check.validate_sarif(doc)

    def test_empty_logical_name(self):
        doc = _sarif()
        doc["runs"][0]["results"][0]["locations"][0]["logicalLocations"] = [
            {"name": ""}
        ]
        with pytest.raises(SchemaError, match=r"non-empty 'name'"):
            check.validate_sarif(doc)

    def test_check_file_routes_sarif(self, tmp_path):
        path = tmp_path / "lint.sarif"
        path.write_text(json.dumps(_sarif()))
        assert check_file(str(path)) == {"runs": 1, "rules": 2, "results": 1}


# ----------------------------------------------------------------------
# result-store artefacts (records, verify reports, stats censuses)
# ----------------------------------------------------------------------


def _store_record(value=(1, 2, 3), fingerprint="fp", analysis="throughput"):
    """A real record written by the store, plus its digest — the
    validator must agree with the writer without sharing code."""
    import tempfile

    from repro.analysis.store import ResultStore, key_digest

    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        assert store.put(fingerprint, analysis, value)
        digest = key_digest(fingerprint, analysis)
        return store._record_path(digest).read_bytes(), digest


def _store_verify_doc(**over):
    doc = {
        "schema": check.STORE_VERIFY_SCHEMA, "root": "/tmp/store",
        "records": 2, "valid": 1,
        "corrupt": [{"path": "records/ab/abc.rec", "reason": "torn-payload"}],
        "quarantined_now": 1, "undetected_corrupt": 0,
        "quarantined_records": 1, "tmp_files": 0, "bytes": 512,
    }
    doc.update(over)
    return doc


def _store_stats_doc(**over):
    doc = {
        "schema": check.STORE_STATS_SCHEMA, "root": "/tmp/store",
        "hits": 4, "misses": 2, "puts": 2, "put_skips": 0,
        "put_errors": 0, "quarantined": 0, "evictions": 0,
        "read_errors": 0, "records": 2, "bytes": 512,
        "quarantined_records": 0, "tmp_files": 0,
        "max_bytes": 1024, "hit_rate": 4 / 6,
    }
    doc.update(over)
    return doc


class TestStoreRecordValidator:
    def test_schema_constant_in_sync_with_the_store(self):
        from repro.analysis import store as store_mod

        assert check.STORE_SCHEMA == store_mod.STORE_SCHEMA
        assert check.STORE_VERIFY_SCHEMA == store_mod.VerifyReport.SCHEMA

    def test_real_record_validates(self):
        raw, digest = _store_record()
        summary = check.validate_store_record(raw, expected_digest=digest)
        assert summary["payload_bytes"] > 0

    def test_bad_magic(self):
        raw, _ = _store_record()
        with pytest.raises(SchemaError, match="magic"):
            check.validate_store_record(b"x" + raw)

    def test_torn_payload(self):
        raw, _ = _store_record()
        with pytest.raises(SchemaError, match="torn write"):
            check.validate_store_record(raw[:-1])

    def test_flipped_payload_byte(self):
        raw, _ = _store_record()
        with pytest.raises(SchemaError, match="checksum mismatch"):
            check.validate_store_record(raw[:-1] + bytes([raw[-1] ^ 1]))

    def test_renamed_record_fails_content_address(self):
        raw, _ = _store_record()
        with pytest.raises(SchemaError, match="renamed or aliased"):
            check.validate_store_record(raw, expected_digest="0" * 64)

    def test_header_must_be_json(self):
        bad = b"repro-store-v1\nnot json\npayload"
        with pytest.raises(SchemaError, match="not valid JSON"):
            check.validate_store_record(bad)


class TestStoreVerifyValidator:
    def test_valid_report(self):
        summary = check.validate_store_verify(_store_verify_doc())
        assert summary == {"records": 2, "corrupt": 1,
                           "undetected_corrupt": 0}

    def test_arithmetic_must_balance(self):
        with pytest.raises(SchemaError, match="must equal"):
            check.validate_store_verify(_store_verify_doc(valid=2))

    def test_undetected_arithmetic(self):
        with pytest.raises(SchemaError, match="undetected_corrupt"):
            check.validate_store_verify(
                _store_verify_doc(undetected_corrupt=1))

    def test_wrong_schema_tag(self):
        with pytest.raises(SchemaError, match="schema"):
            check.validate_store_verify(_store_verify_doc(schema="nope"))


class TestStoreStatsValidator:
    def test_valid_census(self):
        assert check.validate_store_stats(_store_stats_doc()) \
            == {"records": 2, "bytes": 512}

    def test_negative_counter_rejected(self):
        with pytest.raises(SchemaError, match="non-negative"):
            check.validate_store_stats(_store_stats_doc(puts=-1))

    def test_hit_rate_bounds(self):
        with pytest.raises(SchemaError, match="hit_rate"):
            check.validate_store_stats(_store_stats_doc(hit_rate=1.5))


class TestStoreCheckFileDispatch:
    def test_live_record_checked_with_content_address(self, tmp_path):
        raw, digest = _store_record()
        path = tmp_path / f"{digest}.rec"
        path.write_bytes(raw)
        assert check_file(str(path))["payload_bytes"] > 0
        # A renamed live record must fail: the stem is its address.
        alias = tmp_path / ("0" * 64 + ".rec")
        alias.write_bytes(raw)
        with pytest.raises(SchemaError, match="renamed"):
            check_file(str(alias))

    def test_quarantined_record_skips_the_address_check(self, tmp_path):
        raw, digest = _store_record()
        path = tmp_path / f"{digest}.key-mismatch.rec"
        path.write_bytes(raw)  # valid bytes under a quarantine name
        assert check_file(str(path))["payload_bytes"] > 0

    def test_verify_report_json_is_inferred(self, tmp_path):
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(_store_verify_doc()))
        assert check_file(str(path))["records"] == 2

    def test_stats_json_is_inferred(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(_store_stats_doc()))
        assert check_file(str(path))["bytes"] == 512

    def test_cli_main_gates_a_real_verify_report(self, tmp_path):
        from repro.analysis.store import ResultStore

        store = ResultStore(tmp_path / "store")
        store.put("fp", "throughput", [1, 2, 3])
        report_path = tmp_path / "verify.json"
        report_path.write_text(json.dumps(store.verify().as_dict()))
        assert main([str(report_path)]) == 0


# ----------------------------------------------------------------------
# trace analytics / diff / regress / collapsed validators
# ----------------------------------------------------------------------

def test_analytics_schema_constants_in_sync_with_the_emitters():
    from repro.obs import analyze, diff, regress

    assert check.TRACE_SUMMARY_SCHEMA == analyze.TRACE_SUMMARY_SCHEMA
    assert check.TRACE_DIFF_SCHEMA == diff.TRACE_DIFF_SCHEMA
    assert check.REGRESS_SCHEMA == regress.REGRESS_SCHEMA


def _trace_summary():
    from repro.obs.analyze import summarize_traces

    rows = [
        {"id": "a", "parent": None, "name": "root", "pid": 1, "tid": 0,
         "start": 0.0, "end": 1.0, "dur": 1.0, "args": {}},
        {"id": "b", "parent": "a", "name": "stage", "pid": 1, "tid": 0,
         "start": 0.0, "end": 0.4, "dur": 0.4, "args": {}},
    ]
    return summarize_traces([("t", rows)])


class TestTraceSummaryValidator:
    def test_valid_summary(self):
        verdict = check.validate_trace_summary(_trace_summary())
        assert verdict["spans"] == 2 and verdict["stages"] == 2

    def test_self_must_partition_the_roots(self):
        doc = _trace_summary()
        doc["stages"][0]["self_seconds"] = 5.0
        doc["stages"][0]["total_seconds"] = 5.0
        with pytest.raises(SchemaError, match="partition"):
            check.validate_trace_summary(doc)

    def test_self_cannot_exceed_total_per_row(self):
        doc = _trace_summary()
        row = doc["stages"][0]
        row["self_seconds"] = row["total_seconds"] + 1.0
        with pytest.raises(SchemaError, match="self"):
            check.validate_trace_summary(doc)

    def test_percentiles_must_be_non_decreasing(self):
        doc = _trace_summary()
        doc["stages"][0]["p90_seconds"] = 0.0
        with pytest.raises(SchemaError, match="p90"):
            check.validate_trace_summary(doc)

    def test_critical_path_depths_consecutive(self):
        doc = _trace_summary()
        doc["critical_path"][1]["depth"] = 5
        with pytest.raises(SchemaError, match="depth"):
            check.validate_trace_summary(doc)

    def test_critical_path_child_within_parent(self):
        doc = _trace_summary()
        doc["critical_path"][1]["duration_seconds"] = 99.0
        with pytest.raises(SchemaError, match="critical"):
            check.validate_trace_summary(doc)

    def test_wrong_schema_tag(self):
        doc = _trace_summary()
        doc["schema"] = "repro-trace-summary-v0"
        with pytest.raises(SchemaError, match="schema"):
            check.validate_trace_summary(doc)


class TestTraceDiffValidator:
    def _diff(self):
        from repro.obs.diff import diff_documents

        return diff_documents(_trace_summary(), _trace_summary())

    def test_valid_diff(self):
        verdict = check.validate_trace_diff(self._diff())
        assert verdict["rows"] == 2 and verdict["regressed"] == 0

    def test_counts_must_match_rows(self):
        doc = self._diff()
        doc["counts"]["regressed"] = 7
        with pytest.raises(SchemaError, match="count"):
            check.validate_trace_diff(doc)

    def test_unknown_direction(self):
        doc = self._diff()
        doc["rows"][0]["direction"] = "sideways"
        with pytest.raises(SchemaError, match="direction"):
            check.validate_trace_diff(doc)


class TestRegressValidator:
    def _report(self, tmp_path):
        from repro.obs.regress import evaluate_history

        host = {"platform": "linux", "python": "3.12", "git_sha": None}
        lines = [json.dumps(_bench(host=host)) for _ in range(4)]
        path = tmp_path / "history.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return evaluate_history(path)

    def test_valid_report(self, tmp_path):
        verdict = check.validate_regress(self._report(tmp_path))
        assert verdict == {"entries": 1, "regressed": 0}

    def test_counts_cross_checked(self, tmp_path):
        doc = self._report(tmp_path)
        doc["counts"]["ok"] = 9
        with pytest.raises(SchemaError, match="count"):
            check.validate_regress(doc)

    def test_regressed_list_cross_checked(self, tmp_path):
        doc = self._report(tmp_path)
        doc["regressed"] = ["demo/t"]
        with pytest.raises(SchemaError, match="regressed"):
            check.validate_regress(doc)

    def test_unknown_verdict(self, tmp_path):
        doc = self._report(tmp_path)
        doc["results"][0]["verdict"] = "maybe"
        doc["counts"] = {"maybe": 1}
        with pytest.raises(SchemaError, match="verdict"):
            check.validate_regress(doc)


class TestCollapsedValidator:
    def test_valid_stacks(self):
        verdict = check.validate_collapsed("a;b 10\nc 3\n")
        assert verdict == {"stacks": 2, "frames": 3}

    def test_malformed_line_is_located(self):
        with pytest.raises(SchemaError, match="line 2"):
            check.validate_collapsed("a 1\nnot a stack line\n")

    def test_zero_count_rejected(self):
        with pytest.raises(SchemaError, match="positive"):
            check.validate_collapsed("a;b 0\n")

    def test_duplicate_stack_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            check.validate_collapsed("a;b 1\na;b 2\n")

    def test_check_file_routes_folded_extension(self, tmp_path):
        path = tmp_path / "trace.folded"
        path.write_text("root;leaf 120\n")
        assert check_file(str(path)) == {"stacks": 1, "frames": 2}


class TestHistoryHygiene:
    def test_missing_host_stamp_rejected(self, tmp_path):
        doc = _bench()
        del doc["host"]
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(SchemaError, match="host"):
            check_file(str(path))

    def test_empty_platform_rejected(self, tmp_path):
        doc = _bench(host={"platform": "", "python": "3.12", "git_sha": None})
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(SchemaError, match="platform"):
            check_file(str(path))

    def test_git_sha_runs_must_be_contiguous(self, tmp_path):
        docs = [
            _bench(host={"platform": "l", "python": "3", "git_sha": "aaa"}),
            _bench(host={"platform": "l", "python": "3", "git_sha": "bbb"}),
            _bench(host={"platform": "l", "python": "3", "git_sha": "aaa"}),
        ]
        path = tmp_path / "history.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in docs))
        with pytest.raises(SchemaError, match="aaa"):
            check_file(str(path))

    def test_interleaved_suites_are_fine(self, tmp_path):
        # Contiguity is per suite: alternating suites at one sha, then
        # both moving to the next sha, is the normal CI pattern.
        def at(suite, sha):
            return _bench(suite=suite,
                          host={"platform": "l", "python": "3",
                                "git_sha": sha})

        docs = [at("a", "s1"), at("b", "s1"), at("a", "s2"), at("b", "s2")]
        path = tmp_path / "history.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in docs))
        assert check_file(str(path)) == {"runs": 4}


class TestAnalyticsCheckFileDispatch:
    def test_trace_summary_json_is_inferred(self, tmp_path):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(_trace_summary()))
        assert check_file(str(path))["spans"] == 2

    def test_trace_diff_json_is_inferred(self, tmp_path):
        from repro.obs.diff import diff_documents

        path = tmp_path / "diff.json"
        path.write_text(json.dumps(
            diff_documents(_trace_summary(), _trace_summary())))
        assert check_file(str(path))["rows"] == 2
