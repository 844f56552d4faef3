"""Command-line interface: ``python -m repro <command> …``.

Gives the library's analyses a design-flow-friendly surface::

    python -m repro info graph.json
    python -m repro throughput graph.xml --method symbolic
    python -m repro throughput graph.xml --trace trace.json --metrics m.prom
    python -m repro explain builtin:modem --html report.html --json prov.json
    python -m repro batch --registry --workers 4 --analysis throughput latency
    python -m repro batch --registry --store .repro-store
    python -m repro cache verify --store .repro-store --json verify.json
    python -m repro obs analyze trace.json --json summary.json
    python -m repro obs flame spans.jsonl -o profile.folded
    python -m repro obs diff before.json after.json --format html -o diff.html
    python -m repro obs regress --history benchmarks/results/history.jsonl
    python -m repro obs check trace.json metrics.prom BENCH_obs.json
    python -m repro convert graph.json -o compact.json
    python -m repro convert graph.json --traditional -o expanded.xml
    python -m repro abstract graph.json --strategy name -o abstract.json
    python -m repro bottleneck graph.json
    python -m repro schedule graph.json
    python -m repro gantt builtin:figure1 --horizon 46
    python -m repro lint graph.json --format sarif --fail-on error
    python -m repro csdf csdf-graph.json
    python -m repro dot builtin:modem -o modem.dot
    python -m repro table1

Graphs are read from ``.json`` (the library's dict format) or ``.xml``
(SDF3-style); the built-in benchmark suite is reachable as
``builtin:<name>`` (see ``python -m repro builtins``).
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys
from fractions import Fraction

from repro.analysis.latency import latency
from repro.analysis.throughput import throughput
from repro.core.abstraction import abstract_graph
from repro.core.conservativity import verify_abstraction
from repro.core.grouping import discover_abstraction
from repro.core.hsdf_conversion import convert_to_hsdf
from repro.core.pruning import prune_redundant_edges
from repro.errors import ReproError
from repro.graphs import TABLE1_CASES
from repro.graphs.examples import figure2_graph, figure3_graph, section41_example
from repro.graphs.synthetic import regular_prefetch, remote_memory_access
from repro.sdf import io as sdf_io
from repro.sdf.dot import to_dot
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import is_consistent, iteration_length, repetition_vector
from repro.sdf.schedule import is_live
from repro.sdf.transform import traditional_hsdf

#: Graphs reachable as ``builtin:<name>`` from the command line.
BUILTIN_GRAPHS = {
    "figure1": section41_example,
    "figure2": figure2_graph,
    "figure3": figure3_graph,
    "prefetch": regular_prefetch,
    "remote-memory": lambda: remote_memory_access(64),
    **{case.name.replace(" ", "-").replace(".", ""): case.factory for case in TABLE1_CASES},
}


def load_graph(spec: str) -> SDFGraph:
    """Load a graph from a file path or a ``builtin:<name>`` spec."""
    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        factory = BUILTIN_GRAPHS.get(name)
        if factory is None:
            raise ReproError(
                f"unknown builtin {name!r}; available: {', '.join(sorted(BUILTIN_GRAPHS))}"
            )
        return factory()
    path = pathlib.Path(spec)
    text = path.read_text()
    if path.suffix == ".xml":
        return sdf_io.from_sdf3_xml(text)
    return sdf_io.from_json(text)


def save_graph(graph: SDFGraph, path_spec: str) -> None:
    path = pathlib.Path(path_spec)
    if path.suffix == ".xml":
        path.write_text(sdf_io.to_sdf3_xml(graph))
    elif path.suffix == ".dot":
        path.write_text(to_dot(graph))
    else:
        path.write_text(sdf_io.to_json(graph))


def _fmt(value) -> str:
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value} (~{float(value):.6g})"
    return str(value)


def cmd_info(args) -> int:
    g = load_graph(args.graph)
    print(f"graph:      {g.name}")
    print(f"actors:     {g.actor_count()}")
    print(f"edges:      {g.edge_count()}")
    print(f"tokens:     {g.total_tokens()}")
    print(f"homogeneous: {g.is_homogeneous()}")
    print(f"strongly connected: {g.is_strongly_connected()}")
    consistent = is_consistent(g)
    print(f"consistent: {consistent}")
    if consistent:
        gamma = repetition_vector(g)
        print(f"iteration length (sum of repetition vector): {sum(gamma.values())}")
        if args.verbose:
            for actor in g.actor_names:
                print(f"  gamma({actor}) = {gamma[actor]}")
        print(f"live:       {is_live(g)}")
    return 0


def cmd_throughput(args) -> int:
    from repro.analysis.deadline import Deadline
    from repro.errors import AnalysisTimeout

    g = load_graph(args.graph)
    if args.fallback:
        from repro.analysis.resilience import analyse_with_policy

        outcome = analyse_with_policy(g, timeout=args.timeout,
                                      kernel=args.kernel)
        print(outcome.describe())
        return 0 if outcome.status != "timed-out" else 3
    deadline = Deadline.after(args.timeout) if args.timeout else None
    try:
        result = throughput(g, method=args.method, precheck=args.lint,
                            deadline=deadline, kernel=args.kernel)
    except AnalysisTimeout as error:
        progress = ", ".join(f"{k}={v}" for k, v in error.progress.items())
        print(f"error: analysis timed out after {error.elapsed:.2f}s "
              f"in stage {error.stage or '?'}"
              + (f" ({progress})" if progress else ""), file=sys.stderr)
        print("hint: re-run with --fallback for a conservative bound "
              "(Theorem 1)", file=sys.stderr)
        return 3
    if result.unbounded:
        print("throughput: unbounded (no recurrent timing constraint)")
        return 0
    print(f"iteration period: {_fmt(result.cycle_time)}")
    for actor, rate in result.per_actor.items():
        print(f"  rate({actor}) = {_fmt(rate)}")
    return 0


def cmd_explain(args) -> int:
    import json

    from repro.analysis.deadline import Deadline
    from repro.errors import AnalysisTimeout
    from repro.obs.provenance import WitnessError, verify_witness
    from repro.obs.report import render_html, render_text, witness_highlights
    from repro.obs.trace import Tracer

    g = load_graph(args.graph)
    timed_out = False
    tracer = Tracer()  # spans feed the HTML timeline
    with tracer:
        if args.fallback or args.stages:
            from repro.analysis.resilience import DEFAULT_STAGES, AnalysisPolicy

            policy = AnalysisPolicy(
                stages=tuple(args.stages) if args.stages else DEFAULT_STAGES,
                timeout=args.timeout,
                kernel=args.kernel,
            )
            outcome = policy.run(g)
            record = outcome.record
            timed_out = outcome.status == "timed-out"
        else:
            deadline = Deadline.after(args.timeout) if args.timeout else None
            try:
                result = throughput(g, method=args.method, deadline=deadline,
                                    kernel=args.kernel)
            except AnalysisTimeout as error:
                print(f"error: analysis timed out after {error.elapsed:.2f}s "
                      f"in stage {error.stage or '?'}", file=sys.stderr)
                print("hint: re-run with --fallback for a provenance record "
                      "of the degraded chain", file=sys.stderr)
                return 3
            record = result.provenance

    print(render_text(record, graph=g))
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps(record.as_dict(), indent=2) + "\n"
        )
        print(f"provenance: written to {args.json}", file=sys.stderr)
    if args.html:
        pathlib.Path(args.html).write_text(
            render_html(record, graph=g, spans=tracer.spans())
        )
        print(f"report: written to {args.html}", file=sys.stderr)
    if args.dot:
        actors, edges = witness_highlights(record, g)
        pathlib.Path(args.dot).write_text(
            to_dot(g, highlight_actors=actors, highlight_edges=edges)
        )
        print(f"dot: written to {args.dot}", file=sys.stderr)

    if args.require_witness:
        if record.witness is None:
            print(f"error: no verifiable witness: "
                  f"{record.witness_unavailable or 'unavailable'}",
                  file=sys.stderr)
            return 4
        try:
            verify_witness(g, record)
        except WitnessError as error:
            print(f"error: witness failed verification: {error}",
                  file=sys.stderr)
            return 4
    return 3 if timed_out else 0


def cmd_latency(args) -> int:
    g = load_graph(args.graph)
    result = latency(g)
    print(f"iteration makespan: {_fmt(result.makespan)}")
    for actor, value in result.first_completion.items():
        print(f"  first completion({actor}) = {_fmt(value)}")
    return 0


def cmd_batch(args) -> int:
    from repro.analysis.batch import ANALYSES, run_batch
    from repro.analysis.cache import default_cache
    from repro.analysis.faults import FaultPlan, parse_fault

    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    faults = None
    if args.inject:
        faults = FaultPlan(
            tuple(parse_fault(spec) for spec in args.inject),
            seed=args.fault_seed,
        )
    specs = list(args.graphs)
    graphs = []
    if args.registry:
        for case in TABLE1_CASES:
            graphs.append(case.build())
    for spec in specs:
        graphs.append(load_graph(spec))
    if not graphs:
        print("error: no graphs given (pass specs and/or --registry)", file=sys.stderr)
        return 2

    cache = default_cache()
    before = cache.stats()
    report = run_batch(
        graphs,
        analyses=tuple(args.analysis),
        method=args.method,
        backend=args.backend,
        workers=args.workers,
        cache=cache,
        lint=args.lint,
        timeout=args.timeout,
        retries=args.retries,
        faults=faults,
        kernel=args.kernel,
        store=args.store,
    )
    after = report.cache_stats

    print(f"{'graph':<26} {'status':<11} {'cycle time':>14} {'time':>9}")
    for result in report.results:
        if result.ok:
            tr = result.values.get("throughput")
            if tr is None:
                cycle = "-"
            else:
                cycle = "unbounded" if tr.unbounded else _fmt(tr.cycle_time)
            print(f"{result.name:<26} {'ok':<11} {cycle:>14} "
                  f"{result.duration:>8.3f}s")
        else:
            status = "QUARANTINE" if result.quarantined else (
                "TIMEOUT" if result.timed_out else "FAILED")
            print(f"{result.name:<26} {status:<11} {result.error_type:>14} "
                  f"{result.duration:>8.3f}s")
            print(f"  {result.error}")
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    rate = hits / (hits + misses) if hits + misses else 0.0
    summary = (f"\n{len(report.ok)}/{len(report.results)} ok in "
               f"{report.duration:.3f}s ({report.backend}, "
               f"{report.workers} workers)")
    if report.quarantined:
        summary += f", {len(report.quarantined)} quarantined"
    print(summary)
    print(f"cache: {hits} hits / {misses} misses this run "
          f"(hit rate {rate:.0%}; lifetime {after.hit_rate:.0%}, "
          f"{after.size}/{after.maxsize} entries)")
    if args.store:
        disk_hits = after.disk_hits - before.disk_hits
        disk_misses = after.disk_misses - before.disk_misses
        line = (f"store: {disk_hits} disk hits / {disk_misses} disk misses, "
                f"{after.disk_puts - before.disk_puts} published "
                f"({args.store})")
        if after.disk_quarantined - before.disk_quarantined:
            line += (f", {after.disk_quarantined - before.disk_quarantined} "
                     "quarantined")
        print(line)
    return 0 if not report.failures else 1


def cmd_cache(args) -> int:
    import json

    from repro.analysis.store import (
        DEFAULT_MAX_BYTES,
        STORE_STATS_SCHEMA,
        ResultStore,
    )

    max_bytes = getattr(args, "max_bytes", None)
    store = ResultStore(args.store, max_bytes=max_bytes
                        if max_bytes is not None else DEFAULT_MAX_BYTES)

    if args.action == "stats":
        stats = store.stats()
        if args.json:
            doc = {"schema": STORE_STATS_SCHEMA, **stats.as_dict()}
            print(json.dumps(doc, indent=2))
        else:
            print(f"store:       {stats.root}")
            print(f"records:     {stats.records} "
                  f"({stats.bytes} bytes of {stats.max_bytes} budget)")
            print(f"quarantined: {stats.quarantined_records}")
            print(f"tmp files:   {stats.tmp_files}")
        return 0

    if args.action == "verify":
        report = store.verify(quarantine=not args.no_quarantine)
        doc = report.as_dict()
        if args.json:
            pathlib.Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
            print(f"report: written to {args.json}", file=sys.stderr)
        print(f"verified {report.records} record(s): {report.valid} valid, "
              f"{len(report.corrupt)} corrupt "
              f"({report.quarantined_now} quarantined now, "
              f"{report.undetected_corrupt} undetected)")
        return 0 if report.ok else 1

    if args.action == "purge":
        removed = store.purge(analysis=args.analysis,
                              quarantine_only=args.quarantine)
        what = ("quarantined record(s)" if args.quarantine
                else f"{args.analysis or 'all'} record(s)")
        print(f"purged {removed} {what} from {store.root}")
        return 0

    # compact
    outcome = store.compact()
    print(f"compacted {store.root}: evicted {outcome['evicted']} record(s) "
          f"({outcome['freed_bytes']} bytes), swept {outcome['tmp_removed']} "
          f"tmp file(s), {outcome['remaining_bytes']} bytes remain")
    return 0


def cmd_obs_analyze(args) -> int:
    import json

    from repro.obs.analyze import render_summary_text, summarize_files

    try:
        summary = summarize_files(args.traces)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
        print(f"summary: written to {args.json} "
              "(validate with repro obs check)", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(render_summary_text(summary, top=args.top))
    return 0


def cmd_obs_flame(args) -> int:
    from repro.obs.analyze import collapsed_stacks, load_trace

    try:
        lines = collapsed_stacks([(str(p), load_trace(p))
                                  for p in args.traces])
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.output:
        pathlib.Path(args.output).write_text(
            "\n".join(lines) + ("\n" if lines else "")
        )
        print(f"flamegraph: {len(lines)} stack(s) written to {args.output} "
              "(feed to flamegraph.pl or https://speedscope.app)",
              file=sys.stderr)
    else:
        for line in lines:
            print(line)
    return 0


def cmd_obs_diff(args) -> int:
    import json

    from repro.obs.diff import diff_files, render_diff_html, render_diff_text

    try:
        diff = diff_files(args.a, args.b, noise_floor=args.noise)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    render = {
        "text": render_diff_text,
        "json": lambda d: json.dumps(d, indent=2),
        "html": render_diff_html,
    }
    text = render[args.format](diff)
    if args.output:
        pathlib.Path(args.output).write_text(text + "\n")
        print(f"diff: written to {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def cmd_obs_regress(args) -> int:
    import json

    from repro.obs.regress import evaluate_history, render_regress_text

    try:
        report = evaluate_history(
            args.history,
            window=args.window,
            min_samples=args.min_samples,
            threshold=args.threshold,
            noise_rel=args.noise,
            mad_mult=args.mad_mult,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"verdicts: written to {args.json} "
              "(validate with repro obs check)", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(render_regress_text(report, verbose=args.verbose))
    if report["counts"]["regressed"] and not args.report_only:
        return 5
    return 0


def cmd_obs_check(args) -> int:
    from repro.obs.check import main as check_main

    return check_main(list(args.paths))


def cmd_convert(args) -> int:
    g = load_graph(args.graph)
    if args.traditional:
        converted = traditional_hsdf(g)
        print(f"traditional HSDF: {converted.actor_count()} actors, "
              f"{converted.edge_count()} edges (= sum of repetition vector)")
    else:
        conversion = convert_to_hsdf(g)
        converted = conversion.graph
        n = len(conversion.token_ids)
        print(f"compact HSDF: {conversion.actor_count} actors "
              f"(bound N(N+2) = {n * (n + 2)}), {conversion.edge_count} edges, "
              f"{conversion.token_count} tokens")
    if args.output:
        save_graph(converted, args.output)
        print(f"written to {args.output}")
    return 0


def cmd_abstract(args) -> int:
    g = load_graph(args.graph)
    abstraction = discover_abstraction(g, strategy=args.strategy)
    groups = abstraction.groups()
    print(f"discovered {len(groups)} groups over {g.actor_count()} actors "
          f"(N = {abstraction.phase_count} phases)")
    for name, members in sorted(groups.items()):
        preview = ", ".join(members[:4]) + (", …" if len(members) > 4 else "")
        print(f"  {name}: {len(members)} actors ({preview})")
    abstract = prune_redundant_edges(abstract_graph(g, abstraction))
    print(f"abstract graph: {abstract.actor_count()} actors, {abstract.edge_count()} edges")
    if args.verify:
        cert = verify_abstraction(g, abstraction, check_dominance=not args.no_dominance)
        print(f"exact cycle time:  {_fmt(cert.original_cycle_time)}")
        print(f"abstract bound:    {_fmt(cert.bound_cycle_time)}")
        print(f"conservative:      {cert.conservative}")
        if cert.relative_error is not None:
            print(f"relative error:    {_fmt(cert.relative_error)}")
    if args.output:
        save_graph(abstract, args.output)
        print(f"written to {args.output}")
    return 0


def cmd_bottleneck(args) -> int:
    from repro.analysis.bottleneck import bottleneck

    g = load_graph(args.graph)
    report = bottleneck(g)
    print(report.describe())
    if report.bounded and report.slack_per_token is not None:
        print(f"best case with one extra critical token: period "
              f"{_fmt(report.slack_per_token)}")
    return 0


def cmd_schedule(args) -> int:
    from repro.analysis.periodic_schedule import rate_optimal_schedule

    g = load_graph(args.graph)
    schedule = rate_optimal_schedule(g)
    print(f"rate-optimal static periodic schedule, period {_fmt(schedule.period)}")
    for (actor, index), offset in sorted(
        schedule.offsets.items(), key=lambda kv: (kv[1], kv[0])
    ):
        print(f"  t = {str(offset):>8}  {actor}#{index}")
    return 0


def load_csdf(spec: str):
    import pathlib as _pathlib

    from repro.csdf.io import from_json as csdf_from_json

    return csdf_from_json(_pathlib.Path(spec).read_text())


def cmd_csdf(args) -> int:
    from repro.analysis.throughput import throughput as sdf_throughput
    from repro.csdf import (
        csdf_repetition_vector,
        csdf_throughput,
        csdf_to_hsdf,
        is_csdf_live,
    )
    from repro.csdf.analysis import is_csdf_consistent

    g = load_csdf(args.graph)
    print(f"CSDF graph: {g.name}: {g.actor_count()} actors, "
          f"{g.edge_count()} edges, {g.total_tokens()} tokens")
    if not is_csdf_consistent(g):
        print("inconsistent: no repetition vector exists")
        return 1
    gamma = csdf_repetition_vector(g)
    print(f"repetition vector (firings): {gamma}")
    if not is_csdf_live(g):
        print("deadlocked: no iteration completes")
        return 1
    result = csdf_throughput(g)
    print(f"iteration period: {_fmt(result.cycle_time)}")
    for actor, rate in result.per_actor.items():
        print(f"  rate({actor}) = {_fmt(rate)}")
    conversion = csdf_to_hsdf(g)
    print(f"compact HSDF: {conversion.actor_count} actors "
          f"(phase expansion: {sum(gamma.values())})")
    if args.output:
        save_graph(conversion.graph, args.output)
        print(f"written to {args.output}")
    return 0


def cmd_map(args) -> int:
    from repro.mapping import (
        greedy_load_balance,
        mapped_throughput,
        processor_utilisation,
        sweep_processor_counts,
    )

    g = load_graph(args.graph)
    if args.processors:
        mapping = greedy_load_balance(g, args.processors)
        result = mapped_throughput(g, mapping)
        print(f"{args.processors} processors: guaranteed period {_fmt(result.cycle_time)}")
        for processor, value in sorted(processor_utilisation(g, mapping).items()):
            actors = sorted(a for a, p in mapping.assignment.items() if p == processor)
            print(f"  {processor}: utilisation {float(value):.2f}  ({', '.join(actors)})")
        return 0
    print(f"{'procs':>6} {'guaranteed period':>18} {'speedup':>8}")
    points = sweep_processor_counts(g, max_processors=args.max_processors)
    base = points[0].cycle_time
    for point in points:
        print(f"{point.processors:>6} {str(point.cycle_time):>18} "
              f"{float(base / point.cycle_time):>7.2f}x")
    return 0


def _run_findings(args, codes, render, *, config_name, collect,
                  no_input) -> int:
    """The findings pipeline ``repro lint`` and ``repro devlint`` share.

    ``--select``/``--ignore`` are checked against the registry's rule
    ``codes`` (an unknown code exits 2), ``collect(config)`` produces
    the reports (none at all exits 2 with ``no_input``), the baseline is
    written and/or subtracted, ``render[args.format]`` prints the report
    to ``-o`` or stdout, and ``--fail-on`` picks the exit code.
    """
    from repro.lint import load_baseline, load_config, write_baseline

    def split_codes(raw):
        if not raw:
            return ()
        selected = tuple(code.strip() for code in raw.split(",") if code.strip())
        unknown = [code for code in selected if code not in codes]
        if unknown:
            print(
                f"error: unknown rule code(s) {', '.join(unknown)}; "
                f"registered: {', '.join(codes)}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        return selected

    config = load_config(args.config, filename=config_name).merged(
        select=split_codes(args.select),
        ignore=split_codes(args.ignore),
        baseline=args.baseline,
    )
    reports = collect(config)
    if not reports:
        print(f"error: {no_input}", file=sys.stderr)
        return 2

    if args.write_baseline:
        count = write_baseline(args.write_baseline, reports)
        print(
            f"baseline written to {args.write_baseline} ({count} finding(s))",
            file=sys.stderr,
        )
    if config.baseline:
        fingerprints = load_baseline(config.baseline)
        reports = [r.without_fingerprints(fingerprints) for r in reports]

    text = render[args.format](reports)
    if args.output:
        pathlib.Path(args.output).write_text(text + "\n")
        print(f"written to {args.output}", file=sys.stderr)
    else:
        print(text)

    errors = sum(len(r.errors) for r in reports)
    warnings = sum(len(r.warnings) for r in reports)
    if args.fail_on == "never":
        return 0
    if errors:
        return 2
    if warnings and args.fail_on == "warning":
        return 1
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.cache import default_cache
    from repro.lint import (
        CONFIG_FILENAME,
        lint_csdf,
        render_json,
        render_sarif,
        render_text,
        rule_codes,
        run_lint,
    )

    def collect(config):
        if args.csdf:
            return [lint_csdf(load_csdf(spec), config=config)
                    for spec in args.graphs]
        graphs = []
        if args.registry:
            graphs += [case.build() for case in TABLE1_CASES]
        graphs += [load_graph(spec) for spec in args.graphs]
        cache = default_cache()
        return [run_lint(g, config=config, cache=cache) for g in graphs]

    render = {"text": render_text, "json": render_json, "sarif": render_sarif}
    return _run_findings(
        args, rule_codes(), render, config_name=CONFIG_FILENAME,
        collect=collect,
        no_input="no graphs given (pass specs and/or --registry)",
    )


def cmd_devlint(args) -> int:
    from repro.devlint import CONFIG_FILENAME, DEVLINT, run_devlint
    from repro.lint import render_json, render_sarif, render_text

    rules = DEVLINT.all_rules()
    render = {
        "text": lambda rs: render_text(rs, skip_clean=True),
        "json": lambda rs: render_json(rs, tool_name="repro-devlint"),
        "sarif": lambda rs: render_sarif(rs, rules=rules,
                                         tool_name="repro-devlint"),
    }
    return _run_findings(
        args, DEVLINT.rule_codes(), render, config_name=CONFIG_FILENAME,
        collect=lambda config: run_devlint(args.paths or ["src/repro"],
                                           config=config),
        no_input="no Python files under the given paths",
    )


def cmd_gantt(args) -> int:
    from fractions import Fraction

    from repro.sdf.gantt import gantt

    g = load_graph(args.graph)
    print(gantt(g, Fraction(args.horizon), width=args.width))
    return 0


def cmd_dot(args) -> int:
    g = load_graph(args.graph)
    text = to_dot(g)
    if args.output:
        pathlib.Path(args.output).write_text(text)
        print(f"written to {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_table1(args) -> int:
    print(f"{'test case':<26} {'traditional':>11} {'new':>6} {'ratio':>8}")
    for case in TABLE1_CASES:
        g = case.build()
        traditional = iteration_length(g)
        compact = convert_to_hsdf(g)
        print(f"{f'{case.index}. {case.name}':<26} {traditional:>11} "
              f"{compact.actor_count:>6} {traditional / compact.actor_count:>8.2f}")
    return 0


def cmd_builtins(args) -> int:
    for name in sorted(BUILTIN_GRAPHS):
        print(f"builtin:{name}")
    return 0


def _add_observability_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="FILE",
                   help="record a trace of the run: Chrome trace_event JSON "
                        "(open in chrome://tracing or ui.perfetto.dev), or "
                        "one span per line when FILE ends in .jsonl")
    p.add_argument("--metrics", metavar="FILE",
                   help="dump the metrics registry after the run: Prometheus "
                        "text for .prom/.txt, JSON snapshot otherwise")


@contextlib.contextmanager
def _observe(args):
    """Arm ``--trace``/``--metrics`` around a command and write the
    artefacts on the way out (also on error, so a failed run still
    leaves its trace behind)."""
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if not trace_path and not metrics_path:
        yield
        return
    from repro.obs.trace import Tracer

    tracer = Tracer().install() if trace_path else None
    try:
        yield
    finally:
        if tracer is not None:
            tracer.uninstall()
            if str(trace_path).endswith(".jsonl"):
                count = tracer.write_jsonl(trace_path)
                print(f"trace: {count} span(s) written to {trace_path}",
                      file=sys.stderr)
            else:
                count = tracer.write_chrome_trace(trace_path)
                print(f"trace: {count} event(s) written to {trace_path} "
                      "(load in chrome://tracing or ui.perfetto.dev)",
                      file=sys.stderr)
        if metrics_path:
            from repro.analysis.cache import default_cache
            from repro.obs.metrics import default_registry

            registry = default_registry()
            default_cache().register_metrics(registry)
            registry.write(metrics_path)
            print(f"metrics: written to {metrics_path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SDF graph reduction and analysis (Geilen, DAC 2009 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="structural facts and consistency")
    p.add_argument("graph")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("throughput", help="exact throughput analysis")
    p.add_argument("graph")
    p.add_argument("--method", choices=("symbolic", "simulation", "hsdf"),
                   default="symbolic")
    p.add_argument("--kernel", choices=("auto", "numpy", "exact"),
                   default="auto",
                   help="compute kernel: numpy (vectorized, exact-certified), "
                        "exact (pure-python Fractions) or auto (numpy); "
                        "results are identical either way, and "
                        "--method hsdf always runs exact")
    p.add_argument("--lint", action="store_true",
                   help="lint first; refuse graphs with error findings")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="cooperative deadline for the analysis")
    p.add_argument("--fallback", action="store_true",
                   help="on timeout, degrade through the tiered policy "
                        "(exact -> symbolic -> Theorem-1 conservative bound)")
    _add_observability_args(p)
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser(
        "explain",
        help="how a throughput number was produced: reduction steps, "
             "fallback tiers and an independently checkable "
             "critical-cycle witness (repro-provenance-v1)",
    )
    p.add_argument("graph")
    p.add_argument("--method", choices=("symbolic", "simulation", "hsdf"),
                   default="symbolic")
    p.add_argument("--kernel", choices=("auto", "numpy", "exact"),
                   default="auto",
                   help="compute kernel (recorded in the provenance "
                        "certificate; see docs/kernels.md)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="cooperative deadline (exit 3 on timeout)")
    p.add_argument("--fallback", action="store_true",
                   help="analyse through the tiered policy and explain the "
                        "whole chain (tier history, degradation reason)")
    p.add_argument("--stages", nargs="+", metavar="STAGE",
                   choices=("simulation", "symbolic", "hsdf", "abstraction"),
                   help="restrict the policy to these tiers (implies "
                        "--fallback); e.g. --stages abstraction forces the "
                        "Theorem-1 conservative bound")
    p.add_argument("--json", metavar="FILE",
                   help="write the repro-provenance-v1 certificate "
                        "(validate with python -m repro.obs.check)")
    p.add_argument("--html", metavar="FILE",
                   help="write a self-contained HTML report (step table, "
                        "highlighted critical cycle, tier timeline)")
    p.add_argument("--dot", metavar="FILE",
                   help="write the graph as DOT with the critical cycle "
                        "highlighted")
    p.add_argument("--require-witness", action="store_true",
                   help="exit 4 unless the record carries a witness that "
                        "verifies against the graph")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("batch", help="analyse many graphs concurrently (cached)")
    p.add_argument("graphs", nargs="*", metavar="graph",
                   help="graph files or builtin:<name> specs")
    p.add_argument("--registry", action="store_true",
                   help="include all Table-1 registry graphs")
    p.add_argument("--analysis", nargs="+",
                   choices=("repetition", "throughput", "latency",
                            "symbolic_iteration"),
                   default=["throughput"])
    p.add_argument("--method", choices=("symbolic", "simulation", "hsdf"),
                   default="symbolic", help="throughput back-end")
    p.add_argument("--kernel", choices=("auto", "numpy", "exact"),
                   default="auto",
                   help="compute kernel for throughput analyses; cache "
                        "entries and store records are shared across kernels")
    p.add_argument("--backend", choices=("thread", "process", "serial"),
                   default="thread")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--lint", choices=("error", "warning"), default=None,
                   help="pre-analysis lint gate: fail graphs with findings "
                        "at this severity before analysing them")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-graph cooperative deadline")
    p.add_argument("--retries", type=int, default=0,
                   help="retries (with backoff) for transient failures")
    p.add_argument("--store", metavar="DIR",
                   help="durable result store: serve repeat analyses from "
                        "disk and publish new results crash-consistently, so "
                        "re-running a killed sweep with the same store "
                        "resumes it (shared with process-backend workers; "
                        "inspect with 'repro cache')")
    p.add_argument("--inject", action="append", metavar="SPEC", default=[],
                   help="deterministic fault injection, e.g. "
                        "'name=modem:kill', 'p=0.2:raise:"
                        "TransientWorkerError@1', 'fp=sdfg-v1:ab:hang' "
                        "(repeatable)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for probabilistic fault selectors")
    _add_observability_args(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "cache",
        help="inspect and maintain a durable result store "
             "(see docs/robustness.md for the durability model)",
    )
    cache_sub = p.add_subparsers(dest="action", required=True)

    def _store_arg(sp):
        sp.add_argument("--store", metavar="DIR", required=True,
                        help="root directory of the result store")

    sp = cache_sub.add_parser("stats", help="record census and size budget")
    _store_arg(sp)
    sp.add_argument("--json", action="store_true",
                    help="print a repro-store-stats-v1 JSON document")
    sp.set_defaults(func=cmd_cache)

    sp = cache_sub.add_parser(
        "verify",
        help="re-check every record's checksum, key echo and payload; "
             "quarantine corrupt ones (exit 1 if any corruption survives "
             "undetected)",
    )
    _store_arg(sp)
    sp.add_argument("--json", metavar="FILE",
                    help="write a repro-store-verify-v1 report (validate "
                         "with python -m repro.obs.check)")
    sp.add_argument("--no-quarantine", action="store_true",
                    help="report corrupt records but leave them in place")
    sp.set_defaults(func=cmd_cache)

    sp = cache_sub.add_parser("purge", help="delete records")
    _store_arg(sp)
    sp.add_argument("--analysis", metavar="NAME",
                    help="only records of this analysis")
    sp.add_argument("--quarantine", action="store_true",
                    help="only the quarantine directory")
    sp.set_defaults(func=cmd_cache)

    sp = cache_sub.add_parser(
        "compact", help="sweep tmp garbage and evict LRU records to budget"
    )
    _store_arg(sp)
    sp.add_argument("--max-bytes", type=int, default=None, metavar="N",
                    help="size budget to compact down to (default 256 MiB)")
    sp.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "obs",
        help="consume the emitted telemetry: trace analytics, "
             "flamegraphs, A/B diffs, the benchmark regression sentinel "
             "and schema checks (see docs/observability.md)",
    )
    obs_sub = p.add_subparsers(dest="action", required=True)

    sp = obs_sub.add_parser(
        "analyze",
        help="reconstruct span trees from trace files (Chrome trace or "
             "span JSONL), attribute self time per (stage, graph, kernel) "
             "and extract the critical path (repro-trace-summary-v1)",
    )
    sp.add_argument("traces", nargs="+", metavar="TRACE",
                    help="trace files from --trace (Chrome JSON or .jsonl); "
                         "several runs aggregate into one percentile table")
    sp.add_argument("--format", choices=("text", "json"), default="text",
                    help="terminal report or the raw summary document")
    sp.add_argument("--json", metavar="FILE",
                    help="also write the repro-trace-summary-v1 document")
    sp.add_argument("--top", type=int, default=20,
                    help="stage rows to show in the text report (default 20)")
    sp.set_defaults(func=cmd_obs_analyze)

    sp = obs_sub.add_parser(
        "flame",
        help="collapsed-stack flamegraph (self-time µs per unique span "
             "stack; render with flamegraph.pl or speedscope.app)",
    )
    sp.add_argument("traces", nargs="+", metavar="TRACE")
    sp.add_argument("-o", "--output", metavar="FILE",
                    help="write the .folded file (default: stdout)")
    sp.set_defaults(func=cmd_obs_flame)

    sp = obs_sub.add_parser(
        "diff",
        help="structural A/B diff of two trace summaries or two "
             "repro-metrics-v1 snapshots, with noise-floored relative "
             "deltas (repro-trace-diff-v1)",
    )
    sp.add_argument("a", help="baseline document (JSON)")
    sp.add_argument("b", help="candidate document (JSON)")
    sp.add_argument("--format", choices=("text", "json", "html"),
                    default="text")
    sp.add_argument("--noise", type=float, default=0.05, metavar="FRACTION",
                    help="relative changes below this magnitude are "
                         "published as unchanged (default 0.05)")
    sp.add_argument("-o", "--output", metavar="FILE",
                    help="write the rendering to a file")
    sp.set_defaults(func=cmd_obs_diff)

    sp = obs_sub.add_parser(
        "regress",
        help="statistical regression sentinel over the benchmark history "
             "journal: per-(suite, entry) robust baselines (median + MAD "
             "over host-compatible samples), exit 5 on any regression "
             "(repro-regress-v1)",
    )
    sp.add_argument("--history", metavar="FILE",
                    default="benchmarks/results/history.jsonl",
                    help="history journal "
                         "(default benchmarks/results/history.jsonl)")
    sp.add_argument("--window", type=int, default=20, metavar="K",
                    help="rolling baseline window (default 20)")
    sp.add_argument("--min-samples", dest="min_samples", type=int, default=3,
                    metavar="N",
                    help="host-compatible priors needed for a verdict "
                         "(default 3)")
    sp.add_argument("--threshold", type=float, default=0.25,
                    metavar="FRACTION",
                    help="relative drift that counts as a regression "
                         "(default 0.25)")
    sp.add_argument("--noise", type=float, default=0.20, metavar="FRACTION",
                    help="MAD/|median| above this marks a series noisy "
                         "(default 0.20)")
    sp.add_argument("--mad-mult", dest="mad_mult", type=float, default=4.0,
                    metavar="X",
                    help="widen the threshold to X times the series' own "
                         "MAD (default 4.0)")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--json", metavar="FILE",
                    help="also write the repro-regress-v1 document")
    sp.add_argument("--report-only", dest="report_only", action="store_true",
                    help="always exit 0 (report without gating)")
    sp.add_argument("-v", "--verbose", action="store_true",
                    help="also list ok / insufficient-data series")
    sp.set_defaults(func=cmd_obs_regress)

    sp = obs_sub.add_parser(
        "check",
        help="validate observability/benchmark artefacts against their "
             "schemas (alias of python -m repro.obs.check)",
    )
    sp.add_argument("paths", nargs="+", metavar="ARTEFACT")
    sp.set_defaults(func=cmd_obs_check)

    p = sub.add_parser("latency", help="single-iteration latency")
    p.add_argument("graph")
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser("convert", help="SDF-to-HSDF conversion")
    p.add_argument("graph")
    p.add_argument("--traditional", action="store_true",
                   help="classical expansion instead of the compact conversion")
    p.add_argument("-o", "--output", help=".json, .xml or .dot file to write")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("abstract", help="discover and apply an abstraction")
    p.add_argument("graph")
    p.add_argument("--strategy", choices=("name", "structural"), default="name")
    p.add_argument("--verify", action="store_true",
                   help="verify conservativity (Theorem 1) numerically")
    p.add_argument("--no-dominance", action="store_true",
                   help="skip the Proposition-1 dominance check (large graphs)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_abstract)

    p = sub.add_parser("map", help="multiprocessor mapping sweep / analysis")
    p.add_argument("graph")
    p.add_argument("--processors", type=int, default=0,
                   help="analyse one greedy mapping at this processor count")
    p.add_argument("--max-processors", type=int, default=4,
                   help="sweep 1..N processors (default 4)")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("csdf", help="analyse a cyclo-static (CSDF) JSON graph")
    p.add_argument("graph")
    p.add_argument("-o", "--output",
                   help="write the compact HSDF equivalent (.json/.xml/.dot)")
    p.set_defaults(func=cmd_csdf)

    p = sub.add_parser(
        "lint", help="static analysis: structured diagnostics (text/json/sarif)"
    )
    p.add_argument("graphs", nargs="*", metavar="graph",
                   help="graph files or builtin:<name> specs")
    p.add_argument("--registry", action="store_true",
                   help="also lint every Table-1 registry graph")
    p.add_argument("--csdf", action="store_true",
                   help="treat the inputs as CSDF JSON graphs")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="output format (default text)")
    p.add_argument("--fail-on", dest="fail_on",
                   choices=("error", "warning", "never"), default="error",
                   help="exit 2 on errors; 'warning' also exits 1 on "
                        "warnings-only; 'never' always exits 0")
    p.add_argument("--select", metavar="CODES",
                   help="comma-separated rule codes to run (default: all)")
    p.add_argument("--ignore", metavar="CODES",
                   help="comma-separated rule codes to suppress")
    p.add_argument("--baseline", metavar="FILE",
                   help="subtract the accepted findings in this baseline file")
    p.add_argument("--write-baseline", dest="write_baseline", metavar="FILE",
                   help="write the current findings as a new baseline")
    p.add_argument("--config", metavar="FILE",
                   help="lint config (default: ./.reprolint.json when present)")
    p.add_argument("-o", "--output", help="write the report to a file")
    _add_observability_args(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "devlint",
        help="source-level invariant analyzer over the project's own code",
    )
    p.add_argument("paths", nargs="*", metavar="path",
                   help="files or directories to analyze (default: src/repro)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="output format (default text)")
    p.add_argument("--fail-on", dest="fail_on",
                   choices=("error", "warning", "never"), default="error",
                   help="exit 2 on errors; 'warning' also exits 1 on "
                        "warnings-only; 'never' always exits 0")
    p.add_argument("--select", metavar="CODES",
                   help="comma-separated rule codes to run (default: all)")
    p.add_argument("--ignore", metavar="CODES",
                   help="comma-separated rule codes to suppress")
    p.add_argument("--baseline", metavar="FILE",
                   help="subtract the accepted findings in this baseline file")
    p.add_argument("--write-baseline", dest="write_baseline", metavar="FILE",
                   help="write the current findings as a new baseline")
    p.add_argument("--config", metavar="FILE",
                   help="devlint config (default: ./.reprodevlint.json "
                        "when present)")
    p.add_argument("-o", "--output", help="write the report to a file")
    _add_observability_args(p)
    p.set_defaults(func=cmd_devlint)

    p = sub.add_parser("gantt", help="ASCII Gantt chart of self-timed execution")
    p.add_argument("graph")
    p.add_argument("--horizon", type=int, default=50,
                   help="simulate until this time (default 50)")
    p.add_argument("--width", type=int, default=100)
    p.set_defaults(func=cmd_gantt)

    p = sub.add_parser("bottleneck", help="locate the critical cycle")
    p.add_argument("graph")
    p.set_defaults(func=cmd_bottleneck)

    p = sub.add_parser("schedule", help="rate-optimal static periodic schedule")
    p.add_argument("graph")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("dot", help="Graphviz DOT export")
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("table1", help="regenerate Table 1 of the paper")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("builtins", help="list built-in graphs")
    p.set_defaults(func=cmd_builtins)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _observe(args):
            return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into a consumer that closed early (e.g. `head`).
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
