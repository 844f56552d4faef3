"""Command-line interface: ``python -m repro <command> …``.

Every command is one row of :data:`COMMANDS`: its name (``"cache
verify"`` nests under ``cache``), handler, help text, one example and
its options.  An option several commands share is declared once in
:data:`OPTIONS`; choice lists and defaults come from the library
constants that own them, and each numeric option's type checks its
range, so a bad value is a usage error (exit 2) before any work starts.
:func:`build_parser` turns the table into the argparse tree,
:func:`main` maps errors to exit codes (``docs/usage.md#exit-codes``),
and ``repro --help`` lists every command with its example.

Graphs are read from ``.json`` (the library's dict format) or ``.xml``
(SDF3-style); the built-in benchmark suite is reachable as
``builtin:<name>`` (see ``python -m repro builtins``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
from fractions import Fraction

from repro.analysis.batch import ANALYSES, BACKENDS
from repro.analysis.deadline import Deadline
from repro.analysis.faults import parse_fault
from repro.analysis.latency import latency
from repro.analysis.resilience import KNOWN_STAGES
from repro.analysis.store import DEFAULT_MAX_BYTES
from repro.analysis.throughput import METHODS, throughput
from repro.core.abstraction import abstract_graph
from repro.core.conservativity import verify_abstraction
from repro.core.grouping import STRATEGIES, discover_abstraction
from repro.core.hsdf_conversion import convert_to_hsdf
from repro.core.pruning import prune_redundant_edges
from repro.errors import AnalysisTimeout, ReproError
from repro.graphs import TABLE1_CASES
from repro.graphs.examples import figure2_graph, figure3_graph, section41_example
from repro.graphs.synthetic import regular_prefetch, remote_memory_access
from repro.kernels import KERNELS
from repro.lint.diagnostics import ERROR, WARNING
from repro.obs import regress
from repro.obs.diff import DEFAULT_NOISE_FLOOR
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


def load_csdf(spec: str):
    from repro.csdf.io import from_json as csdf_from_json

    return csdf_from_json(pathlib.Path(spec).read_text())


def _graph_text(graph: SDFGraph, path: str) -> str:
    """``graph`` in the format the suffix of ``path`` names."""
    suffix = pathlib.Path(path).suffix
    if suffix == ".xml":
        return sdf_io.to_sdf3_xml(graph)
    if suffix == ".dot":
        return to_dot(graph)
    return sdf_io.to_json(graph)


def _write(text: str, path=None, what: str = "report") -> None:
    """Write ``text`` to ``path`` with a notice on stderr, or to stdout."""
    if text and not text.endswith("\n"):
        text += "\n"
    if path:
        pathlib.Path(path).write_text(text)
        print(f"{what}: written to {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _json(document) -> str:
    return json.dumps(document, indent=2)


def _fmt(value) -> str:
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value} (~{float(value):.6g})"
    return str(value)


def _deadline(args):
    return None if args.timeout is None else Deadline.after(args.timeout)


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


def _method(args, *policy_flags) -> str:
    """``--method``, or its default; with a policy flag set (the policy
    runs its own tiers) an explicit ``--method`` is a usage error."""
    if args.method is not None:
        for flag in policy_flags:
            if getattr(args, flag.lstrip("-")):
                args.parser.error(f"argument --method: not allowed with "
                                  f"argument {flag}")
    return args.method or METHODS[0]


def cmd_throughput(args) -> int:
    method = _method(args, "--fallback")
    g = load_graph(args.graph)
    if args.fallback:
        from repro.analysis.resilience import analyse_with_policy

        if args.lint:
            from repro.lint.engine import ensure_lint_clean

            ensure_lint_clean(g)
        outcome = analyse_with_policy(g, timeout=args.timeout,
                                      kernel=args.kernel)
        print(outcome.describe())
        return 3 if outcome.status == "timed-out" else 0
    result = throughput(g, method=method, precheck=args.lint,
                        deadline=_deadline(args), kernel=args.kernel)
    if result.unbounded:
        print("throughput: unbounded (no recurrent timing constraint)")
        return 0
    print(f"iteration period: {_fmt(result.cycle_time)}")
    for actor, rate in result.per_actor.items():
        print(f"  rate({actor}) = {_fmt(rate)}")
    return 0


def cmd_explain(args) -> int:
    from repro.obs.provenance import WitnessError, verify_witness
    from repro.obs.report import render_html, render_text, witness_highlights
    from repro.obs.trace import Tracer

    method = _method(args, "--fallback", "--stages")
    g = load_graph(args.graph)
    timed_out = False
    tracer = Tracer()  # spans feed the HTML timeline
    with tracer:
        if args.fallback or args.stages:
            from repro.analysis.resilience import DEFAULT_STAGES, AnalysisPolicy

            outcome = AnalysisPolicy(
                stages=tuple(args.stages or DEFAULT_STAGES),
                timeout=args.timeout,
                kernel=args.kernel,
            ).run(g)
            record = outcome.record
            timed_out = outcome.status == "timed-out"
        else:
            record = throughput(g, method=method, deadline=_deadline(args),
                                kernel=args.kernel).provenance

    print(render_text(record, graph=g))
    if args.json:
        _write(_json(record.as_dict()), args.json, "provenance")
    if args.html:
        _write(render_html(record, graph=g, spans=tracer.spans()), args.html)
    if args.dot:
        actors, edges = witness_highlights(record, g)
        _write(to_dot(g, highlight_actors=actors, highlight_edges=edges),
               args.dot, "dot")

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
    from repro.analysis.batch import run_batch
    from repro.analysis.cache import default_cache
    from repro.analysis.faults import FaultPlan

    graphs = [case.build() for case in TABLE1_CASES] if args.registry else []
    graphs += [load_graph(spec) for spec in args.graphs]
    if not graphs:
        print("error: no graphs given (pass specs and/or --registry)", file=sys.stderr)
        return 2

    cache = default_cache()
    before = cache.stats()
    report = run_batch(
        graphs,
        analyses=tuple(args.analysis),
        method=_method(args),
        backend=args.backend,
        workers=args.workers,
        cache=cache,
        lint=args.lint,
        timeout=args.timeout,
        retries=args.retries,
        faults=FaultPlan(tuple(args.inject), seed=args.fault_seed)
        if args.inject else None,
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


def _store(args):
    from repro.analysis.store import ResultStore

    return ResultStore(args.store)


def cmd_cache_stats(args) -> int:
    from repro.analysis.store import STORE_STATS_SCHEMA

    stats = _store(args).stats()
    if args.json:
        _write(_json({"schema": STORE_STATS_SCHEMA, **stats.as_dict()}))
        return 0
    print(f"store:       {stats.root}")
    print(f"records:     {stats.records} "
          f"({stats.bytes} bytes of {stats.max_bytes} budget)")
    print(f"quarantined: {stats.quarantined_records}")
    print(f"tmp files:   {stats.tmp_files}")
    return 0


def cmd_cache_verify(args) -> int:
    report = _store(args).verify(quarantine=not args.no_quarantine)
    if args.json:
        _write(_json(report.as_dict()), args.json)
    print(f"verified {report.records} record(s): {report.valid} valid, "
          f"{len(report.corrupt)} corrupt "
          f"({report.quarantined_now} quarantined now, "
          f"{report.undetected_corrupt} undetected)")
    return 0 if report.ok else 1


def cmd_cache_purge(args) -> int:
    store = _store(args)
    removed = store.purge(analysis=args.analysis,
                          quarantine_only=args.quarantine)
    what = ("quarantined record(s)" if args.quarantine
            else f"{args.analysis or 'all'} record(s)")
    print(f"purged {removed} {what} from {store.root}")
    return 0


def cmd_cache_compact(args) -> int:
    store = _store(args)
    outcome = store.compact(max_bytes=args.max_bytes)
    print(f"compacted {store.root}: evicted {outcome['evicted']} record(s) "
          f"({outcome['freed_bytes']} bytes), swept {outcome['tmp_removed']} "
          f"tmp file(s), {outcome['remaining_bytes']} bytes remain")
    return 0


def cmd_obs_analyze(args) -> int:
    from repro.obs.analyze import render_summary_text, summarize_files

    summary = summarize_files(args.traces)
    if args.json:
        _write(_json(summary), args.json, "summary")
    _write(_json(summary) if args.format == "json"
           else render_summary_text(summary, top=args.top))
    return 0


def cmd_obs_flame(args) -> int:
    from repro.obs.analyze import collapsed_stacks, load_trace

    lines = collapsed_stacks([(str(p), load_trace(p)) for p in args.traces])
    _write("\n".join(lines), args.output, f"flamegraph of {len(lines)} stack(s)")
    return 0


def cmd_obs_diff(args) -> int:
    from repro.obs.diff import diff_files, render_diff_html, render_diff_text

    diff = diff_files(args.a, args.b, noise_floor=args.noise)
    render = {"text": render_diff_text, "json": _json, "html": render_diff_html}
    _write(render[args.format](diff), args.output, "diff")
    return 0


def cmd_obs_regress(args) -> int:
    report = regress.evaluate_history(
        args.history,
        window=args.window,
        min_samples=args.min_samples,
        threshold=args.threshold,
        noise_rel=args.noise,
        mad_mult=args.mad_mult,
    )
    if args.json:
        _write(_json(report), args.json, "verdicts")
    _write(_json(report) if args.format == "json"
           else regress.render_regress_text(report, verbose=args.verbose))
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
        _write(_graph_text(converted, args.output), args.output, "graph")
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
        _write(_graph_text(abstract, args.output), args.output, "graph")
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


def cmd_csdf(args) -> int:
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
        _write(_graph_text(conversion.graph, args.output), args.output, "graph")
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


def cmd_lint(args) -> int:
    from repro.analysis.cache import default_cache
    from repro.lint import (
        lint_csdf,
        load_baseline,
        load_config,
        render_json,
        render_sarif,
        render_text,
        rule_codes,
        run_lint,
        write_baseline,
    )

    if args.csdf and args.registry:
        print("error: --registry adds the SDF registry graphs and cannot be "
              "combined with --csdf", file=sys.stderr)
        return 2

    codes = rule_codes()

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

    config = load_config(args.config).merged(
        select=split_codes(args.select),
        ignore=split_codes(args.ignore),
        baseline=args.baseline,
    )
    if args.csdf:
        reports = [lint_csdf(load_csdf(spec), config=config)
                   for spec in args.graphs]
    else:
        graphs = [case.build() for case in TABLE1_CASES] if args.registry else []
        graphs += [load_graph(spec) for spec in args.graphs]
        cache = default_cache()
        reports = [run_lint(g, config=config, cache=cache) for g in graphs]
    if not reports:
        print("error: no graphs given (pass specs and/or --registry)",
              file=sys.stderr)
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

    render = {"text": render_text, "json": render_json, "sarif": render_sarif}
    _write(render[args.format](reports), args.output)

    errors = sum(len(r.errors) for r in reports)
    warnings = sum(len(r.warnings) for r in reports)
    if args.fail_on == "never":
        return 0
    if errors:
        return 2
    if warnings and args.fail_on == WARNING:
        return 1
    return 0


def cmd_gantt(args) -> int:
    from repro.sdf.gantt import gantt

    g = load_graph(args.graph)
    print(gantt(g, Fraction(args.horizon), width=args.width))
    return 0


def cmd_dot(args) -> int:
    _write(to_dot(load_graph(args.graph)), args.output, "dot")
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


# ----------------------------------------------------------------------
# the command table
# ----------------------------------------------------------------------

def _at_least(cast, low, *, strictly=False):
    """An argparse type: ``cast`` the text and require ``>= low`` (``> low``
    when ``strictly``); anything else is a usage error naming the flag."""
    bound = f"{'>' if strictly else '>='} {low}"

    def parse(text):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not (value > low if strictly else value >= low):
            raise argparse.ArgumentTypeError(
                f"expected {cast.__name__} {bound}, got {text!r}")
        return value

    return parse


def _fault(spec: str):
    """``parse_fault`` as an argparse type, its own message kept."""
    try:
        return parse_fault(spec)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


POSITIVE_INT = _at_least(int, 1)
NATURAL = _at_least(int, 0)
NON_NEGATIVE = _at_least(float, 0)
SECONDS = _at_least(float, 0, strictly=True)

#: Options shared by several commands, each declared once as
#: ``name -> (flags, add_argument keyword arguments)``.
OPTIONS = {
    "graph": (("graph",), {"help": "graph file (.json/.xml) or builtin:<name>"}),
    "graphs": (("graphs",), {"nargs": "*", "metavar": "graph",
                             "help": "graph files or builtin:<name> specs"}),
    "registry": (("--registry",), {"action": "store_true",
                                   "help": "include every Table-1 registry graph"}),
    # No parser default: the handlers tell an explicit --method apart.
    "method": (("--method",), {"choices": METHODS,
                               "help": f"throughput back-end (default "
                                       f"{METHODS[0]}; not with --fallback "
                                       f"or --stages)"}),
    "kernel": (("--kernel",), {
        "choices": KERNELS, "default": KERNELS[0],
        "help": "compute kernel: numpy (vectorized, exact-certified), exact "
                "(pure-python Fractions) or auto (numpy); results are "
                "identical, and --method hsdf always runs exact"}),
    "timeout": (("--timeout",), {
        "type": SECONDS, "metavar": "SECONDS",
        "help": "cooperative deadline, per graph for batch (a positive "
                "number of seconds)"}),
    "fallback": (("--fallback",), {
        "action": "store_true",
        "help": "analyse through the tiered policy (exact -> symbolic -> "
                "Theorem-1 conservative bound) and report the whole chain"}),
    "trace": (("--trace",), {
        "metavar": "FILE",
        "help": "record a trace of the run: Chrome trace_event JSON (open in "
                "chrome://tracing or ui.perfetto.dev), or one span per line "
                "when FILE ends in .jsonl"}),
    "metrics": (("--metrics",), {
        "metavar": "FILE",
        "help": "dump the metrics registry after the run: Prometheus text for "
                ".prom/.txt, JSON snapshot otherwise"}),
    "store": (("--store",), {"metavar": "DIR", "required": True,
                             "help": "root directory of the result store"}),
    "json": (("--json",), {"metavar": "FILE",
                           "help": "also write the command's JSON document "
                                   "(validate with repro obs check)"}),
    "format": (("--format",), {"choices": ("text", "json"), "default": "text",
                               "help": "terminal report or the JSON document"}),
    "output": (("-o", "--output"), {"metavar": "FILE",
                                    "help": "write to FILE instead of stdout"}),
    "graph-output": (("-o", "--output"), {
        "metavar": "FILE",
        "help": "write the resulting graph: .xml as SDF3, .dot as DOT, "
                "anything else as JSON"}),
    "traces": (("traces",), {"nargs": "+", "metavar": "TRACE",
                             "help": "trace files from --trace (Chrome JSON "
                                     "or .jsonl)"}),
    "verbose": (("-v", "--verbose"), {"action": "store_true",
                                      "help": "more detail"}),
}

#: Help of the commands that only group others.
GROUPS = {
    "cache": "inspect and maintain a durable result store "
             "(see docs/robustness.md for the durability model)",
    "obs": "consume the emitted telemetry: trace analytics, flamegraphs, "
           "A/B diffs, the benchmark regression sentinel and schema checks "
           "(see docs/observability.md)",
}

#: One row per command: (name, handler, help, example, options).  An
#: option is the name of a shared one or its own ``(flags, kwargs)``.
COMMANDS = (
    ("info", cmd_info, "structural facts and consistency",
     "info builtin:modem --verbose", ("graph", "verbose")),
    ("throughput", cmd_throughput, "exact throughput analysis",
     "throughput builtin:mp3-playback --timeout 5 --fallback",
     ("graph", "method", "kernel",
      (("--lint",), {"action": "store_true",
                     "help": "lint first; refuse graphs with error findings"}),
      "timeout", "fallback", "trace", "metrics")),
    ("explain", cmd_explain,
     "how a throughput number was produced: reduction steps, fallback tiers "
     "and an independently checkable critical-cycle witness "
     "(repro-provenance-v1)",
     "explain builtin:modem --json cert.json --require-witness",
     ("graph", "method", "kernel", "timeout", "fallback",
      (("--stages",), {
          "nargs": "+", "metavar": "STAGE", "choices": KNOWN_STAGES,
          "help": "restrict the policy to these tiers (implies --fallback); "
                  "e.g. --stages abstraction forces the Theorem-1 "
                  "conservative bound"}),
      "json",
      (("--html",), {"metavar": "FILE",
                     "help": "write a self-contained HTML report (step table, "
                             "highlighted critical cycle, tier timeline)"}),
      (("--dot",), {"metavar": "FILE",
                    "help": "write the graph as DOT with the critical cycle "
                            "highlighted"}),
      (("--require-witness",), {
          "action": "store_true",
          "help": "exit 4 unless the record carries a witness that verifies "
                  "against the graph"}))),
    ("batch", cmd_batch, "analyse many graphs concurrently (cached)",
     "batch --registry --workers 4 --store .repro-store",
     ("graphs", "registry",
      (("--analysis",), {"nargs": "+", "choices": ANALYSES,
                         "default": ["throughput"]}),
      "method", "kernel",
      (("--backend",), {"choices": BACKENDS, "default": BACKENDS[0]}),
      (("--workers",), {"type": POSITIVE_INT, "default": 4}),
      (("--lint",), {"choices": (ERROR, WARNING),
                     "help": "pre-analysis lint gate: fail graphs with "
                             "findings at this severity before analysing "
                             "them"}),
      "timeout",
      (("--retries",), {"type": NATURAL, "default": 0,
                        "help": "retries (with backoff) for transient "
                                "failures"}),
      (("--store",), {
          "metavar": "DIR",
          "help": "durable result store: serve repeat analyses from disk and "
                  "publish new results crash-consistently, so re-running a "
                  "killed sweep with the same store resumes it (inspect with "
                  "'repro cache')"}),
      (("--inject",), {
          "action": "append", "metavar": "SPEC", "default": [], "type": _fault,
          "help": "deterministic fault injection, e.g. 'name=modem:kill', "
                  "'p=0.2:raise:TransientWorkerError@1', "
                  "'fp=sdfg-v1:ab:hang' (repeatable)"}),
      (("--fault-seed",), {"type": int, "default": 0,
                           "help": "seed for probabilistic fault selectors"}),
      "trace", "metrics")),
    ("cache stats", cmd_cache_stats, "record census and size budget",
     "cache stats --store .repro-store --json",
     ("store", (("--json",), {"action": "store_true",
                              "help": "print a repro-store-stats-v1 JSON "
                                      "document"}))),
    ("cache verify", cmd_cache_verify,
     "re-check every record's checksum, key echo and payload; quarantine "
     "corrupt ones (exit 1 if any corruption survives undetected)",
     "cache verify --store .repro-store --json verify.json",
     ("store", "json",
      (("--no-quarantine",), {"action": "store_true",
                              "help": "report corrupt records but leave them "
                                      "in place"}))),
    ("cache purge", cmd_cache_purge, "delete records",
     "cache purge --store .repro-store --quarantine",
     ("store",
      (("--analysis",), {"metavar": "NAME",
                         "help": "only records of this analysis"}),
      (("--quarantine",), {"action": "store_true",
                           "help": "only the quarantine directory"}))),
    ("cache compact", cmd_cache_compact,
     "sweep tmp garbage and evict LRU records to budget",
     "cache compact --store .repro-store --max-bytes 1000000",
     ("store",
      (("--max-bytes",), {
          "type": POSITIVE_INT, "metavar": "N",
          "help": "size budget to compact down to (default "
                  f"{DEFAULT_MAX_BYTES} bytes)"}))),
    ("obs analyze", cmd_obs_analyze,
     "reconstruct span trees from trace files (Chrome trace or span JSONL), "
     "attribute self time per (stage, graph, kernel) and extract the "
     "critical path (repro-trace-summary-v1)",
     "obs analyze symbolic.jsonl hsdf.jsonl --json summary.json",
     ("traces", "format", "json",
      (("--top",), {"type": POSITIVE_INT, "default": 20,
                    "help": "stage rows to show in the text report "
                            "(default %(default)s)"}))),
    ("obs flame", cmd_obs_flame,
     "collapsed-stack flamegraph (self-time µs per unique span stack; "
     "render with flamegraph.pl or speedscope.app)",
     "obs flame trace.jsonl -o trace.folded", ("traces", "output")),
    ("obs diff", cmd_obs_diff,
     "structural A/B diff of two trace summaries or two repro-metrics-v1 "
     "snapshots, with noise-floored relative deltas (repro-trace-diff-v1)",
     "obs diff before.json after.json --format html -o diff.html",
     ((("a",), {"help": "baseline document (JSON)"}),
      (("b",), {"help": "candidate document (JSON)"}),
      (("--format",), {"choices": ("text", "json", "html"), "default": "text"}),
      (("--noise",), {
          "type": NON_NEGATIVE, "default": DEFAULT_NOISE_FLOOR,
          "metavar": "FRACTION",
          "help": "relative changes below this magnitude are published as "
                  "unchanged (default %(default)s)"}),
      "output")),
    ("obs regress", cmd_obs_regress,
     "statistical regression sentinel over the benchmark history journal: "
     "per-(suite, entry) robust baselines (median + MAD over "
     "host-compatible samples), exit 5 on any regression (repro-regress-v1)",
     "obs regress --report-only --json verdicts.json",
     ((("--history",), {"metavar": "FILE",
                        "default": "benchmarks/results/history.jsonl",
                        "help": "history journal (default %(default)s)"}),
      (("--window",), {"type": POSITIVE_INT, "default": regress.DEFAULT_WINDOW,
                       "metavar": "K",
                       "help": "rolling baseline window (default %(default)s)"}),
      (("--min-samples",), {
          "type": POSITIVE_INT, "default": regress.DEFAULT_MIN_SAMPLES,
          "metavar": "N",
          "help": "host-compatible priors needed for a verdict "
                  "(default %(default)s)"}),
      (("--threshold",), {
          "type": NON_NEGATIVE, "default": regress.DEFAULT_THRESHOLD,
          "metavar": "FRACTION",
          "help": "relative drift that counts as a regression "
                  "(default %(default)s)"}),
      (("--noise",), {
          "type": NON_NEGATIVE, "default": regress.DEFAULT_NOISE_REL,
          "metavar": "FRACTION",
          "help": "MAD/|median| above this marks a series noisy "
                  "(default %(default)s)"}),
      (("--mad-mult",), {
          "type": NON_NEGATIVE, "default": regress.DEFAULT_MAD_MULT,
          "metavar": "X",
          "help": "widen the threshold to X times the series' own MAD "
                  "(default %(default)s)"}),
      "format", "json",
      (("--report-only",), {"action": "store_true",
                            "help": "always exit 0 (report without gating)"}),
      "verbose")),
    ("obs check", cmd_obs_check,
     "validate observability/benchmark artefacts against their schemas",
     "obs check trace.json metrics.prom BENCH_obs.json",
     ((("paths",), {"nargs": "+", "metavar": "ARTEFACT"}),)),
    ("latency", cmd_latency, "single-iteration latency",
     "latency builtin:figure1", ("graph",)),
    ("convert", cmd_convert, "SDF-to-HSDF conversion",
     "convert builtin:modem --traditional -o expanded.xml",
     ("graph",
      (("--traditional",), {"action": "store_true",
                            "help": "classical expansion instead of the "
                                    "compact conversion"}),
      "graph-output")),
    ("abstract", cmd_abstract, "discover and apply an abstraction",
     "abstract builtin:figure1 --verify -o abstract.json",
     ("graph",
      (("--strategy",), {"choices": STRATEGIES, "default": STRATEGIES[0]}),
      (("--verify",), {"action": "store_true",
                       "help": "verify conservativity (Theorem 1) "
                               "numerically"}),
      (("--no-dominance",), {"action": "store_true",
                             "help": "skip the Proposition-1 dominance check "
                                     "(large graphs)"}),
      "graph-output")),
    ("map", cmd_map, "multiprocessor mapping sweep / analysis",
     "map builtin:modem --max-processors 8",
     ("graph",
      (("--processors",), {"type": NATURAL, "default": 0,
                           "help": "analyse one greedy mapping at this "
                                   "processor count"}),
      (("--max-processors",), {"type": POSITIVE_INT, "default": 4,
                               "help": "sweep 1..N processors "
                                       "(default %(default)s)"}))),
    ("csdf", cmd_csdf, "analyse a cyclo-static (CSDF) JSON graph",
     "csdf csdf-graph.json -o compact.json",
     ((("graph",), {"help": "CSDF graph (.json)"}), "graph-output")),
    ("lint", cmd_lint,
     "static analysis: structured diagnostics (text/json/sarif)",
     "lint --registry --format sarif -o lint.sarif",
     ("graphs", "registry",
      (("--csdf",), {"action": "store_true",
                     "help": "treat the inputs as CSDF JSON graphs"}),
      (("--format",), {"choices": ("text", "json", "sarif"), "default": "text",
                       "help": "output format (default %(default)s)"}),
      (("--fail-on",), {
          "choices": (ERROR, WARNING, "never"), "default": ERROR,
          "help": "exit 2 on errors; 'warning' also exits 1 on warnings-only; "
                  "'never' always exits 0"}),
      (("--select",), {"metavar": "CODES",
                       "help": "comma-separated rule codes to run "
                               "(default: all)"}),
      (("--ignore",), {"metavar": "CODES",
                       "help": "comma-separated rule codes to suppress"}),
      (("--baseline",), {
          "metavar": "FILE",
          "help": "subtract the accepted findings in this baseline file"}),
      (("--write-baseline",), {
          "metavar": "FILE",
          "help": "write the current findings as a new baseline"}),
      (("--config",), {
          "metavar": "FILE",
          "help": "config file (default: .reprolint.json in the working "
                  "directory, when present; see docs/lint.md)"}),
      "output", "trace", "metrics")),
    ("gantt", cmd_gantt, "ASCII Gantt chart of self-timed execution",
     "gantt builtin:figure1 --horizon 46",
     ("graph",
      (("--horizon",), {"type": NATURAL, "default": 50,
                        "help": "simulate until this time "
                                "(default %(default)s)"}),
      (("--width",), {"type": POSITIVE_INT, "default": 100,
                      "help": "chart width in columns "
                              "(default %(default)s)"}))),
    ("bottleneck", cmd_bottleneck, "locate the critical cycle",
     "bottleneck builtin:modem", ("graph",)),
    ("schedule", cmd_schedule, "rate-optimal static periodic schedule",
     "schedule builtin:figure3", ("graph",)),
    ("dot", cmd_dot, "Graphviz DOT export", "dot builtin:modem -o modem.dot",
     ("graph", "output")),
    ("table1", cmd_table1, "regenerate Table 1 of the paper", "table1", ()),
    ("builtins", cmd_builtins, "list built-in graphs", "builtins", ()),
)


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SDF graph reduction and analysis "
                    "(Geilen, DAC 2009 reproduction)",
        epilog="examples:\n" + "".join(f"  repro {row[3]}\n" for row in COMMANDS)
        + "\nexit codes: see docs/usage.md#exit-codes",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    scopes = {"": parser.add_subparsers(dest="command", required=True)}
    for name, handler, help_text, example, options in COMMANDS:
        scope, _, leaf = name.rpartition(" ")
        if scope not in scopes:
            group = scopes[""].add_parser(scope, help=GROUPS[scope])
            scopes[scope] = group.add_subparsers(dest="action", required=True)
        command = scopes[scope].add_parser(
            leaf, help=help_text, description=help_text,
            epilog=f"example: repro {example}")
        for option in options:
            flags, kwargs = OPTIONS[option] if isinstance(option, str) else option
            command.add_argument(*flags, **kwargs)
        command.set_defaults(func=handler, parser=command)
    return parser


def main(argv=None) -> int:
    """Run one command; exit codes are tabled in ``docs/usage.md``."""
    args = build_parser().parse_args(argv)
    try:
        with _observe(args):
            return args.func(args)
    except BrokenPipeError:
        # Output piped into a consumer that closed early (e.g. `head`).
        return 0
    except AnalysisTimeout as error:
        progress = ", ".join(f"{k}={v}" for k, v in error.progress.items())
        print(f"error: analysis timed out after {error.elapsed:.2f}s "
              f"in stage {error.stage or '?'}"
              + (f" ({progress})" if progress else ""), file=sys.stderr)
        print("hint: re-run with --fallback for a conservative bound "
              "(Theorem 1)", file=sys.stderr)
        return 3
    except (ReproError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
