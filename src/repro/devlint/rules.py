"""The devlint rule passes.

Each rule is a generator over a :class:`repro.devlint.context.FileContext`
registered into :data:`repro.devlint.registry.DEVLINT`.  The rules encode
the *project invariants* the codebase has accumulated PR by PR — the
exact-Fraction discipline, the cooperative-deadline protocol, the
provenance flight-recorder contract, the lock discipline of the shared
caches — as flow-insensitive AST checks.  Every check is deliberately an
approximation: module scopes (which files a contract covers) are config
options, and intentional exceptions carry ``# devlint: ignore[...]``
suppressions with a reason.

The two suppression-grammar rules (``bad-suppression``,
``unused-suppression``) are emitted by the engine itself; they register
here only so their metadata reaches the SARIF driver and the docs.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.devlint.context import FileContext, FunctionNode, ProjectIndex
from repro.devlint.registry import rule
from repro.lint.diagnostics import ERROR, WARNING

# ---------------------------------------------------------------------------
# Module scopes (all overridable via the config file's "options")
# ---------------------------------------------------------------------------

#: Modules on the exact-Fraction path: no float arithmetic at all.
EXACT_MODULES = ("core/", "mcm/", "maxplus/", "sdf/")

#: The vectorised kernels: floats allowed, equality on them is not.
KERNEL_MODULES = ("kernels/",)

#: Modules whose long-running loops must honour the cooperative deadline.
HOT_MODULES = ("core/", "mcm/", "maxplus/", "kernels/", "sdf/simulation.py")

#: Modules that must stay replay-deterministic.
DETERMINISTIC_MODULES = (
    "core/", "mcm/", "maxplus/", "sdf/", "analysis/", "kernels/",
    "lint/", "devlint/",
)

#: Modules owning crash-consistent on-disk state: every write must
#: follow the durable publish protocol (see docs/robustness.md).
DURABLE_MODULES = ("analysis/store.py",)

#: The cooperative-deadline poll methods (``repro.analysis.deadline``).
_POLL_METHODS = {"check", "check_now", "checkpoint", "raise_if_cancelled"}

#: Calls considered too cheap to need a deadline poll around them.
_CHEAP_BUILTINS = {
    "len", "isinstance", "issubclass", "min", "max", "abs", "sum",
    "range", "enumerate", "zip", "sorted", "reversed", "tuple", "list",
    "set", "dict", "frozenset", "repr", "str", "int", "bool", "format",
    "id", "iter", "next", "getattr", "hasattr", "setattr", "divmod",
    "round", "ord", "chr", "Fraction", "gcd", "lcm",
}
_CHEAP_METHODS = {
    "append", "add", "extend", "items", "keys", "values", "get", "pop",
    "popleft", "appendleft", "setdefault", "update", "join", "split",
    "strip", "startswith", "endswith", "index", "count", "insert",
    "remove", "discard", "copy", "gcd", "lcm", "numerator",
    "denominator", "as_integer_ratio",
    # graph topology accessors are dict lookups; unit vectors are O(n)
    "in_edges", "out_edges", "unit",
}

_ARITH_OPS = (
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
)


# ---------------------------------------------------------------------------
# Small AST predicates
# ---------------------------------------------------------------------------

def _is_float_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float


def _is_float_cast(node: ast.AST) -> bool:
    """``float(x)`` — excluding the exact sentinels ``float("inf")`` /
    ``float("-inf")`` (IEEE infinities compare exactly, and the max-plus
    layer uses them as the semiring's ε)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float"):
        return False
    if len(node.args) == 1 and isinstance(node.args[0], ast.Constant) \
            and isinstance(node.args[0].value, str):
        return False
    return True


def _is_fraction_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else ""
    )
    return name == "Fraction"


def _call_tail(node: ast.Call) -> str:
    """The last name of the called expression (``a.b.c()`` → ``c``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``a.b.c`` → "a.b.c")."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        return ""
    return ".".join(reversed(parts))


def _binop_operands(node: ast.AST) -> Tuple[ast.AST, ...]:
    if isinstance(node, ast.BinOp):
        return (node.left, node.right)
    if isinstance(node, ast.Compare):
        return (node.left, *node.comparators)
    return ()


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------

@rule(
    code="exactness-discipline",
    category="exactness",
    severity=ERROR,
    summary="no float arithmetic on the exact-Fraction path; kernel "
            "floats never compared for equality",
)
def _exactness_discipline(ctx: FileContext) -> Iterator:
    """Two facets of the exact-arithmetic contract.

    *Exact modules* (``core/``, ``mcm/``, ``maxplus/``, ``sdf/``) carry
    Fractions end to end: any ``float()`` conversion or float-literal
    arithmetic/comparison there silently destroys the exactness
    guarantee the analyses certify.  *Kernel modules* may use floats —
    they search with them — but a float equality comparison is always a
    bug: a float candidate is never accepted on its own.  The kernels
    re-derive the answer exactly from the cycle's own entries and prove
    it with an integer certificate (the int64 fixpoint of ``_certify``
    in ``kernels/maxplus.py``).
    """
    if ctx.in_modules(ctx.scope_option("exact_modules", EXACT_MODULES)):
        for node in ast.walk(ctx.tree):
            if _is_float_cast(node):
                yield ctx.diag(
                    "exactness-discipline",
                    "float() conversion in an exact-arithmetic module; "
                    "keep values as Fraction (kernels/ certify float "
                    "candidates exactly)",
                    node=node,
                    fix="move the conversion into kernels/ behind an "
                        "exact integer certificate, or drop it",
                )
            else:
                for operand in _binop_operands(node):
                    if _is_float_literal(operand):
                        yield ctx.diag(
                            "exactness-discipline",
                            "float literal in arithmetic/comparison on "
                            "the exact path; use Fraction "
                            f"({operand.value!r})",
                            node=node,
                        )
                        break
    if ctx.in_modules(ctx.scope_option("kernel_modules", KERNEL_MODULES)):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            ):
                operands = _binop_operands(node)
                if any(_is_float_literal(o) or _is_float_cast(o)
                       for o in operands):
                    yield ctx.diag(
                        "exactness-discipline",
                        "float equality comparison in a kernel; re-derive "
                        "the candidate exactly and certify it with "
                        "integers instead",
                        node=node,
                        fix="re-derive the value from the cycle's own "
                            "exact entries and prove it with an integer "
                            "certificate (see _certify in "
                            "repro/kernels/maxplus.py)",
                    )
            elif isinstance(node, ast.Call) and \
                    _dotted(node.func) == "math.isclose":
                yield ctx.diag(
                    "exactness-discipline",
                    "math.isclose in a kernel; kernel candidates are "
                    "certified exactly, not approximately",
                    node=node,
                )


@rule(
    code="fraction-float-mixing",
    category="exactness",
    severity=ERROR,
    summary="Fraction and float mixed in one expression",
)
def _fraction_float_mixing(ctx: FileContext) -> Iterator:
    """Mixing ``Fraction(...)`` with a float in one arithmetic or
    comparison expression coerces the Fraction to float — the single
    most common way exactness leaks.  Applies to every module."""
    for node in ast.walk(ctx.tree):
        operands = _binop_operands(node)
        if not operands:
            continue
        has_fraction = any(_is_fraction_call(o) for o in operands)
        has_float = any(
            _is_float_literal(o) or _is_float_cast(o) for o in operands
        )
        if has_fraction and has_float:
            yield ctx.diag(
                "fraction-float-mixing",
                "expression mixes Fraction(...) with a float operand; "
                "the Fraction is silently coerced to float",
                node=node,
                fix="wrap the float side in Fraction(...) or do the "
                    "whole computation in floats inside kernels/",
            )


# ---------------------------------------------------------------------------
# resilience (cooperative deadlines)
# ---------------------------------------------------------------------------

def _deadline_param(func: ast.AST) -> Optional[ast.arg]:
    """The ``deadline`` parameter of a function, when it is (or may be)
    a :class:`repro.analysis.deadline.Deadline` — an annotation that
    names a different type (e.g. the ``Fraction`` time horizon of
    ``SimulationState.run_until``) opts the function out."""
    args = func.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.arg != "deadline":
            continue
        if arg.annotation is None:
            return arg
        annotation = ast.unparse(arg.annotation)
        if "Deadline" in annotation:
            return arg
        return None
    return None


def _deadline_aliases(func: ast.AST) -> Set[str]:
    """Names bound to the deadline object inside ``func`` (the parameter
    itself plus simple rebindings like ``d = deadline.sub(1.0)`` or
    ``deadline = deadline or Deadline.after(...)``)."""
    aliases = {"deadline"}
    for _ in range(2):  # two passes resolve alias-of-alias chains
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            if any(isinstance(sub, ast.Name) and sub.id in aliases
                   for sub in ast.walk(node.value)):
                aliases.add(node.targets[0].id)
    return aliases


def _polls_or_forwards(node: ast.AST, aliases: Set[str]) -> bool:
    """Whether a subtree polls a deadline alias or forwards one into a
    call (the callee is then responsible for polling)."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        func = sub.func
        if (isinstance(func, ast.Attribute) and func.attr in _POLL_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases):
            return True
        for argument in (*sub.args, *(kw.value for kw in sub.keywords)):
            if any(isinstance(a, ast.Name) and a.id in aliases
                   for a in ast.walk(argument)):
                return True
    return False


def _raise_subtrees(node: ast.AST) -> Set[int]:
    """ids of every node under a ``raise`` statement in ``node``."""
    under: Set[int] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Raise):
            for inner in ast.walk(sub):
                under.add(id(inner))
    return under


def _significant_loop(loop: ast.AST) -> bool:
    """Whether a loop can plausibly run long enough to need a poll.

    ``while`` loops always qualify (unbounded by construction).  ``for``
    loops qualify when they contain a nested loop or any call that is
    not a cheap builtin/container method and not part of a ``raise``
    (validation loops that only raise on bad input are exempt)."""
    if isinstance(loop, ast.While):
        return True
    exempt = _raise_subtrees(loop)
    for stmt in loop.body:
        for sub in ast.walk(stmt):
            if isinstance(sub, (ast.For, ast.AsyncFor, ast.While)):
                return True
            if isinstance(sub, ast.Call) and id(sub) not in exempt:
                tail = _call_tail(sub)
                if isinstance(sub.func, ast.Name):
                    if tail not in _CHEAP_BUILTINS:
                        return True
                elif tail not in _CHEAP_METHODS:
                    return True
    return False


def _outermost_loops(func: ast.AST) -> List[ast.AST]:
    loops: List[ast.AST] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                loops.append(child)
            elif isinstance(child, FunctionNode):
                continue  # nested defs polled under their own contract
            else:
                visit(child)

    for stmt in func.body:
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            loops.append(stmt)
        else:
            visit(stmt)
    return loops


@rule(
    code="deadline-polling",
    category="resilience",
    severity=WARNING,
    summary="hot loop accepts a deadline but never polls or forwards it",
)
def _deadline_polling(ctx: FileContext) -> Iterator:
    """The cooperative-deadline contract: a function in a hot module
    that *accepts* a ``deadline`` must consult it — every significant
    loop polls (``check``/``check_now``/``checkpoint``) or forwards the
    deadline into a callee, and the parameter must not be silently
    dropped.  Storing the deadline on ``self`` hands the obligation to
    the methods that read it back."""
    if not ctx.in_modules(ctx.scope_option("hot_modules", HOT_MODULES)):
        return
    for qualname, func in ctx.functions():
        if _deadline_param(func) is None:
            continue
        aliases = _deadline_aliases(func)
        stored = any(
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Attribute) for t in node.targets)
            and any(isinstance(sub, ast.Name) and sub.id in aliases
                    for sub in ast.walk(node.value))
            for node in ast.walk(func)
        )
        if stored:
            continue
        used = any(
            isinstance(node, ast.Name) and node.id in aliases
            and isinstance(node.ctx, ast.Load)
            for stmt in func.body for node in ast.walk(stmt)
        )
        if not used:
            yield ctx.diag(
                "deadline-polling",
                f"{qualname} accepts a deadline but never consults it",
                node=func,
                fix="poll deadline.check()/checkpoint() in the work "
                    "loop, or forward the deadline to the callee doing "
                    "the work",
            )
            continue
        for loop in _outermost_loops(func):
            if not _significant_loop(loop):
                continue
            if not _polls_or_forwards(loop, aliases):
                yield ctx.diag(
                    "deadline-polling",
                    f"loop in {qualname} does not poll or forward the "
                    "deadline; a cancelled or expired analysis cannot "
                    "stop here",
                    node=loop,
                    fix="add deadline.check() (strided, cheap) inside "
                        "the loop body",
                )


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

#: Primitives that make a call chain "recording": the flight recorder's
#: step API (and the recorder accessor used to attach witnesses).
_RECORD_PRIMITIVES = {"record_step"}

#: Graph-construction markers: a function calling these *builds* a model
#: (``from_tuples`` is the whole-graph constructor ``SDFGraph.from_tuples``).
_BUILD_CALLS = {"add_actor", "add_edge", "from_tuples"}
_BUILD_CONSTRUCTORS = {"SDFGraph"}

#: Context-manager factories of the tracing/provenance layer.
_SPAN_FACTORIES = {"span", "recording"}


def _builds_graph(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            tail = _call_tail(node)
            if isinstance(node.func, ast.Attribute) and tail in _BUILD_CALLS:
                return True
            if tail in _BUILD_CONSTRUCTORS:
                return True
    return False


@rule(
    code="provenance-hygiene",
    category="provenance",
    severity=WARNING,
    summary="reduction entry point records no step; span used outside "
            "a with-statement",
)
def _provenance_hygiene(ctx: FileContext) -> Iterator:
    """The flight-recorder contract (the provenance layer): every public
    reduction entry point in ``core/`` that builds a result graph must
    reach :func:`repro.obs.provenance.record_step` somewhere in its call
    closure (a flow-insensitive, name-based approximation), and tracing
    spans (:func:`repro.obs.trace.span`, ``recording()``) only ever open
    through ``with`` — a span entered by hand leaks on the error path.
    """
    # Facet (b): spans/recorders must be context-managed — everywhere.
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call)
                and _call_tail(node) in _SPAN_FACTORIES):
            continue
        parent = ctx.parent(node)
        if isinstance(parent, ast.Expr):
            yield ctx.diag(
                "provenance-hygiene",
                f"{_call_tail(node)}(...) creates a context manager "
                "that is immediately dropped; open it with a "
                "with-statement",
                node=node,
            )
        elif (isinstance(parent, ast.Attribute)
              and parent.attr == "__enter__"):
            yield ctx.diag(
                "provenance-hygiene",
                f"{_call_tail(node)}(...).__enter__() bypasses the "
                "with-statement; the span leaks if the body raises",
                node=node,
                fix="use `with span(...):` (or ExitStack.enter_context)",
            )

    # Facet (a): core/ entry points that build graphs must record.
    if not ctx.pkg_path.startswith("core/"):
        return
    project = ctx.project
    if project is None:
        project = ProjectIndex()
        project.add_file(ctx)
    recorders = project.closure_reaching(set(_RECORD_PRIMITIVES))
    for stmt in ctx.tree.body:
        if not isinstance(stmt, FunctionNode):
            continue
        if stmt.name.startswith("_"):
            continue
        if not _builds_graph(stmt):
            continue
        if stmt.name in recorders:
            continue
        yield ctx.diag(
            "provenance-hygiene",
            f"public reduction entry point {stmt.name} builds a graph "
            "but never reaches record_step; the provenance certificate "
            "will have a hole",
            node=stmt,
            fix="call record_step(kind, before=..., after=...) once the "
                "result graph is assembled",
        )


# ---------------------------------------------------------------------------
# concurrency
# ---------------------------------------------------------------------------

def _lock_with(node: ast.AST) -> bool:
    """Whether ``node`` is a ``with`` statement acquiring a lock — its
    context expression is an attribute chain ending in a name containing
    ``lock`` (``self._lock``, ``self._registry._lock``)."""
    if not isinstance(node, (ast.With, ast.AsyncWith)):
        return False
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        if isinstance(expr, ast.Attribute) and "lock" in expr.attr.lower():
            return True
    return False


_LOCK_EXEMPT_METHODS = {
    "__init__", "__new__", "__del__", "__repr__", "__enter__", "__exit__",
}


@rule(
    code="lock-discipline",
    category="concurrency",
    severity=WARNING,
    summary="attribute guarded by a lock elsewhere is accessed unlocked",
)
def _lock_discipline(ctx: FileContext) -> Iterator:
    """A lexical race detector for the shared cache/metrics/trace layers:
    if some method of a class writes ``self.X`` under ``with
    self.<...>lock:``, then ``X`` is *lock-guarded* and every other
    access of ``self.X`` outside a lock (in any non-dunder method) races
    with it.  ``__init__``/``__repr__`` and the context-manager dunders
    are exempt (no concurrent self yet / diagnostic-only)."""
    for class_qual, klass in ctx.classes():
        guarded: Set[str] = set()
        accesses: List[Tuple[str, ast.Attribute, bool, bool]] = []

        for node in ast.walk(klass):
            if not isinstance(node, FunctionNode):
                continue
            func = ctx.enclosing_function(node)  # skip nested defs
            method = node

            def walk(sub: ast.AST, locked: bool) -> None:
                if _lock_with(sub):
                    locked = True
                for child in ast.iter_child_nodes(sub):
                    if isinstance(child, FunctionNode):
                        continue
                    if isinstance(child, ast.Attribute) and \
                            isinstance(child.value, ast.Name) and \
                            child.value.id == "self":
                        is_store = isinstance(child.ctx, ast.Store)
                        parent = ctx.parent(child)
                        if isinstance(parent, ast.Subscript) and \
                                isinstance(parent.ctx, ast.Store):
                            is_store = True
                        accesses.append((method.name, child, locked, is_store))
                        if locked and is_store and \
                                method.name != "__init__":
                            guarded.add(child.attr)
                    walk(child, locked)

            if func is None:  # only walk top-level methods once
                walk(method, False)

        reported: Set[Tuple[str, str]] = set()
        for method_name, attr_node, locked, is_store in accesses:
            if locked or method_name in _LOCK_EXEMPT_METHODS:
                continue
            if attr_node.attr not in guarded:
                continue
            key = (method_name, attr_node.attr)
            if key in reported:
                continue
            reported.add(key)
            verb = "written" if is_store else "read"
            yield ctx.diag(
                "lock-discipline",
                f"self.{attr_node.attr} is {verb} without the lock in "
                f"{class_qual}.{method_name} but assigned under the "
                "lock elsewhere; this races",
                node=attr_node,
                fix="move the access inside `with self._lock:`, or "
                    "suppress with a reason if the caller provably "
                    "holds the lock",
            )


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

#: Dotted call names that break replay determinism.
_NONDETERMINISTIC_CALLS = {
    "time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow", "date.today",
    "datetime.date.today", "uuid.uuid1", "uuid.uuid4", "os.urandom",
}

#: Module-level ``random.*`` — the unseeded global RNG.
_RANDOM_MODULE = "random"


@rule(
    code="determinism",
    category="determinism",
    severity=ERROR,
    summary="wall-clock or unseeded randomness in an analysis module",
)
def _determinism(ctx: FileContext) -> Iterator:
    """Analyses must be replayable byte for byte: the result store and
    the provenance certificates assume two runs over the same model
    agree.  Wall-clock reads (``time.time``, ``datetime.now``) and the
    global RNG are therefore banned in analysis/kernel modules —
    monotonic clocks (``time.monotonic``/``perf_counter``, used by the
    deadline and tracing layers) are fine, and fault injection draws
    from hashes, not ``random``."""
    if not ctx.in_modules(
        ctx.scope_option("deterministic_modules", DETERMINISTIC_MODULES)
    ):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted in _NONDETERMINISTIC_CALLS:
            yield ctx.diag(
                "determinism",
                f"{dotted}() is not replay-deterministic; use "
                "time.monotonic()/perf_counter() for intervals or "
                "derive draws from content hashes",
                node=node,
            )
        elif (isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == _RANDOM_MODULE):
            yield ctx.diag(
                "determinism",
                f"global random.{node.func.attr}() draws from the "
                "unseeded process RNG; thread an explicit "
                "random.Random(seed) through instead",
                node=node,
            )


# ---------------------------------------------------------------------------
# durability
# ---------------------------------------------------------------------------

def _path_mentions_temp(expr: ast.AST) -> bool:
    """Whether a path expression is recognisably a temp location: a name
    or attribute containing ``tmp``/``temp``, or a call whose tail does
    (``self._tmp_path(...)``)."""
    for sub in ast.walk(expr):
        text = ""
        if isinstance(sub, ast.Name):
            text = sub.id
        elif isinstance(sub, ast.Attribute):
            text = sub.attr
        elif isinstance(sub, ast.Call):
            text = _call_tail(sub)
        if "tmp" in text.lower() or "temp" in text.lower():
            return True
    return False


def _open_mode(node: ast.Call) -> Optional[str]:
    """The literal mode string of an ``open(...)`` call, or ``None``
    when it is dynamic (dynamic modes are treated as writes)."""
    mode: Optional[ast.AST] = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


@rule(
    code="durability-discipline",
    category="durability",
    severity=ERROR,
    summary="durable module writes a final path in place instead of "
            "write-temp → fsync → os.replace",
)
def _durability_discipline(ctx: FileContext) -> Iterator:
    """The crash-consistency contract of the persistence layer
    (``analysis/store.py``): a process may die at any instruction, so a
    file under a durable root must never be truncated or created at its
    final path — a crash mid-write leaves a torn file that a later
    reader can mistake for the real thing.  The only blessed publish
    protocol is write to a temp path, ``fsync`` the handle, then
    ``os.replace`` onto the final name (atomic on POSIX); append-only
    logs may write the final path but must ``fsync`` in the same
    function.  ``Path.write_text``/``write_bytes`` truncate in
    place and are banned outright in durable modules.
    """
    if not ctx.in_modules(ctx.scope_option("durable_modules",
                                           DURABLE_MODULES)):
        return
    for qualname, func in ctx.functions():
        fsyncs = False
        replaces = False
        opens: List[Tuple[ast.Call, Optional[str], ast.AST]] = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted == "os.fsync":
                fsyncs = True
            elif dotted in ("os.replace", "os.rename"):
                replaces = True
            elif _call_tail(node) in ("write_text", "write_bytes") \
                    and isinstance(node.func, ast.Attribute):
                yield ctx.diag(
                    "durability-discipline",
                    f"{_call_tail(node)}() in {qualname} truncates its "
                    "target in place; a crash mid-write leaves a torn "
                    "file at the final path",
                    node=node,
                    fix="write to a temp path, os.fsync the handle, "
                        "then os.replace onto the final name",
                )
            elif dotted in ("open", "io.open") and node.args:
                opens.append((node, _open_mode(node), node.args[0]))
        for node, mode, path_expr in opens:
            if mode == "r" or (mode is not None
                               and not set(mode) & {"w", "x", "a", "+"}):
                continue
            appending = mode is not None and "a" in mode \
                and not set(mode) & {"w", "x"}
            if appending:
                if not fsyncs:
                    yield ctx.diag(
                        "durability-discipline",
                        f"append-mode open in {qualname} without "
                        "os.fsync in the same function; the appended "
                        "record is not durable when the process dies",
                        node=node,
                        fix="flush the handle and os.fsync(fileno()) "
                            "before returning",
                    )
                continue
            if not _path_mentions_temp(path_expr):
                yield ctx.diag(
                    "durability-discipline",
                    f"open({ast.unparse(path_expr)!r}-like path, "
                    f"mode {mode!r}) in {qualname} writes a final path "
                    "directly; a reader can observe the torn file",
                    node=node,
                    fix="write to a temp path (name it *tmp*), fsync, "
                        "then os.replace onto the final path",
                )
            elif not (fsyncs and replaces):
                missing = "os.fsync" if not fsyncs else "os.replace"
                yield ctx.diag(
                    "durability-discipline",
                    f"temp-file write in {qualname} never reaches "
                    f"{missing}; the record is either not durable or "
                    "never atomically published",
                    node=node,
                    fix="complete the protocol: write-temp → "
                        "fsync → os.replace",
                )


# ---------------------------------------------------------------------------
# hygiene
# ---------------------------------------------------------------------------

@rule(
    code="broad-except",
    category="hygiene",
    severity=WARNING,
    summary="except clause catches Exception/BaseException (or is bare)",
)
def _broad_except(ctx: FileContext) -> Iterator:
    """Catching ``Exception`` swallows ``AnalysisTimeout``,
    ``AnalysisCancelled`` and plain bugs alike — the resilience layer
    depends on interruptions propagating.  Catch the concrete
    :mod:`repro.errors` type, or suppress with a reason where isolation
    is genuinely the point (the batch runner's per-graph boundary)."""
    broad = {"Exception", "BaseException"}

    def names(expr: Optional[ast.AST]) -> Iterator[str]:
        if expr is None:
            yield "<bare>"
        elif isinstance(expr, ast.Tuple):
            for element in expr.elts:
                yield from names(element)
        else:
            dotted = _dotted(expr)
            if dotted:
                yield dotted

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = [n for n in names(node.type) if n in broad or n == "<bare>"]
        if caught:
            what = "bare except" if caught == ["<bare>"] else \
                f"except {', '.join(caught)}"
            yield ctx.diag(
                "broad-except",
                f"{what} also swallows AnalysisTimeout/AnalysisCancelled "
                "and genuine bugs; catch the concrete repro.errors type",
                node=node,
                fix="narrow to the expected exception type(s), or "
                    "suppress with the isolation rationale",
            )


@rule(
    code="mutable-default",
    category="hygiene",
    severity=ERROR,
    summary="mutable default argument",
)
def _mutable_default(ctx: FileContext) -> Iterator:
    mutable_constructors = {"list", "dict", "set", "bytearray",
                            "defaultdict", "OrderedDict", "Counter", "deque"}
    for qualname, func in ctx.functions():
        defaults = [*func.args.defaults,
                    *(d for d in func.args.kw_defaults if d is not None)]
        for default in defaults:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and _call_tail(default) in mutable_constructors
            )
            if bad:
                yield ctx.diag(
                    "mutable-default",
                    f"mutable default argument in {qualname} is shared "
                    "across calls",
                    node=default,
                    fix="default to None and create the container in "
                        "the body",
                )


@rule(
    code="bad-suppression",
    category="hygiene",
    severity=ERROR,
    summary="malformed devlint suppression comment",
)
def _bad_suppression(ctx: FileContext) -> Iterator:
    """Emitted by the engine: a ``# devlint: ignore[...]`` comment that
    names an unknown rule or omits the mandatory reason."""
    return
    yield  # pragma: no cover


@rule(
    code="unused-suppression",
    category="hygiene",
    severity=WARNING,
    summary="suppression comment matched no finding",
)
def _unused_suppression(ctx: FileContext) -> Iterator:
    """Emitted by the engine: a suppression that suppressed nothing —
    the violation it excused was fixed, so the comment must go too."""
    return
    yield  # pragma: no cover
