"""The source contracts of ``src/repro``, checked on its syntax trees.

The library's answers are exact Fractions with re-checkable witnesses,
its analyses stop at cooperative deadlines, its reductions leave a
provenance record, its shared caches take their locks and its result
store publishes crash-consistently.  No type checker sees any of that,
so this module parses every ``src/repro/**/*.py`` once and checks ten
contracts on the trees:

* ``exactness-discipline``: no ``float()`` and no float literal in
  arithmetic or comparisons on the exact path (``EXACT_MODULES``); no
  float equality and no ``math.isclose`` in the kernels, whose float
  candidates are certified with integers instead;
* ``fraction-float-mixing``: no ``Fraction(...)`` and float operand in
  one expression, in any module;
* ``deadline-polling``: a function of ``HOT_MODULES`` that takes a
  ``deadline`` consults it, and each of its significant loops polls it
  or forwards it to a callee (storing it on ``self`` hands the duty on);
* ``provenance-hygiene``: a public function of ``core/`` that builds a
  graph reaches ``record_step`` through its call closure (by bare name,
  across the whole tree), and ``span()``/``recording()`` open only
  through ``with``;
* ``lock-discipline``: an attribute that a method writes under
  ``with self.<...>lock`` is not touched outside a lock elsewhere in its
  class (``__init__``, ``__repr__`` and the context-manager dunders
  aside);
* ``determinism``: no wall-clock reads and no global RNG in
  ``DETERMINISTIC_MODULES``;
* ``durability-discipline``: ``DURABLE_MODULES`` write through a temp
  path, ``os.fsync`` and ``os.replace``, append only with ``os.fsync``,
  and never call ``write_text``/``write_bytes``;
* ``broad-except``: no ``except Exception``/``BaseException``/bare
  ``except``, which would swallow ``AnalysisTimeout`` and bugs alike;
* ``mutable-default``: no list, dict or set default arguments;
* ``test-only-module``: every module is imported by another library
  file or by ``perfbench/`` or ``examples/`` (``USER_DIRS``), not only
  by its own package ``__init__``, ``tests/`` or ``benchmarks/``.

Every check is a flow-insensitive approximation.  A finding that is
meant carries an ``EXEMPT`` entry keyed by (rule, file, function), the
function being the innermost enclosing def or class.  An entry states
its reason and excuses exactly one finding; an entry that excuses none
fails the suite, so stale excuses cannot pile up.
"""

from __future__ import annotations

import ast
import pathlib
import textwrap
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).resolve().parent
REPO = pathlib.Path(__file__).resolve().parent.parent

#: Which files a contract covers, relative to ``src/repro``: a pattern
#: ending in ``/`` names a package, any other one file.
EXACT_MODULES = ("core/", "mcm/", "maxplus/", "sdf/")
KERNEL_MODULES = ("kernels/",)
HOT_MODULES = ("core/", "mcm/", "maxplus/", "kernels/", "sdf/simulation.py")
DETERMINISTIC_MODULES = ("core/", "mcm/", "maxplus/", "sdf/", "analysis/",
                         "kernels/", "lint/")
DURABLE_MODULES = ("analysis/store.py",)
#: Directories of the repository whose imports count as uses of a
#: library module.  ``tests/`` and ``benchmarks/`` are not among them:
#: a module that only they import is code that only its own tests run.
USER_DIRS = ("perfbench", "examples")

#: (rule, file, function) -> why the contract does not hold there.
EXEMPT = {
    ("broad-except", "analysis/batch.py", "analyse_graph"):
        "per-graph isolation boundary: the pool must survive arbitrary "
        "analysis failures (timeouts included) and report them per graph",
    ("lock-discipline", "analysis/cache.py", "AnalysisCache._insert"):
        "every caller of _insert holds self._lock, so the eviction counter "
        "is written under the lock one frame up",
    ("broad-except", "analysis/cache.py", "AnalysisCache.get_or_compute"):
        "single-flight protocol: the error, whatever it is (KeyboardInterrupt "
        "included), must reach the waiters before it is re-raised, or they "
        "deadlock",
    ("provenance-hygiene", "core/hsdf_conversion.py",
     "realise_iteration_matrix"):
        "a reusable construction, not an entry point: its callers "
        "(convert_to_hsdf, the CSDF wrapper, perfbench) record the step "
        "with the source model they know",
    ("test-only-module", "__main__.py", "<module>"):
        "the `python -m repro` entry point: the interpreter runs it as a "
        "script, so no file imports it",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
LOOPS = (ast.For, ast.AsyncFor, ast.While)


@dataclass(frozen=True)
class Finding:
    rule: str
    file: str
    line: int
    function: str
    message: str

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.rule, self.file, self.function)

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: {self.rule}: {self.message}"


class Source:
    """One parsed module: its nodes in ``ast.walk`` order and parent links."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.tree = ast.parse(text, path)
        self.nodes = list(ast.walk(self.tree))
        self.parent = {child: node for node in self.nodes
                       for child in ast.iter_child_nodes(node)}
        self.functions = [n for n in self.nodes if isinstance(n, FUNCTIONS)]

    def within(self, scopes: Tuple[str, ...]) -> bool:
        return any(self.path.startswith(scope) if scope.endswith("/")
                   else self.path == scope for scope in scopes)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        node = self.parent.get(node)
        while node is not None:
            yield node
            node = self.parent.get(node)

    def scope(self, node: Optional[ast.AST]) -> str:
        """Qualified name of the innermost def or class at or around
        ``node`` (``<module>`` at top level)."""
        names = []
        while node is not None:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                names.append(node.name)
            node = self.parent.get(node)
        return ".".join(reversed(names)) or "<module>"

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(rule, self.path, node.lineno, self.scope(node), message)


# -- small predicates -------------------------------------------------------

def _is_float_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float


def _is_float_cast(node: ast.AST) -> bool:
    """``float(x)``, but not the IEEE sentinels ``float("inf")`` and
    ``float("-inf")``, which compare exactly (max-plus ε)."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and not (len(node.args) == 1
                     and isinstance(node.args[0], ast.Constant)
                     and isinstance(node.args[0].value, str)))


def _is_float(node: ast.AST) -> bool:
    return _is_float_literal(node) or _is_float_cast(node)


def _call_tail(node: ast.Call) -> str:
    """The last name of the called expression (``a.b.c()`` -> ``c``)."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` -> ``"a.b.c"``; ``""`` unless the chain ends in a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def _operands(node: ast.AST) -> Tuple[ast.AST, ...]:
    if isinstance(node, ast.BinOp):
        return (node.left, node.right)
    if isinstance(node, ast.Compare):
        return (node.left, *node.comparators)
    return ()


# -- exactness --------------------------------------------------------------

def exactness_discipline(source: Source) -> Iterator[Finding]:
    rule = "exactness-discipline"
    if source.within(EXACT_MODULES):
        for node in source.nodes:
            if _is_float_cast(node):
                yield source.finding(rule, node, "float() on the exact path; "
                                     "keep the value a Fraction")
            elif any(map(_is_float_literal, _operands(node))):
                yield source.finding(rule, node, "float literal in arithmetic "
                                     "or a comparison on the exact path")
    if source.within(KERNEL_MODULES):
        for node in source.nodes:
            if isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                if any(map(_is_float, _operands(node))):
                    yield source.finding(
                        rule, node, "float equality in a kernel; re-derive "
                        "the value exactly and certify it with integers")
            elif (isinstance(node, ast.Call)
                  and _dotted(node.func) == "math.isclose"):
                yield source.finding(rule, node, "math.isclose in a kernel; "
                                     "candidates are certified exactly")


def fraction_float_mixing(source: Source) -> Iterator[Finding]:
    for node in source.nodes:
        operands = _operands(node)
        if (any(isinstance(o, ast.Call) and _call_tail(o) == "Fraction"
                for o in operands) and any(map(_is_float, operands))):
            yield source.finding("fraction-float-mixing", node,
                                 "Fraction(...) and a float in one "
                                 "expression: the Fraction becomes a float")


# -- cooperative deadlines --------------------------------------------------

#: The poll methods of ``repro.analysis.deadline.Deadline``.
POLLS = {"check", "check_now", "checkpoint", "raise_if_cancelled"}

#: Calls too cheap to need a poll around them.
CHEAP_BUILTINS = {
    "len", "isinstance", "issubclass", "min", "max", "abs", "sum", "range",
    "enumerate", "zip", "sorted", "reversed", "tuple", "list", "set", "dict",
    "frozenset", "repr", "str", "int", "bool", "format", "id", "iter", "next",
    "getattr", "hasattr", "setattr", "divmod", "round", "ord", "chr",
    "Fraction", "gcd", "lcm",
}
CHEAP_METHODS = {
    "append", "add", "extend", "items", "keys", "values", "get", "pop",
    "popleft", "appendleft", "setdefault", "update", "join", "split", "strip",
    "startswith", "endswith", "index", "count", "insert", "remove", "discard",
    "copy", "gcd", "lcm", "numerator", "denominator", "as_integer_ratio",
    # graph topology accessors are dict lookups; unit vectors are O(n)
    "in_edges", "out_edges", "unit",
}


def _takes_deadline(func: ast.AST) -> bool:
    """Whether ``func`` has a ``deadline`` parameter that is (or may be) a
    ``Deadline``; another annotation (the Fraction horizon of
    ``SimulationState.run_until``) opts it out."""
    args = func.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.arg == "deadline":
            return (arg.annotation is None
                    or "Deadline" in ast.unparse(arg.annotation))
    return False


def _deadline_aliases(func: ast.AST) -> Set[str]:
    """``deadline`` plus the names bound from it (``d = deadline.sub(1)``),
    two passes deep."""
    aliases = {"deadline"}
    for _ in range(2):
        for node in ast.walk(func):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and _names_in(node.value, aliases)):
                aliases.add(node.targets[0].id)
    return aliases


def _names_in(node: ast.AST, names: Set[str]) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id in names
               for sub in ast.walk(node))


def _polls_or_forwards(loop: ast.AST, aliases: Set[str]) -> bool:
    for call in ast.walk(loop):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if (isinstance(func, ast.Attribute) and func.attr in POLLS
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases):
            return True
        if any(_names_in(argument, aliases) for argument in
               (*call.args, *(keyword.value for keyword in call.keywords))):
            return True
    return False


def _significant(loop: ast.AST) -> bool:
    """``while`` loops always; ``for`` loops with a nested loop or a call
    that is neither cheap nor part of a ``raise`` (validation loops)."""
    if isinstance(loop, ast.While):
        return True
    raising = {id(inner) for sub in ast.walk(loop) if isinstance(sub, ast.Raise)
               for inner in ast.walk(sub)}
    for stmt in loop.body:
        for sub in ast.walk(stmt):
            if isinstance(sub, LOOPS):
                return True
            if isinstance(sub, ast.Call) and id(sub) not in raising:
                cheap = (CHEAP_BUILTINS if isinstance(sub.func, ast.Name)
                         else CHEAP_METHODS)
                if _call_tail(sub) not in cheap:
                    return True
    return False


def _outermost_loops(func: ast.AST) -> List[ast.AST]:
    """The loops of ``func`` not inside another loop or a nested def."""
    loops: List[ast.AST] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, LOOPS):
                loops.append(child)
            elif not isinstance(child, FUNCTIONS):
                visit(child)

    for stmt in func.body:
        if isinstance(stmt, LOOPS):
            loops.append(stmt)
        else:
            visit(stmt)
    return loops


def deadline_polling(source: Source) -> Iterator[Finding]:
    if not source.within(HOT_MODULES):
        return
    rule = "deadline-polling"
    for func in source.functions:
        if not _takes_deadline(func):
            continue
        aliases = _deadline_aliases(func)
        if any(isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Attribute) for t in node.targets)
               and _names_in(node.value, aliases) for node in ast.walk(func)):
            continue  # stored on an object: its readers poll
        if not any(isinstance(node, ast.Name) and node.id in aliases
                   and isinstance(node.ctx, ast.Load)
                   for stmt in func.body for node in ast.walk(stmt)):
            yield source.finding(rule, func, f"{func.name} takes a deadline "
                                 "but never consults it")
            continue
        for loop in _outermost_loops(func):
            if _significant(loop) and not _polls_or_forwards(loop, aliases):
                yield source.finding(rule, loop, f"a loop in {func.name} "
                                     "neither polls nor forwards the deadline")


# -- provenance -------------------------------------------------------------

def recording_functions(sources: List[Source]) -> Set[str]:
    """Bare names of the functions whose call closure reaches
    ``record_step`` (calls resolve by bare name across every file)."""
    callees: Dict[str, Set[str]] = {}
    for source in sources:
        for func in source.functions:
            callees.setdefault(func.name, set()).update(
                _call_tail(n) for n in ast.walk(func) if isinstance(n, ast.Call))
    reaching: Set[str] = set()
    grown = True
    while grown:
        grown = False
        for name, called in callees.items():
            if name not in reaching and called & (reaching | {"record_step"}):
                reaching.add(name)
                grown = True
    return reaching


def _builds_graph(func: ast.AST) -> bool:
    return any(isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Attribute)
         and node.func.attr in {"add_actor", "add_edge", "from_tuples"})
        or _call_tail(node) == "SDFGraph") for node in ast.walk(func))


def provenance_hygiene(source: Source, recorders: Set[str]
                       ) -> Iterator[Finding]:
    rule = "provenance-hygiene"
    for node in source.nodes:
        if isinstance(node, ast.Call) and _call_tail(node) in {"span",
                                                                "recording"}:
            parent = source.parent.get(node)
            if isinstance(parent, ast.Expr):
                yield source.finding(rule, node, f"{_call_tail(node)}(...) "
                                     "is dropped; open it with `with`")
            elif (isinstance(parent, ast.Attribute)
                  and parent.attr == "__enter__"):
                yield source.finding(rule, node, f"{_call_tail(node)}(...)"
                                     ".__enter__() leaks if the body raises")
    if source.path.startswith("core/"):
        for func in source.tree.body:
            if (isinstance(func, FUNCTIONS) and not func.name.startswith("_")
                    and _builds_graph(func) and func.name not in recorders):
                yield source.finding(rule, func, f"{func.name} builds a graph "
                                     "but never reaches record_step")


# -- locks ------------------------------------------------------------------

LOCK_FREE_METHODS = {"__init__", "__new__", "__del__", "__repr__",
                     "__enter__", "__exit__"}


def _takes_lock(node: ast.AST) -> bool:
    """A ``with`` whose context is an attribute named ``*lock*``
    (``self._lock``, ``self._registry._lock``), called or not."""
    if not isinstance(node, (ast.With, ast.AsyncWith)):
        return False
    for item in node.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func
        if isinstance(expr, ast.Attribute) and "lock" in expr.attr.lower():
            return True
    return False


def lock_discipline(source: Source) -> Iterator[Finding]:
    for klass in source.nodes:
        if not isinstance(klass, ast.ClassDef):
            continue
        guarded: Set[str] = set()
        accesses: List[Tuple[str, ast.Attribute, bool, bool]] = []

        def walk(node: ast.AST, method: str, locked: bool) -> None:
            locked = locked or _takes_lock(node)
            for child in ast.iter_child_nodes(node):
                if isinstance(child, FUNCTIONS):
                    continue
                if (isinstance(child, ast.Attribute)
                        and isinstance(child.value, ast.Name)
                        and child.value.id == "self"):
                    parent = source.parent.get(child)
                    store = isinstance(child.ctx, ast.Store) or (
                        isinstance(parent, ast.Subscript)
                        and isinstance(parent.ctx, ast.Store))
                    accesses.append((method, child, locked, store))
                    if locked and store and method != "__init__":
                        guarded.add(child.attr)
                walk(child, method, locked)

        for method in ast.walk(klass):
            if isinstance(method, FUNCTIONS) and not any(
                    isinstance(up, FUNCTIONS)
                    for up in source.ancestors(method)):
                walk(method, method.name, False)
        reported = set()
        for method, attribute, locked, store in accesses:
            key = (method, attribute.attr)
            if (locked or method in LOCK_FREE_METHODS
                    or attribute.attr not in guarded or key in reported):
                continue
            reported.add(key)
            yield source.finding(
                "lock-discipline", attribute,
                f"self.{attribute.attr} is {'written' if store else 'read'} "
                f"without the lock in {method} but assigned under it "
                "elsewhere")


# -- determinism ------------------------------------------------------------

WALL_CLOCK_AND_ENTROPY = {
    "time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow", "date.today",
    "datetime.date.today", "uuid.uuid1", "uuid.uuid4", "os.urandom",
}


def determinism(source: Source) -> Iterator[Finding]:
    if not source.within(DETERMINISTIC_MODULES):
        return
    for node in source.nodes:
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted in WALL_CLOCK_AND_ENTROPY:
            yield source.finding("determinism", node, f"{dotted}() is not "
                                 "replay-deterministic")
        elif (isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id == "random"):
            yield source.finding("determinism", node, f"random."
                                 f"{node.func.attr}() draws from the unseeded "
                                 "process RNG")


# -- durability -------------------------------------------------------------

def _names_temp(expr: ast.AST) -> bool:
    """Whether a path expression names a temp location (``tmp``/``temp``
    in a name, attribute or called name)."""
    for sub in ast.walk(expr):
        text = (sub.id if isinstance(sub, ast.Name) else
                sub.attr if isinstance(sub, ast.Attribute) else
                _call_tail(sub) if isinstance(sub, ast.Call) else "").lower()
        if "tmp" in text or "temp" in text:
            return True
    return False


def _open_mode(call: ast.Call) -> Optional[str]:
    """The literal mode of an ``open(...)``; ``None`` when dynamic."""
    mode = call.args[1] if len(call.args) >= 2 else None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


def durability_discipline(source: Source) -> Iterator[Finding]:
    if not source.within(DURABLE_MODULES):
        return
    rule = "durability-discipline"
    for func in source.functions:
        calls = [n for n in ast.walk(func) if isinstance(n, ast.Call)]
        fsyncs = any(_dotted(c.func) == "os.fsync" for c in calls)
        replaces = any(_dotted(c.func) in ("os.replace", "os.rename")
                       for c in calls)
        for call in calls:
            if (isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("write_text", "write_bytes")):
                yield source.finding(rule, call, f"{call.func.attr}() "
                                     "truncates its target in place")
        for call in calls:
            if _dotted(call.func) not in ("open", "io.open") or not call.args:
                continue
            mode = _open_mode(call)
            if mode is not None and not set(mode) & {"w", "x", "a", "+"}:
                continue  # a read
            if mode is not None and "a" in mode and not set(mode) & {"w", "x"}:
                if not fsyncs:
                    yield source.finding(rule, call, "append without "
                                         "os.fsync in the same function")
            elif not _names_temp(call.args[0]):
                yield source.finding(rule, call, "writes a final path in "
                                     "place; write a temp path, fsync, "
                                     "os.replace")
            elif not (fsyncs and replaces):
                missing = "os.replace" if fsyncs else "os.fsync"
                yield source.finding(rule, call, f"temp-file write never "
                                     f"reaches {missing}")


# -- hygiene ----------------------------------------------------------------

def _caught(expr: Optional[ast.AST]) -> Iterator[str]:
    if expr is None:
        yield "<bare>"
    elif isinstance(expr, ast.Tuple):
        for element in expr.elts:
            yield from _caught(element)
    else:
        yield _dotted(expr)


def broad_except(source: Source) -> Iterator[Finding]:
    for node in source.nodes:
        if isinstance(node, ast.ExceptHandler):
            broad = [name for name in _caught(node.type)
                     if name in ("Exception", "BaseException", "<bare>")]
            if broad:
                yield source.finding("broad-except", node, f"except "
                                     f"{', '.join(broad)} also swallows "
                                     "AnalysisTimeout and bugs")


MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray", "defaultdict",
                        "OrderedDict", "Counter", "deque"}


def mutable_default(source: Source) -> Iterator[Finding]:
    for func in source.functions:
        for default in (*func.args.defaults, *func.args.kw_defaults):
            if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and _call_tail(default) in MUTABLE_CONSTRUCTORS):
                yield source.finding("mutable-default", default, f"a mutable "
                                     f"default of {func.name} is shared "
                                     "across calls")


# -- test-only modules ------------------------------------------------------

def _module_name(path: str) -> str:
    """``mcm/karp.py`` -> ``repro.mcm.karp``; ``mcm/__init__.py`` ->
    ``repro.mcm``."""
    parts = ["repro", *path[:-len(".py")].split("/")]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(tree: ast.AST, package: Optional[str]
             ) -> Iterator[Tuple[str, Optional[str], str]]:
    """``(module, name, bound name)`` for every import in ``tree``, lazy
    ones inside functions included; ``name`` is ``None`` for ``import
    module``.  Relative imports resolve against ``package``, and are
    skipped outside the library (``package`` is ``None``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, alias.asname or alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                if package is None:
                    continue
                anchor = package.rsplit(".", node.level - 1)[0]
                module = f"{anchor}.{module}" if module else anchor
            for alias in node.names:
                yield module, alias.name, alias.asname or alias.name


def unimported_modules(package: Mapping[str, str], users: Mapping[str, str]
                      ) -> List[Finding]:
    """The modules of ``package`` ({path under ``src/repro``: text}) that
    no other library file and no file of ``users`` imports.

    ``from P import name`` uses ``P.name`` when that is a module, else
    ``P`` and, through ``P``'s ``__init__``, the module it re-exports
    ``name`` from.  A package ``__init__`` re-exporting its own module is
    not a use.  Package ``__init__`` files are not judged themselves.
    """
    modules = {_module_name(path): path for path in package}
    parsed = [(path, ast.parse(text, path), _module_name(path))
              for path, text in sorted(package.items())]
    parsed += [(path, ast.parse(text, path), None)
               for path, text in sorted(users.items())]

    def anchor(path: str, name: Optional[str]) -> Optional[str]:
        if name is None or path.endswith("__init__.py"):
            return name
        return name.rpartition(".")[0]

    reexports: Dict[Tuple[str, str], Tuple[str, str]] = {}
    for path, tree, name in parsed:
        if name is not None and path.endswith("__init__.py"):
            for module, imported, bound in _imports(tree, name):
                if imported is not None:
                    reexports[(name, bound)] = (module, imported)

    def targets(module: str, name: Optional[str]) -> Iterator[str]:
        if name is not None and f"{module}.{name}" in modules:
            yield f"{module}.{name}"
        elif module in modules:
            yield module
            if (module, name) in reexports:
                yield from targets(*reexports[(module, name)])

    used: Set[str] = set()
    for path, tree, name in parsed:
        own = name if path.endswith("__init__.py") else None
        for module, imported, _ in _imports(tree, anchor(path, name)):
            used.update(target for target in targets(module, imported)
                        if target.rpartition(".")[0] != own)
    return [Finding("test-only-module", path, 1, "<module>", f"no library, "
                    f"{' or '.join(USER_DIRS)} file imports {name}: only "
                    "tests run it, so delete it or move it into tests/")
            for name, path in sorted(modules.items())
            if name not in used and not path.endswith("__init__.py")]


CHECKS = (exactness_discipline, fraction_float_mixing, deadline_polling,
          lock_discipline, determinism, durability_discipline, broad_except,
          mutable_default)


def scan(files: Mapping[str, str]) -> List[Finding]:
    """Every finding of every rule over ``{package path: source text}``."""
    sources = [Source(path, text) for path, text in sorted(files.items())]
    recorders = recording_functions(sources)
    findings = []
    for source in sources:
        for check in CHECKS:
            findings += check(source)
        findings += provenance_hygiene(source, recorders)
    return findings


def unexcused(findings: List[Finding]) -> List[Finding]:
    counts = Counter(f.key for f in findings)
    return [f for f in findings if f.key not in EXEMPT or counts[f.key] > 1]


# -- the tree ---------------------------------------------------------------

@pytest.fixture(scope="module")
def tree_findings() -> List[Finding]:
    package = {path.relative_to(ROOT).as_posix(): path.read_text()
               for path in sorted(ROOT.rglob("*.py"))}
    users = {path.relative_to(REPO).as_posix(): path.read_text()
             for directory in USER_DIRS
             for path in sorted((REPO / directory).rglob("*.py"))}
    return scan(package) + unimported_modules(package, users)


def test_source_tree_keeps_every_contract(tree_findings):
    offenders = [str(f) for f in unexcused(tree_findings)]
    assert offenders == [], (
        f"{offenders}: fix them, or add an EXEMPT entry keyed (rule, file, "
        "function) with the reason the contract does not hold there")


def test_every_exemption_gives_a_reason():
    assert [key for key, reason in EXEMPT.items() if not reason.strip()] == []


def test_every_exemption_excuses_one_live_finding(tree_findings):
    counts = Counter(f.key for f in tree_findings)
    assert {key: counts[key] for key in EXEMPT if counts[key] != 1} == {}


def _polling_lines(karp: str) -> Set[int]:
    return {f.line for f in scan({"mcm/karp.py": karp})
            if f.rule == "deadline-polling"}


def test_karp_as_shipped_polls_every_loop():
    assert _polling_lines((ROOT / "mcm" / "karp.py").read_text()) == set()


def test_karp_without_polls_fails_at_its_loop():
    """Neutralising ``mcm/karp.py``'s polls in place keeps every line
    number, and the level loop they guarded is flagged."""
    original = (ROOT / "mcm" / "karp.py").read_text()
    assert "deadline.check()" in original
    mutated = original.replace("deadline.check()", "pass")
    loop = next(number for number, line in
                enumerate(mutated.splitlines(), start=1)
                if line.strip() == "for k in range(n):")
    assert loop in _polling_lines(mutated)


def _durability_lines(store: str) -> Set[int]:
    return {f.line for f in scan({"analysis/store.py": store})
            if f.rule == "durability-discipline"}


def test_result_store_as_shipped_publishes_durably():
    store = (ROOT / "analysis" / "store.py").read_text()
    assert _durability_lines(store) == set()


def test_result_store_without_fsync_fails_at_its_write():
    """Dropping the record's fsync from ``analysis/store.py`` in place
    keeps every line number, and the temp-file write is flagged."""
    original = (ROOT / "analysis" / "store.py").read_text()
    assert "os.fsync(handle.fileno())" in original
    mutated = original.replace("os.fsync(handle.fileno())", "pass")
    write = next(number for number, line in
                 enumerate(mutated.splitlines(), start=1)
                 if line.strip() == 'with open(tmp, "wb") as handle:')
    assert _durability_lines(mutated) == {write}


def test_recording_closure_crosses_files():
    builder = """
        from repro.core.steps import note_reduction

        def reduce_graph(graph):
            result = SDFGraph(graph.name)
            note_reduction(graph, result)
            return result
        """
    helper = """
        def note_reduction(before, after):
            record_step("reduce", before=before, after=after)
        """
    files = {"core/reduce.py": textwrap.dedent(builder)}
    assert [f.line for f in scan(files)] == [4]
    files["core/steps.py"] = textwrap.dedent(helper)
    assert scan(files) == []


def test_imports_that_count_as_uses():
    """A direct import, a name that the package ``__init__`` re-exports
    and a lazy relative import each use their module; the package's own
    re-export alone does not."""
    package = {
        "mcm/__init__.py": "from repro.mcm.engine import solve\n"
                           "from repro.mcm.spare import spare\n",
        "mcm/engine.py": "", "mcm/spare.py": "", "mcm/lazy.py": "",
        "mcm/direct.py": "",
        "analysis/run.py": "from repro.mcm import solve\n\n"
                           "def run():\n    from ..mcm import lazy\n",
    }
    users = {"examples/demo.py": "import repro.mcm.direct\n"
                                 "from repro.analysis.run import run\n"}
    assert [f.file for f in unimported_modules(package, users)] \
        == ["mcm/spare.py"]


# -- detection: (id, rule, file, snippet, lines the rule flags) -------------

LOCKED_CLASS = """
import threading

class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self._hits = 0

    def record(self):
        with self._lock:
            self._hits += 1

    def {method}
"""

DETECTION = [
    # exactness-discipline
    ("float_cast_in_exact_module_fires", "exactness-discipline", "mcm/fixture.py", """
        def mean(value):
            return float(value)
        """, [3]),
    ("float_literal_arithmetic_fires", "exactness-discipline", "mcm/fixture.py", """
        def half(value):
            return value * 0.5
        """, [3]),
    ("infinity_sentinel_is_exempt", "exactness-discipline", "mcm/fixture.py", """
        EPSILON = float("-inf")
        TOP = float("inf")
        """, []),
    ("outside_exact_scope_is_clean", "exactness-discipline", "obs/fixture.py", """
        def mean(value):
            return float(value) * 0.5
        """, []),
    ("kernel_float_equality_fires", "exactness-discipline", "kernels/fixture.py", """
        def accept(candidate):
            if candidate == 0.5:
                return True
        """, [3]),
    ("kernel_isclose_fires", "exactness-discipline", "kernels/fixture.py", """
        import math

        def accept(a, b):
            return math.isclose(a, b)
        """, [5]),
    ("kernel_ordering_comparisons_are_fine", "exactness-discipline", "kernels/fixture.py", """
        def accept(a, b, slack):
            return a < b + slack
        """, []),
    # fraction-float-mixing, in every module
    ("mixed_arithmetic_fires_everywhere", "fraction-float-mixing", "obs/fixture.py", """
        from fractions import Fraction

        def bad():
            return Fraction(1, 3) + 0.5
        """, [5]),
    ("mixed_comparison_fires", "fraction-float-mixing", "obs/fixture.py", """
        from fractions import Fraction

        def bad(x):
            return Fraction(x) > 0.25
        """, [5]),
    ("pure_fraction_arithmetic_is_clean", "fraction-float-mixing", "obs/fixture.py", """
        from fractions import Fraction

        def good():
            return Fraction(1, 3) + Fraction(1, 2)
        """, []),
    # deadline-polling
    ("unpolled_while_loop_fires_at_the_loop", "deadline-polling", "mcm/fixture.py", """
        def iterate(graph, deadline=None):
            deadline.check_now()
            done = False
            while not done:
                done = graph.relax()
        """, [5]),
    ("polled_loop_is_clean", "deadline-polling", "mcm/fixture.py", """
        def iterate(graph, deadline=None):
            done = False
            while not done:
                deadline.check()
                done = graph.relax()
        """, []),
    ("forwarding_to_callee_is_clean", "deadline-polling", "mcm/fixture.py", """
        def iterate(sccs, deadline=None):
            out = []
            for scc in sccs:
                out.append(solve(scc, deadline))
            return out
        """, []),
    ("alias_via_sub_is_tracked", "deadline-polling", "mcm/fixture.py", """
        def iterate(graph, deadline=None):
            d = deadline.sub(1)
            while graph.busy():
                d.check_now()
        """, []),
    ("never_consulted_fires_at_the_def", "deadline-polling", "mcm/fixture.py", """
        def iterate(graph, deadline=None):
            return graph.solve()
        """, [2]),
    ("validation_only_loop_is_exempt", "deadline-polling", "mcm/fixture.py", """
        def iterate(graph, deadline=None):
            for edge in graph.edges:
                if edge.transit < 0:
                    raise ValueError(f"bad transit on {edge.name}")
            while graph.busy():
                deadline.check()
        """, []),
    ("fraction_annotated_deadline_is_exempt", "deadline-polling", "sdf/simulation.py", """
        def run_until(self, deadline: Fraction):
            while self.now < deadline:
                self.step()
        """, []),
    ("storing_on_self_hands_off_the_obligation", "deadline-polling", "mcm/fixture.py", """
        class Engine:
            def __init__(self, deadline=None):
                self.deadline = deadline or default_deadline()
        """, []),
    ("cold_module_is_out_of_scope", "deadline-polling", "obs/fixture.py", """
        def iterate(graph, deadline=None):
            while graph.busy():
                graph.relax()
        """, []),
    # provenance-hygiene
    ("unrecorded_builder_fires_at_the_def", "provenance-hygiene", "core/fixture.py", """
        def reduce_graph(graph):
            result = SDFGraph(graph.name + "-reduced")
            for actor in graph.actors:
                result.add_actor(actor.name, actor.time)
            return result
        """, [2]),
    ("unrecorded_bulk_builder_fires", "provenance-hygiene", "core/fixture.py", """
        def reduce_graph(graph):
            actors = [(a.name, a.execution_time) for a in graph.actors]
            return SDFGraph.from_tuples(graph.name + "-reduced",
                                        actors, [])
        """, [2]),
    ("recording_builder_is_clean", "provenance-hygiene", "core/fixture.py", """
        def reduce_graph(graph):
            result = SDFGraph(graph.name + "-reduced")
            record_step("reduce", before=graph, after=result)
            return result
        """, []),
    ("recording_via_helper_closure_is_clean", "provenance-hygiene", "core/fixture.py", """
        def reduce_graph(graph):
            result = SDFGraph(graph.name + "-reduced")
            _note(graph, result)
            return result

        def _note(before, after):
            record_step("reduce", before=before, after=after)
        """, []),
    ("private_and_non_building_functions_are_exempt", "provenance-hygiene", "core/fixture.py", """
        def _helper(graph):
            result = SDFGraph("x")
            result.add_actor("a", 1)
            return result

        def describe(graph):
            return graph.name
        """, []),
    ("dropped_span_fires", "provenance-hygiene", "obs/fixture.py", """
        def traced():
            span("convert")
            do_work()
        """, [3]),
    ("manual_enter_fires", "provenance-hygiene", "obs/fixture.py", """
        def traced():
            s = recording().__enter__()
            return s
        """, [3]),
    ("with_span_is_clean", "provenance-hygiene", "obs/fixture.py", """
        def traced():
            with span("convert"):
                do_work()
        """, []),
    # lock-discipline
    ("unlocked_read_fires", "lock-discipline", "analysis/fixture.py", LOCKED_CLASS.format(
        method="hits(self):\n        return self._hits"), [14]),
    ("unlocked_write_fires", "lock-discipline", "analysis/fixture.py", LOCKED_CLASS.format(
        method="reset(self):\n        self._hits = 0"), [14]),
    ("locked_read_is_clean", "lock-discipline", "analysis/fixture.py", LOCKED_CLASS.format(
        method="hits(self):\n        with self._lock:\n"
               "            return self._hits"), []),
    ("init_and_repr_are_exempt", "lock-discipline", "analysis/fixture.py", LOCKED_CLASS.format(
        method="__repr__(self):\n        return str(self._hits)"), []),
    ("nested_lock_attribute_counts_as_a_lock", "lock-discipline", "obs/fixture.py", """
        class Child:
            def inc(self):
                with self._registry._lock:
                    self._series = {}

            def read(self):
                with self._registry._lock:
                    return self._series
        """, []),
    # determinism
    ("wall_clock_fires", "determinism", "analysis/fixture.py", """
        import time

        def stamp():
            return time.time()
        """, [5]),
    ("global_rng_fires", "determinism", "analysis/fixture.py", """
        import random

        def jitter():
            return random.random()
        """, [5]),
    ("monotonic_clock_is_fine", "determinism", "analysis/fixture.py", """
        import time

        def elapsed(start):
            return time.monotonic() - start
        """, []),
    ("obs_modules_are_out_of_scope", "determinism", "obs/fixture.py", """
        import time

        def stamp():
            return time.time()
        """, []),
    # durability-discipline
    ("direct_final_path_write_fires", "durability-discipline", "analysis/store.py", """
        def publish(path, data):
            with open(path, "wb") as handle:
                handle.write(data)
        """, [3]),
    ("write_text_fires", "durability-discipline", "analysis/store.py", """
        def publish(path, data):
            path.write_text(data)
        """, [3]),
    ("append_without_fsync_fires", "durability-discipline", "analysis/store.py", """
        def log(path, line):
            with open(path, "a") as handle:
                handle.write(line)
        """, [3]),
    ("append_with_fsync_is_clean", "durability-discipline", "analysis/store.py", """
        import os

        def log(path, line):
            with open(path, "a") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
        """, []),
    ("blessed_publish_protocol_is_clean", "durability-discipline", "analysis/store.py", """
        import os

        def publish(tmp_path, final, data):
            with open(tmp_path, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, final)
        """, []),
    ("temp_write_without_replace_fires", "durability-discipline", "analysis/store.py", """
        import os

        def publish(tmp_path, data):
            with open(tmp_path, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
        """, [5]),
    ("temp_write_without_fsync_fires", "durability-discipline", "analysis/store.py", """
        import os

        def publish(tmp_path, final, data):
            with open(tmp_path, "wb") as handle:
                handle.write(data)
            os.replace(tmp_path, final)
        """, [5]),
    ("reads_are_exempt", "durability-discipline", "analysis/store.py", """
        def load(path):
            with open(path) as handle:
                return handle.read()
        """, []),
    ("outside_durable_modules_is_exempt", "durability-discipline", "obs/fixture.py", """
        def publish(path, data):
            path.write_text(data)
        """, []),
    # broad-except
    ("except_exception_fires", "broad-except", "obs/fixture.py", """
        def guarded():
            try:
                work()
            except Exception:
                pass
        """, [5]),
    ("bare_except_fires", "broad-except", "obs/fixture.py", """
        def guarded():
            try:
                work()
            except:
                pass
        """, [5]),
    ("tuple_hiding_exception_fires", "broad-except", "obs/fixture.py", """
        def guarded():
            try:
                work()
            except (ValueError, Exception):
                pass
        """, [5]),
    ("narrow_except_is_clean", "broad-except", "obs/fixture.py", """
        def guarded():
            try:
                work()
            except ValueError:
                pass
        """, []),
    # mutable-default
    ("list_default_fires", "mutable-default", "obs/fixture.py", """
        def collect(into=[]):
            return into
        """, [2]),
    ("constructor_and_kwonly_defaults_fire", "mutable-default", "obs/fixture.py", """
        def collect(*, into=dict()):
            return into
        """, [2]),
    ("two_defaults_are_two_findings", "mutable-default", "obs/fixture.py", """
        def twice(a=[], b=[]):
            return a, b
        """, [2, 2]),
    ("none_default_is_clean", "mutable-default", "obs/fixture.py", """
        def collect(into=None):
            return into or []
        """, []),
]


@pytest.mark.parametrize("rule, path, snippet, lines",
                         [pytest.param(*row[1:], id=row[0]) for row in DETECTION])
def test_detection(rule, path, snippet, lines):
    found = scan({path: textwrap.dedent(snippet)})
    assert sorted(f.line for f in found if f.rule == rule) == lines
