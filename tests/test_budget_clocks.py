"""Sub-second budgets in the tests run on fake clocks.

A test that gives an analysis less than a second and then asserts on
the outcome is asserting on the host's speed, unless the deadline runs
on a clock the test controls: ``FakeClock`` or ``ticking_deadlines()``
(``tests/conftest.py``).  This module parses every ``tests/*.py`` and
finds each literal budget below one second:

* ``timeout=`` and ``budget=`` keywords (any literal in the value, so
  ``budget=st.sampled_from([0.002, ...])`` counts);
* ``Deadline.after(...)``;
* stage-timeout dicts (keys all stage names, such as ``FORCE_FALLBACK``);
* ``"--timeout", "<seconds>"`` pairs in argv lists.

A budget in a module-level assignment belongs to every function that
names it (in its body or its decorators).  A function runs on a fake
clock when it calls ``ticking_deadlines`` or ``FakeClock`` itself, or
uses a fixture of its module that does (by parameter, or autouse in its
class or module).  A function that does neither is exempt only when
``EXEMPT`` names it with its reason.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.resilience import KNOWN_STAGES

TESTS = pathlib.Path(__file__).resolve().parent
FAKE_CLOCKS = {"ticking_deadlines", "FakeClock"}
BUDGET_KEYWORDS = {"timeout", "budget"}

#: ``file::[Class::]function`` -> why its sub-second budget cannot
#: depend on the host's speed without a fake clock.
EXEMPT = {
    "test_deadline.py::TestDeadline::test_after_expires":
        "one-sided: sleeps past the 10 ms budget, so a slow host can only "
        "make the deadline expire",
    "test_deadline.py::TestDeadline::test_strided_check_eventually_fires":
        "one-sided: a zero budget, then a sleep before the first clock read",
    "test_deadline.py::TestDeadline::test_checkpoint_progress_is_live":
        "one-sided: sleeps past the 10 ms budget before check_now()",
    "test_deadline.py::TestDeadline::test_negative_budget_rejected":
        "rejection: Deadline(budget=-1.0) raises before any clock read",
    "test_resilience.py::TestPolicyValidation::"
    "test_nonpositive_timeout_rejected":
        "rejection: AnalysisPolicy(timeout=0.0) raises before any clock read",
    "test_cli.py::TestBadInput::test_clean_exit":
        "rejection: the parser refuses --timeout 0 and -1 (exit 2) before "
        "any deadline exists",
}


def _number(node: ast.AST) -> Optional[float]:
    """The value of a numeric literal, negated ones included."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _number(node.operand)
        return None if inner is None else -inner
    if (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
            and isinstance(node.value, (int, float))):
        return float(node.value)
    return None


def _argv_seconds(node: ast.AST) -> Optional[float]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return float(node.value)
        except ValueError:
            return None
    return None


def budgets(tree: ast.AST) -> Iterator[Tuple[int, float]]:
    """``(line, seconds)`` of every literal budget under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg in BUDGET_KEYWORDS:
                    for inner in ast.walk(keyword.value):
                        value = _number(inner)
                        if value is not None:
                            yield inner.lineno, value
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "after"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "Deadline" and node.args):
                value = _number(node.args[0])
                if value is not None:
                    yield node.lineno, value
        elif isinstance(node, ast.Dict) and node.keys and all(
                isinstance(k, ast.Constant) and k.value in KNOWN_STAGES
                for k in node.keys):
            for value_node in node.values:
                value = _number(value_node)
                if value is not None:
                    yield value_node.lineno, value
        elif isinstance(node, (ast.List, ast.Tuple)):
            for flag, value_node in zip(node.elts, node.elts[1:]):
                if (isinstance(flag, ast.Constant)
                        and flag.value == "--timeout"):
                    value = _argv_seconds(value_node)
                    if value is not None:
                        yield value_node.lineno, value


def _calls_fake_clock(tree: ast.AST) -> bool:
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id in FAKE_CLOCKS for node in ast.walk(tree))


def _is_fixture(function: ast.AST) -> Tuple[bool, bool]:
    """``(fixture, autouse)`` from the decorators of ``function``."""
    for decorator in function.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        target = call.func if call else decorator
        if isinstance(target, ast.Attribute) and target.attr == "fixture":
            autouse = any(k.arg == "autouse" and isinstance(k.value, ast.Constant)
                          and k.value.value is True
                          for k in (call.keywords if call else ()))
            return True, autouse
    return False, False


@dataclass
class Scope:
    """The fixtures a function can see: its module's and its class's."""

    faking: Set[str] = field(default_factory=set)
    autouse_fakes: bool = False

    def child(self, body: List[ast.stmt]) -> "Scope":
        scope = Scope(set(self.faking), self.autouse_fakes)
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fixture, autouse = _is_fixture(node)
                if fixture and _calls_fake_clock(node):
                    scope.faking.add(node.name)
                    scope.autouse_fakes |= autouse
        return scope


@dataclass
class Finding:
    test: str
    line: int
    seconds: float
    on_fake_clock: bool


def _functions(body: List[ast.stmt], scope: Scope, prefix: str
               ) -> Iterator[Tuple[str, ast.AST, Scope]]:
    scope = scope.child(body)
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, scope, f"{prefix}{node.name}::")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node, scope


def scan(source: str, filename: str) -> List[Finding]:
    """Every sub-second literal budget of one test module."""
    module = ast.parse(source, filename)
    shared: Dict[str, List[Tuple[int, float]]] = {}
    for node in module.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            found = list(budgets(node.value)) if node.value else []
            for target in targets:
                if isinstance(target, ast.Name) and found:
                    shared[target.id] = found
    findings = []
    for name, function, scope in _functions(module.body, Scope(),
                                            f"{filename}::"):
        found = list(budgets(function))
        named = {node.id for node in ast.walk(function)
                 if isinstance(node, ast.Name)}
        for shared_name in sorted(named & set(shared)):
            found += shared[shared_name]
        params = {arg.arg for arg in function.args.args}
        on_fake_clock = (_calls_fake_clock(function) or scope.autouse_fakes
                         or bool(params & scope.faking))
        findings += [Finding(name, line, seconds, on_fake_clock)
                     for line, seconds in found if seconds < 1.0]
    return findings


def unguarded(source: str, filename: str) -> List[Finding]:
    return [f for f in scan(source, filename)
            if not f.on_fake_clock and f.test not in EXEMPT]


def _suite() -> Dict[str, str]:
    return {path.name: path.read_text() for path in sorted(TESTS.glob("*.py"))}


def test_sub_second_budgets_run_on_fake_clocks():
    offenders = [f"{f.test} (line {f.line}: {f.seconds:g} s)"
                 for name, source in _suite().items()
                 for f in unguarded(source, name)]
    assert offenders == [], (
        "sub-second budgets outside FakeClock/ticking_deadlines(): "
        f"{offenders}; run them on a fake clock, or exempt them in "
        "EXEMPT with the reason they cannot depend on the host's speed")


def test_every_exemption_still_names_an_unguarded_budget():
    needed = {f.test for name, source in _suite().items()
              for f in scan(source, name) if not f.on_fake_clock}
    assert set(EXEMPT) <= needed, sorted(set(EXEMPT) - needed)


def test_the_fake_clocks_of_the_suite_are_seen():
    findings = {f.test: f for name, source in _suite().items()
                for f in scan(source, name)}
    # Autouse FakeClock fixture of the class.
    assert findings["test_batch_resume.py::TestHangAndCancel::"
                    "test_injected_hang_ends_in_timeout"].on_fake_clock
    # A module-level stage-timeout dict, named inside ticking_deadlines().
    assert findings["test_provenance.py::TestTierProvenance::test_"
                    "conservative_outcome_names_degradation_and_witness"
                    ].on_fake_clock
    # A --timeout argv in a helper that runs it on ticking_deadlines().
    assert findings["test_cli.py::TestTimeouts::_run"].on_fake_clock


class TestDetection:
    SOURCE = '''
import pytest
FORCE = {"simulation": 0.001, "symbolic": 5.0}
ARGV = [["throughput", "g", "--timeout", "0.5"]]

def test_keyword():
    run(timeout=0.2)

def test_deadline_after():
    Deadline.after(0.01)

def test_named_dict():
    AnalysisPolicy(stage_timeouts=FORCE)

@pytest.mark.parametrize("argv", ARGV)
def test_argv(argv):
    main(argv)

def test_generous():
    run(timeout=30.0, budget=1)

def test_ticking():
    with ticking_deadlines():
        run(timeout=0.2)

class TestFaked:
    @pytest.fixture(autouse=True)
    def clock(self, monkeypatch):
        monkeypatch.setattr("x.time", FakeClock())

    def test_inherits(self):
        run(timeout=0.2)

@pytest.fixture
def fake(monkeypatch):
    return FakeClock()

def test_by_parameter(fake):
    run(budget=-1.0)
'''

    def test_flags_each_form_outside_a_fake_clock(self):
        flagged = {(f.test, f.seconds)
                   for f in unguarded(self.SOURCE, "t.py")}
        assert flagged == {("t.py::test_keyword", 0.2),
                           ("t.py::test_deadline_after", 0.01),
                           ("t.py::test_named_dict", 0.001),
                           ("t.py::test_argv", 0.5)}

    def test_fake_clocks_guard(self):
        guarded = {f.test for f in scan(self.SOURCE, "t.py")
                   if f.on_fake_clock}
        assert guarded == {"t.py::test_ticking",
                           "t.py::TestFaked::test_inherits",
                           "t.py::test_by_parameter"}
