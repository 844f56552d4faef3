"""Every ``repro-…-vN`` schema tag has one owner and one validator.

The module that writes an artefact declares its tag; everything else
imports that constant.  ``repro obs check`` dispatches JSON documents by
tag, so every tag but the binary store record's (dispatched by its
``.rec`` suffix) must be a :data:`repro.obs.check.VALIDATORS` key.
"""

import ast
import pathlib
import re

import repro
from repro.obs.check import VALIDATORS

TAG = re.compile(r"repro-[a-z0-9-]+-v\d+")
DEFINERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _tag_literals():
    """``(tag, "file:line")`` for every tag literal outside docstrings."""
    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, DEFINERS) and node.body
            and isinstance(node.body[0], ast.Expr)
        }
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and TAG.fullmatch(node.value)
                    and id(node) not in docstrings):
                yield node.value, f"{path.relative_to(root)}:{node.lineno}"


def test_each_tag_is_declared_once_and_validated():
    owners = {}
    for tag, where in _tag_literals():
        owners.setdefault(tag, []).append(where)
    assert {tag: at for tag, at in owners.items() if len(at) > 1} == {}
    assert set(owners) == set(VALIDATORS) | {"repro-store-v1"}
