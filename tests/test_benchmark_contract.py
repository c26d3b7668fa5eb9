"""The names the benchmark under perfbench/ looks up in drtopt must keep resolving.

perfbench/run.py is not imported here: it sets thread-count environment
variables at import.  Its tracing sites and correctness checks are loaded by
path instead, and its calls into drtopt are read from its source.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module through sys.modules
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", sorted({(m, a) for m, a, _ in load("tracing").SITES}))
def test_every_tracing_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"drtopt.{module}"), attr))


def test_every_check_rejects_its_planted_fault():
    assert load("checks").self_test() == []


def drtopt_calls(name):
    """Each call in perfbench/<name> to a name it imports from drtopt, or to an attribute of one, as a param."""
    tree = ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))
    imported = {}  # local name -> (module, name in it)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "drtopt":
            imported.update({alias.asname or alias.name: (node.module, alias.name) for alias in node.names})
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, attrs = node.func, []
        while isinstance(func, ast.Attribute):
            func, attrs = func.value, [func.attr, *attrs]
        if isinstance(func, ast.Name) and func.id in imported:
            module, first = imported[func.id]
            where = (node.lineno, node.col_offset)
            calls.append((where, pytest.param(module, [first, *attrs], node.args, [k.arg for k in node.keywords],
                                              id=f"{name}:{node.lineno} {ast.unparse(node.func)}")))
    return [param for _, param in sorted(calls, key=lambda c: c[0])]


@pytest.mark.parametrize("module, path, args, keywords", drtopt_calls("run.py") + drtopt_calls("checks.py"))
def test_every_call_into_drtopt_binds_to_its_signature(module, path, args, keywords):
    assert not any(isinstance(a, ast.Starred) for a in args) and None not in keywords, "cannot bind * or ** here"
    first, *attrs = path
    callee = importlib.import_module(module)
    # `from drtopt import m` may name a submodule that the package does not import itself
    callee = getattr(callee, first) if hasattr(callee, first) else importlib.import_module(f"{module}.{first}")
    for attr in attrs:
        callee = getattr(callee, attr)
    inspect.signature(callee).bind(*[None] * len(args), **dict.fromkeys(keywords))
