"""The names the benchmark under perfbench/ looks up in drtopt must keep resolving.

perfbench/run.py is not imported here: it sets thread-count environment
variables at import.  Its tracing sites and correctness checks are loaded by
path instead.
"""

import importlib
import importlib.util
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
