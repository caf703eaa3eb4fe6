"""The library names the benchmark's traced mode wraps still exist.

``bench/traced.py`` replaces each function named in its ``WRAPPED`` table
on the ``cvesentinel`` module of that name. A rename in ``src/`` would
break ``bench/run.py --trace 1`` without failing any other test, so the
table is read here from the source, without running the benchmark.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"


def wrapped_names() -> list[str]:
    for node in ast.parse(TRACED.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            assert isinstance(node.value, ast.Dict)
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"no WRAPPED table in {TRACED}")


def test_every_wrapped_name_resolves_on_its_module():
    names = wrapped_names()
    assert "ingest.diff_snapshots" in names
    for name in names:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"cvesentinel.{module_name}")
        assert callable(getattr(module, attr, None)), f"cvesentinel.{name} is gone"
