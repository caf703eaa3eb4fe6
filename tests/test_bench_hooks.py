"""The library names the benchmark's traced mode wraps still exist, and
the CLI still calls each of them through its module.

``bench/traced.py`` replaces each function named in its ``WRAPPED`` table
on the ``cvesentinel`` module of that name. A rename in ``src/`` would
break ``bench/run.py --trace 1``, and a call that no longer goes through
the module would leave that layer's span empty, without failing any other
test; so the table is read here from the source, without running the
benchmark.
"""

from __future__ import annotations

import ast
import importlib
import json
from collections import Counter
from pathlib import Path

from conftest import cpe23, feed_bytes, feed_item
from cvesentinel.cli import main

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


def _cli_runs(tmp_path: Path) -> list[list[str]]:
    """Each kind of command the benchmark's workloads run, on a three-day store."""
    def write(name: str, data: bytes | str) -> str:
        path = tmp_path / name
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        return str(path)

    anvil = cpe23("acme", "anvil")
    days = {
        "2021-06-01": [[feed_item("CVE-2021-0001", cpes=[anvil]),
                        feed_item("CVE-2021-0002", summary="A flaw in Acme Rocket")]],
        "2021-06-02": [[feed_item("CVE-2021-0001", modified="2021-06-02T00:00Z", score=7.5,
                                  cpes=[anvil])],
                       [feed_item("CVE-2021-0003", score=9.8, cpes=[cpe23("microsoft", "windows")])]],
        "2021-06-03": [[feed_item("CVE-2021-0004", summary="Acme Rocket and Anvil overflow")]],
    }
    store = ["--store", str(tmp_path / "store")]
    runs = []
    for day, feeds in days.items():
        paths = [write(f"{day}-{n}.json", feed_bytes(items)) for n, items in enumerate(feeds)]
        runs.append(["ingest", *paths, "--date", day, *store])
    two_feeds = runs[1][1:3]
    dictionary = write("dict.json", json.dumps([{"cpe23": anvil}, {"cpe23": cpe23("acme", "rocket")}]))
    filters = ["--out-vendors", str(tmp_path / "fv.txt"), "--out-products", str(tmp_path / "fp.txt")]
    runs.append(["build-filter", *two_feeds, "--dictionary", dictionary, *filters,
                 "--source-year", "2021", *store])
    inventory = write("inv.csv", "asset_id,product_name,vendor_name,version,cpe23\n"
                                 "A1,Anvil,Acme,1.0,\nA2,Rocket,Acme,2.0,\n")
    tickets = ["tickets", "--date", "2021-06-03", "--inventory", inventory,
               "--filter-vendors", filters[1], "--filter-products", filters[3], *store]
    runs += [tickets, [*tickets, "--full"]]
    for report in (["daily"], ["delays", "--field", "cvss"], ["vendors"], ["table"]):
        runs.append(["stats", "--report", *report, "--from", "2021-06-01", "--to", "2021-06-03",
                     *store])
    return runs


def test_the_cli_calls_every_wrapped_name_through_its_module(tmp_path, monkeypatch, capsys):
    calls: Counter[str] = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = wrapped_names()
    for name in names:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"cvesentinel.{module_name}")
        monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
    for argv in _cli_runs(tmp_path):
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    assert [name for name in names if not calls[name]] == []
