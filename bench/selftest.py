"""Shows that every output check of the benchmark fails on a corrupted output.

Run from the root of a checkout:

    python3 bench/selftest.py [--seed 1]

For each workload it generates the inputs, runs the set-up and one round
through the CLI, confirms that every real output passes its check, and
then feeds each check deliberately corrupted copies of that output: a
count off by one, a ticket dropped, two tickets swapped, a ``via`` tag or
a severity changed, a report figure changed, a filter name dropped. It
prints one line per corruption and exits 1 if any corruption passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from generate import generate
from reference import CheckFailed
from run import Cli
from workloads import WORKLOADS, Output


class NotApplicable(Exception):
    """The output lacks what the corruption changes; try it on a later command."""


def _json(edit):
    def corrupt(out: Output) -> Output:
        payload = json.loads(out.stdout)
        edit(payload)
        return Output(json.dumps(payload), out.stderr)
    return corrupt


def _lines(edit):
    def corrupt(out: Output) -> Output:
        tickets = [json.loads(line) for line in out.stdout.splitlines()]
        edit(tickets)
        return Output("".join(json.dumps(t) + "\n" for t in tickets), out.stderr)
    return corrupt


def _first_with(tickets, via):
    return next(t for t in tickets if via in t["via"].values())


def _flip_via(tickets):
    ticket = _first_with(tickets, "SUMMARY")
    cve_id = next(i for i, v in ticket["via"].items() if v == "SUMMARY")
    ticket["via"][cve_id] = "CPE"


def _raise_severity(tickets):
    ticket = next(t for t in tickets if t["max_severity"] != "CRITICAL")
    ticket["max_severity"] = "CRITICAL"


def _merge_reject_counts(payload):
    # what overwriting counts keyed by file name would print
    if len(payload["rejects"]) < 2:
        raise NotApplicable
    name = sorted(payload["rejects"])[0]
    payload["rejects"] = {name: payload["rejects"][name]}


def _bump(path):
    def edit(payload):
        target = payload
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] += 1
    return edit


CORRUPTIONS = {
    "ingest": [
        ("stored count off by one", _json(_bump(["stored"]))),
        ("rejected total off by one", _json(_bump(["rejected_total"]))),
        ("reject counts of two feeds collapsed", _json(_merge_reject_counts)),
    ],
    "build_filter": [
        ("filter product count off by one", _json(_bump(["products"]))),
        ("excluded count off by one", _json(_bump(["excluded_no_cpe"]))),
    ],
    "tickets": [
        ("a ticket dropped", _lines(lambda t: t.pop())),
        ("two tickets swapped", _lines(lambda t: t.insert(0, t.pop()))),
        ("a SUMMARY via tag changed to CPE", _lines(_flip_via)),
        ("a severity raised", _lines(_raise_severity)),
        ("a CVE dropped from a ticket", _lines(lambda t: t[0]["cve_ids"].pop())),
        ("an asset added to a ticket", _lines(lambda t: t[0]["matched_assets"].append("AST-999999"))),
        ("an inventory reject note lost",
         lambda out: Output(out.stdout, out.stderr.replace("inventory row", "row", 1))),
    ],
    "stats_daily": [
        ("a day's new CVE count off by one", _json(_bump(["days", 0, "total_reports"]))),
        ("a missing-CPE count off by one", _json(_bump(["days", -1, "missing_cpe"]))),
    ],
    "stats_delays": [
        ("a delay off by one day", _json(_bump(["delays", 0, "days"]))),
        ("never-updated count off by one", _json(_bump(["never"]))),
    ],
    "stats_vendors": [
        ("a vendor total off by one", _json(_bump(["vendors", 0, "total"]))),
        ("skipped count off by one", _json(_bump(["skipped_no_vendor"]))),
    ],
    "stats_table": [
        ("a table count off by one", _json(_bump(["rows", 1, "initial_count"]))),
        ("zero-score count off by one", _json(_bump(["dropped_zero_scores"]))),
    ],
}


def _expect_failure(workload: str, command, label: str, output: Output) -> int:
    """1 if the check accepts the corrupted output, else 0."""
    try:
        command.check(output)
    except CheckFailed as exc:
        print(f"ok    {workload:<10} {command.name:<13} {label}: {exc}"[:160])
        return 0
    print(f"FAIL  {workload:<10} {command.name:<13} {label}: check passed")
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    root = Path.cwd()
    work = root / ".bench_work" / f"selftest-{os.getpid()}"
    cli = Cli(root, work)
    shown: set[tuple[str, str]] = set()
    passed_corruptions = 0
    try:
        for name, workload_type in WORKLOADS.items():
            inputs = generate(name, args.seed, work / name / "inputs")
            workload = workload_type(inputs)
            state = work / name / "state"
            state.mkdir(parents=True)
            for command in workload.setup(state) + workload.round(state):
                result = cli.run(command)
                if result.code != 0:
                    print(f"{name}: `sentinel {command.argv[0]}` exited {result.code}")
                    return 1
                command.check(result.output)  # the real output must pass
                for label, corrupt in CORRUPTIONS[command.name]:
                    if (command.name, label) in shown:
                        continue
                    try:
                        bad = corrupt(result.output)
                    except NotApplicable:
                        continue
                    shown.add((command.name, label))
                    passed_corruptions += _expect_failure(name, command, label, bad)
                if command.name == "build_filter" and (command.name, "file") not in shown:
                    shown.add((command.name, "file"))
                    products = state / "filter-products.txt"
                    original = products.read_text(encoding="utf-8")
                    products.write_text(original.rsplit("\n", 2)[0] + "\n", encoding="utf-8")
                    passed_corruptions += _expect_failure(
                        name, command, "a filter product name dropped", result.output
                    )
                    products.write_text(original, encoding="utf-8")
        missing = [f"{c}: {label}" for c, cases in CORRUPTIONS.items() for label, _ in cases
                   if (c, label) not in shown]
        if missing:
            print(f"FAIL  never applied: {missing}")
            return 1
    finally:
        cli.close()
        shutil.rmtree(work, ignore_errors=True)
    return 1 if passed_corruptions else 0


if __name__ == "__main__":
    sys.exit(main())
