"""The three workloads as sequences of `sentinel` command lines, each with its check.

A workload is a set-up (commands that build the starting state) and a
round (the timed commands). Both the timed CLI runs in ``run.py`` and
the in-process replay in ``traced.py`` take their command lines from
here, so the two measure the same work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref
from generate import FILTER_YEAR, Inputs


class RunAborted(Exception):
    """A command exited non-zero; the run stops without metrics."""


@dataclass
class Output:
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Command:
    name: str  # metric name of the command, e.g. "ingest" or "stats_daily"
    argv: tuple[str, ...]  # arguments after `sentinel`
    check: Callable[[Output], None]


class Workload:
    """Commands of one workload, run against a state directory."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.filter = ref.filter_lists(inputs) if inputs.filter_corpus else ([], [])

    def setup(self, state: Path) -> list[Command]:
        raise NotImplementedError

    def round(self, state: Path) -> list[Command]:
        raise NotImplementedError

    def before_round(self, state: Path) -> None:
        """Untimed preparation that makes every round do the same work."""

    # -- command builders ----------------------------------------------

    def _store(self, state: Path) -> list[str]:
        return ["--store", str(state / "store")]

    def _ingest(self, state: Path, day: int) -> Command:
        want = ref.ingest_output(self.inputs, day)
        return Command(
            "ingest",
            ("ingest", *map(str, self.inputs.feeds[day]), "--date", self.inputs.dates[day].isoformat(),
             *self._store(state)),
            lambda out: ref.check_json("ingest", out.stdout, want),
        )

    def _build_filter(self, state: Path) -> Command:
        want = ref.build_filter_output(self.inputs, *self.filter)
        vendors, products = state / "filter-vendors.txt", state / "filter-products.txt"

        def check(out: Output) -> None:
            ref.check_json("build-filter", out.stdout, want)
            ref.check_filter_files(
                vendors.read_text(encoding="utf-8"), products.read_text(encoding="utf-8"),
                *self.filter,
            )

        return Command(
            "build_filter",
            ("build-filter", str(self.inputs.filter_feed), "--dictionary", str(self.inputs.dictionary_path),
             "--out-vendors", str(vendors), "--out-products", str(products),
             "--source-year", FILTER_YEAR, *self._store(state)),
            check,
        )

    def _tickets(self, state: Path, day: int, want: list[dict], full: bool) -> Command:
        def check(out: Output) -> None:
            ref.check_tickets(out.stdout, want)
            ref.check_rejected_rows(out.stderr, self.inputs.inventory_rejects)

        return Command(
            "tickets",
            ("tickets", "--date", self.inputs.dates[day].isoformat(),
             "--inventory", str(self.inputs.inventory_path),
             "--dictionary", str(self.inputs.dictionary_path),
             "--filter-vendors", str(state / "filter-vendors.txt"),
             "--filter-products", str(state / "filter-products.txt"),
             *(("--full",) if full else ()), *self._store(state)),
            check,
        )



class Daily(Workload):
    """Yesterday is stored and the filter built; time today's ingest and tickets."""

    def __init__(self, inputs: Inputs):
        super().__init__(inputs)
        self.want = ref.tickets(inputs, ref.new_cves(inputs, 1), 1, set(self.filter[1]))

    def setup(self, state: Path) -> list[Command]:
        return [self._ingest(state, 0), self._build_filter(state)]

    def before_round(self, state: Path) -> None:
        (state / "store" / "snapshots" / self.inputs.dates[1].isoformat()).unlink(missing_ok=True)

    def round(self, state: Path) -> list[Command]:
        return [self._ingest(state, 1), self._tickets(state, 1, self.want, full=False)]


class FullMatch(Workload):
    """One stored snapshot and the filter; time `tickets --full` over all of it."""

    def __init__(self, inputs: Inputs):
        super().__init__(inputs)
        self.want = ref.tickets(inputs, ref.visible_cves(inputs, 0), 0, set(self.filter[1]))

    def setup(self, state: Path) -> list[Command]:
        return [self._ingest(state, 0), self._build_filter(state)]

    def round(self, state: Path) -> list[Command]:
        return [self._tickets(state, 0, self.want, full=True)]


class History(Workload):
    """One ingest per day; time the four history reports over all days."""

    REPORTS = (
        ("stats_daily", ("--report", "daily"), ref.stats_daily),
        ("stats_delays", ("--report", "delays", "--field", "cvss"), ref.stats_delays),
        ("stats_vendors", ("--report", "vendors"), ref.stats_vendors),
        ("stats_table", ("--report", "table"), ref.stats_table),
    )

    def __init__(self, inputs: Inputs):
        super().__init__(inputs)
        self.want = {name: expected(inputs) for name, _, expected in self.REPORTS}

    def setup(self, state: Path) -> list[Command]:
        return [self._ingest(state, day) for day in range(self.inputs.scale.days)]

    def round(self, state: Path) -> list[Command]:
        first, last = self.inputs.dates[0], self.inputs.dates[-1]
        commands = []
        for name, report, _ in self.REPORTS:
            want = self.want[name]
            commands.append(
                Command(
                    name,
                    ("stats", *report, "--from", first.isoformat(), "--to", last.isoformat(),
                     *self._store(state)),
                    lambda out, name=name, want=want: ref.check_json(name, out.stdout, want),
                )
            )
        return commands


WORKLOADS: dict[str, type[Workload]] = {"daily": Daily, "full-match": FullMatch, "history": History}
