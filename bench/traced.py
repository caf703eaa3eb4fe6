"""In-process run of `sentinel` commands with a span around each library call.

``replay`` runs each command line of a workload through
``cvesentinel.cli.main`` in this process, with standard output and error
captured, while each library function named in ``WRAPPED`` is replaced on
its module by a wrapper that records a span and takes its counts from the
call's arguments and return value. ``cli.py`` calls the library through
module attributes (``ingest.parse_feed``, ``matcher.match_corpus``, ...),
so the spans land inside the CLI's own code, in its own order. Every
captured output goes through the same check as the CLI run's.

The spans (name, start, end, parent) stay in memory until the run ends; a
layer's self time is its spans' durations minus what their child spans
cover. ``cli.untraced_s.<command>`` is a command's CLI wall time minus
the library spans of its in-process run: interpreter start, imports,
argument parsing and the glue and output code in ``cli.py``.

``normalize`` has no span of its own, because no CLI command calls it
directly: its cost is inside ``ingest.parse_asset_inventory``,
``ingest.parse_cpe_dictionary`` and ``matcher.match_corpus``.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from cvesentinel import analytics, cli, ingest, matcher, ticketer
from cvesentinel.model import CveRecord, MatchVia

from workloads import Output, RunAborted


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn, counter):
        def traced_call(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter:
                counter(self, args, result)
            return result
        return traced_call

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def child_seconds(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        return covered

    def export(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans
            ],
            "counts": self.counts,
        }


# --- counts taken from a wrapped call's arguments and return value -------


def _feed(t: Tracer, args, result) -> None:
    t.count("ingest.parse_feed.items", len(result.records) + len(result.rejects))
    t.count("ingest.parse_feed.rejects", len(result.rejects))


def _stored(t: Tracer, args, path) -> None:
    t.count("ingest.store_snapshot.bytes", path.stat().st_size)


def _loaded(t: Tracer, args, snapshot) -> None:
    t.count("ingest.load_snapshot.records", len(snapshot.records))


def _diffed(t: Tracer, args, diff) -> None:
    t.count("ingest.diff.new_cves", len(diff.new_cves))
    t.count("ingest.diff.updated_cves", len(diff.updated_cves))


def _matched(t: Tracer, args, matches) -> None:
    cves = args[0]  # cli.cmd_tickets passes a list
    t.count("matcher.match.cves", len(cves))
    t.count("matcher.match.cpe_less_cves", sum(1 for c in cves if not c.cpe_list))
    for via in MatchVia:
        t.count(f"matcher.match.via_{via.value.lower()}",
                len({m.cve_id for m in matches if m.via is via}))
    t.count("matcher.match.summary_hits", sum(1 for m in matches if m.via is MatchVia.SUMMARY))


def _filter_built(t: Tracer, args, fp_filter) -> None:
    t.count("matcher.fp_filter.names", len(fp_filter.vendor_names) + len(fp_filter.product_names))


def _emitted(t: Tracer, args, count) -> None:
    t.count("ticketer.tickets", count)


# Library functions wrapped in a span while the CLI runs, each with its counter.
WRAPPED = {
    "ingest.read_feed_bytes": None,
    "ingest.parse_feed": _feed,
    "ingest.store_snapshot": _stored,
    "ingest.load_snapshot": _loaded,
    "ingest.diff_snapshots": _diffed,
    "ingest.parse_cpe_dictionary": None,
    "ingest.parse_asset_inventory": None,
    "matcher.AssetIndex": None,
    "matcher.match_corpus": _matched,
    "matcher.build_fp_filter": _filter_built,
    "ticketer.group_matches": None,
    "ticketer.emit_tickets": _emitted,
    "analytics.daily_completeness": None,
    "analytics.completion_delays": None,
    "analytics.assemble_vendor_corpus": None,
    "analytics.vendor_completeness": None,
    "analytics.split_scores": None,
    "analytics.score_table": None,
}
MODULES = {"ingest": ingest, "matcher": matcher, "ticketer": ticketer, "analytics": analytics}
# Summed self time is reported as "<name>_s"; ingest.load_snapshot is reported per call.
TIMED_CALLS = tuple(n for n in WRAPPED if n != "ingest.load_snapshot") + ("model.CveRecord.from_dict",)
COUNTS = (
    "ingest.parse_feed.items",
    "ingest.parse_feed.rejects",
    "ingest.store_snapshot.bytes",
    "ingest.load_snapshot.records",
    "ingest.diff.new_cves",
    "ingest.diff.updated_cves",
    "matcher.match.cves",
    "matcher.match.cpe_less_cves",
    "matcher.match.via_cpe",
    "matcher.match.via_summary",
    "matcher.fp_filter.names",
    "ticketer.tickets",
)
COMMANDS = (
    "ingest", "tickets", "build_filter",
    "stats_daily", "stats_delays", "stats_vendors", "stats_table",
)


@contextmanager
def instrumented(t: Tracer):
    """Replace each function of ``WRAPPED`` on its module for the duration."""
    saved = []
    try:
        for name, counter in WRAPPED.items():
            module_name, attr = name.split(".")
            module = MODULES[module_name]
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, t.wrap(name, getattr(module, attr), counter))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def replay(workload, state: Path, t: Tracer, tally) -> None:
    """Run the workload's set-up and one round in process, against a fresh ``state``."""
    state.mkdir(parents=True)
    with instrumented(t):
        for command in workload.setup(state) + workload.round(state):
            stdout, stderr = io.StringIO(), io.StringIO()
            with t.span(f"cli.{command.name}"), redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(list(command.argv))
            output = Output(stdout.getvalue(), stderr.getvalue())
            if code != 0:
                tail = output.stderr.strip().splitlines()[-1:]
                raise RunAborted(f"in-process `sentinel {command.argv[0]}` exited {code}: {tail}")
            tally.verify(f"in-process {command.name}", lambda: command.check(output))

    # the object-building part of a load, timed over the newest snapshot's records
    newest = max((state / "store" / "snapshots").iterdir())
    payload = json.loads(newest.read_text(encoding="utf-8"))
    t.call("model.CveRecord.from_dict",
           lambda: [CveRecord.from_dict(d) for d in payload["records"]])


def layer_metrics(t: Tracer, results, import_s: float) -> dict[str, float]:
    """One round's per-layer metrics from its spans, counts and CLI results."""
    covered = t.child_seconds()
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, child in zip(t.spans, covered):
        self_s[span.name] = self_s.get(span.name, 0.0) + (span.end - span.start - child)
        calls[span.name] = calls.get(span.name, 0) + 1

    metrics = {f"{name}_s": self_s.get(name, 0.0) for name in TIMED_CALLS}
    loads = calls.get("ingest.load_snapshot", 0)
    metrics["ingest.load_snapshot_s"] = self_s.get("ingest.load_snapshot", 0.0) / loads if loads else 0.0
    metrics.update({name: float(t.counts.get(name, 0)) for name in COUNTS})
    cpe_less = t.counts.get("matcher.match.cpe_less_cves", 0)
    metrics["matcher.match.summary_hits_per_cpe_less_cve"] = (
        t.counts.get("matcher.match.summary_hits", 0) / cpe_less if cpe_less else 0.0
    )

    metrics["cli.import_s"] = import_s
    for command in COMMANDS:
        wall = sum((r.wall for r in results if r.command.name == command), 0.0)
        traced = sum(
            (covered[i] for i, span in enumerate(t.spans) if span.name == f"cli.{command}"), 0.0
        )
        metrics[f"cli.{command}_s"] = wall
        metrics[f"cli.untraced_s.{command}"] = wall - traced
    for group in ("ingest", "tickets", "stats"):
        rss = [r.peak_rss_mb for r in results if r.command.name.startswith(group)]
        metrics[f"cli.{group}.peak_rss_mb"] = max(rss, default=0.0)
    return metrics
