"""Command-line front door: ingest, tickets, stats, build-filter, evaluate.

Machine-readable reports go to standard output (or --output); human
summaries go to standard error. Exit codes are stable: 0 success, 2 input
error, 3 store conflict, 4 integrity error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, fields
from datetime import date, timedelta
from pathlib import Path
from typing import Sequence

from . import analytics, ingest, matcher, ticketer
from .errors import (
    FormatError,
    MatchIntegrityError,
    SentinelError,
    SnapshotExistsError,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
)
from .ingest import Snapshot
from .normalize import StopWordList

STORE_ENV_VAR = "SENTINEL_STORE"
DEFAULT_STORE = "sentinel-store"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFLICT = 3
EXIT_INTEGRITY = 4


@dataclass(frozen=True)
class RunConfig:
    """Shared run settings distilled from the global flags."""

    store_root: str
    stop_words: StopWordList | None
    min_name_len: int
    output: str | None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        stop_words = StopWordList.from_file(args.stopwords) if args.stopwords else None
        return cls(
            store_root=args.store,
            stop_words=stop_words,
            min_name_len=args.min_name_len,
            output=args.output,
        )


def _date_arg(value: str) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a YYYY-MM-DD date: {value!r}")


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return number


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _write_text(config: RunConfig, text: str) -> None:
    if config.output:
        Path(config.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(config: RunConfig, payload: object) -> None:
    _write_text(config, json.dumps(payload, indent=2) + "\n")


def _read_feeds(paths: Sequence[str]) -> tuple[dict[str, ingest.FeedParseResult], dict[str, int]]:
    """Parse each feed; reject counts are keyed by file name, or by the
    path as given where two feeds share a file name."""
    names = Counter(Path(path).name for path in paths)
    results: dict[str, ingest.FeedParseResult] = {}
    reject_counts: dict[str, int] = {}
    for path in paths:
        result = ingest.parse_feed(ingest.read_feed_bytes(path))
        results[path] = result
        name = Path(path).name
        reject_counts[name if names[name] == 1 else path] = len(result.rejects)
    return results, reject_counts


def _feed_corpus(paths: Sequence[str]) -> tuple[list, int, dict[str, int]]:
    """CPE-bearing records merged across feeds, plus the no-CPE count."""
    results, reject_counts = _read_feeds(paths)
    merged = ingest.merge_records(r.records for r in results.values())
    corpus = [merged[cve_id] for cve_id in sorted(merged) if merged[cve_id].cpe_list]
    excluded = len(merged) - len(corpus)
    return corpus, excluded, reject_counts


def cmd_ingest(args: argparse.Namespace) -> int:
    config = RunConfig.from_args(args)
    results, reject_counts = _read_feeds(args.feeds)
    records = ingest.merge_records(r.records for r in results.values())
    snapshot = Snapshot(date=args.date, records=records)
    ingest.store_snapshot(config.store_root, snapshot, overwrite=args.overwrite)
    for name, count in reject_counts.items():
        _note(f"{name}: {count} rejected item(s)")
    _note(f"stored snapshot {args.date.isoformat()} with {len(records)} records")
    _emit_json(
        config,
        {
            "date": args.date.isoformat(),
            "stored": len(records),
            "rejects": reject_counts,
            "rejected_total": sum(reject_counts.values()),
        },
    )
    return EXIT_OK


def _load_filter(args: argparse.Namespace) -> matcher.FpFilter:
    if bool(args.filter_vendors) != bool(args.filter_products):
        raise FormatError("--filter-vendors and --filter-products must be given together")
    if args.filter_vendors:
        return matcher.FpFilter.load(args.filter_vendors, args.filter_products)
    return matcher.FpFilter.empty()


def cmd_tickets(args: argparse.Namespace) -> int:
    config = RunConfig.from_args(args)
    snapshot = ingest.load_snapshot(config.store_root, args.date)
    if args.full:
        cves = [snapshot.records[cve_id] for cve_id in sorted(snapshot.records)]
    else:
        previous_date = ingest.find_previous_date(config.store_root, args.date)
        if previous_date is None:
            raise SnapshotNotFoundError(
                f"no snapshot stored before {args.date.isoformat()}; rerun with --full"
            )
        previous = ingest.load_snapshot(config.store_root, previous_date)
        cves = list(ingest.diff_snapshots(previous, snapshot).new_cves)

    if args.dictionary:
        _note("--dictionary is ignored by tickets and will be removed")
    inventory = ingest.parse_asset_inventory(Path(args.inventory).read_bytes(), config.stop_words)
    for reject in inventory.rejects:
        _note(f"inventory row {reject.row} rejected: {reject.reason}")

    index = matcher.AssetIndex(inventory.assets)
    if index.unreachable_names:
        examples = ", ".join(repr(name) for name in index.unreachable_names[:3])
        _note(
            f"{len(index.unreachable_names)} asset name(s) hold a function word and can never "
            f"match a summary, only a CPE: {examples}"
        )
    matches = matcher.match_corpus(
        cves,
        index,
        _load_filter(args),
        min_name_len=config.min_name_len,
        stop_words=config.stop_words,
    )
    tickets = ticketer.group_matches(matches, index, snapshot.records, created=args.date)

    if config.output:
        with open(config.output, "w", encoding="utf-8") as sink:
            count = ticketer.emit_tickets(tickets, sink)
    else:
        count = ticketer.emit_tickets(tickets, sys.stdout)

    via_by_cve = {m.cve_id: m.via for m in matches}
    via_counts = Counter(v.value for v in via_by_cve.values())
    _note(
        f"{count} ticket(s) from {len(cves)} CVE(s); matched via "
        f"CPE={via_counts.get('CPE', 0)} SUMMARY={via_counts.get('SUMMARY', 0)}"
    )
    return EXIT_OK


def _snapshots(args: argparse.Namespace, config: RunConfig) -> list[Snapshot]:
    """The stored snapshots of every day from --from to --to."""
    if not (args.date_from and args.date_to):
        raise FormatError(f"report {args.report!r} needs --from and --to")
    if args.date_from > args.date_to:
        raise FormatError(f"--from {args.date_from} is after --to {args.date_to}")
    snapshots = []
    day = args.date_from
    while day <= args.date_to:
        snapshots.append(ingest.load_snapshot(config.store_root, day))
        day += timedelta(days=1)
    return snapshots


def _read_score_file(path: str) -> list[float]:
    scores = []
    for line_number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            scores.append(float(line))
        except ValueError:
            raise FormatError(f"{path}:{line_number}: not a number: {line!r}")
    return scores


# Each stats report returns its JSON payload, its rows (the CSV body) and
# the summary fields the rows do not carry (written to stderr with --csv).
Report = tuple[dict, list[dict], dict]


def _daily_report(args: argparse.Namespace, config: RunConfig) -> Report:
    rows = [day.to_dict() for day in analytics.daily_completeness(_snapshots(args, config))]
    summary = {
        f"average_{name}": sum(row[name] for row in rows) / len(rows)
        for name in ("missing_cvss", "missing_cpe", "missing_mitigation")
    } if rows else {}
    return {"report": "daily", "days": rows, **summary}, rows, summary


def _delays_report(args: argparse.Namespace, config: RunConfig) -> Report:
    snapshots = _snapshots(args, config)
    if not args.field:
        raise FormatError("report 'delays' needs --field cvss|cpe")
    report = analytics.completion_delays(snapshots, analytics.CompletionField(args.field.upper()))
    rows = [d.to_dict() for d in report.delays]
    summary = {
        "completed": report.completed_count,
        "updated_no_field": len(report.updated_without_field),
        "never": len(report.never_updated),
        "average_days": report.average_days,
    }
    payload = {"report": "delays", "field": report.field.value, **summary, "delays": rows}
    return payload, rows, summary


def _vendors_report(args: argparse.Namespace, config: RunConfig) -> Report:
    corpus = analytics.assemble_vendor_corpus(_snapshots(args, config))
    usable = [r for r in corpus if r.cpe_list]
    stats = analytics.vendor_completeness(usable, config.stop_words) if usable else []
    rows = [s.to_dict() for s in stats]
    summary = {"skipped_no_vendor": len(corpus) - len(usable)}
    return {"report": "vendors", **summary, "vendors": rows}, rows, summary


def _table_report(args: argparse.Namespace, config: RunConfig) -> Report:
    initial, later = analytics.split_scores(_snapshots(args, config))
    zeros = sum(1 for s in initial if s == 0) + sum(1 for s in later if s == 0)
    table = analytics.score_table([s for s in initial if s != 0], [s for s in later if s != 0])
    payload = {"report": "table", "dropped_zero_scores": zeros, **table.to_dict()}
    summary = {key: payload[key] for key in ("dropped_zero_scores", "initial_total", "later_total")}
    return payload, payload["rows"], summary


def _ranktest_report(args: argparse.Namespace, config: RunConfig) -> Report:
    if not (args.scores_a and args.scores_b):
        raise FormatError("ranktest needs --scores-a and --scores-b")
    result = analytics.mann_whitney_u(
        _read_score_file(args.scores_a), _read_score_file(args.scores_b), method=args.method
    )
    return {"report": "ranktest", **result.to_dict()}, [result.to_dict()], {}


# report name -> (row type, whose fields are the CSV header; the report)
STATS_REPORTS = {
    "daily": (analytics.DailyCompleteness, _daily_report),
    "delays": (analytics.CompletionDelay, _delays_report),
    "vendors": (analytics.VendorStats, _vendors_report),
    "table": (analytics.ScoreTableRow, _table_report),
    "ranktest": (analytics.RankTestResult, _ranktest_report),
}


def cmd_stats(args: argparse.Namespace) -> int:
    config = RunConfig.from_args(args)
    row_type, report = STATS_REPORTS[args.report]
    payload, rows, summary = report(args, config)
    if not args.csv:
        _emit_json(config, payload)
        return EXIT_OK
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, [f.name for f in fields(row_type)], lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _write_text(config, buffer.getvalue())
    if summary:
        _note(" ".join(f"{key}={value}" for key, value in summary.items()))
    return EXIT_OK


def _read_dictionary(args: argparse.Namespace, config: RunConfig) -> ingest.CpeDictionary:
    dictionary = ingest.parse_cpe_dictionary(Path(args.dictionary).read_bytes(), config.stop_words)
    _note(f"dictionary: {dictionary.skipped} entr(ies) skipped")
    return dictionary


def cmd_build_filter(args: argparse.Namespace) -> int:
    config = RunConfig.from_args(args)
    corpus, excluded, reject_counts = _feed_corpus(args.feeds)
    fp_filter = matcher.build_fp_filter(
        corpus,
        _read_dictionary(args, config),
        min_name_len=config.min_name_len,
        stop_words=config.stop_words,
        source_year=args.source_year,
    )
    fp_filter.save(args.out_vendors, args.out_products)
    for name, count in reject_counts.items():
        _note(f"{name}: {count} rejected item(s)")
    _note(f"filter built from {len(corpus)} CPE-bearing record(s), {excluded} excluded")
    _emit_json(
        config,
        {
            "vendors": len(fp_filter.vendor_names),
            "products": len(fp_filter.product_names),
            "corpus_records": len(corpus),
            "excluded_no_cpe": excluded,
            "source_year": args.source_year,
        },
    )
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = RunConfig.from_args(args)
    corpus, excluded, reject_counts = _feed_corpus(args.feeds)
    report = matcher.evaluate_corpus(
        corpus,
        _read_dictionary(args, config),
        min_name_len=config.min_name_len,
        stop_words=config.stop_words,
    )
    for name, count in reject_counts.items():
        _note(f"{name}: {count} rejected item(s)")
    _note(f"evaluated {report.total} CPE-bearing record(s), {excluded} excluded for missing CPE")
    _emit_json(config, report.to_dict())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--store",
        default=os.environ.get(STORE_ENV_VAR, DEFAULT_STORE),
        help=f"snapshot store root (default: ${STORE_ENV_VAR} or ./{DEFAULT_STORE})",
    )
    common.add_argument("--stopwords", help="stop-word list file, one lowercase token per line")
    common.add_argument(
        "--min-name-len",
        type=_positive_int,
        default=matcher.DEFAULT_MIN_NAME_LEN,
        help="shortest standardized name admitted as match evidence",
    )
    common.add_argument("--output", help="write the report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="sentinel",
        description="Match NVD CVE feeds to an asset inventory and track feed completeness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", parents=[common], help="parse feeds into a dated snapshot")
    p_ingest.add_argument("feeds", nargs="+", help="NVD JSON 1.1 feed files (.gz accepted)")
    p_ingest.add_argument("--date", type=_date_arg, required=True)
    p_ingest.add_argument("--overwrite", action="store_true")
    p_ingest.set_defaults(func=cmd_ingest)

    p_tickets = sub.add_parser(
        "tickets", parents=[common], help="match a day's new CVEs and emit grouped tickets"
    )
    p_tickets.add_argument("--date", type=_date_arg, required=True)
    p_tickets.add_argument("--inventory", required=True, help="asset inventory CSV")
    p_tickets.add_argument("--dictionary", help="ignored; will be removed")
    p_tickets.add_argument("--filter-vendors", help="false-positive vendor name list")
    p_tickets.add_argument("--filter-products", help="false-positive product name list")
    p_tickets.add_argument(
        "--full", action="store_true", help="match the whole snapshot, not just the daily diff"
    )
    p_tickets.set_defaults(func=cmd_tickets)

    p_stats = sub.add_parser("stats", parents=[common], help="completeness statistics reports")
    p_stats.add_argument("--report", required=True, choices=list(STATS_REPORTS))
    p_stats.add_argument("--from", dest="date_from", type=_date_arg)
    p_stats.add_argument("--to", dest="date_to", type=_date_arg)
    p_stats.add_argument("--field", choices=["cvss", "cpe"], help="for --report delays")
    p_stats.add_argument("--scores-a", help="score file for --report ranktest")
    p_stats.add_argument("--scores-b", help="score file for --report ranktest")
    p_stats.add_argument(
        "--method", choices=["auto", "exact", "normal"], default="auto",
        help="rank test p-value method (default auto)",
    )
    p_stats.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    p_stats.set_defaults(func=cmd_stats)

    p_filter = sub.add_parser(
        "build-filter", parents=[common], help="compile false-positive name lists from feeds"
    )
    p_filter.add_argument("feeds", nargs="+")
    p_filter.add_argument("--dictionary", required=True)
    p_filter.add_argument("--out-vendors", required=True)
    p_filter.add_argument("--out-products", required=True)
    p_filter.add_argument("--source-year", default="", help="label recorded in the filter files")
    p_filter.set_defaults(func=cmd_build_filter)

    p_eval = sub.add_parser(
        "evaluate", parents=[common], help="score summary-extraction quality on labeled feeds"
    )
    p_eval.add_argument("feeds", nargs="+")
    p_eval.add_argument("--dictionary", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SnapshotExistsError as exc:
        _note(f"error: {exc}")
        return EXIT_CONFLICT
    except (MatchIntegrityError, SnapshotIntegrityError) as exc:
        _note(f"error: {exc}")
        return EXIT_INTEGRITY
    except SentinelError as exc:
        _note(f"error: {exc}")
        return EXIT_INPUT
    except OSError as exc:
        _note(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
