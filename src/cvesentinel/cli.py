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
from dataclasses import dataclass
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


def _emit_csv(config: RunConfig, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(config, buffer.getvalue())


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

    dictionary = ingest.parse_cpe_dictionary(
        Path(args.dictionary).read_bytes(), config.stop_words
    )
    inventory = ingest.parse_asset_inventory(
        Path(args.inventory).read_bytes(), dictionary, config.stop_words
    )
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


def _load_snapshot_range(store: str, date_from: date, date_to: date) -> list[Snapshot]:
    if date_from > date_to:
        raise FormatError(f"--from {date_from} is after --to {date_to}")
    snapshots = []
    day = date_from
    while day <= date_to:
        snapshots.append(ingest.load_snapshot(store, day))
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


def cmd_stats(args: argparse.Namespace) -> int:
    config = RunConfig.from_args(args)

    if args.report == "ranktest":
        if not (args.scores_a and args.scores_b):
            raise FormatError("ranktest needs --scores-a and --scores-b")
        result = analytics.mann_whitney_u(
            _read_score_file(args.scores_a), _read_score_file(args.scores_b), method=args.method
        )
        if args.csv:
            _emit_csv(
                config,
                ["u_statistic", "p_value", "method", "n1", "n2"],
                [[result.u_statistic, result.p_value, result.method.value, result.n1, result.n2]],
            )
        else:
            _emit_json(config, {"report": "ranktest", **result.to_dict()})
        return EXIT_OK

    if not (args.date_from and args.date_to):
        raise FormatError(f"report {args.report!r} needs --from and --to")
    snapshots = _load_snapshot_range(config.store_root, args.date_from, args.date_to)

    if args.report == "daily":
        days = analytics.daily_completeness(snapshots)
        if args.csv:
            _emit_csv(
                config,
                ["date", "total_reports", "missing_cvss", "missing_cpe", "missing_mitigation"],
                [
                    [d.date.isoformat(), d.total_reports, d.missing_cvss, d.missing_cpe,
                     d.missing_mitigation]
                    for d in days
                ],
            )
            return EXIT_OK
        payload = {"report": "daily", "days": [day.to_dict() for day in days]}
        if days:
            payload["average_missing_cvss"] = sum(d.missing_cvss for d in days) / len(days)
            payload["average_missing_cpe"] = sum(d.missing_cpe for d in days) / len(days)
            payload["average_missing_mitigation"] = sum(
                d.missing_mitigation for d in days
            ) / len(days)
        _emit_json(config, payload)
        return EXIT_OK

    if args.report == "delays":
        if not args.field:
            raise FormatError("report 'delays' needs --field cvss|cpe")
        report = analytics.completion_delays(
            snapshots, analytics.CompletionField(args.field.upper())
        )
        if args.csv:
            _emit_csv(
                config,
                ["cve_id", "published", "completed", "field", "days"],
                [
                    [d.cve_id, d.published.isoformat(), d.completed.isoformat(),
                     d.field.value, d.days]
                    for d in report.delays
                ],
            )
            _note(
                f"completed={report.completed_count} "
                f"updated_no_field={len(report.updated_without_field)} "
                f"never={len(report.never_updated)}"
            )
            return EXIT_OK
        _emit_json(
            config,
            {
                "report": "delays",
                "field": report.field.value,
                "completed": report.completed_count,
                "updated_no_field": len(report.updated_without_field),
                "never": len(report.never_updated),
                "average_days": report.average_days,
                "delays": [d.to_dict() for d in report.delays],
            },
        )
        return EXIT_OK

    if args.report == "vendors":
        corpus = analytics.assemble_vendor_corpus(snapshots)
        usable = [r for r in corpus if r.cpe_list]
        skipped = len(corpus) - len(usable)
        stats = analytics.vendor_completeness(usable, config.stop_words) if usable else []
        if args.csv:
            _emit_csv(
                config,
                ["vendor", "total", "initially_unscored", "pct_unscored"],
                [[s.vendor, s.total, s.initially_unscored, s.pct_unscored] for s in stats],
            )
            return EXIT_OK
        _emit_json(
            config,
            {
                "report": "vendors",
                "skipped_no_vendor": skipped,
                "vendors": [s.to_dict() for s in stats],
            },
        )
        return EXIT_OK

    if args.report == "table":
        initial, later = analytics.split_scores(snapshots)
        zeros = sum(1 for s in initial if s == 0) + sum(1 for s in later if s == 0)
        table = analytics.score_table(
            [s for s in initial if s != 0], [s for s in later if s != 0]
        )
        if args.csv:
            _emit_csv(
                config,
                ["level", "initial_count", "initial_pct", "later_count", "later_pct"],
                [
                    [row.level.value, row.initial_count, row.initial_pct,
                     row.later_count, row.later_pct]
                    for row in table.rows
                ],
            )
            return EXIT_OK
        _emit_json(config, {"report": "table", "dropped_zero_scores": zeros, **table.to_dict()})
        return EXIT_OK

    raise FormatError(f"unknown report {args.report!r}")


def cmd_build_filter(args: argparse.Namespace) -> int:
    config = RunConfig.from_args(args)
    corpus, excluded, reject_counts = _feed_corpus(args.feeds)
    dictionary = ingest.parse_cpe_dictionary(
        Path(args.dictionary).read_bytes(), config.stop_words
    )
    fp_filter = matcher.build_fp_filter(
        corpus,
        dictionary,
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
    dictionary = ingest.parse_cpe_dictionary(
        Path(args.dictionary).read_bytes(), config.stop_words
    )
    report = matcher.evaluate_corpus(
        corpus, dictionary, min_name_len=config.min_name_len, stop_words=config.stop_words
    )
    for name, count in reject_counts.items():
        _note(f"{name}: {count} rejected item(s)")
    _note(f"evaluated {report.total} CPE-bearing record(s), {excluded} excluded for missing CPE")
    # Filter files are accepted for symmetry with the matching pipeline but
    # do not alter the arithmetic: a false positive requires a vendor and
    # product pair in the summary, which is exactly the co-occurrence
    # evidence that outranks the filter during matching.
    if args.filter_vendors and args.filter_products:
        fp_filter = matcher.FpFilter.load(args.filter_vendors, args.filter_products)
        _note(
            f"filter loaded ({len(fp_filter.vendor_names)} vendors, "
            f"{len(fp_filter.product_names)} products); evaluation measures unfiltered quality"
        )
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
    p_tickets.add_argument("--dictionary", required=True, help="CPE dictionary (XML or JSON)")
    p_tickets.add_argument("--filter-vendors", help="false-positive vendor name list")
    p_tickets.add_argument("--filter-products", help="false-positive product name list")
    p_tickets.add_argument(
        "--full", action="store_true", help="match the whole snapshot, not just the daily diff"
    )
    p_tickets.set_defaults(func=cmd_tickets)

    p_stats = sub.add_parser("stats", parents=[common], help="completeness statistics reports")
    p_stats.add_argument(
        "--report", required=True, choices=["daily", "delays", "vendors", "table", "ranktest"]
    )
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
    p_eval.add_argument("--filter-vendors")
    p_eval.add_argument("--filter-products")
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
