"""Command-line front door: ingest, tickets, stats, build-filter, evaluate.

Machine-readable reports go to standard output (or --output, replaced only
when the command succeeds); human summaries go to standard error. Exit codes
are stable: 0 success, else the error class's ``exit_code`` (2, 3 or 4).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields
from datetime import date, timedelta
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

# analytics, matcher and ticketer are imported by the commands that run them,
# so that no command pays for loading the others.
from . import ingest
from .errors import FormatError, SentinelError, SnapshotNotFoundError
from .model import CveRecord
from .normalize import DEFAULT_MIN_NAME_LEN, StopWordList, read_text_file, standardize
from .store import replacing

STORE_ENV_VAR = "SENTINEL_STORE"
DEFAULT_STORE = "sentinel-store"


def _date_arg(value: str) -> date:
    """A YYYY-MM-DD date only: Python 3.11 and later read other ISO forms too."""
    try:
        day = date.fromisoformat(value)
        if day.isoformat() == value:
            return day
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a YYYY-MM-DD date: {value!r}")


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return number


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _stop_words(args: argparse.Namespace) -> StopWordList | None:
    return StopWordList.from_file(args.stopwords) if args.stopwords else None


@contextmanager
def _report(output: str | None) -> Iterator[TextIO]:
    """Where a command writes its report: stdout, or ``output`` through a
    temp file that replaces it only once the command completes."""
    if not output:
        yield sys.stdout
        return
    with replacing(output) as file, io.TextIOWrapper(file, encoding="utf-8") as out:
        yield out


def _emit_json(out: TextIO, payload: object) -> None:
    out.write(json.dumps(payload, indent=2) + "\n")


def _read_feeds(
    paths: Sequence[str], read: Callable[[BinaryIO], tuple[Iterable, int]]
) -> tuple[dict, dict[str, int]]:
    """One id-keyed map of the (id, value) pairs ``read`` gives of each feed,
    a later feed's winning, and each feed's reject count, noted on stderr
    too and keyed by file name, or by the path as given where two feeds
    share a file name. Every feed is read before the map is returned."""
    names = Counter(Path(path).name for path in paths)
    merged: dict = {}
    reject_counts: dict[str, int] = {}
    for path in paths:
        with ingest.read_feed_bytes(path) as feed:
            kept, rejected = read(feed)
        merged.update(kept)
        name = Path(path).name
        reject_counts[name if names[name] == 1 else path] = rejected
    for name, count in reject_counts.items():
        _note(f"{name}: {count} rejected item(s)")
    return merged, reject_counts


def _feed_records(feed: BinaryIO) -> tuple[Iterable[tuple[str, CveRecord]], int]:
    result = ingest.parse_feed(feed)
    return ((record.id, record) for record in result.records), len(result.rejects)


def _feed_corpus(paths: Sequence[str]) -> tuple[list, int]:
    """CPE-bearing records merged across feeds, plus the no-CPE count."""
    records, _ = _read_feeds(paths, _feed_records)
    corpus = [record for record in records.values() if record.cpe_list]
    return corpus, len(records) - len(corpus)


def cmd_ingest(args: argparse.Namespace, out: TextIO) -> None:
    # Each feed's records are kept as their stored lines only, a line the day before
    # holds as its id alone: the store writes the day from them and that day's lines.
    earlier, base = ingest.earlier_line_digests(args.store, args.date)
    lines, reject_counts = _read_feeds(args.feeds, lambda feed: ingest.parse_feed_lines(feed, earlier))
    earlier.clear()  # the digests of the changed and removed lines, not needed by the write
    path = ingest.store_snapshot(args.store, args.date, lines, overwrite=args.overwrite, base=base)
    changes = ingest.stored_changes(path)
    how = "stored whole" if changes is None else (
        "as changes to {} ({} new, {} changed, {} removed)".format(*changes))
    _note(f"stored snapshot {args.date.isoformat()} with {len(lines)} records {how}")
    _emit_json(
        out,
        {
            "date": args.date.isoformat(),
            "stored": len(lines),
            "rejects": reject_counts,
            "rejected_total": sum(reject_counts.values()),
        },
    )


def _load_filter(args: argparse.Namespace) -> matcher.FpFilter:
    from . import matcher
    if bool(args.filter_vendors) != bool(args.filter_products):
        raise FormatError("--filter-vendors and --filter-products must be given together")
    if args.filter_vendors:
        return matcher.FpFilter.load(args.filter_vendors, args.filter_products)
    return matcher.FpFilter.empty()


def cmd_tickets(args: argparse.Namespace, out: TextIO) -> None:
    from . import matcher, ticketer
    stop_words = _stop_words(args)
    # The lists are checked before the store is read, so that lists that
    # cannot be used cost no load.
    fp_filter = _load_filter(args)
    digests = (fp_filter.stop_words_digest, stop_words.digest() if stop_words else None)
    if args.filter_vendors and digests[0] != digests[1]:
        built, given = (f"stop-word list {d}" if d else "the built-in list" for d in digests)
        raise FormatError(f"filter lists {args.filter_vendors} and {args.filter_products} were "
                          f"built under {built}, but tickets is given {given}")
    cves = None if args.full else ingest.new_cves(args.store, args.date)
    if cves is None:  # the day's own load error comes before a missing day before it
        records = ingest.load_snapshot(args.store, args.date).records
        if not args.full:
            raise SnapshotNotFoundError(f"no snapshot stored before {args.date}; rerun with --full")
    else:
        records = {cve.id: cve for cve in cves}  # every CVE matched is new: grouping needs no other

    if args.dictionary:
        _note("--dictionary is ignored by tickets and will be removed")
    inventory = ingest.parse_asset_inventory(read_text_file(args.inventory), stop_words)
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
        records.values(),
        index,
        fp_filter,
        min_name_len=args.min_name_len,
        stop_words=stop_words,
    )
    tickets = ticketer.group_matches(matches, index, records, created=args.date)
    count = ticketer.emit_tickets(tickets, out)

    via_by_cve = {m.cve_id: m.via for m in matches}
    via_counts = Counter(v.value for v in via_by_cve.values())
    _note(
        f"{count} ticket(s) from {len(records)} CVE(s); matched via "
        f"CPE={via_counts.get('CPE', 0)} SUMMARY={via_counts.get('SUMMARY', 0)}"
    )


def _snapshots(args: argparse.Namespace) -> Iterator[ingest.Snapshot]:
    """The stored snapshots of every day from --from to --to, loaded as
    they are consumed. The range is checked at once."""
    if args.date_from > args.date_to:
        raise FormatError(f"--from {args.date_from} is after --to {args.date_to}")
    days = (args.date_to - args.date_from).days + 1
    return ingest.load_snapshots(
        args.store, (args.date_from + timedelta(days=n) for n in range(days))
    )


# A score as written in ASCII: float() alone also reads "1_0" as 10, and digits of other scripts.
_SCORE = re.compile(r"[+-]?((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)", re.I | re.ASCII)


def _read_score_file(path: str) -> list[float]:
    scores = []
    for line_number, line in enumerate(read_text_file(path).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if not _SCORE.fullmatch(line):
            raise FormatError(f"{path}:{line_number}: not a number: {line!r}")
        scores.append(float(line))
    return scores


# Each stats report returns its JSON payload, its rows (the CSV body) and
# the summary fields the rows do not carry (written to stderr with --csv).
Report = tuple[dict, list[dict], dict]


def _daily_report(args: argparse.Namespace) -> Report:
    from . import analytics
    rows = [day.to_dict() for day in analytics.daily_completeness(_snapshots(args))]
    summary = {
        f"average_{name}": sum(row[name] for row in rows) / len(rows)
        for name in ("missing_cvss", "missing_cpe", "missing_mitigation")
    } if rows else {}
    return {"report": "daily", "days": rows, **summary}, rows, summary


def _delays_report(args: argparse.Namespace) -> Report:
    from . import analytics
    snapshots = _snapshots(args)
    report = analytics.completion_delays(snapshots, analytics.CompletionField(args.field.upper()))
    if report.rejected:
        _note(
            f"{len(report.rejected)} CVE(s) rejected, {report.field.value} arrived before "
            f"publishedDate: {', '.join(report.rejected[:3])}"
        )
    rows = [d.to_dict() for d in report.delays]
    summary = {
        "completed": report.completed_count,
        "updated_no_field": len(report.updated_without_field),
        "never": len(report.never_updated),
        "average_days": report.average_days,
    }
    payload = {"report": "delays", "field": report.field.value, **summary, "delays": rows}
    return payload, rows, summary


def _vendors_report(args: argparse.Namespace) -> Report:
    from . import analytics
    stop_words = _stop_words(args)
    corpus = analytics.assemble_vendor_corpus(_snapshots(args))
    # A CVE without a CPE vendor that standardizes to a name is skipped, not an error.
    usable = [r for r in corpus if any(standardize(uri.vendor, stop_words) for uri in r.cpe_list)]
    stats = analytics.vendor_completeness(usable, stop_words)
    rows = [s.to_dict() for s in stats]
    summary = {"skipped_no_vendor": len(corpus) - len(usable)}
    return {"report": "vendors", **summary, "vendors": rows}, rows, summary


def _table_report(args: argparse.Namespace) -> Report:
    from . import analytics
    initial, later = analytics.split_scores(_snapshots(args))
    zeros = sum(1 for s in initial if s == 0) + sum(1 for s in later if s == 0)
    table = analytics.score_table([s for s in initial if s != 0], [s for s in later if s != 0])
    payload = {"report": "table", "dropped_zero_scores": zeros, **table.to_dict()}
    summary = {key: payload[key] for key in ("dropped_zero_scores", "initial_total", "later_total")}
    return payload, payload["rows"], summary


def _ranktest_report(args: argparse.Namespace) -> Report:
    from . import analytics
    scores = [_read_score_file(path) for path in (args.scores_a, args.scores_b)]
    result = analytics.mann_whitney_u(*scores, method=args.method or "auto")
    return {"report": "ranktest", **result.to_dict()}, [result.to_dict()], {}


# name -> (the analytics row type naming the CSV header, report, options needed, options taken)
STATS_REPORTS = {
    "daily": ("DailyCompleteness", _daily_report, ("--from", "--to"), ()),
    "delays": ("CompletionDelay", _delays_report, ("--from", "--to", "--field"), ()),
    "vendors": ("VendorStats", _vendors_report, ("--from", "--to"), ("--stopwords",)),
    "table": ("ScoreTableRow", _table_report, ("--from", "--to"), ()),
    "ranktest": ("RankTestResult", _ranktest_report, ("--scores-a", "--scores-b"), ("--method",)),
}
# Every report option in the parser's order, with the name argparse stores it under.
REPORT_OPTIONS = {"--stopwords": "stopwords", "--from": "date_from", "--to": "date_to",
                  "--field": "field", "--scores-a": "scores_a", "--scores-b": "scores_b",
                  "--method": "method"}


def cmd_stats(args: argparse.Namespace, out: TextIO) -> None:
    from . import analytics
    row_type, report, needs, takes = STATS_REPORTS[args.report]
    given = [option for option, dest in REPORT_OPTIONS.items() if getattr(args, dest)]
    if foreign := next((option for option in given if option not in needs + takes), None):
        readers = ", ".join(name for name, (*_, n, t) in STATS_REPORTS.items() if foreign in n + t)
        raise FormatError(f"{foreign} is read only by --report {readers}, not {args.report}")
    if missing := [option for option in needs if option not in given]:
        names = " and ".join(", ".join(missing).rsplit(", ", 1))
        raise FormatError(f"--report {args.report} needs {names}")
    payload, rows, summary = report(args)
    if not args.csv:
        _emit_json(out, payload)
        return
    header = [f.name for f in fields(getattr(analytics, row_type))]
    writer = csv.DictWriter(out, header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    if summary:
        _note(" ".join(f"{key}={value}" for key, value in summary.items()))


def _read_dictionary(
    args: argparse.Namespace, stop_words: StopWordList | None
) -> ingest.CpeDictionary:
    dictionary = ingest.parse_cpe_dictionary(read_text_file(args.dictionary), stop_words)
    _note(f"dictionary: {dictionary.skipped} entr(ies) skipped")
    return dictionary


def cmd_build_filter(args: argparse.Namespace, out: TextIO) -> None:
    from . import matcher
    matcher.FpFilter.header(args.source_year)  # an unwritable label fails before any read
    stop_words = _stop_words(args)
    dictionary = _read_dictionary(args, stop_words)
    corpus, excluded = _feed_corpus(args.feeds)
    fp_filter = matcher.build_fp_filter(
        corpus,
        dictionary,
        min_name_len=args.min_name_len,
        stop_words=stop_words,
        source_year=args.source_year,
    )
    fp_filter.save(args.out_vendors, args.out_products)
    _note(f"filter built from {len(corpus)} CPE-bearing record(s), {excluded} excluded")
    _emit_json(
        out,
        {
            "vendors": len(fp_filter.vendor_names),
            "products": len(fp_filter.product_names),
            "corpus_records": len(corpus),
            "excluded_no_cpe": excluded,
            "source_year": args.source_year,
        },
    )


def cmd_evaluate(args: argparse.Namespace, out: TextIO) -> None:
    from . import matcher
    stop_words = _stop_words(args)
    dictionary = _read_dictionary(args, stop_words)
    corpus, excluded = _feed_corpus(args.feeds)
    report = matcher.evaluate_corpus(
        corpus, dictionary, min_name_len=args.min_name_len, stop_words=stop_words
    )
    _note(f"evaluated {report.total} CPE-bearing record(s), {excluded} excluded for missing CPE")
    _emit_json(out, report.to_dict())


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--store",
        default=os.environ.get(STORE_ENV_VAR, DEFAULT_STORE),
        help=f"snapshot store root (default: ${STORE_ENV_VAR} or ./{DEFAULT_STORE})",
    )
    common.add_argument("--output", help="write the report here instead of stdout")
    # --stopwords where names are standardized; --min-name-len where summaries are searched
    stopwords = argparse.ArgumentParser(add_help=False)
    stopwords.add_argument("--stopwords", help="stop-word list file, one token per line, # comments")
    names = argparse.ArgumentParser(add_help=False, parents=[stopwords])
    names.add_argument(
        "--min-name-len",
        type=_positive_int,
        default=DEFAULT_MIN_NAME_LEN,
        help="shortest standardized name admitted as match evidence",
    )

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
        "tickets", parents=[common, names], help="match a day's new CVEs and emit grouped tickets"
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

    p_stats = sub.add_parser(
        "stats", parents=[common, stopwords], help="completeness statistics reports"
    )
    p_stats.add_argument("--report", required=True, choices=list(STATS_REPORTS))
    p_stats.add_argument("--from", dest="date_from", type=_date_arg)
    p_stats.add_argument("--to", dest="date_to", type=_date_arg)
    p_stats.add_argument("--field", choices=["cvss", "cpe"], help="for --report delays")
    p_stats.add_argument("--scores-a", help="score file for --report ranktest")
    p_stats.add_argument("--scores-b", help="score file for --report ranktest")
    p_stats.add_argument(
        "--method", choices=["auto", "exact", "normal"],
        help="rank test p-value method (default auto)",
    )
    p_stats.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    p_stats.set_defaults(func=cmd_stats)

    p_filter = sub.add_parser(
        "build-filter", parents=[common, names], help="compile false-positive name lists from feeds"
    )
    p_filter.add_argument("feeds", nargs="+")
    p_filter.add_argument("--dictionary", required=True)
    p_filter.add_argument("--out-vendors", required=True)
    p_filter.add_argument("--out-products", required=True)
    p_filter.add_argument("--source-year", default="", help="label recorded in the filter files")
    p_filter.set_defaults(func=cmd_build_filter)

    p_eval = sub.add_parser(
        "evaluate", parents=[common, names], help="score summary-extraction quality on labeled feeds"
    )
    p_eval.add_argument("feeds", nargs="+")
    p_eval.add_argument("--dictionary", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    return parser


def _check_outputs(args: argparse.Namespace) -> None:
    """Where a command may write, checked before it reads anything: each
    file it writes named once, and none inside the store, links followed."""
    given = {option: getattr(args, option[2:].replace("-", "_"), None)
             for option in ("--out-vendors", "--out-products", "--output")}
    outputs = {option: Path(path).resolve() for option, path in given.items() if path}
    if len(set(outputs.values())) < len(outputs):
        raise FormatError("--out-vendors, --out-products and --output must name different files")
    store = Path(args.store).resolve()
    for option, path in outputs.items():
        if path == store or store in path.parents:
            raise FormatError(f"{option} {given[option]} is inside the store {args.store}")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        with _report(args.output) as out:
            args.func(args, out)
    except (SentinelError, OSError) as exc:
        _note(f"error: {exc}")
        return getattr(exc, "exit_code", 2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
