"""CVE triage toolkit: feed ingestion, asset matching, ticket grouping,
and feed-completeness analytics.

The names below are imported from their modules on first use (PEP 562),
so that a process loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it gives the package
_EXPORTS = {
    "analytics": (
        "CompletionDelay",
        "CompletionField",
        "DailyCompleteness",
        "DelayReport",
        "RankMethod",
        "RankTestResult",
        "ScoreTable",
        "VendorStats",
        "completion_delays",
        "daily_completeness",
        "mann_whitney_u",
    ),
    "errors": ("SentinelError", "ValidationError"),
    "ingest": (
        "CpeDictionary",
        "Snapshot",
        "diff_snapshots",
        "load_snapshot",
        "load_snapshots",
        "parse_asset_inventory",
        "parse_cpe_dictionary",
        "parse_feed",
        "store_snapshot",
    ),
    "matcher": (
        "AssetIndex",
        "EvalReport",
        "FpFilter",
        "MatchResult",
        "build_fp_filter",
        "evaluate_corpus",
        "match_corpus",
        "match_cve",
    ),
    "model": (
        "AssetRecord",
        "CpeUri",
        "CveRecord",
        "MatchVia",
        "SeverityLevel",
        "SnapshotDiff",
        "Ticket",
        "WellFormedName",
        "severity_bucket",
    ),
    "normalize": (
        "StopWordList",
        "standardize",
        "tokenize",
        "well_formed_from_cpe",
        "well_formed_from_raw",
    ),
    "ticketer": ("emit_tickets", "group_matches", "parse_ticket_line"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
