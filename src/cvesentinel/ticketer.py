"""Coalesce per-CVE match results into one ticket per product group.

Grouping keys on (vendor, product name) and deliberately ignores the
version: the fix is almost always "update the software", so every version
of a product belongs on the same ticket. A CVE that matched assets in two
different groups appears on both tickets, since both owners must act.
"""

from __future__ import annotations

import json
from datetime import date
from typing import Iterable, Mapping, TextIO

from .errors import EmitError, MatchIntegrityError
from .matcher import AssetIndex, MatchResult
from .model import CveRecord, MatchVia, SeverityLevel, Ticket, severity_bucket

# The order tickets are queued in, by the severity of their worst CVE.
# UNSCORED comes right after CRITICAL: an unscored CVE is no evidence of low
# severity, so its ticket must not sink to the bottom of the queue.
_PRIORITY = (SeverityLevel.CRITICAL, SeverityLevel.UNSCORED, SeverityLevel.HIGH,
             SeverityLevel.MEDIUM, SeverityLevel.LOW, SeverityLevel.NONE)


def group_matches(
    matches: Iterable[MatchResult],
    assets: AssetIndex,
    cve_records: Mapping[str, CveRecord],
    created: date,
) -> list[Ticket]:
    """Fold matches into one ticket per distinct (vendor, name) key.

    Tickets come out ordered CRITICAL first, UNSCORED second, then down
    the severity scale, ties broken by key. Raises MatchIntegrityError on
    references to unknown asset or CVE ids, or on contradictory via tags
    for one CVE.
    """
    # Each key's via map, whose keys are the ticket's CVE ids, and asset ids.
    groups: dict[tuple[str, str], tuple[dict[str, MatchVia], set[str]]] = {}

    for match in matches:
        if match.cve_id not in cve_records:
            raise MatchIntegrityError(f"match references unknown CVE id {match.cve_id!r}")
        for asset_id in match.asset_ids:
            asset = assets.by_id.get(asset_id)
            if asset is None:
                raise MatchIntegrityError(f"match references unknown asset id {asset_id!r}")
            key = asset.wfn.key
            via, asset_ids = groups.setdefault(key, ({}, set()))
            if via.setdefault(match.cve_id, match.via) is not match.via:
                raise MatchIntegrityError(
                    f"conflicting via tags for {match.cve_id} in group {key}"
                )
            asset_ids.add(asset_id)

    tickets = []
    for (vendor, name), (via, asset_ids) in groups.items():
        cve_ids = tuple(sorted(via))
        scores = (cve_records[cve_id].cvss3_base for cve_id in cve_ids)
        top_score = max((s for s in scores if s is not None), default=None)
        tickets.append(
            Ticket(
                vendor=vendor,
                name=name,
                cve_ids=cve_ids,
                matched_assets=tuple(sorted(asset_ids)),
                max_severity=severity_bucket(top_score),
                created=created,
                via=via,
            )
        )
    tickets.sort(key=lambda t: (_PRIORITY.index(t.max_severity), t.key))
    return tickets


def emit_tickets(tickets: Iterable[Ticket], sink: TextIO) -> int:
    """Write tickets as JSON lines; returns the number of lines written."""
    written = 0
    for ticket in tickets:
        try:
            sink.write(json.dumps(ticket.to_dict(), separators=(",", ":")) + "\n")
        except OSError as exc:
            raise EmitError(f"ticket sink write failed after {written} lines: {exc}", written)
        written += 1
    return written


def parse_ticket_line(line: str) -> Ticket:
    """Inverse of one emit_tickets line."""
    return Ticket.from_dict(json.loads(line))
