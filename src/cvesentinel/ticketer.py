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
from .model import CveRecord, MatchVia, Ticket, severity_bucket


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
    cve_sets: dict[tuple[str, str], set[str]] = {}
    asset_sets: dict[tuple[str, str], set[str]] = {}
    via_maps: dict[tuple[str, str], dict[str, MatchVia]] = {}

    for match in matches:
        if match.cve_id not in cve_records:
            raise MatchIntegrityError(f"match references unknown CVE id {match.cve_id!r}")
        for asset_id in match.asset_ids:
            asset = assets.by_id.get(asset_id)
            if asset is None:
                raise MatchIntegrityError(f"match references unknown asset id {asset_id!r}")
            key = asset.wfn.key
            cve_sets.setdefault(key, set()).add(match.cve_id)
            asset_sets.setdefault(key, set()).add(asset_id)
            via = via_maps.setdefault(key, {})
            if via.get(match.cve_id, match.via) is not match.via:
                raise MatchIntegrityError(
                    f"conflicting via tags for {match.cve_id} in group {key}"
                )
            via[match.cve_id] = match.via

    tickets = []
    for key in cve_sets:
        vendor, name = key
        cve_ids = tuple(sorted(cve_sets[key]))
        scores = (cve_records[cve_id].cvss3_base for cve_id in cve_ids)
        top_score = max((s for s in scores if s is not None), default=None)
        tickets.append(
            Ticket(
                vendor=vendor,
                name=name,
                cve_ids=cve_ids,
                matched_assets=tuple(sorted(asset_sets[key])),
                max_severity=severity_bucket(top_score),
                created=created,
                via=via_maps[key],
            )
        )
    tickets.sort(key=lambda t: (t.max_severity.ticket_priority, t.key))
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
