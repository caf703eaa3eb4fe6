"""Grouping matches into tickets and the JSON-lines stream."""

from __future__ import annotations

import io
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record
from cvesentinel.errors import MatchIntegrityError
from cvesentinel.matcher import AssetIndex, MatchResult
from cvesentinel.model import MatchVia, SeverityLevel
from cvesentinel.ticketer import emit_tickets, group_matches, parse_ticket_line
from test_matcher import make_asset

RUN_DATE = date(2021, 6, 2)


def summary_match(cve_id: str, *asset_ids: str, phrase: str = "name") -> MatchResult:
    return MatchResult(
        cve_id=cve_id, asset_ids=asset_ids, via=MatchVia.SUMMARY, matched_phrase=phrase
    )


def cpe_match(cve_id: str, *asset_ids: str) -> MatchResult:
    return MatchResult(cve_id=cve_id, asset_ids=asset_ids, via=MatchVia.CPE)


class TestGroupMatches:
    def test_two_versions_one_ticket(self):
        index = AssetIndex(
            [
                make_asset("A1", "r2d2", "geotab", "3.0"),
                make_asset("A2", "r2d2", "geotab", "4.0"),
            ]
        )
        records = {
            "CVE-2021-0001": make_record("CVE-2021-0001", score=7.0),
            "CVE-2021-0002": make_record("CVE-2021-0002", score=5.0),
        }
        tickets = group_matches(
            [cpe_match("CVE-2021-0001", "A1"), cpe_match("CVE-2021-0002", "A2")],
            index,
            records,
            RUN_DATE,
        )
        (ticket,) = tickets
        assert ticket.key == ("geotab", "r2d2")
        assert ticket.cve_ids == ("CVE-2021-0001", "CVE-2021-0002")
        assert ticket.matched_assets == ("A1", "A2")
        assert ticket.max_severity is SeverityLevel.HIGH

    def test_empty_matches(self):
        assert group_matches([], AssetIndex([]), {}, RUN_DATE) == []

    def test_three_matches_two_groups(self):
        index = AssetIndex(
            [
                make_asset("A1", "anvil", "acme"),
                make_asset("A2", "anvil", "acme", "2.0"),
                make_asset("A3", "rocket", "acme"),
            ]
        )
        records = {
            "CVE-2021-0001": make_record("CVE-2021-0001"),
            "CVE-2021-0002": make_record("CVE-2021-0002"),
        }
        tickets = group_matches(
            [
                summary_match("CVE-2021-0001", "A1"),
                summary_match("CVE-2021-0001", "A2"),
                summary_match("CVE-2021-0002", "A3"),
            ],
            index,
            records,
            RUN_DATE,
        )
        assert len(tickets) == 2

    def test_cve_spanning_groups_lands_on_both(self):
        index = AssetIndex(
            [make_asset("A1", "anvil", "acme"), make_asset("A2", "rocket", "acme")]
        )
        records = {"CVE-2021-0001": make_record("CVE-2021-0001")}
        tickets = group_matches(
            [summary_match("CVE-2021-0001", "A1", "A2")], index, records, RUN_DATE
        )
        assert len(tickets) == 2
        assert all(t.cve_ids == ("CVE-2021-0001",) for t in tickets)

    def test_unknown_asset_id(self):
        with pytest.raises(MatchIntegrityError):
            group_matches(
                [summary_match("CVE-2021-0001", "GHOST")],
                AssetIndex([]),
                {"CVE-2021-0001": make_record("CVE-2021-0001")},
                RUN_DATE,
            )

    def test_unknown_cve_id(self):
        index = AssetIndex([make_asset("A1", "anvil", "acme")])
        with pytest.raises(MatchIntegrityError):
            group_matches([summary_match("CVE-2021-0001", "A1")], index, {}, RUN_DATE)

    def test_unscored_only_when_every_member_unscored(self):
        index = AssetIndex(
            [make_asset("A1", "anvil", "acme"), make_asset("A2", "rocket", "acme")]
        )
        records = {
            "CVE-2021-0001": make_record("CVE-2021-0001"),
            "CVE-2021-0002": make_record("CVE-2021-0002", score=2.0),
        }
        tickets = group_matches(
            [
                summary_match("CVE-2021-0001", "A1"),
                summary_match("CVE-2021-0001", "A2"),
                summary_match("CVE-2021-0002", "A2"),
            ],
            index,
            records,
            RUN_DATE,
        )
        by_key = {t.key: t for t in tickets}
        assert by_key[("acme", "anvil")].max_severity is SeverityLevel.UNSCORED
        assert by_key[("acme", "rocket")].max_severity is SeverityLevel.LOW

    def test_ordering_critical_then_unscored_then_key(self):
        index = AssetIndex(
            [
                make_asset("A1", "anvil", "acme"),
                make_asset("A2", "rocket", "acme"),
                make_asset("A3", "widget", "cog"),
                make_asset("A4", "gadget", "cog"),
                make_asset("A5", "sprocket", "cog"),
                make_asset("A6", "bolt", "acme"),
            ]
        )
        records = {
            "CVE-2021-0001": make_record("CVE-2021-0001", score=9.5),
            "CVE-2021-0002": make_record("CVE-2021-0002"),
            "CVE-2021-0003": make_record("CVE-2021-0003", score=5.0),
            "CVE-2021-0004": make_record("CVE-2021-0004", score=0.0),
            "CVE-2021-0005": make_record("CVE-2021-0005", score=7.5),
            "CVE-2021-0006": make_record("CVE-2021-0006", score=2.0),
        }
        tickets = group_matches(
            [
                summary_match("CVE-2021-0003", "A2"),
                summary_match("CVE-2021-0006", "A6"),
                summary_match("CVE-2021-0001", "A1"),
                summary_match("CVE-2021-0002", "A3"),
                summary_match("CVE-2021-0004", "A4"),
                summary_match("CVE-2021-0005", "A5"),
            ],
            index,
            records,
            RUN_DATE,
        )
        assert [t.max_severity for t in tickets] == [
            SeverityLevel.CRITICAL,
            SeverityLevel.UNSCORED,
            SeverityLevel.HIGH,
            SeverityLevel.MEDIUM,
            SeverityLevel.LOW,
            SeverityLevel.NONE,
        ]

    def test_via_recorded_per_cve(self):
        index = AssetIndex([make_asset("A1", "anvil", "acme")])
        records = {
            "CVE-2021-0001": make_record("CVE-2021-0001"),
            "CVE-2021-0002": make_record("CVE-2021-0002"),
        }
        (ticket,) = group_matches(
            [cpe_match("CVE-2021-0001", "A1"), summary_match("CVE-2021-0002", "A1")],
            index,
            records,
            RUN_DATE,
        )
        assert ticket.via["CVE-2021-0001"] is MatchVia.CPE
        assert ticket.via["CVE-2021-0002"] is MatchVia.SUMMARY

    def test_conflicting_via_rejected(self):
        index = AssetIndex([make_asset("A1", "anvil", "acme")])
        records = {"CVE-2021-0001": make_record("CVE-2021-0001")}
        with pytest.raises(MatchIntegrityError):
            group_matches(
                [cpe_match("CVE-2021-0001", "A1"), summary_match("CVE-2021-0001", "A1")],
                index,
                records,
                RUN_DATE,
            )


class TestEmitTickets:
    def _tickets(self):
        index = AssetIndex(
            [make_asset("A1", "anvil", "acme"), make_asset("A2", "widget", "cog")]
        )
        records = {
            "CVE-2021-0001": make_record("CVE-2021-0001", score=9.9),
            "CVE-2021-0002": make_record("CVE-2021-0002", score=5.0),
            "CVE-2021-0003": make_record("CVE-2021-0003"),
        }
        return group_matches(
            [
                summary_match("CVE-2021-0001", "A1"),
                summary_match("CVE-2021-0002", "A2"),
                summary_match("CVE-2021-0003", "A2"),
            ],
            index,
            records,
            RUN_DATE,
        )

    def test_round_trip(self):
        tickets = self._tickets()
        sink = io.StringIO()
        assert emit_tickets(tickets, sink) == len(tickets)
        lines = sink.getvalue().splitlines()
        assert [parse_ticket_line(line) for line in lines] == tickets

    def test_unscored_rendering(self):
        index = AssetIndex([make_asset("A1", "anvil", "acme")])
        records = {"CVE-2021-0001": make_record("CVE-2021-0001")}
        tickets = group_matches(
            [summary_match("CVE-2021-0001", "A1")], index, records, RUN_DATE
        )
        sink = io.StringIO()
        emit_tickets(tickets, sink)
        assert '"max_severity":"UNSCORED"' in sink.getvalue()

    def test_critical_emitted_before_medium(self):
        sink = io.StringIO()
        emit_tickets(self._tickets(), sink)
        lines = sink.getvalue().splitlines()
        assert '"CRITICAL"' in lines[0]
        assert '"MEDIUM"' in lines[1]

    def test_sink_failure_reports_written_count(self):
        from cvesentinel.errors import EmitError

        class FlakySink:
            def __init__(self):
                self.writes = 0

            def write(self, _):
                if self.writes >= 1:
                    raise OSError("disk full")
                self.writes += 1

        with pytest.raises(EmitError) as info:
            emit_tickets(self._tickets(), FlakySink())
        assert info.value.written == 1


@st.composite
def match_fixture(draw):
    names = ["anvil", "rocket", "widget", "gadget", "probe"]
    vendors = ["acme", "cog", "bolt"]
    n_assets = draw(st.integers(min_value=1, max_value=8))
    assets = [
        make_asset(
            f"A{i}",
            draw(st.sampled_from(names)),
            draw(st.sampled_from(vendors)),
            draw(st.sampled_from(["", "1.0", "2.0"])),
        )
        for i in range(n_assets)
    ]
    cve_ids = [f"CVE-2021-{n:04d}" for n in range(1, draw(st.integers(1, 6)) + 1)]
    records = {
        cve_id: make_record(cve_id, score=draw(st.sampled_from([None, 3.0, 7.2, 9.9])))
        for cve_id in cve_ids
    }
    matches = []
    for cve_id in cve_ids:
        chosen = draw(
            st.lists(st.sampled_from([a.asset_id for a in assets]), min_size=1, unique=True)
        )
        matches.append(summary_match(cve_id, *chosen))
    return assets, records, matches


class TestGroupingProperties:
    @given(match_fixture())
    @settings(max_examples=120)
    def test_ticket_count_equals_distinct_keys(self, fixture):
        assets, records, matches = fixture
        index = AssetIndex(assets)
        tickets = group_matches(matches, index, records, RUN_DATE)
        matched_keys = {
            index.by_id[a].wfn.key for m in matches for a in m.asset_ids
        }
        assert len(tickets) == len(matched_keys)
        assert {t.key for t in tickets} == matched_keys

    @given(match_fixture())
    @settings(max_examples=60)
    def test_every_matched_cve_appears_and_never_twice_per_ticket(self, fixture):
        assets, records, matches = fixture
        index = AssetIndex(assets)
        tickets = group_matches(matches, index, records, RUN_DATE)
        covered = {cve_id for t in tickets for cve_id in t.cve_ids}
        assert covered == {m.cve_id for m in matches}
        for ticket in tickets:
            assert len(set(ticket.cve_ids)) == len(ticket.cve_ids)
