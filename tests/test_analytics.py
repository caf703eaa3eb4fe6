"""Completeness statistics, severity bucketing, and the rank test."""

from __future__ import annotations

from collections import Counter
from datetime import date, timedelta
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cpe23, make_record, snapshot_of
from cvesentinel.analytics import (
    EXACT_MAX_CELLS,
    CompletionField,
    RankMethod,
    assemble_vendor_corpus,
    completion_delays,
    daily_completeness,
    mann_whitney_u,
    score_table,
    severity_bucket,
    split_scores,
    vendor_completeness,
)
from cvesentinel.errors import DomainError, OrderingError
from cvesentinel.model import SeverityLevel
from cvesentinel.normalize import StopWordList
from oracles import (
    oracle_assemble_vendor_corpus,
    oracle_completion_delays,
    oracle_daily_completeness,
    oracle_exact_mwu_p,
    oracle_exact_mwu_p_large,
    oracle_split_scores,
)


class TestSeverityBucket:
    @pytest.mark.parametrize(
        ("score", "level"),
        [
            (None, SeverityLevel.UNSCORED),
            (0.0, SeverityLevel.NONE),
            (0.1, SeverityLevel.LOW),
            (3.9, SeverityLevel.LOW),
            (4.0, SeverityLevel.MEDIUM),
            (6.9, SeverityLevel.MEDIUM),
            (7.0, SeverityLevel.HIGH),
            (8.9, SeverityLevel.HIGH),
            (9.0, SeverityLevel.CRITICAL),
            (10.0, SeverityLevel.CRITICAL),
        ],
    )
    def test_buckets(self, score, level):
        assert severity_bucket(score) is level

    def test_decimal_input(self):
        assert severity_bucket(Decimal("8.9")) is SeverityLevel.HIGH

    @pytest.mark.parametrize("score", [-0.1, 10.1, 99])
    def test_out_of_range(self, score):
        with pytest.raises(DomainError):
            severity_bucket(score)

    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    def test_monotone(self, tenths_a, tenths_b):
        order = [SeverityLevel.NONE, SeverityLevel.LOW, SeverityLevel.MEDIUM,
                 SeverityLevel.HIGH, SeverityLevel.CRITICAL]
        a, b = sorted([Decimal(tenths_a) / 10, Decimal(tenths_b) / 10])
        assert order.index(severity_bucket(a)) <= order.index(severity_bucket(b))


def _history_10_days():
    """Ten snapshots with hand-traceable gaps and completions.

    C1 scored+cpe+refs from day 1. C2 appears day 2 bare, gains a score on
    day 4 and a CPE on day 5. C3 appears day 2 unscored with a CPE, gets a
    cosmetic update on day 6 but never a score. C4 appears day 3 bare and
    is never touched again. C5 appears day 3 scored with two vendors.
    C6 appears day 7 unscored, scored day 10. C7 appears day 8 scored but
    CPE-less, gains a CPE day 9. C8 appears day 5 unscored/CPE-less, gains
    a score day 9 and never a CPE.
    """
    c1 = make_record(
        "CVE-2021-0001", "2021-06-01", summary="one", score=9.8,
        cpes=[cpe23("microsoft", "windows")], refs=["https://ms.example"],
    )
    c2 = make_record("CVE-2021-0002", "2021-06-02", summary="two")
    c2_scored = make_record(
        "CVE-2021-0002", "2021-06-02", modified="2021-06-04", summary="two", score=5.0
    )
    c2_cpe = make_record(
        "CVE-2021-0002", "2021-06-02", modified="2021-06-05", summary="two", score=5.0,
        cpes=[cpe23("geotab", "r2d2")],
    )
    c3 = make_record(
        "CVE-2021-0003", "2021-06-02", summary="three", cpes=[cpe23("acme", "anvil")]
    )
    c3_edited = make_record(
        "CVE-2021-0003", "2021-06-02", modified="2021-06-06",
        summary="three, reworded", cpes=[cpe23("acme", "anvil")],
    )
    c4 = make_record("CVE-2021-0004", "2021-06-03", summary="four", refs=["https://x.example"])
    c5 = make_record(
        "CVE-2021-0005", "2021-06-03", summary="five", score=3.0,
        cpes=[cpe23("acme", "anvil"), cpe23("geotab", "r2d2")],
    )
    c6 = make_record(
        "CVE-2021-0006", "2021-06-07", summary="six",
        cpes=[cpe23("microsoft", "windows")], refs=["https://y.example"],
    )
    c6_scored = make_record(
        "CVE-2021-0006", "2021-06-07", modified="2021-06-10", summary="six", score=9.0,
        cpes=[cpe23("microsoft", "windows")], refs=["https://y.example"],
    )
    c7 = make_record("CVE-2021-0007", "2021-06-08", summary="seven", score=7.0)
    c7_cpe = make_record(
        "CVE-2021-0007", "2021-06-08", modified="2021-06-09", summary="seven", score=7.0,
        cpes=[cpe23("microsoft", "office")],
    )
    c8 = make_record("CVE-2021-0008", "2021-06-05", summary="eight", refs=["https://z.example"])
    c8_scored = make_record(
        "CVE-2021-0008", "2021-06-05", modified="2021-06-09", summary="eight", score=4.0,
        refs=["https://z.example"],
    )

    return [
        snapshot_of("2021-06-01", [c1]),
        snapshot_of("2021-06-02", [c1, c2, c3]),
        snapshot_of("2021-06-03", [c1, c2, c3, c4, c5]),
        snapshot_of("2021-06-04", [c1, c2_scored, c3, c4, c5]),
        snapshot_of("2021-06-05", [c1, c2_cpe, c3, c4, c5, c8]),
        snapshot_of("2021-06-06", [c1, c2_cpe, c3_edited, c4, c5, c8]),
        snapshot_of("2021-06-07", [c1, c2_cpe, c3_edited, c4, c5, c8, c6]),
        snapshot_of("2021-06-08", [c1, c2_cpe, c3_edited, c4, c5, c8, c6, c7]),
        snapshot_of("2021-06-09", [c1, c2_cpe, c3_edited, c4, c5, c8_scored, c6, c7_cpe]),
        snapshot_of("2021-06-10", [c1, c2_cpe, c3_edited, c4, c5, c8_scored, c6_scored, c7_cpe]),
    ]


class TestDailyCompleteness:
    def test_direct_count(self):
        snaps = [
            snapshot_of("2021-06-01", []),
            snapshot_of(
                "2021-06-02",
                [
                    make_record("CVE-2021-0001", "2021-06-02", score=5.0,
                                cpes=[cpe23("acme", "anvil")], refs=["https://a"]),
                    make_record("CVE-2021-0002", "2021-06-02", refs=["https://b"]),
                    make_record("CVE-2021-0003", "2021-06-02", score=2.0,
                                cpes=[cpe23("acme", "rocket")], refs=["https://c"]),
                ],
            ),
        ]
        (day,) = daily_completeness(snaps)
        assert day.total_reports == 3
        assert day.missing_cvss == 1
        assert day.missing_cpe == 1
        assert day.missing_mitigation == 0

    def test_day_with_no_new_cves(self):
        records = [make_record("CVE-2021-0001", "2021-06-01")]
        snaps = [snapshot_of("2021-06-01", records), snapshot_of("2021-06-02", records)]
        (day,) = daily_completeness(snaps)
        assert (day.total_reports, day.missing_cvss, day.missing_cpe) == (0, 0, 0)

    def test_ten_day_history_matches_hand_table(self):
        days = daily_completeness(_history_10_days())
        table = [
            (d.date.isoformat(), d.total_reports, d.missing_cvss, d.missing_cpe, d.missing_mitigation)
            for d in days
        ]
        assert table == [
            ("2021-06-02", 2, 2, 1, 2),  # C2 (bare), C3 (cpe, no refs)
            ("2021-06-03", 2, 1, 1, 1),  # C4 (refs only), C5 (scored, no refs)
            ("2021-06-04", 0, 0, 0, 0),
            ("2021-06-05", 1, 1, 1, 0),  # C8
            ("2021-06-06", 0, 0, 0, 0),
            ("2021-06-07", 1, 1, 0, 0),  # C6
            ("2021-06-08", 1, 0, 1, 1),  # C7
            ("2021-06-09", 0, 0, 0, 0),
            ("2021-06-10", 0, 0, 0, 0),
        ]

    def test_unordered_snapshots_rejected(self):
        snaps = [snapshot_of("2021-06-02", []), snapshot_of("2021-06-01", [])]
        with pytest.raises(OrderingError):
            daily_completeness(snaps)


class TestCompletionDelays:
    def test_twelve_day_example(self):
        unscored = make_record("CVE-2021-0001", "2021-06-01", summary="x")
        scored = make_record(
            "CVE-2021-0001", "2021-06-01", modified="2021-06-13", summary="x", score=5.0
        )
        snaps = [
            snapshot_of("2021-06-01", [unscored]),
            snapshot_of("2021-06-13", [scored]),
        ]
        report = completion_delays(snaps, CompletionField.CVSS)
        (delay,) = report.delays
        assert delay.days == 12

    def test_initially_scored_contributes_nothing(self):
        record = make_record("CVE-2021-0001", "2021-06-01", score=5.0)
        snaps = [snapshot_of("2021-06-01", [record]), snapshot_of("2021-06-02", [record])]
        report = completion_delays(snaps, CompletionField.CVSS)
        assert not report.delays
        assert not report.updated_without_field
        assert not report.never_updated

    def test_five_cve_three_way_split(self):
        # 3 complete, 1 updates without the field, 1 never updates
        a0 = make_record("CVE-2021-0001", "2021-06-01")
        a1 = make_record("CVE-2021-0001", "2021-06-01", modified="2021-06-02", score=5.0)
        b0 = make_record("CVE-2021-0002", "2021-06-01")
        b1 = make_record("CVE-2021-0002", "2021-06-01", modified="2021-06-03", score=7.0)
        c0 = make_record("CVE-2021-0003", "2021-06-01")
        c1 = make_record("CVE-2021-0003", "2021-06-01", modified="2021-06-03", score=2.0)
        d0 = make_record("CVE-2021-0004", "2021-06-01", summary="v1")
        d1 = make_record("CVE-2021-0004", "2021-06-01", modified="2021-06-02", summary="v2")
        e0 = make_record("CVE-2021-0005", "2021-06-01")
        snaps = [
            snapshot_of("2021-06-01", [a0, b0, c0, d0, e0]),
            snapshot_of("2021-06-02", [a1, b0, c0, d1, e0]),
            snapshot_of("2021-06-03", [a1, b1, c1, d1, e0]),
        ]
        report = completion_delays(snaps, CompletionField.CVSS)
        assert [d.days for d in report.delays] == [1, 2, 2]
        assert report.updated_without_field == ("CVE-2021-0004",)
        assert report.never_updated == ("CVE-2021-0005",)

    def test_ten_day_history_cvss(self):
        report = completion_delays(_history_10_days(), CompletionField.CVSS)
        assert {(d.cve_id, d.days) for d in report.delays} == {
            ("CVE-2021-0002", 2),   # published 06-02, scored 06-04
            ("CVE-2021-0006", 3),   # published 06-07, scored 06-10
            ("CVE-2021-0008", 4),   # published 06-05, scored 06-09
        }
        assert report.updated_without_field == ("CVE-2021-0003",)
        assert report.never_updated == ("CVE-2021-0004",)

    def test_ten_day_history_cpe(self):
        report = completion_delays(_history_10_days(), CompletionField.CPE)
        assert {(d.cve_id, d.days) for d in report.delays} == {
            ("CVE-2021-0002", 3),   # published 06-02, cpe on 06-05
            ("CVE-2021-0007", 1),   # published 06-08, cpe on 06-09
        }
        assert report.updated_without_field == ("CVE-2021-0008",)
        assert report.never_updated == ("CVE-2021-0004",)

    def test_partition_of_incomplete_set(self):
        snaps = _history_10_days()
        for field in CompletionField:
            report = completion_delays(snaps, field)
            first_seen_without = set()
            seen = {}
            for snap in snaps:
                for cve_id, rec in snap.records.items():
                    seen.setdefault(cve_id, rec)
            for cve_id, rec in seen.items():
                has = rec.cvss3_base is not None if field is CompletionField.CVSS else bool(rec.cpe_list)
                if not has:
                    first_seen_without.add(cve_id)
            buckets = (
                {d.cve_id for d in report.delays}
                | set(report.updated_without_field)
                | set(report.never_updated)
            )
            assert buckets == first_seen_without
            assert len(report.delays) + len(report.updated_without_field) + len(
                report.never_updated
            ) == len(first_seen_without)


    def test_field_dated_before_publication_is_rejected(self):
        # Published 06-05 per the record, yet seen bare on 06-01 and scored on 06-02.
        bare = make_record("CVE-2021-0002", "2021-06-05")
        scored = make_record("CVE-2021-0002", "2021-06-05", score=5.0)
        on_time = make_record("CVE-2021-0001", "2021-06-01")
        on_time_scored = make_record("CVE-2021-0001", "2021-06-01", score=5.0)
        snaps = [
            snapshot_of("2021-06-01", [on_time, bare]),
            snapshot_of("2021-06-02", [on_time_scored, scored]),
        ]
        report = completion_delays(iter(snaps), CompletionField.CVSS)
        assert [d.cve_id for d in report.delays] == ["CVE-2021-0001"]
        assert report.rejected == ("CVE-2021-0002",)
        assert report.updated_without_field == report.never_updated == ()


_DAY0 = date(2021, 6, 1)
_HISTORY_IDS = [f"CVE-2021-000{n}" for n in range(1, 5)]
_HISTORY_CPES = [cpe23("acme", "anvil"), cpe23("acme", "rocket"), cpe23("inc", "widget"),
                 cpe23("geotab", "r2d2")]


@st.composite
def _history_record(draw, cve_id):
    published = _DAY0 + timedelta(days=draw(st.integers(-2, 8)))
    return make_record(
        cve_id,
        published.isoformat(),
        summary=draw(st.sampled_from(["a", "b"])),
        score=draw(st.sampled_from([None, 0, 0.0, 5.0, 9.8])),
        cpes=draw(st.lists(st.sampled_from(_HISTORY_CPES), max_size=3)),
        refs=draw(st.sampled_from([(), ("https://r",)])),
    )


@st.composite
def _histories(draw):
    """1-6 ascending days; each CVE is absent, kept as the same object as
    the day before, or given a freshly drawn record."""
    day = _DAY0
    last: dict[str, object] = {}
    snapshots = []
    for _ in range(draw(st.integers(1, 6))):
        records = []
        for cve_id in _HISTORY_IDS:
            action = draw(st.sampled_from(["absent", "keep", "new"]))
            if action == "keep" and cve_id in last:
                records.append(last[cve_id])
            elif action != "absent":
                last[cve_id] = draw(_history_record(cve_id))
                records.append(last[cve_id])
        snapshots.append(snapshot_of(day.isoformat(), records))
        day += timedelta(days=draw(st.integers(1, 3)))
    return snapshots


class TestHistoryFunctionsEqualOracles:
    """Each history function, fed a generator, equals its whole-list oracle."""

    @settings(max_examples=300, deadline=None)
    @given(_histories())
    def test_four_history_functions(self, snaps):
        assert daily_completeness(s for s in snaps) == oracle_daily_completeness(snaps)
        for field in CompletionField:
            assert completion_delays((s for s in snaps), field) == oracle_completion_delays(
                snaps, field
            )
        corpus = assemble_vendor_corpus(s for s in snaps)
        assert [repr(r) for r in corpus] == [repr(r) for r in oracle_assemble_vendor_corpus(snaps)]
        initial, later = split_scores(s for s in snaps)
        oracle_initial, oracle_later = oracle_split_scores(snaps)
        assert [str(x) for x in initial] == [str(x) for x in oracle_initial]
        assert [str(x) for x in later] == [str(x) for x in oracle_later]


class TestVendorCompleteness:
    def test_direct_ratio(self):
        records = [
            make_record("CVE-2021-0001", cpes=[cpe23("acme", "anvil")]),
            make_record("CVE-2021-0002", score=5.0, cpes=[cpe23("acme", "rocket")]),
        ]
        (stats,) = vendor_completeness(records)
        assert stats.vendor == "acme"
        assert stats.total == 2
        assert stats.pct_unscored == 0.5

    def test_single_vendor_corpus(self):
        records = [make_record("CVE-2021-0001", cpes=[cpe23("solo", "thing")])]
        assert len(vendor_completeness(records)) == 1

    def test_multi_vendor_cve_counts_for_all(self):
        records = [
            make_record(
                "CVE-2021-0001",
                cpes=[cpe23("acme", "anvil"), cpe23("geotab", "r2d2")],
            )
        ]
        stats = vendor_completeness(records)
        assert {s.vendor for s in stats} == {"acme", "geotab"}
        assert all(s.total == 1 and s.initially_unscored == 1 for s in stats)

    def test_six_vendor_ordering(self):
        def rec(i, vendor, scored):
            return make_record(
                f"CVE-2021-{i:04d}",
                score=5.0 if scored else None,
                cpes=[cpe23(vendor, "thing")],
            )

        records = [
            rec(1, "alpha1", False), rec(2, "alpha1", False),          # 1.00
            rec(3, "bravo2", False), rec(4, "bravo2", True),           # 0.50
            rec(5, "delta3", False), rec(6, "delta3", True),           # 0.50
            rec(7, "echo4", True),                                     # 0.00
            rec(8, "foxtrot5", False), rec(9, "foxtrot5", False), rec(10, "foxtrot5", True),  # 0.67
            rec(11, "golf6", True), rec(12, "golf6", True),            # 0.00
        ]
        ordered = [s.vendor for s in vendor_completeness(records)]
        assert ordered == ["alpha1", "foxtrot5", "bravo2", "delta3", "echo4", "golf6"]

    def test_custom_stop_words_standardize_vendors(self):
        records = [make_record("CVE-2021-0001", cpes=[cpe23("acme_server", "anvil"), cpe23("inc", "x")])]
        assert [s.vendor for s in vendor_completeness(records)] == ["acme server"]
        # the list replaces the default one, so "inc" is a vendor again
        stats = vendor_completeness(records, StopWordList(frozenset({"server"})))
        assert [s.vendor for s in stats] == ["acme", "inc"]

    def test_record_without_vendor_rejected(self):
        with pytest.raises(DomainError):
            vendor_completeness([make_record("CVE-2021-0001")])

    def test_ten_day_history(self):
        corpus = [r for r in assemble_vendor_corpus(_history_10_days()) if r.cpe_list]
        stats = vendor_completeness(corpus)
        as_tuples = [(s.vendor, s.total, s.initially_unscored) for s in stats]
        # acme: C3 (unscored), C5; geotab: C2 (unscored), C5; microsoft: C1, C6 (unscored), C7
        assert as_tuples == [
            ("acme", 2, 1),
            ("geotab", 2, 1),
            ("microsoft", 3, 1),
        ]


class TestScoreTable:
    def test_counts_and_percentages(self):
        table = score_table([9.8, 7.0, 3.0], [9.0, 5.0, 4.0])
        rows = {row.level: row for row in table.rows}
        assert (rows[SeverityLevel.CRITICAL].initial_count,
                rows[SeverityLevel.CRITICAL].initial_pct) == (1, 33)
        assert (rows[SeverityLevel.HIGH].initial_count,
                rows[SeverityLevel.HIGH].initial_pct) == (1, 33)
        assert (rows[SeverityLevel.MEDIUM].later_count,
                rows[SeverityLevel.MEDIUM].later_pct) == (2, 67)
        assert rows[SeverityLevel.LOW].later_count == 0

    def test_empty_column_is_all_zero(self):
        table = score_table([], [5.0])
        assert all(row.initial_count == 0 and row.initial_pct == 0 for row in table.rows)

    @pytest.mark.parametrize("bad", [0.0, None])
    def test_zero_or_absent_scores_rejected(self, bad):
        with pytest.raises(DomainError):
            score_table([bad], [5.0])

    def test_half_up_rounding(self):
        # 1/8 = 12.5% rounds up to 13, not banker's 12
        table = score_table([9.5] + [5.0] * 7, [5.0])
        rows = {row.level: row for row in table.rows}
        assert rows[SeverityLevel.CRITICAL].initial_pct == 13

    def test_random_forty_scores_match_hand_count(self):
        import random

        rng = random.Random(11)
        initial = [round(rng.uniform(0.1, 10.0), 1) for _ in range(25)]
        later = [round(rng.uniform(0.1, 10.0), 1) for _ in range(15)]
        table = score_table(initial, later)
        expected_initial = Counter(severity_bucket(s) for s in initial)
        expected_later = Counter(severity_bucket(s) for s in later)
        for row in table.rows:
            assert row.initial_count == expected_initial.get(row.level, 0)
            assert row.later_count == expected_later.get(row.level, 0)

    def test_column_percentages_sum_to_about_100(self):
        table = score_table([9.8, 7.0, 3.0], [9.0, 5.0, 4.0])
        assert abs(sum(r.initial_pct for r in table.rows) - 100) <= 1
        assert abs(sum(r.later_pct for r in table.rows) - 100) <= 1

    def test_split_scores_from_history(self):
        initial, later = split_scores(_history_10_days())
        assert sorted(float(s) for s in initial) == [3.0, 7.0, 9.8]
        assert sorted(float(s) for s in later) == [4.0, 5.0, 9.0]


class TestMannWhitney:
    def test_identical_samples_degenerate(self):
        result = mann_whitney_u([5, 5], [5, 5])
        assert result.p_value == 1.0

    def test_tiny_exact_example(self):
        result = mann_whitney_u([1, 2], [3, 4])
        assert result.u_statistic == 0.0
        assert result.method is RankMethod.EXACT
        assert result.p_value == pytest.approx(1 / 3)

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError):
            mann_whitney_u([], [1.0])

    @pytest.mark.parametrize(
        "a", [[float("nan"), 1, 5], [1, 5, float("nan")]], ids=["nan-first", "nan-last"]
    )
    def test_nan_rejected_in_either_sample(self, a):
        with pytest.raises(DomainError, match="NaN"):
            mann_whitney_u(a, [2, 3, 4])
        with pytest.raises(DomainError, match="NaN"):
            mann_whitney_u([2, 3, 4], a)

    def test_infinite_values_rank_at_the_ends(self):
        inf = float("inf")
        assert mann_whitney_u([inf, 1, 5], [2, 3, -inf]) == mann_whitney_u(
            [100, 1, 5], [2, 3, -100]
        )

    def test_exact_with_ties_rejected(self):
        with pytest.raises(DomainError):
            mann_whitney_u([1, 2], [2, 3], method="exact")

    def test_auto_switches_to_normal_on_ties(self):
        result = mann_whitney_u([1, 2], [2, 3])
        assert result.method is RankMethod.NORMAL_APPROX

    def test_auto_switches_to_normal_when_large(self):
        a = list(range(1, 30))
        b = list(range(100, 130))
        result = mann_whitney_u(a, b)
        assert result.method is RankMethod.NORMAL_APPROX

    def test_exact_matches_enumeration_oracle(self):
        import random

        rng = random.Random(5)
        for _ in range(40):
            n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
            values = rng.sample(range(10_000), n1 + n2)
            a, b = values[:n1], values[n1:]
            result = mann_whitney_u(a, b, method="exact")
            assert result.p_value == oracle_exact_mwu_p(a, b)

    def test_exact_matches_polynomial_oracle_on_larger_samples(self):
        import random

        rng = random.Random(11)
        for n1, n2 in [(1, 40), (7, 90), (30, 30), (45, 60), (100, 100), (1, EXACT_MAX_CELLS)]:
            values = rng.sample(range(10**6), n1 + n2)
            a, b = values[:n1], values[n1:]
            result = mann_whitney_u(a, b, method="exact")
            assert result.p_value == pytest.approx(oracle_exact_mwu_p_large(a, b), rel=1e-12)

    def test_exact_beyond_bound_rejected(self):
        a = list(range(0, 402, 2))
        b = list(range(1, 401, 2))
        assert len(a) * len(b) > EXACT_MAX_CELLS
        with pytest.raises(DomainError, match="n1\\*n2"):
            mann_whitney_u(a, b, method="exact")
        assert mann_whitney_u(a, b).method is RankMethod.NORMAL_APPROX

    def test_normal_close_to_exact_for_20_20(self):
        import random

        rng = random.Random(8)
        values = rng.sample(range(100_000), 40)
        a, b = values[:20], values[20:]
        approx = mann_whitney_u(a, b, method="normal")
        assert approx.p_value == pytest.approx(oracle_exact_mwu_p_large(a, b), abs=0.02)

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=12),
        st.lists(st.integers(-50, 50), min_size=1, max_size=12),
    )
    @settings(max_examples=80)
    def test_u_symmetry(self, a, b):
        res_ab = mann_whitney_u(a, b)
        res_ba = mann_whitney_u(b, a)
        assert res_ab.u_statistic + res_ba.u_statistic == len(a) * len(b)

    @given(
        st.lists(st.integers(-40, 40), min_size=1, max_size=10),
        st.lists(st.integers(-40, 40), min_size=1, max_size=10),
    )
    @settings(max_examples=80)
    def test_invariant_under_monotone_transform(self, a, b):
        base = mann_whitney_u(a, b)
        transformed = mann_whitney_u(
            [x * 3 + 7 for x in a], [x * 3 + 7 for x in b]
        )
        assert transformed == base

    def test_cubic_transform_invariance(self):
        a, b = [1, 5, 9], [2, 3, 12]
        assert mann_whitney_u(a, b) == mann_whitney_u(
            [x**3 for x in a], [x**3 for x in b]
        )
