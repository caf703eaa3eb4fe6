"""The delta snapshot store: days stored as their changes to the day before,
the chain a load replays, the overwrite and whole-day rules, and the
errors of a broken chain."""

from __future__ import annotations

import gc
import hashlib
import json
import re
import tempfile
import tracemalloc
from collections import Counter
from datetime import date, timedelta
from decimal import Decimal
from itertools import pairwise
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compact_day, cpe23, feed_bytes, feed_item, make_record, snapshot_of, store_snapshot
from cvesentinel import store
from cvesentinel.cli import main
from cvesentinel.errors import SnapshotIntegrityError
from cvesentinel.ingest import (
    Snapshot,
    day_changes,
    diff_snapshots,
    load_snapshot,
    load_snapshots,
    snapshot_path,
    stored_changes,
)
from cvesentinel.model import CveRecord
from cvesentinel.store import _Head, _parse_head, record_line
from oracles import oracle_content_digest, oracle_load_snapshot, oracle_store_snapshot

DAYS = [date(2021, 6, 1) + timedelta(days=n) for n in range(6)]


def whole_text(snapshot: Snapshot) -> bytes:
    """The bytes of a day stored whole, as the oracle writes them."""
    with tempfile.TemporaryDirectory() as tmp:
        return oracle_store_snapshot(tmp, snapshot).read_bytes()


def blake2b(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def head_of(root, day: date) -> dict:
    """The head line of a stored day, decoded with its records left out."""
    line = snapshot_path(root, day).read_text(encoding="utf-8").split("\n", 1)[0]
    return json.loads(line + "]}")


def assert_stored(root, expected: dict[date, Snapshot], by_hand: tuple[date, ...] = ()) -> None:
    """Each stored day loads equal to ``expected`` and to the oracle's load:
    alone, in every range that starts at a stored day, which loads each day
    after its nearest earlier stored day as ``tickets`` does, and after each
    earlier stored day, so that a chain may reach the day before at any
    depth. The content digest of each day but those written ``by_hand`` is
    that of its whole text."""
    days = sorted(expected)
    assert sorted(p.name for p in (Path(root) / "snapshots").iterdir()) == [d.isoformat() for d in days]
    oracle = {day: oracle_load_snapshot(root, day) for day in days}
    loads = [(day, load_snapshot(root, day)) for day in days]
    for start, first in enumerate(days):
        loads += zip(days[start:], load_snapshots(root, days[start:]))
        loads += ((later, list(load_snapshots(root, [first, later]))[1]) for later in days[start + 1:])
    for day, loaded in loads:
        assert loaded == oracle[day] == expected[day]
        assert [repr(r) for r in loaded.records.values()] == [
            repr(r) for r in oracle[day].records.values()]
    for day in days:
        if day not in by_hand:
            assert oracle_content_digest(snapshot_path(root, day)) == blake2b(whole_text(expected[day]))
    assert gc.isenabled()


def three_days(root) -> list[Snapshot]:
    """Day 1 whole; day 2 keeps 0001, rescores 0002, drops 0003 and adds
    0004; day 3 adds 0005."""
    anvil = [cpe23("acme", "anvil")]
    first = snapshot_of("2021-06-01", [make_record("CVE-2021-0001", cpes=anvil),
                                       make_record("CVE-2021-0002", summary="flaw"),
                                       make_record("CVE-2021-0003", score=5.0)])
    second = snapshot_of("2021-06-02", [first.records["CVE-2021-0001"],
                                        make_record("CVE-2021-0002", summary="flaw", score=9.8),
                                        make_record("CVE-2021-0004", refs=["https://a"])])
    third = snapshot_of("2021-06-03", [*second.records.values(), make_record("CVE-2021-0005")])
    for snapshot in (first, second, third):
        store_snapshot(root, snapshot)
    return [first, second, third]


def two_deltas_deep(root) -> None:
    """Ten records on day 1, stored whole; days 2 and 3 each rescore one, so
    day 3 is stored as its changes to day 2, and day 2 as its changes to day 1."""
    records = {f"CVE-2021-{n:04d}": make_record(f"CVE-2021-{n:04d}") for n in range(1, 11)}
    for n, day in enumerate(DAYS[:3]):
        records[f"CVE-2021-{n + 1:04d}"] = make_record(f"CVE-2021-{n + 1:04d}", score=float(n))
        store_snapshot(root, Snapshot(day, records))
    assert [head_of(root, day).get("base") for day in DAYS[:3]] == [None, "2021-06-01", "2021-06-02"]


class TestLayout:
    def test_a_later_day_is_stored_as_its_changes(self, tmp_path):
        first, second, _ = three_days(tmp_path)
        text = snapshot_path(tmp_path, DAYS[1]).read_text(encoding="utf-8")
        lines = [json.dumps(second.records[i].to_dict(), separators=(",", ":"))
                 for i in ("CVE-2021-0002", "CVE-2021-0004")]
        head = (f'{{"date":"2021-06-02","record_count":3,"base":"2021-06-01",'
                f'"base_digest":"{blake2b(whole_text(first))}","digest":"{blake2b(whole_text(second))}",'
                f'"lines_digest":"{blake2b("".join(line + chr(10) for line in lines).encode())}",'
                f'"removed":["CVE-2021-0003"],"records":[')
        assert text == f"{head}\n{lines[0]},\n{lines[1]}\n]}}\n"
        assert json.loads(text)["records"] == [json.loads(line) for line in lines]
        assert snapshot_path(tmp_path, DAYS[0]).read_bytes() == whole_text(first)
        assert_stored(tmp_path, {s.date: s for s in three_days(tmp_path / "again")})

    def test_an_unchanged_day_is_an_empty_delta(self, tmp_path):
        first = snapshot_of("2021-06-01", [make_record("CVE-2021-0001")])
        store_snapshot(tmp_path, first)
        store_snapshot(tmp_path, snapshot_of("2021-06-02", first.records.values()))
        assert snapshot_path(tmp_path, DAYS[1]).read_text(encoding="utf-8").endswith(
            '"removed":[],"records":[\n]}\n')
        assert_stored(tmp_path, {DAYS[0]: first, DAYS[1]: snapshot_of("2021-06-02", first.records.values())})

    @pytest.mark.parametrize("layout", ["indented", "unsorted", "empty"])
    def test_the_day_after_a_day_no_delta_can_follow_is_stored_whole(self, tmp_path, layout):
        """Indented days and compact days out of id order load as before,
        but the next day is stored whole; so is the day after an empty day."""
        records = [make_record(f"CVE-2021-000{n}", score=float(n)) for n in (2, 1)]
        payload = {"date": "2021-06-01", "record_count": 2, "records": [r.to_dict() for r in records]}
        path = snapshot_path(tmp_path, DAYS[0])
        path.parent.mkdir()
        if layout == "empty":
            records = []
            store_snapshot(tmp_path, snapshot_of("2021-06-01", []))
        else:
            path.write_text(json.dumps(payload, indent=1) if layout == "indented" else compact_day(payload),
                            encoding="utf-8")
        later = snapshot_of("2021-06-02", [make_record("CVE-2021-0001", score=1.0)])
        store_snapshot(tmp_path, later)
        assert snapshot_path(tmp_path, DAYS[1]).read_bytes() == whole_text(later)
        assert_stored(tmp_path, {DAYS[0]: snapshot_of("2021-06-01", records), DAYS[1]: later},
                      by_hand=() if layout == "empty" else (DAYS[0],))

    def test_a_hand_written_compact_day_is_a_base(self, tmp_path):
        """A day written by hand in the compact layout, its scores as ints,
        is stored against as it stands: a line the new day encodes
        otherwise is a changed line."""
        records = [make_record("CVE-2021-0001"), make_record("CVE-2021-0002", score=7.5)]
        dicts = [{**records[0].to_dict(), "cvss3_base": 5}, records[1].to_dict()]
        path = snapshot_path(tmp_path, DAYS[0])
        path.parent.mkdir()
        path.write_text(compact_day({"date": "2021-06-01", "record_count": 2, "records": dicts}),
                        encoding="utf-8")
        later = snapshot_of("2021-06-02", [make_record("CVE-2021-0001", score=5), records[1]])
        store_snapshot(tmp_path, later)
        head = head_of(tmp_path, DAYS[1])
        assert head["base_digest"] == blake2b(path.read_bytes())
        assert json.loads(snapshot_path(tmp_path, DAYS[1]).read_text())["records"] == [
            later.records["CVE-2021-0001"].to_dict()]
        assert_stored(tmp_path, {DAYS[0]: load_snapshot(tmp_path, DAYS[0]), DAYS[1]: later},
                      by_hand=(DAYS[0],))

    def test_a_day_is_stored_whole_once_the_deltas_reach_the_whole_days_count(self, tmp_path):
        """Four records and two changed lines a day: the day after two
        deltas is whole, and the deltas count from it again."""
        base = [make_record(f"CVE-2021-000{n}") for n in range(1, 5)]
        days = [date(2021, 6, 1) + timedelta(days=n) for n in range(8)]
        expected = {}
        for n, day in enumerate(days):
            records = list(base)
            records[n % 4] = make_record(f"CVE-2021-000{n % 4 + 1}", score=float(n))
            expected[day] = snapshot_of(day.isoformat(), records)
            store_snapshot(tmp_path, expected[day])
        bases = [head_of(tmp_path, day).get("base") for day in days]
        assert bases == [None, "2021-06-01", "2021-06-02", None, "2021-06-04", "2021-06-05", None,
                         "2021-06-07"]
        assert_stored(tmp_path, expected)

    def test_days_that_do_not_change_are_stored_whole_now_and_then(self, tmp_path):
        """An empty delta counts too, so chains stay short."""
        for day in DAYS:
            store_snapshot(tmp_path, snapshot_of(day.isoformat(), [make_record("CVE-2021-0001")]))
        assert [head_of(tmp_path, day).get("base") for day in DAYS] == [
            None, "2021-06-01", None, "2021-06-03", None, "2021-06-05"]


class TestOverwrite:
    def test_later_deltas_are_rewritten_whole_with_their_digest(self, tmp_path):
        first, second, third = three_days(tmp_path)
        stated = head_of(tmp_path, DAYS[1])["digest"]
        third_bytes = snapshot_path(tmp_path, DAYS[2]).read_bytes()
        replaced = snapshot_of("2021-06-01", [make_record("CVE-2021-0009")])
        store_snapshot(tmp_path, replaced, overwrite=True)
        assert snapshot_path(tmp_path, DAYS[1]).read_bytes() == whole_text(second)
        assert blake2b(whole_text(second)) == stated
        assert snapshot_path(tmp_path, DAYS[2]).read_bytes() == third_bytes  # nothing cascades
        assert_stored(tmp_path, {DAYS[0]: replaced, DAYS[1]: second, DAYS[2]: third})

    def test_a_delta_overwritten_is_stored_against_its_day_before(self, tmp_path):
        first, second, third = three_days(tmp_path)
        replaced = snapshot_of("2021-06-02", [*first.records.values(), make_record("CVE-2021-0007")])
        store_snapshot(tmp_path, replaced, overwrite=True)
        assert head_of(tmp_path, DAYS[1])["removed"] == []
        assert "base" not in head_of(tmp_path, DAYS[2])
        assert_stored(tmp_path, {DAYS[0]: first, DAYS[1]: replaced, DAYS[2]: third})

    def test_days_stored_out_of_order_name_their_own_base(self, tmp_path):
        """Day 3 is stored against day 1; day 2, stored later, is stored
        against day 1 too, and overwriting day 1 rewrites both whole."""
        first, second, third = (snapshot_of(d.isoformat(), [make_record("CVE-2021-0001", score=float(n))])
                                for n, d in enumerate(DAYS[:3]))
        for snapshot in (first, third, second):
            store_snapshot(tmp_path, snapshot)
        assert [head_of(tmp_path, d).get("base") for d in DAYS[1:3]] == ["2021-06-01", "2021-06-01"]
        assert_stored(tmp_path, {DAYS[0]: first, DAYS[1]: second, DAYS[2]: third})
        store_snapshot(tmp_path, first, overwrite=True)
        assert [head_of(tmp_path, d).get("base") for d in DAYS[1:3]] == [None, None]
        assert_stored(tmp_path, {DAYS[0]: first, DAYS[1]: second, DAYS[2]: third})


class TestStoreMemory:
    def test_a_delta_is_stored_without_the_earlier_days_text(self, tmp_path):
        """Storing a day, given its lines, against a large earlier day holds
        at its peak less than a quarter of that day's file above what it
        keeps: the earlier day is read a line at a time and never decoded."""
        def records(day: int) -> dict[str, CveRecord]:
            return {f"CVE-2021-{n:04d}": make_record(
                f"CVE-2021-{n:04d}", summary=f"flaw {n} " + "in the widget " * 50,
                score=5.0 if n % 50 else day, cpes=[cpe23("acme", f"p{n}")],
                refs=[f"https://example.com/advisory/{n}/{r}" for r in range(8)])
                for n in range(1, 2001)}
        size = store_snapshot(tmp_path, Snapshot(DAYS[0], records(1))).stat().st_size
        assert size > 2 * 10**6
        later = Snapshot(DAYS[1], records(2))
        lines = {cve_id: record_line(record) for cve_id, record in later.records.items()}
        tracemalloc.start()
        try:
            path = store.store_snapshot(tmp_path, later.date, lines)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < size / 4
        assert len(json.loads(path.read_text())["records"]) == 40


class TestLoads:
    def test_a_lone_load_decodes_each_record_once(self, tmp_path, monkeypatch):
        """A day three deltas deep, loaded alone, reads its newest file
        first and builds each of its records once."""
        records = {f"CVE-2021-{n:04d}": make_record(f"CVE-2021-{n:04d}") for n in range(1, 11)}
        for n, day in enumerate(DAYS[:4]):
            records[f"CVE-2021-{n + 1:04d}"] = make_record(f"CVE-2021-{n + 1:04d}", score=float(n))
            records[f"CVE-2021-{n + 11:04d}"] = make_record(f"CVE-2021-{n + 11:04d}")
            store_snapshot(tmp_path, Snapshot(day, records))
        assert head_of(tmp_path, DAYS[3])["base"] == "2021-06-03"
        built = []
        from_dict = CveRecord.from_dict

        def counted(data, *args):
            built.append(data["id"])
            return from_dict(data, *args)

        monkeypatch.setattr(CveRecord, "from_dict", counted)
        loaded = load_snapshot(tmp_path, DAYS[3])
        assert sorted(built) == sorted(loaded.records) == sorted(records)
        assert loaded == Snapshot(DAYS[3], records)

    def test_a_load_after_a_day_deeper_in_the_chain_stops_there(self, tmp_path, monkeypatch):
        """A day three deltas above the day loaded before it builds only the
        records of those three files' lines, one removed and added again
        among them, and takes the others from the day before, in id order."""
        records = {f"CVE-2021-{n:04d}": make_record(f"CVE-2021-{n:04d}") for n in range(1, 11)}
        for n, day in enumerate(DAYS[:4]):
            records[f"CVE-2021-{n + 1:04d}"] = make_record(f"CVE-2021-{n + 1:04d}", score=float(n))
            if n == 1:
                del records["CVE-2021-0005"]
            if n == 3:
                records["CVE-2021-0005"] = make_record("CVE-2021-0005", summary="again")
            store_snapshot(tmp_path, Snapshot(day, records))
        assert [head_of(tmp_path, day).get("base") for day in DAYS[:4]] == [
            None, "2021-06-01", "2021-06-02", "2021-06-03"]
        first = load_snapshot(tmp_path, DAYS[0])
        built = []
        from_dict = CveRecord.from_dict

        def counted(data, *args):
            built.append(data["id"])
            return from_dict(data, *args)

        monkeypatch.setattr(CveRecord, "from_dict", counted)
        loaded = load_snapshot(tmp_path, DAYS[3], previous=first)
        assert sorted(built) == ["CVE-2021-0002", "CVE-2021-0003", "CVE-2021-0004", "CVE-2021-0005"]
        monkeypatch.setattr(CveRecord, "from_dict", from_dict)
        oracle = oracle_load_snapshot(tmp_path, DAYS[3])
        assert loaded == oracle == Snapshot(DAYS[3], records)
        assert [repr(r) for r in loaded.records.values()] == [repr(r) for r in oracle.records.values()]
        assert [i for i in loaded.records if loaded.records[i] is first.records.get(i)] == [
            "CVE-2021-0001", *(f"CVE-2021-{n:04d}" for n in range(6, 11))]

    def test_a_range_shares_the_records_a_delta_leaves_unchanged(self, tmp_path, monkeypatch):
        first, second, third = three_days(tmp_path)
        loaded = list(load_snapshots(tmp_path, DAYS[:3]))
        assert loaded[1].records["CVE-2021-0001"] is loaded[0].records["CVE-2021-0001"]
        assert loaded[2].records["CVE-2021-0004"] is loaded[1].records["CVE-2021-0004"]
        assert loaded[1].records["CVE-2021-0002"] is not loaded[0].records["CVE-2021-0002"]

    def test_each_link_of_a_chain_is_opened_for_its_head_once(self, tmp_path, monkeypatch):
        """A load of a day two deltas deep, and day_changes of it, open each
        file of its chain once for its head and once for its lines, and day
        1, the day stored whole, once more to digest its bytes."""
        two_deltas_deep(tmp_path)
        opened: Counter[str] = Counter()

        def counted(path, *args, **kwargs):
            opened[Path(path).name] += 1
            return open(path, *args, **kwargs)

        monkeypatch.setattr(store, "open", counted, raising=False)
        assert load_snapshot(tmp_path, DAYS[2]) == oracle_load_snapshot(tmp_path, DAYS[2])
        assert opened == {"2021-06-01": 3, "2021-06-02": 2, "2021-06-03": 2}
        opened.clear()
        assert day_changes(tmp_path, DAYS[2]).updated_cves
        assert opened == {"2021-06-01": 3, "2021-06-02": 2, "2021-06-03": 2}

    @pytest.mark.parametrize("replay", ["_content", "_sorted_lines"])
    def test_a_bug_in_the_replay_is_raised_not_retried(self, tmp_path, monkeypatch, replay):
        """A TypeError that the replay's own code raises once its lines are
        read is raised by a load, a range load and day_changes of a day two
        deltas deep: only a fault in the stored bytes sends a day to the
        load of each file decoded whole."""
        two_deltas_deep(tmp_path)
        lines = getattr(store, replay)

        def broken(*args):
            yield from lines(*args)
            raise TypeError("a bug in the replay")

        monkeypatch.setattr(store, replay, broken)
        for load in (lambda: load_snapshot(tmp_path, DAYS[2]),
                     lambda: list(load_snapshots(tmp_path, DAYS[:3])),
                     lambda: day_changes(tmp_path, DAYS[2])):
            with pytest.raises(TypeError, match="a bug in the replay"):
                load()


def stored_lines(snapshot: Snapshot) -> list[bytes]:
    """The record lines of a day stored whole, without their commas."""
    return [line.rstrip(b",") for line in whole_text(snapshot).split(b"\n")[1:-2]]


class TestSharedValues:
    """A load, and a range of loads, hold one object per distinct date and
    score, and a changed record holds the text of the day before that it
    did not change; no value changes its notation by being shared."""

    def test_records_of_one_load_share_their_dates_and_scores(self, tmp_path):
        store_snapshot(tmp_path, snapshot_of("2021-06-01", [
            make_record("CVE-2021-0001", published="2021-05-01", score=7.5),
            make_record("CVE-2021-0002", published="2021-05-01", modified="2021-05-02", score=7.5),
            make_record("CVE-2021-0003", published="2021-05-02", score=5.0)]))
        store_snapshot(tmp_path, snapshot_of("2021-06-02", [
            make_record("CVE-2021-0001", published="2021-05-01", score=7.5),
            make_record("CVE-2021-0004", published="2021-05-02", score=5.0)]))
        first, second = load_snapshots(tmp_path, DAYS[:2])
        one, two, three = first.records.values()
        assert one.published is two.published is one.last_modified
        assert two.last_modified is three.published is three.last_modified
        assert one.cvss3_base is two.cvss3_base
        new = second.records["CVE-2021-0004"]
        assert new.published is three.published and new.cvss3_base is three.cvss3_base

    def test_a_changed_record_keeps_the_text_it_did_not_change(self, tmp_path):
        refs = ["https://a", "https://b"]
        first = snapshot_of("2021-06-01", [
            make_record("CVE-2021-0001", summary="flaw in anvil", refs=refs),
            make_record("CVE-2021-0002", summary="flaw in widget", refs=refs)])
        store_snapshot(tmp_path, first)
        store_snapshot(tmp_path, snapshot_of("2021-06-02", [
            make_record("CVE-2021-0001", summary="flaw in anvil", score=9.8, refs=refs),
            make_record("CVE-2021-0002", summary="overflow in widget", refs=refs[:1])]))
        alone = load_snapshot(tmp_path, DAYS[0])
        for before, after in ((alone, load_snapshot(tmp_path, DAYS[1], previous=alone)),
                              tuple(load_snapshots(tmp_path, DAYS[:2]))):
            rescored, rewritten = (after.records[i] for i in ("CVE-2021-0001", "CVE-2021-0002"))
            kept = before.records["CVE-2021-0001"]
            assert rescored != kept
            assert rescored.id is kept.id
            assert rescored.summary is kept.summary and rescored.references is kept.references
            assert rewritten.id is before.records["CVE-2021-0002"].id
            assert rewritten.summary == "overflow in widget" and rewritten.references == ("https://a",)
            assert after == oracle_load_snapshot(tmp_path, DAYS[1])

    def test_a_delta_load_builds_one_record_per_decoded_line(self, tmp_path, monkeypatch):
        """Each line of the files above the day loaded before is built into
        one record, once: a changed record, a new one and a line equal to
        the day before's record alike."""
        records = {f"CVE-2021-{n:04d}": make_record(f"CVE-2021-{n:04d}", summary=f"flaw {n}",
                                                     refs=[f"https://{n}"]) for n in range(1, 11)}
        store_snapshot(tmp_path, Snapshot(DAYS[0], records))
        records["CVE-2021-0001"] = make_record("CVE-2021-0001", summary="flaw 1", score=5.0,
                                               refs=["https://1"])
        records["CVE-2021-0002"] = make_record("CVE-2021-0002", summary="changed")
        records["CVE-2021-0011"] = make_record("CVE-2021-0011")
        del records["CVE-2021-0003"]
        store_snapshot(tmp_path, Snapshot(DAYS[1], records))
        records["CVE-2021-0001"] = make_record("CVE-2021-0001", summary="flaw 1", refs=["https://1"])
        store_snapshot(tmp_path, Snapshot(DAYS[2], records))  # 0001 as on the first day again
        assert head_of(tmp_path, DAYS[2])["base"] == "2021-06-02"
        # the replay decodes the newest line of each id its files hold
        lines = {record["id"] for day in DAYS[1:3]
                 for record in json.loads(snapshot_path(tmp_path, day).read_text())["records"]}
        assert lines == {"CVE-2021-0001", "CVE-2021-0002", "CVE-2021-0011"}
        first = load_snapshot(tmp_path, DAYS[0])
        built = []
        post_init = CveRecord.__post_init__

        def counted(record):
            built.append(record.id)
            post_init(record)

        monkeypatch.setattr(CveRecord, "__post_init__", counted)
        loaded = load_snapshot(tmp_path, DAYS[2], previous=first)
        assert sorted(built) == sorted(lines)
        assert loaded.records["CVE-2021-0001"] is first.records["CVE-2021-0001"]
        assert loaded == Snapshot(DAYS[2], records)

    def test_a_score_keeps_its_type_and_notation(self, tmp_path):
        """-0.0, 0.0, a hand-written 1 and 1.0 each load as their own
        Decimal, and the day stored again from them writes each one as the
        store writes it: only the hand-written 1 becomes 1.0."""
        values = [-0.0, 0.0, 1, 1.0]
        dicts = [{**make_record(f"CVE-2021-000{n}").to_dict(), "cvss3_base": value}
                 for n, value in enumerate(values, 1)]
        path = snapshot_path(tmp_path, DAYS[0])
        path.parent.mkdir()
        path.write_text(compact_day({"date": "2021-06-01", "record_count": 4, "records": dicts}),
                        encoding="utf-8")
        expected = [Decimal(str(value)).as_tuple() for value in values]
        for loaded in (load_snapshot(tmp_path, DAYS[0]), *load_snapshots(tmp_path, DAYS[:1])):
            assert [r.cvss3_base.as_tuple() for r in loaded.records.values()] == expected
            assert whole_text(loaded).decode() == compact_day({
                "date": "2021-06-01", "record_count": 4,
                "records": [{**d, "cvss3_base": float(d["cvss3_base"])} for d in dicts]})
        store_snapshot(tmp_path, Snapshot(DAYS[1], loaded.records))
        assert [r["id"] for r in json.loads(snapshot_path(tmp_path, DAYS[1]).read_text())["records"]] == [
            "CVE-2021-0003"]
        assert [r.cvss3_base.as_tuple() for r in load_snapshot(tmp_path, DAYS[1]).records.values()] == [
            *expected[:2], Decimal("1.0").as_tuple(), expected[3]]

    def test_a_date_that_is_not_a_string_finds_no_score(self, tmp_path, capsys):
        """A score of 7.5 parsed before a "published" of 7.5 leaves that
        record as corrupt as it was: the day exits 4 through stats."""
        good = make_record("CVE-2021-0001", score=7.5).to_dict()
        bad = {**make_record("CVE-2021-0002").to_dict(), "published": 7.5}
        path = snapshot_path(tmp_path, DAYS[0])
        path.parent.mkdir()
        path.write_text(compact_day({"date": "2021-06-01", "record_count": 2, "records": [good, bad]}),
                        encoding="utf-8")
        argv = ["stats", "--report", "daily", "--from", "2021-06-01", "--to", "2021-06-01",
                "--store", str(tmp_path)]
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            f"error: corrupt snapshot file {path}: fromisoformat: argument must be str\n")


_DIGESTS = st.binary(min_size=16, max_size=16).map(bytes.hex)
_COUNTS = st.integers(min_value=0, max_value=10**18)
_HEADS = st.one_of(
    st.tuples(st.dates(), _COUNTS),
    # a delta's lines digest, which deltas stored before it existed lack
    st.tuples(st.dates(), _COUNTS, st.dates(), _DIGESTS, _DIGESTS, st.none() | _DIGESTS,
              st.lists(st.text()).map(tuple)),
).map(lambda fields: _Head(*fields))


@given(_HEADS)
def test_a_head_reads_back_as_its_line(head):
    assert _parse_head(head.line() + b"\n") == head


# Hand edits of a stored day's head line that keep what it says, or give
# its count another type or its digest another case: each takes the line,
# the day's date and its record count. "as-written" changes nothing; the
# last two edit what only a delta's head holds.
HEAD_FORMS = {
    "as-written": lambda head, day, n: head,
    "keys-reordered": lambda head, day, n: head.replace(
        f'{{"date":"{day}","record_count":{n},', f'{{"record_count":{n},"date":"{day}",'),
    "space-after-colon": lambda head, day, n: head.replace(f'"date":"{day}"', f'"date": "{day}"'),
    "count-float": lambda head, day, n: head.replace(f'"record_count":{n},', f'"record_count":{n}.0,'),
    "count-string": lambda head, day, n: head.replace(f'"record_count":{n},', f'"record_count":"{n}",'),
    "count-true": lambda head, day, n: head.replace(f'"record_count":{n},', '"record_count":true,'),
    "count-negative": lambda head, day, n: head.replace(f'"record_count":{n},', '"record_count":-1,'),
    "date-without-hyphens": lambda head, day, n: head.replace(
        f'"date":"{day}"', f'"date":"{day.replace("-", "")}"'),
    "digest-uppercase": lambda head, day, n: re.sub(
        '("digest":")([0-9a-f]{32})', lambda m: m[1] + m[2].upper(), head),
    "removed-spaced": lambda head, day, n: head.replace('"removed":[', '"removed":[ '),
}
DELTA_ONLY = ("digest-uppercase", "removed-spaced")


def loaded_or_error(load, root, day: date):
    """A day's records by id with their reprs, or the integrity error's message."""
    try:
        return {cve_id: repr(record) for cve_id, record in load(root, day).records.items()}
    except SnapshotIntegrityError as exc:
        return str(exc)


@pytest.mark.parametrize("form, edited", [
    (form, edited) for form in HEAD_FORMS for edited in ("whole", "delta")
    if edited == "delta" or form not in DELTA_ONLY])
def test_a_head_in_another_form_loads_whole_and_the_next_day_is_stored_whole(
        tmp_path, capsys, form, edited):
    """The edited day loads as the oracle loads it, records or error; the
    next ingest exits 0 and stores its day whole, where after an unedited
    day it stores a delta. Five records keep the whole-day rule away."""
    records = {f"CVE-2021-000{n}": make_record(f"CVE-2021-000{n}") for n in range(1, 6)}
    store_snapshot(tmp_path, Snapshot(DAYS[0], records))
    day = DAYS[0]
    if edited == "delta":
        records["CVE-2021-0002"] = make_record("CVE-2021-0002", score=9.8)
        day = DAYS[1]
        store_snapshot(tmp_path, Snapshot(day, records))
    path = snapshot_path(tmp_path, day)
    head, rest = path.read_text(encoding="utf-8").split("\n", 1)
    assert ("base" in json.loads(head + "]}")) == (edited == "delta")
    edited_head = HEAD_FORMS[form](head, day.isoformat(), 5)
    assert (edited_head == head) == (form == "as-written")
    path.write_text(edited_head + "\n" + rest, encoding="utf-8")
    following = day + timedelta(days=1)
    feed = tmp_path / "feed.json"
    feed.write_bytes(feed_bytes([feed_item(f"CVE-2021-000{n}", score=7.5 if n == 3 else None)
                                 for n in range(1, 6)]))
    assert main(["ingest", str(feed), "--date", following.isoformat(), "--store", str(tmp_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert ("base" in head_of(tmp_path, following)) == (form == "as-written")
    for loaded in (day, following):
        assert loaded_or_error(load_snapshot, tmp_path, loaded) == loaded_or_error(
            oracle_load_snapshot, tmp_path, loaded)


@pytest.mark.parametrize("form", HEAD_FORMS)
def test_a_delta_whose_base_head_is_edited_into_another_form(tmp_path, form):
    """A head in another form states no digest, so its day's content is
    digested from its bytes, which no longer match what the day stored
    against it names: that day exits 4, as through the oracle."""
    records = {f"CVE-2021-000{n}": make_record(f"CVE-2021-000{n}") for n in range(1, 6)}
    store_snapshot(tmp_path, Snapshot(DAYS[0], records))
    del records["CVE-2021-0005"]
    store_snapshot(tmp_path, Snapshot(DAYS[1], records))
    third = Snapshot(DAYS[2], {**records, "CVE-2021-0001": make_record("CVE-2021-0001", score=1.0)})
    store_snapshot(tmp_path, third)
    assert head_of(tmp_path, DAYS[2])["base"] == "2021-06-02"
    path = snapshot_path(tmp_path, DAYS[1])
    head, rest = path.read_text(encoding="utf-8").split("\n", 1)
    path.write_text(HEAD_FORMS[form](head, "2021-06-02", 4) + "\n" + rest, encoding="utf-8")
    loaded = loaded_or_error(load_snapshot, tmp_path, DAYS[2])
    assert loaded == loaded_or_error(oracle_load_snapshot, tmp_path, DAYS[2])
    assert loaded == ({cve_id: repr(record) for cve_id, record in third.records.items()}
                      if form == "as-written" else
                      f"snapshot file {snapshot_path(tmp_path, DAYS[2])} (changes to 2021-06-02): "
                      "the content of 2021-06-02 has changed since")


def spied_loads(monkeypatch) -> list[date]:
    """The days store.load_snapshot is called for from now on, in order."""
    loads: list[date] = []
    load = store.load_snapshot

    def spy(root, day, **kwargs):
        loads.append(day)
        return load(root, day, **kwargs)

    monkeypatch.setattr(store, "load_snapshot", spy)
    return loads


def assert_changes_loaded(root, day: date, monkeypatch) -> None:
    """day_changes of ``day`` loads the nearest earlier stored day and then
    ``day``, and gives what diff_snapshots over the oracle's loads of the
    two days gives: their diff, or the integrity error of the load that fails."""
    previous = store.find_previous_date(root, day)

    def diff_or_error(load):
        try:
            return diff_snapshots(load(root, previous), load(root, day))
        except SnapshotIntegrityError as exc:
            return str(exc)

    expected = diff_or_error(oracle_load_snapshot)
    loads = spied_loads(monkeypatch)
    try:
        assert day_changes(root, day) == expected
    except SnapshotIntegrityError as exc:
        assert str(exc) == expected
    assert loads == [previous, day]


def test_a_delta_stored_before_lines_digests_loads_with_its_lines_unchecked(tmp_path, monkeypatch):
    """A delta whose head states no lines digest, as deltas stored before it
    existed, loads as before: a line edited in it loads as edited, on its
    day and on the later delta replayed through it. day_changes of either
    day loads both days, as tickets did before it."""
    records = {f"CVE-2021-000{n}": make_record(f"CVE-2021-000{n}") for n in range(1, 6)}
    expected = {}
    for day, rescored, score in zip(DAYS[:3], ["CVE-2021-0003", "CVE-2021-0001", "CVE-2021-0002"],
                                    [None, 5.0, 7.5]):
        records[rescored] = make_record(rescored, score=score)
        expected[day] = Snapshot(day, records)
        store_snapshot(tmp_path, expected[day])
    path = snapshot_path(tmp_path, DAYS[1])
    path.write_text(re.sub('"lines_digest":"[0-9a-f]{32}",', "", path.read_text(encoding="utf-8")),
                    encoding="utf-8")
    assert "lines_digest" not in head_of(tmp_path, DAYS[1])
    later = head_of(tmp_path, DAYS[2])
    assert later["base"] == "2021-06-02" and "lines_digest" in later
    assert_stored(tmp_path, expected)
    for day in DAYS[1:3]:
        assert_changes_loaded(tmp_path, day, monkeypatch)
    path.write_text(path.read_text(encoding="utf-8").replace('"cvss3_base":5.0', '"cvss3_base":9.8', 1),
                    encoding="utf-8")
    for day in DAYS[1:3]:
        for load in (load_snapshot, oracle_load_snapshot):
            assert load(tmp_path, day).records["CVE-2021-0001"].cvss3_base == Decimal("9.8")


def test_a_delta_line_that_decodes_to_another_id_is_left_to_a_load(tmp_path, monkeypatch):
    """A line of day 2's delta that begins with its id but decodes to a
    record of another id (a second "id" key, escaped), its lines digest
    stated anew: day_changes loads both days."""
    three_days(tmp_path)
    path = snapshot_path(tmp_path, DAYS[1])
    head, *lines, tail = path.read_text(encoding="utf-8").split("\n")[:-1]
    assert lines[-1].startswith('{"id":"CVE-2021-0004",')
    lines[-1] = lines[-1][:-1] + ',"\\u0069d":"CVE-2021-0009"}'
    stated = blake2b("".join(line.removesuffix(",") + "\n" for line in lines).encode())
    head = re.sub('"lines_digest":"[0-9a-f]{32}"', f'"lines_digest":"{stated}"', head)
    path.write_text("\n".join([head, *lines, tail, ""]), encoding="utf-8")
    assert json.loads(path.read_text(encoding="utf-8"))["records"][-1]["id"] == "CVE-2021-0009"
    assert_changes_loaded(tmp_path, DAYS[1], monkeypatch)


@pytest.mark.parametrize("day_3_rescores", [False, True])
def test_an_edited_delta_line_fails_each_load_that_takes_a_line_of_that_delta(tmp_path, monkeypatch,
                                                                              day_3_rescores):
    """Day 2 rescores CVE-2021-0001 to 5.0, and its line is then edited to
    9.8, which still decodes. A load of day 2 exits as the oracle does, and
    so does a load of day 3 that takes that line. When day 3 rescores the
    CVE itself, its load takes no line of day 2 and succeeds, while the
    oracle, which reads every file whole, is stricter. The ids of day 2
    are read from its lines, so day_changes of day 3 loads day 2, which
    names the fault."""
    records = {f"CVE-2021-000{n}": make_record(f"CVE-2021-000{n}") for n in range(1, 4)}
    stored = {}
    for day, score in zip(DAYS[:3], [None, 5.0, 7.5 if day_3_rescores else 5.0]):
        records["CVE-2021-0001"] = make_record("CVE-2021-0001", score=score)
        if day == DAYS[2]:
            records["CVE-2021-0004"] = make_record("CVE-2021-0004")
        stored[day] = Snapshot(day, records)
        store_snapshot(tmp_path, stored[day])
    assert [head_of(tmp_path, day).get("base") for day in DAYS[:3]] == [None, "2021-06-01",
                                                                        "2021-06-02"]
    path = snapshot_path(tmp_path, DAYS[1])
    path.write_text(path.read_text(encoding="utf-8").replace('"cvss3_base":5.0', '"cvss3_base":9.8'),
                    encoding="utf-8")
    message = f"snapshot file {path} (changes to 2021-06-01) holds other lines than it states"
    for day in DAYS[1:3]:
        with pytest.raises(SnapshotIntegrityError) as oracle:
            oracle_load_snapshot(tmp_path, day)
        assert str(oracle.value) == message
    with pytest.raises(SnapshotIntegrityError) as day_2:
        load_snapshot(tmp_path, DAYS[1])
    assert str(day_2.value) == message
    if day_3_rescores:
        assert load_snapshot(tmp_path, DAYS[2]) == stored[DAYS[2]]
    else:
        with pytest.raises(SnapshotIntegrityError) as day_3:
            load_snapshot(tmp_path, DAYS[2])
        assert str(day_3.value) == message
    loads = spied_loads(monkeypatch)
    with pytest.raises(SnapshotIntegrityError) as changes:
        day_changes(tmp_path, DAYS[2])
    assert str(changes.value) == message
    assert loads == [DAYS[1]]


# A delta day stored against a whole day, broken in one way each: the
# edit of its store, and the error that names both days.
BREAKS = {
    "missing-base": (lambda root, text: snapshot_path(root, DAYS[0]).unlink(),
                     "no earlier snapshot stored for 2021-06-01"),
    "replaced-base": (lambda root, text: snapshot_path(root, DAYS[0]).write_text(compact_day(
        {"date": "2021-06-01", "record_count": 1, "records": [make_record("CVE-2021-0003").to_dict()]}),
        encoding="utf-8"), "the content of 2021-06-01 has changed since"),
    "removed-id-the-base-lacks": (
        lambda root, text: text.replace('"removed":["CVE-2021-0003"]', '"removed":["CVE-2021-0009"]'),
        "removes CVE-2021-0009, which 2021-06-01 does not hold"),
    # three removals that a check of the replayed record count alone lets through
    "removed-id-added-beside": (
        lambda root, text: text.replace('"removed":["CVE-2021-0003"]',
                                        '"removed":["CVE-2021-0003","CVE-2021-0009"]'),
        "removes CVE-2021-0009, which 2021-06-01 does not hold"),
    "removed-id-it-holds": (  # the count the replay reaches when the removal wins
        lambda root, text: text.replace('"record_count":3', '"record_count":2', 1).replace(
            '"removed":["CVE-2021-0003"]', '"removed":["CVE-2021-0002","CVE-2021-0003"]'),
        "repeats a CVE id"),
    "removed-twice": (
        lambda root, text: text.replace('"removed":["CVE-2021-0003"]',
                                        '"removed":["CVE-2021-0003","CVE-2021-0003"]'),
        "repeats a CVE id"),
    "repeated-id": (lambda root, text: text.replace("\n", "\n" + text.split("\n")[1] + "\n", 1),
                    "repeats a CVE id"),
    "bad-record-line": (lambda root, text: text.replace('"published":"2021-06-01"', '"published":"2021-13-01"', 1),
                        "corrupt snapshot file "),
    "record-count": (lambda root, text: text.replace('"record_count":3', '"record_count":4', 1),
                     "declares 4 records but holds 3"),
    "stamped-another-day": (
        lambda root, text: text.replace('"date":"2021-06-02"', '"date":"2021-06-04"', 1),
        "(changes to 2021-06-01) is stamped 2021-06-04"),
    # a line that still decodes, caught by the digest of the delta's lines
    "edited-line": (lambda root, text: text.replace('"cvss3_base":9.8', '"cvss3_base":5.0', 1),
                    "holds other lines than it states"),
}


def break_store(root, name: str) -> None:
    three_days(root)
    snapshot_path(root, DAYS[2]).unlink()
    path = snapshot_path(root, DAYS[1])
    edited = BREAKS[name][0](root, path.read_text(encoding="utf-8"))
    if isinstance(edited, str):
        path.write_text(edited, encoding="utf-8")


class TestBrokenChains:
    @pytest.mark.parametrize("name", BREAKS)
    def test_each_break_is_an_integrity_error_naming_both_days(self, tmp_path, name):
        break_store(tmp_path, name)
        with pytest.raises(SnapshotIntegrityError) as oracle:
            oracle_load_snapshot(tmp_path, DAYS[1])
        message = str(oracle.value)
        assert BREAKS[name][1] in message
        assert "2021-06-01" in message and "2021-06-02" in message
        with pytest.raises(SnapshotIntegrityError) as alone:
            load_snapshot(tmp_path, DAYS[1])
        assert str(alone.value) == message
        if name != "missing-base":
            loads = load_snapshots(tmp_path, DAYS[:2])
            next(loads)
            with pytest.raises(SnapshotIntegrityError) as in_range:
                next(loads)
            assert str(in_range.value) == message
        assert gc.isenabled()


# --- a model of the store under drawn operations ---------------------------

_IDS = [f"CVE-2021-{n:04d}" for n in range(1, 7)]
_RECORDS = st.builds(
    make_record,
    st.sampled_from(_IDS),
    summary=st.sampled_from(["", "flaw", "flaw in acme anvil"]),
    score=st.sampled_from([None, -0.0, 0.0, 5.0, 9.8]),
    cpes=st.lists(st.sampled_from([cpe23("acme", "anvil"), cpe23("px", "x")]), max_size=2, unique=True),
)
_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.sampled_from(DAYS), st.lists(_RECORDS, max_size=6)),
        st.tuples(st.just("delete-newest")),
    ),
    min_size=1,
    max_size=8,
)


def run_operations(root, operations) -> Iterator[dict[date, Snapshot]]:
    """Apply each drawn operation to the store at ``root``, yielding the
    model of the stored days after each."""
    model: dict[date, Snapshot] = {}
    for operation in operations:
        if operation[0] == "store":
            _, day, records = operation
            model[day] = snapshot_of(day.isoformat(), records)
            store_snapshot(root, model[day], overwrite=True)
        elif model:
            newest = max(model)
            snapshot_path(root, newest).unlink()
            del model[newest]
        yield model


@given(_OPERATIONS)
@settings(max_examples=80, deadline=None)
def test_the_store_loads_as_its_model_after_every_operation(operations):
    """Days stored in any order, overwritten while later deltas name them,
    the newest deleted, records removed and days left empty, with churn
    enough for whole days: after each step every stored day loads equal to
    the model, alone, in a range and through the oracle, each load replayed
    from its lines, none left to the load of each file decoded whole."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        whole_loads: list[date] = []
        load_whole = store._load_whole

        def spy(root, day, memo):
            whole_loads.append(day)
            return load_whole(root, day, memo)

        patch.setattr(store, "_load_whole", spy)
        for model in run_operations(tmp, operations):
            if model:
                assert_stored(tmp, model)
            assert whole_loads == []


@given(_OPERATIONS)
@settings(max_examples=60, deadline=None)
def test_a_range_load_re_encodes_to_the_stored_lines(operations):
    """After each step, every day of one range load over all stored days,
    whose records share one object per date and score, equals the oracle's
    load, and each of its records encodes to its stored line byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        for model in run_operations(tmp, operations):
            days = sorted(model)
            for day, loaded in zip(days, load_snapshots(tmp, days), strict=True):
                oracle = oracle_load_snapshot(tmp, day)
                assert loaded == oracle
                assert [repr(r) for r in loaded.records.values()] == [
                    repr(r) for r in oracle.records.values()]
                assert [record_line(loaded.records[i]) for i in sorted(loaded.records)] == stored_lines(
                    model[day])


@given(_OPERATIONS)
@settings(max_examples=60, deadline=None)
def test_a_delta_names_its_new_and_changed_records(operations):
    """After each step, for each stored day with an earlier stored day,
    day_changes gives the new records of diff_snapshots over the oracle's
    loads of the two days. A delta stored against the nearest earlier day
    gives as changed the records of the ids whose line changed, those of the
    diff among them, with stored_changes' counts, and loads no day; any
    other day gives the diff itself, from loads of both days."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        loads = spied_loads(patch)
        for model in run_operations(tmp, operations):
            for base, day in pairwise(sorted(model)):
                loads.clear()
                changes = day_changes(tmp, day)
                older, newer = oracle_load_snapshot(tmp, base), oracle_load_snapshot(tmp, day)
                diff = diff_snapshots(older, newer)
                assert (changes.date_from, changes.date_to, changes.new_cves) == (base, day, diff.new_cves)
                stored = stored_changes(snapshot_path(tmp, day))
                if stored is None or stored[0] != base:
                    assert changes == diff and loads == [base, day]
                    continue
                assert loads == []
                changed = [record.id for record in changes.updated_cves]
                assert changed == sorted(
                    i for i in newer.records
                    if i in older.records and record_line(newer.records[i]) != record_line(older.records[i]))
                assert {r.id for r in diff.updated_cves} <= set(changed)
                assert all(record == newer.records[record.id] for record in changes.updated_cves)
                removed = len(older.records) - len(newer.records) + len(diff.new_cves)
                assert stored == (base, len(diff.new_cves), len(changed), removed)
