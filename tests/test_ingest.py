"""Feed, dictionary, and inventory parsing; snapshot store and diffing."""

from __future__ import annotations

import gzip
import json
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cpe23, feed_bytes, feed_item, make_record, snapshot_of
from cvesentinel.errors import (
    FeedParseError,
    FormatError,
    OrderingError,
    SnapshotExistsError,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
)
from cvesentinel.ingest import (
    Snapshot,
    diff_snapshots,
    find_previous_date,
    list_snapshot_dates,
    load_snapshot,
    merge_records,
    parse_asset_inventory,
    parse_cpe_dictionary,
    parse_feed,
    read_feed_bytes,
    store_snapshot,
)


class TestParseFeed:
    def test_base_score_extracted(self):
        result = parse_feed(feed_bytes([feed_item("CVE-2021-0001", score=9.8)]))
        assert len(result.records) == 1
        assert float(result.records[0].cvss3_base) == 9.8

    def test_empty_nodes_give_empty_cpe_list(self):
        result = parse_feed(feed_bytes([feed_item("CVE-2021-0001", cpes=[])]))
        assert result.records[0].cpe_list == ()

    def test_three_items_one_without_impact(self):
        items = [
            feed_item("CVE-2021-0001", score=9.8),
            feed_item("CVE-2021-0002"),
            feed_item("CVE-2021-0003", score=3.1),
        ]
        result = parse_feed(feed_bytes(items))
        assert len(result.records) == 3
        assert sum(1 for r in result.records if r.cvss3_base is None) == 1

    def test_summary_takes_first_english_description(self):
        item = feed_item("CVE-2021-0001")
        item["cve"]["description"]["description_data"] = [
            {"lang": "es", "value": "hola"},
            {"lang": "en", "value": "first"},
            {"lang": "en", "value": "second"},
        ]
        result = parse_feed(feed_bytes([item]))
        assert result.records[0].summary == "first"

    def test_nested_configuration_children_gathered(self):
        item = feed_item("CVE-2021-0001")
        item["configurations"]["nodes"] = [
            {
                "operator": "AND",
                "cpe_match": [{"vulnerable": True, "cpe23Uri": cpe23("acme", "anvil")}],
                "children": [
                    {
                        "operator": "OR",
                        "cpe_match": [{"vulnerable": False, "cpe23Uri": cpe23("acme", "rocket")}],
                    }
                ],
            }
        ]
        result = parse_feed(feed_bytes([item]))
        assert [u.product for u in result.records[0].cpe_list] == ["anvil", "rocket"]

    def test_references_and_dates(self):
        item = feed_item(
            "CVE-2021-0001",
            published="2021-06-01T10:15Z",
            modified="2021-06-03T00:00Z",
            refs=["https://a.example", "https://b.example"],
        )
        record = parse_feed(feed_bytes([item])).records[0]
        assert record.published == date(2021, 6, 1)
        assert record.last_modified == date(2021, 6, 3)
        assert record.references == ("https://a.example", "https://b.example")

    def test_missing_id_rejected_others_kept(self):
        items = [feed_item(None), feed_item("CVE-2021-0002")]
        result = parse_feed(feed_bytes(items))
        assert len(result.records) == 1
        assert len(result.rejects) == 1
        assert "CVE id" in result.rejects[0].reason

    def test_missing_published_date_rejected(self):
        result = parse_feed(feed_bytes([feed_item("CVE-2021-0001", published=None)]))
        assert not result.records
        assert result.rejects[0].cve_id == "CVE-2021-0001"

    def test_item_count_invariant(self):
        items = [
            feed_item("CVE-2021-0001"),
            feed_item(None),
            feed_item("CVE-2021-0003", published=None),
            feed_item("bogus-id"),
        ]
        result = parse_feed(feed_bytes(items))
        assert len(result.records) + len(result.rejects) == len(items)

    def test_malformed_json_reports_offset(self):
        with pytest.raises(FeedParseError) as info:
            parse_feed(b'{"CVE_Items": [}')
        assert info.value.offset is not None

    def test_missing_items_array(self):
        with pytest.raises(FeedParseError):
            parse_feed(b'{"foo": 1}')

    def test_gzip_transparent(self, tmp_path):
        payload = feed_bytes([feed_item("CVE-2021-0001")])
        path = tmp_path / "feed.json.gz"
        path.write_bytes(gzip.compress(payload))
        assert read_feed_bytes(path) == payload

    @given(st.lists(st.sampled_from(["ok", "no_id", "no_date", "bad_id"]), max_size=12))
    def test_no_item_dropped_property(self, kinds):
        items = []
        for i, kind in enumerate(kinds):
            if kind == "ok":
                items.append(feed_item(f"CVE-2021-{i + 1:04d}"))
            elif kind == "no_id":
                items.append(feed_item(None))
            elif kind == "no_date":
                items.append(feed_item(f"CVE-2021-{i + 1:04d}", published=None))
            else:
                items.append(feed_item(f"BAD-{i}"))
        result = parse_feed(feed_bytes(items))
        assert len(result.records) + len(result.rejects) == len(items)
        assert len(result.records) == kinds.count("ok")


class TestParseCpeDictionary:
    def test_geotab_entry(self):
        data = json.dumps([{"cpe23": "cpe:2.3:a:geotab:r2d2:3.0.1.16:*:*:*:*:*:*:*"}])
        dictionary = parse_cpe_dictionary(data)
        assert dictionary.pairs == {("geotab", "r2d2")}
        assert dictionary.skipped == 0

    def test_empty_input(self):
        assert parse_cpe_dictionary(b"").pairs == frozenset()
        assert parse_cpe_dictionary(b"[]").pairs == frozenset()

    def test_duplicates_collapsed(self):
        raws = [
            cpe23("acme", "anvil", "1.0"),
            cpe23("acme", "anvil", "1.0"),
            cpe23("acme", "anvil", "2.0"),
            cpe23("acme", "rocket"),
            cpe23("acme", "rocket"),
        ]
        dictionary = parse_cpe_dictionary(json.dumps([{"cpe23": r} for r in raws]))
        assert dictionary.pairs == {("acme", "anvil"), ("acme", "rocket")}

    @pytest.mark.parametrize("versions", [1, 2, 50])
    def test_versions_of_one_product_make_one_pair(self, versions):
        raws = [cpe23("acme", "anvil", f"1.{i}") for i in range(versions)]
        dictionary = parse_cpe_dictionary(json.dumps([{"cpe23": r} for r in raws]))
        assert dictionary.pairs == {("acme", "anvil")}
        assert dictionary.skipped == 0

    def test_unparseable_entries_counted(self):
        data = json.dumps(
            [
                {"cpe23": cpe23("acme", "anvil")},
                {"cpe23": "garbage"},
                {"cpe23": cpe23("acme", "3.0")},  # product standardizes to empty
            ]
        )
        dictionary = parse_cpe_dictionary(data)
        assert dictionary.pairs == {("acme", "anvil")}
        assert dictionary.skipped == 2

    def test_official_xml_layout(self):
        xml = """<?xml version="1.0" encoding="UTF-8"?>
        <cpe-list xmlns="http://cpe.mitre.org/dictionary/2.0"
                  xmlns:cpe-23="http://scap.nist.gov/schema/cpe-extension/2.3">
          <cpe-item name="cpe:/a:geotab:r2d2:3.0.1.16">
            <title xml:lang="en-US">Geotab R2D2 3.0.1.16</title>
            <cpe-23:cpe23-item name="cpe:2.3:a:geotab:r2d2:3.0.1.16:*:*:*:*:*:*:*"/>
          </cpe-item>
          <cpe-item name="cpe:/a:microsoft:hyper_v">
            <cpe-23:cpe23-item name="cpe:2.3:a:microsoft:hyper_v:-:*:*:*:*:*:*:*"/>
          </cpe-item>
        </cpe-list>"""
        dictionary = parse_cpe_dictionary(xml)
        assert dictionary.pairs == {("geotab", "r2d2"), ("microsoft", "hyper v")}

    def test_indexes_consistent(self):
        raws = [cpe23("acme", "anvil"), cpe23("geotab", "r2d2"), cpe23("inc", "rocket")]
        dictionary = parse_cpe_dictionary(json.dumps([{"cpe23": r} for r in raws]))
        # the vendor "inc" is a stop-word: its pair stays, its empty vendor name does not
        assert ("", "rocket") in dictionary.pairs
        assert dictionary.vendor_names == {"acme", "geotab"}
        assert dictionary.product_names == {"anvil", "r2d2", "rocket"}

    def test_non_utf8_is_a_format_error(self):
        with pytest.raises(FormatError):
            parse_cpe_dictionary(b"[\xff]")

    def test_unrecognized_format(self):
        with pytest.raises(FormatError):
            parse_cpe_dictionary(b"name,vendor\n")


class TestParseAssetInventory:
    def test_geotab_row(self, inventory_csv):
        result = parse_asset_inventory(inventory_csv)
        wfn = result.assets[0].wfn
        assert (wfn.name, wfn.vendor, wfn.version) == ("r2d2", "geotab", "3.0.1.16")

    def test_cpe_column_wins_over_raw(self, inventory_csv):
        asset = parse_asset_inventory(inventory_csv).assets[2]
        assert asset.wfn.name == "windows"
        assert asset.wfn.vendor == "microsoft"
        assert asset.wfn.version == "10"

    def test_empty_name_row_rejected_with_number(self):
        csv_data = b"asset_id,product_name,vendor_name,version,cpe23\nA2,(),Acme,1.0,\n"
        result = parse_asset_inventory(csv_data)
        assert not result.assets
        assert result.rejects[0].row == 2

    def test_missing_column_is_file_level(self):
        with pytest.raises(FormatError):
            parse_asset_inventory(b"asset_id,product_name,vendor_name,version\nA1,x,y,1\n")

    def test_byte_order_mark_tolerated(self, inventory_csv):
        result = parse_asset_inventory(b"\xef\xbb\xbf" + inventory_csv)
        assert result.assets[0].wfn.name == "r2d2"

    def test_non_utf8_is_a_format_error(self, inventory_csv):
        with pytest.raises(FormatError):
            parse_asset_inventory(inventory_csv.replace(b"Geotab", b"G\xe9otab"))


class TestSnapshotStore:
    def test_store_then_load_round_trip(self, tmp_path):
        snapshot = snapshot_of(
            "2021-06-01",
            [make_record("CVE-2021-0001", score=9.8), make_record("CVE-2021-0002")],
        )
        store_snapshot(tmp_path, snapshot)
        assert load_snapshot(tmp_path, date(2021, 6, 1)).records == snapshot.records

    def test_load_absent_date(self, tmp_path):
        with pytest.raises(SnapshotNotFoundError):
            load_snapshot(tmp_path, date(2021, 6, 1))

    def test_existing_date_needs_overwrite(self, tmp_path):
        snapshot = snapshot_of("2021-06-01", [make_record("CVE-2021-0001")])
        store_snapshot(tmp_path, snapshot)
        with pytest.raises(SnapshotExistsError):
            store_snapshot(tmp_path, snapshot)
        store_snapshot(tmp_path, snapshot, overwrite=True)

    def test_list_dates_ascending(self, tmp_path):
        store_snapshot(tmp_path, snapshot_of("2021-06-02", [make_record("CVE-2021-0001")]))
        store_snapshot(tmp_path, snapshot_of("2021-06-01", [make_record("CVE-2021-0001")]))
        assert list_snapshot_dates(tmp_path) == [date(2021, 6, 1), date(2021, 6, 2)]

    def test_find_previous(self, tmp_path):
        for day in ("2021-06-01", "2021-06-03"):
            store_snapshot(tmp_path, snapshot_of(day, [make_record("CVE-2021-0001")]))
        assert find_previous_date(tmp_path, date(2021, 6, 5)) == date(2021, 6, 3)
        assert find_previous_date(tmp_path, date(2021, 6, 1)) is None

    def test_corrupt_file_is_integrity_error(self, tmp_path):
        snapshot = snapshot_of("2021-06-01", [make_record("CVE-2021-0001")])
        path = store_snapshot(tmp_path, snapshot)
        path.write_text("{not json")
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(tmp_path, date(2021, 6, 1))

    def test_count_mismatch_is_integrity_error(self, tmp_path):
        snapshot = snapshot_of("2021-06-01", [make_record("CVE-2021-0001")])
        path = store_snapshot(tmp_path, snapshot)
        payload = json.loads(path.read_text())
        payload["record_count"] = 5
        path.write_text(json.dumps(payload))
        with pytest.raises(SnapshotIntegrityError):
            load_snapshot(tmp_path, date(2021, 6, 1))


class TestDiffSnapshots:
    def test_identical_snapshots_empty_diff(self):
        records = [make_record("CVE-2021-0001")]
        diff = diff_snapshots(snapshot_of("2021-06-01", records), snapshot_of("2021-06-02", records))
        assert diff.new_cves == ()
        assert diff.updated_cves == ()

    def test_single_insertion(self):
        older = snapshot_of("2021-06-01", [make_record("CVE-2021-0001")])
        newer = snapshot_of(
            "2021-06-02", [make_record("CVE-2021-0001"), make_record("CVE-2021-0002")]
        )
        diff = diff_snapshots(older, newer)
        assert [r.id for r in diff.new_cves] == ["CVE-2021-0002"]

    def test_score_gain_appears_as_update(self):
        older = snapshot_of("2021-06-01", [make_record("CVE-2021-0001")])
        newer = snapshot_of("2021-06-02", [make_record("CVE-2021-0001", score=7.5)])
        diff = diff_snapshots(older, newer)
        (pair,) = diff.updated_cves
        assert pair[0].cvss3_base is None
        assert float(pair[1].cvss3_base) == 7.5

    def test_swapped_arguments_rejected(self):
        older = snapshot_of("2021-06-01", [])
        newer = snapshot_of("2021-06-02", [])
        with pytest.raises(OrderingError):
            diff_snapshots(newer, older)

    @given(
        st.lists(st.sampled_from([f"CVE-2021-{n:04d}" for n in range(1, 15)]), max_size=10),
        st.lists(st.sampled_from([f"CVE-2021-{n:04d}" for n in range(1, 15)]), max_size=10),
        st.sets(st.sampled_from([f"CVE-2021-{n:04d}" for n in range(1, 15)])),
    )
    def test_partition_property(self, older_ids, newer_ids, rescored):
        older = snapshot_of("2021-06-01", [make_record(i) for i in set(older_ids)])
        newer = snapshot_of(
            "2021-06-02",
            [
                make_record(i, score=5.0 if i in rescored else None)
                for i in set(newer_ids)
            ],
        )
        diff = diff_snapshots(older, newer)
        unchanged = sum(
            1
            for cve_id, rec in newer.records.items()
            if older.records.get(cve_id) == rec
        )
        assert len(diff.new_cves) + len(diff.updated_cves) + unchanged == len(newer.records)


class TestMergeRecords:
    def test_later_batch_wins(self):
        first = make_record("CVE-2021-0001")
        second = make_record("CVE-2021-0001", score=5.0)
        merged = merge_records([[first], [second]])
        assert merged["CVE-2021-0001"].cvss3_base is not None

    def test_key_mismatch_rejected(self):
        from cvesentinel.errors import ValidationError

        with pytest.raises(ValidationError):
            Snapshot(date=date(2021, 6, 1), records={"CVE-2021-9999": make_record("CVE-2021-0001")})
