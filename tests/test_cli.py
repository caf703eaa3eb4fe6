"""End-to-end command-line behavior and exit codes."""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import subprocess
import sys
import weakref
import zlib
from datetime import date
from decimal import Decimal
from pathlib import Path

import pytest

from conftest import DAY_LAYOUTS, cpe23, feed_bytes, feed_item
from cvesentinel import cli, ingest
from cvesentinel.cli import main
from cvesentinel.errors import SnapshotIntegrityError
from cvesentinel.ingest import load_snapshot
from oracles import oracle_evaluate, oracle_load_snapshot
from test_store import BREAKS, break_store


@pytest.fixture
def store(tmp_path):
    return str(tmp_path / "store")


def write(tmp_path, name: str, data: bytes | str):
    path = tmp_path / name
    if isinstance(data, str):
        path.write_text(data, encoding="utf-8")
    else:
        path.write_bytes(data)
    return str(path)


DICTIONARY = [
    {"cpe23": cpe23("geotab", "r2d2", "3.0.1.16")},
    {"cpe23": cpe23("microsoft", "windows")},
    {"cpe23": cpe23("microsoft", "hyper")},
    {"cpe23": cpe23("acme", "anvil")},
    {"cpe23": cpe23("px", "x")},
]

INVENTORY = "\n".join(
    [
        "asset_id,product_name,vendor_name,version,cpe23",
        '"A1","R2D2 Beta version 3.0.1.16","Geotab Inc.","3.0.1.16",',
        '"A2","R2D2","Geotab","4.0",',
        '"A3","Hyper","Microsoft","",',
        '"A4","X","Acme","1.0",',
    ]
) + "\n"


def ingest_day(tmp_path, store, day: str, items, name=None) -> int:
    feed = write(tmp_path, name or f"feed-{day}.json", feed_bytes(items))
    return main(["ingest", feed, "--date", day, "--store", store])


# JSON that json.loads refuses with an error other than JSONDecodeError.
UNPARSEABLE_JSON = {
    "5000-digit-number": '[{"cpe23": ' + "9" * 5000 + "}]",
    "deep-nesting": "[" * 100_000,
}


def assert_one_line_error(err: str) -> None:
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestIngest:
    def test_two_disjoint_feeds_union(self, tmp_path, store, capsys):
        f1 = write(tmp_path, "a.json", feed_bytes([feed_item("CVE-2021-0001")]))
        f2 = write(tmp_path, "b.json", feed_bytes([feed_item("CVE-2021-0002")]))
        assert main(["ingest", f1, f2, "--date", "2021-06-01", "--store", store]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stored"] == 2

    @pytest.mark.parametrize("scores", [(5.0, 9.8), (9.8, 5.0)], ids=["higher-last", "lower-last"])
    def test_later_feed_wins_for_a_cve_in_two_feeds(self, tmp_path, store, capsys, scores):
        f1, f2 = (write(tmp_path, name, feed_bytes([feed_item("CVE-2021-0001", score=score)]))
                  for name, score in zip(("a.json", "b.json"), scores))
        assert main(["ingest", f1, f2, "--date", "2021-06-01", "--store", store]) == 0
        assert json.loads(capsys.readouterr().out)["stored"] == 1
        (record,) = load_snapshot(store, date(2021, 6, 1)).records.values()
        assert record.cvss3_base == Decimal(str(scores[1]))

    @pytest.mark.parametrize(
        "command, flag",
        [("ingest", "--min-name-len"), ("ingest", "--stopwords"), ("stats", "--min-name-len")],
    )
    def test_option_the_command_would_ignore_exits_2(self, tmp_path, store, capsys, command, flag):
        ingest_day(tmp_path, store, "2021-06-01", [feed_item("CVE-2021-0001")])
        value = "3" if flag == "--min-name-len" else write(tmp_path, "stop.txt", "inc\n")
        feed = write(tmp_path, "f.json", feed_bytes([feed_item("CVE-2021-0002")]))
        argv = {
            "ingest": ["ingest", feed, "--date", "2021-06-02"],
            "stats": ["stats", "--report", "daily", "--from", "2021-06-01", "--to", "2021-06-01"],
        }[command]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--store", store, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err
        assert not (Path(store) / "snapshots" / "2021-06-02").exists()
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert flag not in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["20210601", "2021-W22-2"])
    @pytest.mark.parametrize("command, flag", [("ingest", "--date"), ("tickets", "--date"),
                                               ("stats", "--from"), ("stats", "--to")])
    def test_date_in_another_iso_form_exits_2(self, tmp_path, store, capsys, command, flag, value):
        """Python 3.11 and later read both forms as 2021-06-01; 3.10 reads
        neither, and the CLI reads neither on any version."""
        feed = write(tmp_path, "f.json", feed_bytes([feed_item("CVE-2021-0001")]))
        argv = {
            "ingest": ["ingest", feed, "--date", "2021-06-01"],
            "tickets": ["tickets", "--full", "--inventory", "inv.csv", "--date", "2021-06-01"],
            "stats": ["stats", "--report", "daily", "--from", "2021-06-01", "--to", "2021-06-01"],
        }[command]
        argv[argv.index(flag) + 1] = value
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--store", store])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"not a YYYY-MM-DD date: '{value}'" in err and "Traceback" not in err
        assert not (Path(store) / "snapshots").exists()

    def test_same_date_twice_without_overwrite(self, tmp_path, store):
        assert ingest_day(tmp_path, store, "2021-06-01", [feed_item("CVE-2021-0001")]) == 0
        assert (
            ingest_day(
                tmp_path, store, "2021-06-01", [feed_item("CVE-2021-0001")], name="again.json"
            )
            == 3
        )

    def test_overwrite_flag(self, tmp_path, store):
        ingest_day(tmp_path, store, "2021-06-01", [feed_item("CVE-2021-0001")])
        feed = write(tmp_path, "again.json", feed_bytes([feed_item("CVE-2021-0001")]))
        assert main(["ingest", feed, "--date", "2021-06-01", "--store", store, "--overwrite"]) == 0

    def test_stderr_says_how_the_day_was_stored(self, tmp_path, store, capsys):
        """Whole, or as its changes to the day before; stdout is the same."""
        ingest_day(tmp_path, store, "2021-06-01", [feed_item("CVE-2021-0001"),
                                                   feed_item("CVE-2021-0002", summary="two")])
        first = capsys.readouterr()
        ingest_day(tmp_path, store, "2021-06-02", [feed_item("CVE-2021-0001", score=5.0),
                                                   feed_item("CVE-2021-0003")])
        second = capsys.readouterr()
        assert first.err.splitlines()[-1] == "stored snapshot 2021-06-01 with 2 records stored whole"
        assert second.err.splitlines()[-1] == (
            "stored snapshot 2021-06-02 with 2 records as changes to 2021-06-01 "
            "(1 new, 1 changed, 1 removed)")
        assert json.loads(second.out) == {"date": "2021-06-02", "stored": 2,
                                          "rejects": {"feed-2021-06-02.json": 0}, "rejected_total": 0}

    def test_malformed_item_rejected_but_exit_zero(self, tmp_path, store, capsys):
        items = [feed_item("CVE-2021-0001"), feed_item(None)]
        assert ingest_day(tmp_path, store, "2021-06-01", items) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stored"] == 1
        assert payload["rejected_total"] == 1

    def test_non_string_cpe_and_nan_score_are_item_rejects(self, tmp_path, store, capsys):
        items = [
            feed_item("CVE-2021-0001"),
            feed_item("CVE-2021-0002", cpes=[5]),
            feed_item("CVE-2021-0003", score=float("nan")),
            feed_item("CVE-2021-0004", score=7.5),
        ]
        assert ingest_day(tmp_path, store, "2021-06-01", items) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stored"] == 2
        assert payload["rejected_total"] == 2

    def test_wrong_shapes_are_item_rejects(self, tmp_path, store, capsys):
        cve_not_object = feed_item("CVE-2021-0002")
        cve_not_object["cve"] = 5
        node_not_object = feed_item("CVE-2021-0003")
        node_not_object["configurations"]["nodes"] = [5]
        cpe_list = feed_item("CVE-2021-0004", cpes=[cpe23("acme", "anvil")])
        cpe_list["configurations"]["nodes"][0]["cpe_match"][0]["cpe23Uri"] = [cpe23("a", "b")]
        summary_not_string = feed_item("CVE-2021-0005", summary="five")
        summary_not_string["cve"]["description"]["description_data"][0]["value"] = 5
        items = [feed_item("CVE-2021-0001"), cve_not_object, node_not_object, cpe_list,
                 summary_not_string, feed_item("CVE-2021-0006")]
        assert ingest_day(tmp_path, store, "2021-06-01", items) == 0
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        payload = json.loads(out)
        assert (payload["stored"], payload["rejected_total"]) == (2, 4)

    @pytest.mark.parametrize("text", UNPARSEABLE_JSON.values(), ids=UNPARSEABLE_JSON.keys())
    def test_unparseable_feed_json_exits_2(self, tmp_path, store, capsys, text):
        feed = write(tmp_path, "feed.json", text)
        assert main(["ingest", feed, "--date", "2021-06-01", "--store", store]) == 2
        assert_one_line_error(capsys.readouterr().err)
        assert gc.isenabled()

    def test_same_file_name_in_two_directories_keeps_both_counts(self, tmp_path, store, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        fa = write(tmp_path, "a/feed.json", feed_bytes([feed_item(None)]))
        fb = write(tmp_path, "b/feed.json", feed_bytes([feed_item("CVE-2021-0001")]))
        fc = write(tmp_path, "c.json", feed_bytes([feed_item("CVE-2021-0002")]))
        assert main(["ingest", fa, fb, fc, "--date", "2021-06-01", "--store", store]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rejected_total"] == 1
        # colliding names are keyed by the path as given, distinct ones by file name
        assert payload["rejects"] == {fa: 1, fb: 0, "c.json": 0}

    def test_malformed_feed_exits_2(self, tmp_path, store):
        feed = write(tmp_path, "bad.json", b"{broken")
        assert main(["ingest", feed, "--date", "2021-06-01", "--store", store]) == 2

    @pytest.mark.parametrize("name", ["bad.json", "bad.json.gz"])
    def test_malformed_feed_error_gives_its_byte_offset(self, tmp_path, store, capsys, name):
        text = '\ufeff{"CVE_Items":[{"x":"\u00e9\u00e9\u00e9\u00e9\u00e9"},}'
        data = text.encode("utf-8")
        feed = write(tmp_path, name, gzip.compress(data) if name.endswith(".gz") else data)
        assert main(["ingest", feed, "--date", "2021-06-01", "--store", store]) == 2
        # the mark is 3 bytes and each \u00e9 is 2, so "}" is byte 36 (json's index is 28)
        assert capsys.readouterr().err == "error: malformed feed JSON at byte 36: Expecting value\n"
        assert data[36:37] == b"}"

    def test_missing_file_exits_2(self, store):
        assert main(["ingest", "/nonexistent.json", "--date", "2021-06-01", "--store", store]) == 2

    @pytest.mark.parametrize(
        "name, data",
        [
            ("truncated.json.gz", gzip.compress(feed_bytes([feed_item("CVE-2021-0001")]))[:40]),
            ("corrupt.json.gz", gzip.compress(b"{}")[:10] + b"\xff" * 20),
            ("latin1.json",
             feed_bytes([feed_item("CVE-2021-0001", summary="cafe")]).replace(b"cafe", b"caf\xe9")),
        ],
        ids=["truncated-gz", "corrupt-deflate", "not-utf8"],
    )
    def test_unreadable_feed_exits_2_without_traceback(self, tmp_path, store, capsys, name, data):
        feed = write(tmp_path, name, data)
        assert main(["ingest", feed, "--date", "2021-06-01", "--store", store]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @staticmethod
    def _long_feed() -> bytes:
        """A feed of several chunks, each item's summary different."""
        items = [feed_item(f"CVE-2021-{n:04d}", summary=f"flaw {n * 7919 % 10007} " * 40)
                 for n in range(1, 301)]
        data = feed_bytes(items)
        assert len(data) > 3 * ingest._FEED_CHUNK
        return data

    def test_gz_feed_truncated_after_its_first_chunk(self, tmp_path, store, capsys):
        """The fault shows only after a chunk has been walked; the error is
        that of decompressing the whole file."""
        compressed = gzip.compress(self._long_feed())
        truncated = compressed[:len(compressed) * 3 // 4]
        assert len(zlib.decompressobj(wbits=31).decompress(truncated)) > ingest._FEED_CHUNK
        feed = write(tmp_path, "feed.json.gz", truncated)
        with pytest.raises(EOFError) as whole:
            gzip.decompress(truncated)
        assert main(["ingest", feed, "--date", "2021-06-01", "--store", store]) == 2
        assert capsys.readouterr().err == f"error: {feed}: unreadable gzip stream: {whole.value}\n"
        assert not (Path(store) / "snapshots").exists()

    @pytest.mark.parametrize("name", ["feed.json", "feed.json.gz"])
    def test_bad_utf8_byte_past_the_first_chunk(self, tmp_path, store, capsys, name):
        data = bytearray(self._long_feed())
        at = data.index(b"flaw", 2 * ingest._FEED_CHUNK)
        data[at] = 0xFF
        feed = write(tmp_path, name, gzip.compress(bytes(data)) if name.endswith(".gz") else bytes(data))
        with pytest.raises(UnicodeDecodeError) as whole:
            bytes(data).decode("utf-8")
        assert main(["ingest", feed, "--date", "2021-06-01", "--store", store]) == 2
        assert capsys.readouterr().err == f"error: {feed} is not UTF-8 text: {whole.value}\n"
        assert not (Path(store) / "snapshots").exists()


class TestTickets:
    def _setup(self, tmp_path, store):
        inventory = write(tmp_path, "inv.csv", INVENTORY)
        ingest_day(tmp_path, store, "2021-06-01", [feed_item("CVE-2021-0001")])
        return inventory

    def test_two_cves_one_group_one_ticket(self, tmp_path, store, capsys):
        inventory = self._setup(tmp_path, store)
        items = [
            feed_item("CVE-2021-0001"),
            feed_item("CVE-2021-0002", score=7.0, cpes=[cpe23("geotab", "r2d2", "3.0.1.16")]),
            feed_item("CVE-2021-0003", score=5.0, cpes=[cpe23("geotab", "r2d2", "4.0")]),
        ]
        ingest_day(tmp_path, store, "2021-06-02", items)
        capsys.readouterr()
        code = main(
            ["tickets", "--date", "2021-06-02", "--store", store,
             "--inventory", inventory]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        ticket = json.loads(lines[0])
        assert ticket["key"] == {"vendor": "geotab", "name": "r2d2"}
        assert ticket["cve_ids"] == ["CVE-2021-0002", "CVE-2021-0003"]
        assert set(ticket["matched_assets"]) == {"A1", "A2"}
        assert ticket["max_severity"] == "HIGH"

    def test_day_without_matches(self, tmp_path, store, capsys):
        inventory = self._setup(tmp_path, store)
        ingest_day(tmp_path, store, "2021-06-02", [feed_item("CVE-2021-0009", summary="nothing relevant")])
        capsys.readouterr()
        code = main(
            ["tickets", "--date", "2021-06-02", "--store", store,
             "--inventory", inventory]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_filter_lists_with_different_labels_exit_2(self, tmp_path, store, capsys):
        inventory = self._setup(tmp_path, store)
        filter_vendors = write(tmp_path, "fv.txt", "#source_year=2019\n")
        filter_products = write(tmp_path, "fp.txt", "#source_year=2020\nhyper\n")
        capsys.readouterr()
        code = main(
            ["tickets", "--full", "--date", "2021-06-01", "--store", store, "--inventory", inventory,
             "--filter-vendors", filter_vendors, "--filter-products", filter_products]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_line_error(captured.err)
        assert captured.err == (
            f"error: {filter_vendors} and {filter_products} disagree on the source year: "
            "'2019' against '2020'\n"
        )

    def test_summary_match_with_vendor_cooccurrence(self, tmp_path, store, capsys):
        inventory = self._setup(tmp_path, store)
        filter_vendors = write(tmp_path, "fv.txt", "#source_year=2020\n")
        filter_products = write(tmp_path, "fp.txt", "#source_year=2020\nhyper\n")
        items = [
            feed_item(
                "CVE-2021-0010",
                summary="A flaw in Microsoft Hyper-V Virtual allows guest escape.",
                score=8.8,
            )
        ]
        ingest_day(tmp_path, store, "2021-06-02", items)
        capsys.readouterr()
        code = main(
            ["tickets", "--date", "2021-06-02", "--store", store,
             "--inventory", inventory,
             "--filter-vendors", filter_vendors, "--filter-products", filter_products]
        )
        assert code == 0
        (line,) = capsys.readouterr().out.splitlines()
        ticket = json.loads(line)
        assert ticket["key"] == {"vendor": "microsoft", "name": "hyper"}
        assert ticket["via"]["CVE-2021-0010"] == "SUMMARY"

    def test_missing_snapshot_exits_2(self, tmp_path, store):
        inventory = write(tmp_path, "inv.csv", INVENTORY)
        assert (
            main(
                ["tickets", "--date", "2021-07-01", "--store", store,
                 "--inventory", inventory]
            )
            == 2
        )

    def test_first_day_without_full_exits_2(self, tmp_path, store):
        inventory = self._setup(tmp_path, store)
        assert (
            main(
                ["tickets", "--date", "2021-06-01", "--store", store,
                 "--inventory", inventory]
            )
            == 2
        )

    @pytest.mark.parametrize("earlier", [None, "stored", "corrupt"],
                             ids=["alone", "after-a-stored-day", "after-a-corrupt-day"])
    def test_missing_day_is_the_error_named(self, tmp_path, store, capsys, earlier):
        inventory = self._setup(tmp_path, store) if earlier else write(tmp_path, "inv.csv", INVENTORY)
        if earlier == "corrupt":
            (Path(store) / "snapshots" / "2021-06-01").write_text("{not json", encoding="utf-8")
        capsys.readouterr()
        argv = ["tickets", "--date", "2021-06-05", "--store", store, "--inventory", inventory]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: no snapshot stored for 2021-06-05\n"

    def test_first_day_error_says_rerun_with_full(self, tmp_path, store, capsys):
        inventory = self._setup(tmp_path, store)
        capsys.readouterr()
        argv = ["tickets", "--date", "2021-06-01", "--store", store, "--inventory", inventory]
        assert main(argv) == 2
        assert capsys.readouterr().err.endswith("; rerun with --full\n")

    def test_corrupt_previous_day_exits_4(self, tmp_path, store, capsys):
        inventory = self._setup(tmp_path, store)
        ingest_day(tmp_path, store, "2021-06-02", [feed_item("CVE-2021-0002")])
        (Path(store) / "snapshots" / "2021-06-01").write_text("{not json", encoding="utf-8")
        capsys.readouterr()
        argv = ["tickets", "--date", "2021-06-02", "--store", store, "--inventory", inventory]
        assert main(argv) == 4
        assert "2021-06-01" in capsys.readouterr().err

    def test_full_flag_matches_whole_snapshot(self, tmp_path, store, capsys):
        inventory = write(tmp_path, "inv.csv", INVENTORY)
        items = [feed_item("CVE-2021-0002", score=7.0, cpes=[cpe23("geotab", "r2d2")])]
        ingest_day(tmp_path, store, "2021-06-01", items)
        capsys.readouterr()
        code = main(
            ["tickets", "--date", "2021-06-01", "--store", store, "--full",
             "--inventory", inventory]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_full_digests_no_line(self, tmp_path, store, capsys, digested):
        """Neither --full, which loads its day alone, nor the daily diff
        digests a stored line: each checks the delta it loads against the
        day it is stored against by one digest of that day's file."""
        inventory = self._setup(tmp_path, store)
        items = [feed_item("CVE-2021-0001"),
                 feed_item("CVE-2021-0002", score=7.0, cpes=[cpe23("geotab", "r2d2")])]
        ingest_day(tmp_path, store, "2021-06-02", items)
        day_before = (Path(store) / "snapshots" / "2021-06-01").read_bytes()
        digested.clear()
        argv = ["tickets", "--date", "2021-06-02", "--store", store, "--inventory", inventory]
        capsys.readouterr()
        assert main([*argv, "--full"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1
        assert digested == [day_before]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1
        assert digested == [day_before, day_before]

    def _full_tickets_argv(self, tmp_path, store, inventory_rows, summary):
        header = "asset_id,product_name,vendor_name,version,cpe23"
        inventory = write(tmp_path, "inv.csv", "\n".join([header, *inventory_rows]) + "\n")
        ingest_day(tmp_path, store, "2021-06-01", [feed_item("CVE-2021-0001", summary=summary)])
        return ["tickets", "--date", "2021-06-01", "--store", store, "--full",
                "--inventory", inventory]

    def test_five_token_name_matches_summary(self, tmp_path, store, capsys):
        argv = self._full_tickets_argv(
            tmp_path, store, ["A1,Kilo Bravo Charlie Delta Echo,Zulu,1.0,"],
            "Flaw in Kilo Bravo Charlie Delta Echo allows code execution.",
        )
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr()
        (line,) = out.out.splitlines()
        assert json.loads(line)["key"] == {"vendor": "zulu", "name": "kilo bravo charlie delta echo"}
        assert out.err.startswith("1 ticket(s)")

    def test_stop_words_reach_the_inventory_and_the_cpe_names(self, tmp_path, store, capsys):
        """Under a list holding "server", the asset is named "widget": the CPE
        acme:widget_server names it, and so does a summary that says "Widget"."""
        inventory = write(tmp_path, "inv.csv", "asset_id,product_name,vendor_name,version,cpe23\n"
                                               "A1,Widget Server,Acme,1.0,\n")
        ingest_day(tmp_path, store, "2021-06-01", [
            feed_item("CVE-2021-0001", summary="Overflow in Widget before 2.0"),
            feed_item("CVE-2021-0002", score=7.0, cpes=[cpe23("acme", "widget_server")]),
        ])
        argv = ["tickets", "--date", "2021-06-01", "--store", store, "--full", "--inventory", inventory]
        stop_words = write(tmp_path, "stop.txt", "server\n")
        capsys.readouterr()
        tickets = {}
        for extra in ([], ["--stopwords", stop_words]):
            assert main([*argv, *extra]) == 0
            (line,) = capsys.readouterr().out.splitlines()
            ticket = json.loads(line)
            tickets[bool(extra)] = (ticket["key"]["name"], ticket["cve_ids"])
        assert tickets == {False: ("widget server", ["CVE-2021-0002"]),
                           True: ("widget", ["CVE-2021-0001", "CVE-2021-0002"])}

    def _filter_under_stop_words(self, tmp_path, store, build_extra) -> list[str]:
        """A filter built with ``build_extra`` from a corpus whose summary names
        "Widget Server" under a foreign CPE; the tickets argv for day 2, whose
        one CPE-less CVE names "Widget Server", with those filter lists."""
        feed = write(tmp_path, "corpus.json", feed_bytes([feed_item(
            "CVE-2020-0001", summary="A flaw in Widget Server", cpes=[cpe23("other", "thing")])]))
        dictionary = write(tmp_path, "dict.json",
                           json.dumps([{"cpe23": cpe23("acme", "widget_server")}]))
        vendors, products = str(tmp_path / "fv.txt"), str(tmp_path / "fp.txt")
        assert main(["build-filter", feed, "--dictionary", dictionary, "--out-vendors", vendors,
                     "--out-products", products, *build_extra]) == 0
        inventory = write(tmp_path, "inv.csv", "asset_id,product_name,vendor_name,version,cpe23\n"
                                               "A1,Widget Server,Acme,1.0,\n")
        ingest_day(tmp_path, store, "2021-06-01", [feed_item("CVE-2021-0001")])
        ingest_day(tmp_path, store, "2021-06-02", [
            feed_item("CVE-2021-0001"),
            feed_item("CVE-2021-0002", summary="Overflow in Widget Server"),
        ])
        return ["tickets", "--date", "2021-06-02", "--store", store, "--inventory", inventory,
                "--filter-vendors", vendors, "--filter-products", products]

    @pytest.mark.parametrize("built_custom", [True, False], ids=["build-filter", "tickets"])
    def test_filter_built_under_another_stop_word_list_exits_2(self, tmp_path, store, capsys,
                                                               built_custom):
        """Before the lists recorded their stop-word list, either order gave
        one ticket and exit 0: "widget" filtered nothing from "widget server"."""
        stop_words = write(tmp_path, "stop.txt", "server\n")
        custom = ["--stopwords", stop_words]
        argv = self._filter_under_stop_words(tmp_path, store, custom if built_custom else [])
        capsys.readouterr()
        assert main([*argv, *([] if built_custom else custom)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_line_error(err)
        digest = f"stop-word list {hashlib.blake2b(b'server', digest_size=16).hexdigest()}"
        built, given = ((digest, "the built-in list") if built_custom
                        else ("the built-in list", digest))
        assert err.endswith(f"error: filter lists {argv[-3]} and {argv[-1]} were built under "
                            f"{built}, but tickets is given {given}\n")

    def test_filter_built_under_the_same_stop_word_list_filters(self, tmp_path, store, capsys):
        stop_words = write(tmp_path, "stop.txt", "# the one word\nserver\n")
        argv = self._filter_under_stop_words(tmp_path, store, ["--stopwords", stop_words])
        # the same words, written otherwise, are the same list
        other = write(tmp_path, "other.txt", "SERVER\n\n")
        for stop in (stop_words, other):
            capsys.readouterr()
            assert main([*argv, "--stopwords", stop]) == 0
            out, err = capsys.readouterr()
            assert out == ""
            assert err.endswith("0 ticket(s) from 1 CVE(s); matched via CPE=0 SUMMARY=0\n")

    def test_filter_lists_with_different_stop_word_lists_exit_2(self, tmp_path, store, capsys):
        inventory = self._setup(tmp_path, store)
        filter_vendors = write(tmp_path, "fv.txt", f"#source_year=2020\n#stopwords={'a' * 32}\n")
        filter_products = write(tmp_path, "fp.txt", f"#source_year=2020\n#stopwords={'b' * 32}\n")
        capsys.readouterr()
        code = main(
            ["tickets", "--full", "--date", "2021-06-01", "--store", store, "--inventory", inventory,
             "--filter-vendors", filter_vendors, "--filter-products", filter_products]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {filter_vendors} and {filter_products} disagree on the stop-word list: "
            f"'{'a' * 32}' against '{'b' * 32}'\n"
        )

    def test_oversized_inventory_field_exits_2(self, tmp_path, store, capsys):
        argv = self._full_tickets_argv(
            tmp_path, store, ["A1,Anvil,Acme,1.0,", f"A2,{'x' * 200_000},Acme,1.0,"], "anvil flaw"
        )
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert err.startswith("error: inventory row 3: field larger than field limit")

    def test_max_phrase_len_flag_is_gone(self, tmp_path, store, capsys):
        argv = self._full_tickets_argv(tmp_path, store, ["A1,Anvil,Acme,1.0,"], "anvil flaw")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--max-phrase-len", "5"])
        assert exc.value.code == 2
        assert "--max-phrase-len" in capsys.readouterr().err

    def test_unreachable_names_noted_on_stderr(self, tmp_path, store, capsys):
        argv = self._full_tickets_argv(
            tmp_path, store, ["A1,Tools for Widgets,Acme,1.0,", "A2,Any,Acme,1.0,"],
            "Any Tools for Widgets flaw.",
        )
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr()
        assert out.out == ""
        (note,) = [line for line in out.err.splitlines() if "function word" in line]
        assert note.startswith("2 asset name(s)")
        assert "'any', 'tools for widgets'" in note
        assert not any(line.startswith("inventory row ") for line in out.err.splitlines())

    def test_dictionary_flag_is_ignored(self, tmp_path, store, capsys):
        inventory = self._setup(tmp_path, store)
        items = [
            feed_item("CVE-2021-0002", score=7.0, cpes=[cpe23("geotab", "r2d2")]),
            feed_item("CVE-2021-0003", summary="Microsoft Hyper-V Virtual issue"),
        ]
        ingest_day(tmp_path, store, "2021-06-02", items)
        dictionary = write(tmp_path, "dict.json", json.dumps(DICTIONARY))
        argv = ["tickets", "--date", "2021-06-02", "--store", store, "--inventory", inventory]
        runs = []
        for extra in ([], ["--dictionary", dictionary], ["--dictionary", str(tmp_path / "absent")]):
            capsys.readouterr()
            assert main(argv + extra) == 0
            runs.append(capsys.readouterr())
        assert runs[0].out.count("\n") == 2
        assert runs[0].out == runs[1].out == runs[2].out
        assert "--dictionary" not in runs[0].err
        for run in runs[1:]:
            assert run.err.startswith("--dictionary is ignored by tickets and will be removed\n")

    def test_output_file_and_determinism(self, tmp_path, store):
        inventory = self._setup(tmp_path, store)
        items = [
            feed_item("CVE-2021-0002", score=7.0, cpes=[cpe23("geotab", "r2d2")]),
            feed_item("CVE-2021-0003", summary="Microsoft Hyper-V Virtual issue"),
        ]
        ingest_day(tmp_path, store, "2021-06-02", items)
        out1, out2 = str(tmp_path / "run1.jsonl"), str(tmp_path / "run2.jsonl")
        for out in (out1, out2):
            code = main(
                ["tickets", "--date", "2021-06-02", "--store", store,
                 "--inventory", inventory, "--output", out]
            )
            assert code == 0
        assert (tmp_path / "run1.jsonl").read_bytes() == (tmp_path / "run2.jsonl").read_bytes()


def edit_days(store, edits, layout: str) -> None:
    """Apply each (day, edit) to the payload of its day, holding its records
    in full as they loaded before any edit, and write the day back whole in
    ``layout``: as the store writes it, which the loader reads line by
    line, or on one line, which it decodes whole."""
    payloads = {}
    for day, _ in edits:
        records = load_snapshot(store, date.fromisoformat(day)).records.values()
        payloads[day] = {"date": day, "record_count": len(records),
                         "records": [record.to_dict() for record in records]}
    for day, edit in edits:
        edit(payloads[day])
        path = Path(store) / "snapshots" / day
        path.write_text(DAY_LAYOUTS[layout](payloads[day]), encoding="utf-8")


def _set_first(**fields):
    return lambda payload: payload["records"][0].update(fields)


# Edits, (day, edit of its payload), that leave a five-day store corrupt.
# A stored true equals the 1.0 of the day before as a dict entry.
CORRUPTIONS = {
    "int-score-then-true": [("2021-06-01", _set_first(cvss3_base=1)),
                            ("2021-06-02", _set_first(cvss3_base=True))],
    "float-score-then-true": [("2021-06-02", _set_first(cvss3_base=True))],
    "record-count-day-3": [("2021-06-03", lambda p: p.update(record_count=p["record_count"] + 1))],
    "repeated-id-day-5": [("2021-06-05", lambda p: p["records"].append(dict(p["records"][-1])))],
    "int-cpe": [("2021-06-02", _set_first(cpe_list=[1]))],
    "nan-score": [("2021-06-02", _set_first(cvss3_base="NaN"))],
    "string-score": [("2021-06-02", _set_first(cvss3_base="7.5"))],
    "int-summary": [("2021-06-03", _set_first(summary=5))],
    "int-reference": [("2021-06-04", _set_first(references=["https://r", 5]))],
    "string-references": [("2021-06-02", _set_first(references="abc"))],
    "dict-cpe-list": [("2021-06-03", _set_first(cpe_list={cpe23("acme", "anvil"): 1}))],
}


def _stats_history(tmp_path, store):
    ingest_day(tmp_path, store, "2021-06-01", [feed_item("CVE-2021-0001", score=9.8,
                cpes=[cpe23("microsoft", "windows")], refs=["https://r"])])
    ingest_day(
        tmp_path, store, "2021-06-02",
        [
            feed_item("CVE-2021-0001", score=9.8, cpes=[cpe23("microsoft", "windows")], refs=["https://r"]),
            feed_item("CVE-2021-0002", summary="two"),
            feed_item("CVE-2021-0003", summary="three", cpes=[cpe23("acme", "anvil")]),
        ],
    )
    ingest_day(
        tmp_path, store, "2021-06-03",
        [
            feed_item("CVE-2021-0001", score=9.8, cpes=[cpe23("microsoft", "windows")], refs=["https://r"]),
            feed_item("CVE-2021-0002", modified="2021-06-03T00:00Z", summary="two", score=5.0),
            feed_item("CVE-2021-0003", modified="2021-06-03T00:00Z", summary="three rev2",
                      cpes=[cpe23("acme", "anvil")]),
            feed_item("CVE-2021-0004", summary="four"),
        ],
    )


# Each stats report's own options, naming files that do not exist.
REPORT_ARGS = {
    "daily": ["--from", "2021-06-01", "--to", "2021-06-01"],
    "delays": ["--from", "2021-06-01", "--to", "2021-06-01", "--field", "cvss"],
    "vendors": ["--from", "2021-06-01", "--to", "2021-06-01"],
    "table": ["--from", "2021-06-01", "--to", "2021-06-01"],
    "ranktest": ["--scores-a", "a.txt", "--scores-b", "b.txt"],
}


class TestStats:
    def test_daily_report(self, tmp_path, store, capsys):
        _stats_history(tmp_path, store)
        capsys.readouterr()
        code = main(
            ["stats", "--report", "daily", "--from", "2021-06-01", "--to", "2021-06-03",
             "--store", store]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"] == "daily"
        assert payload["days"][0] == {
            "date": "2021-06-02",
            "total_reports": 2,
            "missing_cvss": 2,
            "missing_cpe": 1,
            "missing_mitigation": 2,
        }

    def test_delays_three_way_keys(self, tmp_path, store, capsys):
        _stats_history(tmp_path, store)
        capsys.readouterr()
        code = main(
            ["stats", "--report", "delays", "--field", "cvss",
             "--from", "2021-06-01", "--to", "2021-06-03", "--store", store]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == 1
        assert payload["updated_no_field"] == 1
        assert payload["never"] == 1  # CVE-0004 appears on the last day, bare
        assert payload["delays"][0]["cve_id"] == "CVE-2021-0002"

    def test_vendors_report(self, tmp_path, store, capsys):
        _stats_history(tmp_path, store)
        capsys.readouterr()
        code = main(
            ["stats", "--report", "vendors", "--from", "2021-06-01", "--to", "2021-06-03",
             "--store", store]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        vendors = {v["vendor"]: v for v in payload["vendors"]}
        assert vendors["acme"]["initially_unscored"] == 1
        assert vendors["microsoft"]["initially_unscored"] == 0
        assert payload["skipped_no_vendor"] == 2  # CVE-0002 and CVE-0004 never get a CPE

    @pytest.mark.parametrize("report", ["daily", "delays", "table", "ranktest"])
    def test_stop_words_with_a_report_but_vendors_exit_2(self, tmp_path, store, capsys, report):
        """Only vendors standardizes a name. The list file and the store do
        not exist, so any read before the check would name one of them."""
        argv = ["stats", "--report", report, *REPORT_ARGS[report], "--store", store]
        assert main([*argv, "--stopwords", str(tmp_path / "stop.txt")]) == 2
        assert capsys.readouterr().err == (
            f"error: --stopwords is read only by --report vendors, not {report}\n")

    def test_vendors_report_with_stop_words(self, tmp_path, store, capsys):
        """A vendor the list empties skips its CVE; the list replaces the
        default one, so "inc" is a vendor under it."""
        ingest_day(tmp_path, store, "2021-06-01", [
            feed_item("CVE-2021-0001", cpes=[cpe23("acme_server", "anvil")]),
            feed_item("CVE-2021-0002", cpes=[cpe23("server", "widget")]),
            feed_item("CVE-2021-0003", cpes=[cpe23("inc", "gadget")]),
        ])
        argv = ["stats", "--report", "vendors", "--from", "2021-06-01", "--to", "2021-06-01",
                "--store", store]
        stop_words = write(tmp_path, "stop.txt", "server\n")
        capsys.readouterr()
        reports = {}
        for extra in ([], ["--stopwords", stop_words]):
            assert main([*argv, *extra]) == 0
            payload = json.loads(capsys.readouterr().out)
            vendors = [v["vendor"] for v in payload["vendors"]]
            reports[bool(extra)] = (vendors, payload["skipped_no_vendor"])
        assert reports == {False: (["acme server", "server"], 1), True: (["acme", "inc"], 1)}

    def test_table_report(self, tmp_path, store, capsys):
        _stats_history(tmp_path, store)
        capsys.readouterr()
        code = main(
            ["stats", "--report", "table", "--from", "2021-06-01", "--to", "2021-06-03",
             "--store", store]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # initially scored: CVE-0001 (9.8); scored later: CVE-0002 (5.0)
        assert payload["initial_total"] == 1
        assert payload["later_total"] == 1
        rows = {r["level"]: r for r in payload["rows"]}
        assert rows["CRITICAL"]["initial_count"] == 1
        assert rows["MEDIUM"]["later_count"] == 1

    @pytest.mark.parametrize("report", ["daily", "delays", "vendors", "table"])
    def test_gap_in_range_names_missing_date(self, tmp_path, store, capsys, report):
        ingest_day(tmp_path, store, "2021-06-01", [feed_item("CVE-2021-0001")])
        ingest_day(tmp_path, store, "2021-06-03", [feed_item("CVE-2021-0001")])
        capsys.readouterr()
        field = ["--field", "cvss"] if report == "delays" else []
        code = main(
            ["stats", "--report", report, *field, "--from", "2021-06-01",
             "--to", "2021-06-03", "--store", store]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: no snapshot stored for 2021-06-02\n"

    # Bare names for the single-line cases keep those test ids stable.
    @pytest.mark.parametrize("edits, layout", [
        pytest.param(edits, layout, id=name if layout == "single-line" else f"{name}-{layout}")
        for name, edits in CORRUPTIONS.items() for layout in ("single-line", "compact")
    ])
    def test_corrupt_later_day_exits_4(self, tmp_path, store, capsys, edits, layout):
        for n in range(1, 6):
            ingest_day(tmp_path, store, f"2021-06-0{n}", [
                feed_item("CVE-2021-0001", score=1.0, cpes=[cpe23("acme", "anvil")]),
                feed_item("CVE-2021-0002", summary="two"),
            ])
        edit_days(store, edits, layout)
        capsys.readouterr()
        code = main(["stats", "--report", "daily", "--from", "2021-06-01", "--to", "2021-06-05",
                     "--store", store])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith(("error: corrupt snapshot file", "error: snapshot file"))
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", BREAKS)
    def test_a_broken_chain_exits_4_naming_both_days(self, tmp_path, store, capsys, name):
        break_store(store, name)
        code = main(["stats", "--report", "daily", "--from", "2021-06-02", "--to", "2021-06-02",
                     "--store", store])
        assert code == 4
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert BREAKS[name][1] in err and "2021-06-01" in err and "2021-06-02" in err

    @pytest.mark.parametrize("text", UNPARSEABLE_JSON.values(), ids=UNPARSEABLE_JSON.keys())
    def test_unparseable_stored_day_exits_4(self, tmp_path, store, capsys, text):
        for day in ("2021-06-01", "2021-06-02"):
            ingest_day(tmp_path, store, day, [feed_item("CVE-2021-0001")])
        (Path(store) / "snapshots" / "2021-06-02").write_text(text, encoding="utf-8")
        capsys.readouterr()
        code = main(["stats", "--report", "daily", "--from", "2021-06-01", "--to", "2021-06-02",
                     "--store", store])
        assert code == 4
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert err.startswith("error: corrupt snapshot file")
        assert gc.isenabled()

    def test_removed_ids_nested_too_deep(self, tmp_path, store, capsys):
        """A delta whose head nests its removed ids deeper than the decoder
        goes: the next day is stored whole, and a load of the day exits 4."""
        items = [feed_item("CVE-2021-0001"), feed_item("CVE-2021-0002")]
        for day in ("2021-06-01", "2021-06-02"):
            ingest_day(tmp_path, store, day, items)
        path = Path(store) / "snapshots" / "2021-06-02"
        text = path.read_text(encoding="utf-8")
        assert '"removed":[]' in text
        path.write_text(text.replace('"removed":[]', '"removed":' + "[" * 100_000 + "]" * 100_000),
                        encoding="utf-8")
        capsys.readouterr()
        assert ingest_day(tmp_path, store, "2021-06-03", items) == 0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.endswith("stored snapshot 2021-06-03 with 2 records stored whole\n")
        code = main(["stats", "--report", "daily", "--from", "2021-06-02", "--to", "2021-06-03",
                     "--store", store])
        assert code == 4
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert err.startswith("error: corrupt snapshot file")
        assert gc.isenabled()

    def test_vendor_that_standardizes_to_nothing_is_skipped(self, tmp_path, store, capsys):
        ingest_day(tmp_path, store, "2021-06-01", [
            feed_item("CVE-2021-0001", cpes=[cpe23("acme", "anvil")]),
            feed_item("CVE-2021-0002", cpes=["cpe:2.3:a:inc:widget:1.0:*:*:*:*:*:*:*"]),
            feed_item("CVE-2021-0003"),
        ])
        capsys.readouterr()
        code = main(["stats", "--report", "vendors", "--from", "2021-06-01", "--to", "2021-06-01",
                     "--store", store])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["skipped_no_vendor"] == 2
        assert [v["vendor"] for v in payload["vendors"]] == ["acme"]

    def test_field_before_publication_is_a_counted_reject(self, tmp_path, store, capsys):
        ingest_day(tmp_path, store, "2021-06-01", [
            feed_item("CVE-2021-0001", published="2021-06-01T00:00Z"),
            feed_item("CVE-2021-0002", published="2021-06-05T00:00Z"),
        ])
        ingest_day(tmp_path, store, "2021-06-02", [
            feed_item("CVE-2021-0001", published="2021-06-01T00:00Z", score=5.0),
            feed_item("CVE-2021-0002", published="2021-06-05T00:00Z", score=5.0),
        ])
        capsys.readouterr()
        code = main(["stats", "--report", "delays", "--field", "cvss",
                     "--from", "2021-06-01", "--to", "2021-06-02", "--store", store])
        assert code == 0
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert list(payload) == ["report", "field", "completed", "updated_no_field", "never",
                                 "average_days", "delays"]
        assert (payload["completed"], payload["updated_no_field"], payload["never"]) == (1, 0, 0)
        assert err == "1 CVE(s) rejected, CVSS arrived before publishedDate: CVE-2021-0002\n"

    def test_range_is_loaded_one_day_at_a_time(self, tmp_path, store):
        for day in ("2021-06-01", "2021-06-02", "2021-06-03"):
            ingest_day(tmp_path, store, day, [feed_item("CVE-2021-0001")])
        args = cli.build_parser().parse_args(
            ["stats", "--report", "daily", "--from", "2021-06-01", "--to", "2021-06-03",
             "--store", store]
        )
        days = cli._snapshots(args)
        first = weakref.ref(next(days))
        second = next(days)
        assert first() is None  # freed before the last day is loaded
        last = next(days)
        assert last.records["CVE-2021-0001"] is second.records["CVE-2021-0001"]
        assert next(days, None) is None

    def test_ranktest_report(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "1\n2\n")
        b = write(tmp_path, "b.txt", "3\n4\n")
        code = main(["stats", "--report", "ranktest", "--scores-a", a, "--scores-b", b])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "EXACT"
        assert payload["u_statistic"] == 0.0
        assert abs(payload["p_value"] - 1 / 3) < 1e-12

    @pytest.mark.parametrize("text", ["nan\n1\n5\n", "1\n5\nNaN\n"], ids=["first", "last"])
    def test_ranktest_nan_score_exits_2(self, tmp_path, capsys, text):
        a = write(tmp_path, "a.txt", text)
        b = write(tmp_path, "b.txt", "2\n3\n4\n")
        for argv in (["--scores-a", a, "--scores-b", b], ["--scores-a", b, "--scores-b", a]):
            assert main(["stats", "--report", "ranktest", *argv]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err.startswith("error: ") and out.err.count("\n") == 1

    def test_ranktest_accepts_infinite_scores(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "inf\n1\n5\n")
        b = write(tmp_path, "b.txt", "2\n3\n-inf\n")
        assert main(["stats", "--report", "ranktest", "--scores-a", a, "--scores-b", b]) == 0
        assert json.loads(capsys.readouterr().out)["n1"] == 3

    def test_ranktest_method_override(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "1\n2\n5\n")
        b = write(tmp_path, "b.txt", "3\n4\n9\n")
        code = main(
            ["stats", "--report", "ranktest", "--scores-a", a, "--scores-b", b,
             "--method", "normal"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["method"] == "NORMAL_APPROX"

    def test_missing_range_args_exit_2(self, store):
        assert main(["stats", "--report", "daily", "--store", store]) == 2

    def test_daily_report_csv(self, tmp_path, store, capsys):
        _stats_history(tmp_path, store)
        capsys.readouterr()
        code = main(
            ["stats", "--report", "daily", "--from", "2021-06-01", "--to", "2021-06-03",
             "--store", store, "--csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "date,total_reports,missing_cvss,missing_cpe,missing_mitigation"
        assert lines[1] == "2021-06-02,2,2,1,2"

    @pytest.mark.parametrize(
        "report, summary",
        [
            (["delays", "--field", "cvss"], "completed=1 updated_no_field=1 never=1 average_days=2.0"),
            (["vendors"], "skipped_no_vendor=2"),
            (["table"], "dropped_zero_scores=0 initial_total=1 later_total=1"),
            (["daily"], "average_missing_cvss=1.5 average_missing_cpe=1.0 average_missing_mitigation=1.5"),
        ],
    )
    def test_csv_summary_on_stderr(self, tmp_path, store, capsys, report, summary):
        _stats_history(tmp_path, store)
        capsys.readouterr()
        code = main(
            ["stats", "--report", *report, "--from", "2021-06-01", "--to", "2021-06-03",
             "--store", store, "--csv"]
        )
        assert code == 0
        assert capsys.readouterr().err == summary + "\n"

    def test_exact_ranktest_beyond_bound_exits_2(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "".join(f"{2 * i}\n" for i in range(700)))
        b = write(tmp_path, "b.txt", "".join(f"{2 * i + 1}\n" for i in range(700)))
        code = main(
            ["stats", "--report", "ranktest", "--scores-a", a, "--scores-b", b, "--method", "exact"]
        )
        assert code in (0, 2)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert code == 0 or err.startswith("error: exact method is limited")

    def test_vendors_report_csv(self, tmp_path, store, capsys):
        _stats_history(tmp_path, store)
        capsys.readouterr()
        code = main(
            ["stats", "--report", "vendors", "--from", "2021-06-01", "--to", "2021-06-03",
             "--store", store, "--csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "vendor,total,initially_unscored,pct_unscored"
        assert lines[1].startswith("acme,1,1,")


def _rescored_chain(tmp_path, store) -> list[Path]:
    """Five CVEs over three days, CVE-2021-0001 rescored on days 2 and 3:
    day 1 is stored whole, day 2 as its changes to day 1 and day 3 as its
    changes to day 2. Returns the three days' files."""
    for day, score in (("2021-06-01", None), ("2021-06-02", 5.0), ("2021-06-03", 9.8)):
        ingest_day(tmp_path, store, day, [feed_item("CVE-2021-0001", score=score),
                                          *(feed_item(f"CVE-2021-000{n}") for n in range(2, 6))])
    paths = [Path(store) / "snapshots" / f"2021-06-0{n}" for n in (1, 2, 3)]
    assert [json.loads(path.read_text(encoding="utf-8")).get("base") for path in paths] == [
        None, "2021-06-01", "2021-06-02"]
    return paths


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")


class TestStoreFaults:
    """A store edited by hand: each fault exits 4 with one error line that
    names the file, the same line as the oracle's where it loads the day."""

    @pytest.mark.parametrize("edit, where", [
        pytest.param(lambda paths: paths[0].unlink(), "", id="base-deleted"),
        pytest.param(lambda paths: _edit(paths[2], '"removed":[]', '"removed":["CVE-2021-0009"]'),
                     " (changes to 2021-06-02)", id="removes-an-id-the-day-before-lacks"),
    ])
    def test_an_overwrite_whose_later_day_cannot_be_rewritten_whole(
            self, tmp_path, store, capsys, edit, where):
        """Day 3, stored as changes to day 2, is rewritten whole before day 2
        is overwritten; where it cannot be, neither day changes and no temp
        file is left."""
        paths = _rescored_chain(tmp_path, store)
        edit(paths)
        stored = {path.name: path.read_bytes() for path in paths[0].parent.iterdir()}
        feed = write(tmp_path, "again.json", feed_bytes([feed_item("CVE-2021-0001")]))
        capsys.readouterr()
        assert main(["ingest", feed, "--date", "2021-06-02", "--store", store, "--overwrite"]) == 4
        err = capsys.readouterr().err
        assert err == (f"again.json: 0 rejected item(s)\nerror: snapshot file {paths[2]}{where} "
                       "cannot be replayed to be rewritten whole\n")
        assert {path.name: path.read_bytes() for path in paths[0].parent.iterdir()} == stored

    def _assert_load_error(self, capsys, store, day: str, message: str) -> None:
        code = main(["stats", "--report", "daily", "--from", day, "--to", day, "--store", store])
        assert code == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        with pytest.raises(SnapshotIntegrityError) as oracle:
            oracle_load_snapshot(store, date.fromisoformat(day))
        assert str(oracle.value) == message

    def test_a_day_stamped_with_another_date(self, tmp_path, store, capsys):
        paths = _rescored_chain(tmp_path, store)
        copy = paths[0].with_name("2021-06-05")
        copy.write_bytes(paths[0].read_bytes())
        capsys.readouterr()
        self._assert_load_error(capsys, store, "2021-06-05",
                                f"snapshot file {copy} is stamped 2021-06-01")

    def test_a_delta_head_with_an_id_that_is_not_a_string(self, tmp_path, store, capsys):
        paths = _rescored_chain(tmp_path, store)
        payload = json.loads(paths[1].read_text(encoding="utf-8"))
        payload["removed"] = [1]
        paths[1].write_text(DAY_LAYOUTS["indented"](payload), encoding="utf-8")
        capsys.readouterr()
        self._assert_load_error(capsys, store, "2021-06-02",
                                f"corrupt snapshot file {paths[1]}: malformed delta head")

    def test_a_corrupt_line_a_later_day_supersedes(self, tmp_path, store, capsys):
        """A load of day 3 decodes only the newest line of each id, so it
        never meets day 2's corrupt line for the CVE that day 3 rescores;
        the oracle decodes every file whole and does. Each load of day 2
        itself names the fault."""
        paths = _rescored_chain(tmp_path, store)
        _edit(paths[1], '"published":"2021-06-01"', '"published":"x2021-06-01"')
        assert len(load_snapshot(store, date(2021, 6, 3)).records) == 5
        with pytest.raises(SnapshotIntegrityError):
            oracle_load_snapshot(store, date(2021, 6, 3))
        with pytest.raises(SnapshotIntegrityError) as day_2:
            load_snapshot(store, date(2021, 6, 2))
        message = str(day_2.value)
        assert message.startswith(f"corrupt snapshot file {paths[1]} (changes to 2021-06-01): ")
        assert "x2021-06-01" in message
        inventory = write(tmp_path, "inv.csv", INVENTORY)
        tickets = ["tickets", "--date", "2021-06-03", "--store", store, "--inventory", inventory]
        stats = ["stats", "--report", "daily", "--to", "2021-06-03", "--store", store]
        capsys.readouterr()
        assert main([*stats, "--from", "2021-06-03"]) == 0
        assert main([*tickets, "--full"]) == 0
        capsys.readouterr()
        for argv in ([*stats, "--from", "2021-06-02"], tickets):
            assert main(argv) == 4
            assert capsys.readouterr().err == f"error: {message}\n"


# stdout of every stats report on _stats_history, as JSON and as CSV
GOLDEN_STATS = {
    ("daily", False): """{
  "report": "daily",
  "days": [
    {
      "date": "2021-06-02",
      "total_reports": 2,
      "missing_cvss": 2,
      "missing_cpe": 1,
      "missing_mitigation": 2
    },
    {
      "date": "2021-06-03",
      "total_reports": 1,
      "missing_cvss": 1,
      "missing_cpe": 1,
      "missing_mitigation": 1
    }
  ],
  "average_missing_cvss": 1.5,
  "average_missing_cpe": 1.0,
  "average_missing_mitigation": 1.5
}
""",
    ("daily", True): (
        "date,total_reports,missing_cvss,missing_cpe,missing_mitigation\n"
        "2021-06-02,2,2,1,2\n"
        "2021-06-03,1,1,1,1\n"
    ),
    ("delays", False): """{
  "report": "delays",
  "field": "CVSS",
  "completed": 1,
  "updated_no_field": 1,
  "never": 1,
  "average_days": 2.0,
  "delays": [
    {
      "cve_id": "CVE-2021-0002",
      "published": "2021-06-01",
      "completed": "2021-06-03",
      "field": "CVSS",
      "days": 2
    }
  ]
}
""",
    ("delays", True): (
        "cve_id,published,completed,field,days\n"
        "CVE-2021-0002,2021-06-01,2021-06-03,CVSS,2\n"
    ),
    ("vendors", False): """{
  "report": "vendors",
  "skipped_no_vendor": 2,
  "vendors": [
    {
      "vendor": "acme",
      "total": 1,
      "initially_unscored": 1,
      "pct_unscored": 1.0
    },
    {
      "vendor": "microsoft",
      "total": 1,
      "initially_unscored": 0,
      "pct_unscored": 0.0
    }
  ]
}
""",
    ("vendors", True): (
        "vendor,total,initially_unscored,pct_unscored\n"
        "acme,1,1,1.0\n"
        "microsoft,1,0,0.0\n"
    ),
    ("table", False): """{
  "report": "table",
  "dropped_zero_scores": 0,
  "initial_total": 1,
  "later_total": 1,
  "rows": [
    {
      "level": "CRITICAL",
      "initial_count": 1,
      "initial_pct": 100,
      "later_count": 0,
      "later_pct": 0
    },
    {
      "level": "HIGH",
      "initial_count": 0,
      "initial_pct": 0,
      "later_count": 0,
      "later_pct": 0
    },
    {
      "level": "MEDIUM",
      "initial_count": 0,
      "initial_pct": 0,
      "later_count": 1,
      "later_pct": 100
    },
    {
      "level": "LOW",
      "initial_count": 0,
      "initial_pct": 0,
      "later_count": 0,
      "later_pct": 0
    }
  ]
}
""",
    ("table", True): (
        "level,initial_count,initial_pct,later_count,later_pct\n"
        "CRITICAL,1,100,0,0\n"
        "HIGH,0,0,0,0\n"
        "MEDIUM,0,0,1,100\n"
        "LOW,0,0,0,0\n"
    ),
    ("ranktest", False): """{
  "report": "ranktest",
  "u_statistic": 2.0,
  "p_value": 0.4,
  "method": "EXACT",
  "n1": 3,
  "n2": 3
}
""",
    ("ranktest", True): "u_statistic,p_value,method,n1,n2\n2.0,0.4,EXACT,3,3\n",
}


# What each stats report needs and may take besides, in the README's table order.
NEEDS = {
    "daily": ("--from", "--to"),
    "delays": ("--from", "--to", "--field"),
    "vendors": ("--from", "--to"),
    "table": ("--from", "--to"),
    "ranktest": ("--scores-a", "--scores-b"),
}
TAKES = {"daily": (), "delays": (), "vendors": ("--stopwords",), "table": (),
         "ranktest": ("--method",)}
READS = {report: NEEDS[report] + TAKES[report] for report in NEEDS}
# The report options in the parser's order.
REPORT_OPTIONS = ("--stopwords", "--from", "--to", "--field", "--scores-a", "--scores-b",
                  "--method")


def option_values(root: Path) -> dict[str, str]:
    """A value for each report option; the files are named under ``root``."""
    return {"--stopwords": str(root / "stop.txt"), "--from": "2021-06-01", "--to": "2021-06-01",
            "--field": "cvss", "--scores-a": str(root / "a.txt"),
            "--scores-b": str(root / "b.txt"), "--method": "exact"}


def stats_argv(report: str, options, values: dict[str, str], store: str) -> list[str]:
    return ["stats", "--report", report,
            *(part for option in options for part in (option, values[option])), "--store", store]


class TestStatsReportOptions:
    """Each report takes only the options it reads, and needs its own: one
    check refuses the rest before anything is read."""

    @pytest.mark.parametrize("report, option", [
        (report, option) for report in READS for option in READS[report]])
    def test_an_option_the_report_reads_is_accepted(self, tmp_path, store, capsys, report,
                                                    option):
        ingest_day(tmp_path, store, "2021-06-01", [feed_item("CVE-2021-0001", score=5.0)])
        for name, text in (("stop.txt", "server\n"), ("a.txt", "1\n2\n5\n"),
                           ("b.txt", "3\n4\n9\n")):
            write(tmp_path, name, text)
        capsys.readouterr()
        options = dict.fromkeys([*NEEDS[report], option])
        assert main(stats_argv(report, options, option_values(tmp_path), store)) == 0
        assert json.loads(capsys.readouterr().out)["report"] == report

    @pytest.mark.parametrize("report, option", [
        (report, option) for report in READS for option in REPORT_OPTIONS
        if option not in READS[report]])
    def test_a_foreign_option_exits_2(self, tmp_path, capsys, report, option):
        """The store and every file named do not exist, so any read before
        the check would name one of them."""
        missing = tmp_path / "missing"
        argv = stats_argv(report, [*NEEDS[report], option], option_values(missing),
                          str(missing / "store"))
        assert main(argv) == 2
        readers = ", ".join(name for name in READS if option in READS[name])
        assert capsys.readouterr() == (
            "", f"error: {option} is read only by --report {readers}, not {report}\n")
        assert not missing.exists()

    def test_the_first_foreign_option_in_the_parser_order_is_named(self, tmp_path, capsys):
        values = option_values(tmp_path / "missing")
        argv = stats_argv("ranktest", ["--method", "--field", "--to"], values, str(tmp_path))
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: --to is read only by --report daily, delays, vendors, table, not ranktest\n")

    @pytest.mark.parametrize("report, option", [
        (report, option) for report in NEEDS for option in NEEDS[report]])
    def test_each_missing_needed_option_exits_2(self, tmp_path, capsys, report, option):
        missing = tmp_path / "missing"
        options = [other for other in READS[report] if other != option]
        assert main(stats_argv(report, options, option_values(missing), str(missing))) == 2
        assert capsys.readouterr() == ("", f"error: --report {report} needs {option}\n")

    @pytest.mark.parametrize("report, names", [
        ("daily", "--from and --to"),
        ("delays", "--from, --to and --field"),
        ("vendors", "--from and --to"),
        ("table", "--from and --to"),
        ("ranktest", "--scores-a and --scores-b"),
    ])
    def test_every_missing_needed_option_is_named(self, tmp_path, capsys, report, names):
        assert main(["stats", "--report", report, "--store", str(tmp_path / "missing")]) == 2
        assert capsys.readouterr() == ("", f"error: --report {report} needs {names}\n")

    def test_a_foreign_option_is_named_before_a_missing_one(self, capsys):
        assert main(["stats", "--report", "ranktest", "--field", "cvss"]) == 2
        assert capsys.readouterr().err == (
            "error: --field is read only by --report delays, not ranktest\n")

    def test_ranktest_method_is_auto_when_left_out(self, tmp_path, capsys):
        a, b = write(tmp_path, "a.txt", "1\n2\n5\n"), write(tmp_path, "b.txt", "3\n4\n9\n")
        argv = ["stats", "--report", "ranktest", "--scores-a", a, "--scores-b", b]
        outputs = []
        for extra in ([], ["--method", "auto"]):
            assert main([*argv, *extra]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].out.startswith("{")

    def test_foreign_options_that_used_to_be_ignored_exit_2(self, tmp_path, store, capsys):
        """Both commands exited 0, each dropping the options its report does not read."""
        ingest_day(tmp_path, store, "2021-06-01", [feed_item("CVE-2021-0001")])
        a, b = write(tmp_path, "a.txt", "1\n2\n5\n"), write(tmp_path, "b.txt", "3\n4\n9\n")
        capsys.readouterr()
        assert main(["stats", "--report", "ranktest", "--scores-a", a, "--scores-b", b,
                     "--from", "2021-06-01", "--to", "2021-06-09", "--field", "cvss",
                     "--store", str(tmp_path / "nonexistent")]) == 2
        assert capsys.readouterr() == (
            "", "error: --from is read only by --report daily, delays, vendors, table, "
                "not ranktest\n")
        assert main(["stats", "--report", "daily", "--from", "2021-06-01", "--to", "2021-06-01",
                     "--field", "cvss", "--scores-a", str(tmp_path / "missing.txt"),
                     "--method", "exact", "--store", store]) == 2
        assert capsys.readouterr() == (
            "", "error: --field is read only by --report delays, not daily\n")

    def test_report_options_follow_the_parser(self):
        """The check names the first foreign option in the parser's order, and
        finds each option where argparse stores it."""
        (subcommands,) = [action for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction)]
        dests = {action.option_strings[0]: action.dest
                 for action in subcommands.choices["stats"]._actions if action.option_strings}
        assert [option for option in dests if option in REPORT_OPTIONS] == list(REPORT_OPTIONS)
        assert cli.REPORT_OPTIONS == {option: dests[option] for option in REPORT_OPTIONS}


class TestStatsGolden:
    """Whole stdout of each report, so a change of format shows byte for byte."""

    def _argv(self, tmp_path, store, report, last_day="2021-06-03"):
        if report == "ranktest":
            a = write(tmp_path, "a.txt", "1\n2\n5\n")
            b = write(tmp_path, "b.txt", "3\n4\n9\n")
            return ["stats", "--report", "ranktest", "--scores-a", a, "--scores-b", b]
        field = ["--field", "cvss"] if report == "delays" else []
        return ["stats", "--report", report, *field,
                "--from", "2021-06-01", "--to", last_day, "--store", store]

    @pytest.mark.parametrize("as_csv", [False, True], ids=["json", "csv"])
    @pytest.mark.parametrize("report", ["daily", "delays", "vendors", "table", "ranktest"])
    def test_stdout(self, tmp_path, store, capsys, report, as_csv):
        _stats_history(tmp_path, store)
        capsys.readouterr()
        argv = self._argv(tmp_path, store, report) + (["--csv"] if as_csv else [])
        assert main(argv) == 0
        assert capsys.readouterr().out == GOLDEN_STATS[(report, as_csv)]

    def test_empty_reports_keep_their_header(self, tmp_path, store, capsys):
        _stats_history(tmp_path, store)
        capsys.readouterr()
        daily = self._argv(tmp_path, store, "daily", last_day="2021-06-01")
        delays = self._argv(tmp_path, store, "delays", last_day="2021-06-01")
        outputs = []
        for argv in (daily, daily + ["--csv"], delays, delays + ["--csv"]):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs == [
            '{\n  "report": "daily",\n  "days": []\n}\n',
            "date,total_reports,missing_cvss,missing_cpe,missing_mitigation\n",
            '{\n  "report": "delays",\n  "field": "CVSS",\n  "completed": 0,\n'
            '  "updated_no_field": 0,\n  "never": 0,\n  "average_days": null,\n  "delays": []\n}\n',
            "cve_id,published,completed,field,days\n",
        ]


class TestBuildFilterAndEvaluate:
    def _feeds(self, tmp_path):
        items = [
            feed_item(
                "CVE-2020-0001",
                published="2020-05-01T00:00Z",
                summary="Microsoft Hyper-V Virtual flaw on Windows hosts",
                cpes=[cpe23("microsoft", "windows")],
            ),
            feed_item(
                "CVE-2020-0002",
                published="2020-05-02T00:00Z",
                summary="anvil overflow, px x appears as a stand alone word",
                cpes=[cpe23("acme", "anvil")],
            ),
            feed_item("CVE-2020-0003", published="2020-05-03T00:00Z", summary="no cpe here"),
        ]
        return write(tmp_path, "hist.json", feed_bytes(items))

    def test_filter_files_match_library_output(self, tmp_path, capsys):
        feed = self._feeds(tmp_path)
        dictionary = write(tmp_path, "dict.json", json.dumps(DICTIONARY))
        out_v = str(tmp_path / "vendors.txt")
        out_p = str(tmp_path / "products.txt")
        code = main(
            ["build-filter", feed, "--dictionary", dictionary,
             "--out-vendors", out_v, "--out-products", out_p, "--source-year", "2020"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["corpus_records"] == 2
        assert payload["excluded_no_cpe"] == 1

        from cvesentinel.ingest import parse_cpe_dictionary, parse_feed, read_feed_bytes
        from cvesentinel.matcher import build_fp_filter

        with read_feed_bytes(feed) as stream:
            records = [r for r in parse_feed(stream).records if r.cpe_list]
        expected = build_fp_filter(
            records, parse_cpe_dictionary((tmp_path / "dict.json").read_bytes()),
            source_year="2020",
        )
        expected.save(tmp_path / "expect_v.txt", tmp_path / "expect_p.txt")
        assert (tmp_path / "vendors.txt").read_bytes() == (tmp_path / "expect_v.txt").read_bytes()
        assert (tmp_path / "products.txt").read_bytes() == (tmp_path / "expect_p.txt").read_bytes()

    def test_source_year_with_line_break_exits_2(self, tmp_path, capsys):
        feed = self._feeds(tmp_path)
        dictionary = write(tmp_path, "dict.json", json.dumps(DICTIONARY))
        out_v, out_p = tmp_path / "vendors.txt", tmp_path / "products.txt"
        code = main(
            ["build-filter", feed, "--dictionary", dictionary, "--out-vendors", str(out_v),
             "--out-products", str(out_p), "--source-year", "2020\nwidget"]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("error: ")] == [
            "error: source year '2020\\nwidget' is not one line"
        ]
        assert not out_v.exists() and not out_p.exists()

    def test_bad_source_year_is_refused_before_any_input_is_read(self, tmp_path, capsys):
        feed = self._feeds(tmp_path)
        out_v, out_p = tmp_path / "vendors.txt", tmp_path / "products.txt"
        code = main(
            ["build-filter", feed, "--dictionary", str(tmp_path / "missing.xml"),
             "--out-vendors", str(out_v), "--out-products", str(out_p),
             "--source-year", "2020\nx"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert err == "error: source year '2020\\nx' is not one line\n"
        assert not out_v.exists() and not out_p.exists()

    def _corpus(self, tmp_path, items, entries) -> list[str]:
        """A corpus feed of the given items and a dictionary of the given CPE
        names, as command arguments."""
        feed = write(tmp_path, "corpus.json", feed_bytes(items))
        dictionary = write(tmp_path, "dict.json", json.dumps([{"cpe23": raw} for raw in entries]))
        return [feed, "--dictionary", dictionary]

    def test_build_filter_with_stop_words(self, tmp_path, capsys):
        """The list reaches the dictionary's names and the corpus's own CPE
        names: "widget" joins the filter, and "gadget" is the record's own."""
        item = feed_item("CVE-2020-0001", summary="Widget Server and Gadget flaw",
                         cpes=[cpe23("acme", "gadget_server")])
        entries = [cpe23("acme", "widget_server"), cpe23("acme", "gadget")]
        corpus = self._corpus(tmp_path, [item], entries)
        products = tmp_path / "p.txt"
        argv = ["build-filter", *corpus, "--out-vendors", str(tmp_path / "v.txt"),
                "--out-products", str(products)]
        stop_words = write(tmp_path, "stop.txt", "server\n")
        names = {}
        for extra in ([], ["--stopwords", stop_words]):
            assert main([*argv, *extra]) == 0
            lines = products.read_text(encoding="utf-8").splitlines()
            names[bool(extra)] = [line for line in lines if not line.startswith("#")]
        assert names == {False: ["gadget", "widget server"], True: ["widget"]}

    def test_evaluate_with_stop_words(self, tmp_path, capsys):
        """The list reaches the record's own names, which the summary then
        holds (tp), and the dictionary's, whose foreign pair it holds (fp)."""
        item = feed_item("CVE-2020-0001", summary="Zenith Gizmo flaw in Widget",
                         cpes=[cpe23("acme", "widget_server")])
        argv = ["evaluate", *self._corpus(tmp_path, [item], [cpe23("zenith", "gizmo_server")])]
        stop_words = write(tmp_path, "stop.txt", "server\n")
        capsys.readouterr()
        scores = {}
        for extra in ([], ["--stopwords", stop_words]):
            assert main([*argv, *extra]) == 0
            payload = json.loads(capsys.readouterr().out)
            scores[bool(extra)] = (payload["tp"], payload["fp"])
        assert scores == {False: (0, 0), True: (1, 1)}

    def test_evaluate_matches_oracle(self, tmp_path, capsys):
        feed = self._feeds(tmp_path)
        dictionary = write(tmp_path, "dict.json", json.dumps(DICTIONARY))
        code = main(["evaluate", feed, "--dictionary", dictionary])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)

        from cvesentinel.ingest import parse_cpe_dictionary, parse_feed, read_feed_bytes

        with read_feed_bytes(feed) as stream:
            records = [r for r in parse_feed(stream).records if r.cpe_list]
        expected = oracle_evaluate(records, parse_cpe_dictionary((tmp_path / "dict.json").read_bytes()))
        assert payload == expected

    def test_dictionary_skips_reported(self, tmp_path, capsys):
        feed = self._feeds(tmp_path)
        entries = [*DICTIONARY, {"cpe23": "garbage"}, {"cpe23": cpe23("acme", "3.0")}, {}]
        dictionary = write(tmp_path, "dict.json", json.dumps(entries))
        out_v, out_p = str(tmp_path / "vendors.txt"), str(tmp_path / "products.txt")
        for argv in (
            ["build-filter", feed, "--dictionary", dictionary, "--out-vendors", out_v,
             "--out-products", out_p],
            ["evaluate", feed, "--dictionary", dictionary],
        ):
            assert main(argv) == 0
            assert "dictionary: 3 entr(ies) skipped" in capsys.readouterr().err.splitlines()

    def test_evaluate_filter_flags_are_gone(self, tmp_path, capsys):
        feed = self._feeds(tmp_path)
        dictionary = write(tmp_path, "dict.json", json.dumps(DICTIONARY))
        names = write(tmp_path, "names.txt", "#source_year=2020\n")
        for flag in ("--filter-vendors", "--filter-products"):
            with pytest.raises(SystemExit) as exc:
                main(["evaluate", feed, "--dictionary", dictionary, flag, names])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    def test_non_utf8_dictionary_exits_2(self, tmp_path, capsys):
        feed = self._feeds(tmp_path)
        dictionary = write(tmp_path, "dict.json", b"[\xff]")
        assert main(["evaluate", feed, "--dictionary", dictionary]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("text", UNPARSEABLE_JSON.values(), ids=UNPARSEABLE_JSON.keys())
    def test_unparseable_dictionary_json_exits_2(self, tmp_path, capsys, text):
        feed = self._feeds(tmp_path)
        dictionary = write(tmp_path, "dict.json", text)
        code = main(["build-filter", feed, "--dictionary", dictionary,
                     "--out-vendors", str(tmp_path / "v.txt"), "--out-products", str(tmp_path / "p.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_line_error(err)
        assert err.startswith("error: unparseable CPE dictionary JSON")
        assert gc.isenabled()

    def test_min_name_len_one_raises_fp_count(self, tmp_path, capsys):
        feed = self._feeds(tmp_path)
        dictionary = write(tmp_path, "dict.json", json.dumps(DICTIONARY))
        main(["evaluate", feed, "--dictionary", dictionary])
        default_report = json.loads(capsys.readouterr().out)
        main(["evaluate", feed, "--dictionary", dictionary, "--min-name-len", "1"])
        loose_report = json.loads(capsys.readouterr().out)
        assert loose_report["elided_names"] == 0
        assert default_report["elided_names"] > 0
        assert loose_report["fp"] > default_report["fp"]


class TestTextFiles:
    @pytest.mark.parametrize(
        "kind", ["score-file", "stop-words", "filter-list", "feed", "inventory", "dictionary"])
    def test_non_utf8_exits_2_without_traceback(self, tmp_path, store, capsys, kind):
        bad = write(tmp_path, "bad.txt", b"1\ncaf\xe9\n")
        good = write(tmp_path, "good.txt", "1\n2\n")
        ranktest = ["stats", "--report", "ranktest", "--scores-b", good]
        if kind == "feed":
            argv = ["ingest", bad, "--date", "2021-06-01", "--store", store]
        elif kind == "inventory":
            ingest_day(tmp_path, store, "2021-06-01", [feed_item("CVE-2021-0001")])
            argv = ["tickets", "--full", "--date", "2021-06-01", "--store", store, "--inventory", bad]
        elif kind == "dictionary":
            feed = write(tmp_path, "feed.json", feed_bytes([feed_item("CVE-2021-0001")]))
            argv = ["build-filter", feed, "--dictionary", bad, "--out-vendors", str(tmp_path / "v"),
                    "--out-products", str(tmp_path / "p")]
        elif kind == "score-file":
            argv = [*ranktest, "--scores-a", bad]
        elif kind == "stop-words":
            argv = ["stats", "--report", "vendors", "--from", "2021-06-01", "--to", "2021-06-01",
                    "--store", store, "--stopwords", bad]
        else:
            for day in ("2021-06-01", "2021-06-02"):
                ingest_day(tmp_path, store, day, [feed_item("CVE-2021-0001")])
            argv = ["tickets", "--date", "2021-06-02", "--store", store,
                    "--inventory", write(tmp_path, "inv.csv", INVENTORY),
                    "--filter-vendors", bad, "--filter-products", good]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not UTF-8 text") and err.count("\n") == 1

    def test_byte_order_mark_ignored(self, tmp_path, store, capsys):
        a = write(tmp_path, "a.txt", "\ufeff1\n2\n".encode("utf-8"))
        b = write(tmp_path, "b.txt", "3\n4\n")
        assert main(["stats", "--report", "ranktest", "--scores-a", a, "--scores-b", b]) == 0
        assert json.loads(capsys.readouterr().out)["u_statistic"] == 0.0
        ingest_day(tmp_path, store, "2021-06-01", [
            feed_item("CVE-2021-0001", cpes=[cpe23("acme_server", "anvil")])])
        stop_words = write(tmp_path, "stop.txt", "\ufeffserver\n".encode("utf-8"))
        capsys.readouterr()
        assert main(["stats", "--report", "vendors", "--from", "2021-06-01", "--to", "2021-06-01",
                     "--store", store, "--stopwords", stop_words]) == 0
        assert [v["vendor"] for v in json.loads(capsys.readouterr().out)["vendors"]] == ["acme"]


class TestStopWordFile:
    def test_line_that_is_not_one_token_exits_2(self, tmp_path, store, capsys):
        stop_words = write(tmp_path, "stop.txt", "inc\ne-commerce\n")
        argv = ["stats", "--report", "vendors", "--from", "2021-06-01", "--to", "2021-06-01",
                "--store", store]
        assert main([*argv, "--stopwords", stop_words]) == 2
        err = capsys.readouterr().err
        assert err == "error: stop-word line 2 is not exactly one token: 'e-commerce'\n"


class TestEnvironment:
    def test_store_env_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SENTINEL_STORE", str(tmp_path / "env-store"))
        feed = write(tmp_path, "f.json", feed_bytes([feed_item("CVE-2021-0001")]))
        assert main(["ingest", feed, "--date", "2021-06-01"]) == 0
        assert (tmp_path / "env-store" / "snapshots" / "2021-06-01").exists()

    def test_output_flag_writes_file(self, tmp_path, store, capsys):
        feed = write(tmp_path, "f.json", feed_bytes([feed_item("CVE-2021-0001")]))
        out = tmp_path / "report.json"
        assert main(
            ["ingest", feed, "--date", "2021-06-01", "--store", store, "--output", str(out)]
        ) == 0
        assert json.loads(out.read_text())["stored"] == 1
        assert capsys.readouterr().out == ""


# Runs the CLI on its arguments, then writes the names of the loaded modules
# as the last line of standard error.
_MODULES_SCRIPT = """
import sys
from cvesentinel.cli import main
code = main(sys.argv[1:])
print(*sorted(sys.modules), file=sys.stderr)
raise SystemExit(code)
"""


class TestImports:
    """Each command loads only the modules it runs: ``hashlib``'s OpenSSL
    module and the package modules a command does not call cost every
    process their import time and memory."""

    def loaded_modules(self, argv: list[str]) -> set[str]:
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("SENTINEL_STORE", None)
        run = subprocess.run([sys.executable, "-c", _MODULES_SCRIPT, *argv],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        return set(run.stderr.splitlines()[-1].split())

    def test_commands_leave_unused_modules_unloaded(self, tmp_path, store):
        days = {"2021-06-01": [feed_item("CVE-2021-0001", cpes=[cpe23("acme", "x")])],
                "2021-06-02": [feed_item("CVE-2021-0001", cpes=[cpe23("acme", "x")]),
                               feed_item("CVE-2021-0002", summary="flaw in Geotab R2D2")]}
        for day, items in days.items():
            feed = write(tmp_path, f"{day}.json.gz", gzip.compress(feed_bytes(items)))
            loaded = self.loaded_modules(["ingest", feed, "--date", day, "--store", store])
            assert "cvesentinel.ingest" in loaded
            assert not loaded & {"cvesentinel.analytics", "cvesentinel.matcher",
                                 "cvesentinel.ticketer", "hashlib", "_hashlib"}
        inventory = write(tmp_path, "inv.csv", INVENTORY)
        loaded = self.loaded_modules(["tickets", "--date", "2021-06-02", "--store", store,
                                      "--inventory", inventory])
        assert {"cvesentinel.matcher", "cvesentinel.ticketer"} <= loaded
        assert not loaded & {"cvesentinel.analytics", "hashlib", "_hashlib"}
        loaded = self.loaded_modules(["stats", "--report", "daily", "--from", "2021-06-01",
                                      "--to", "2021-06-02", "--store", store])
        assert "cvesentinel.analytics" in loaded
        assert not loaded & {"cvesentinel.matcher", "cvesentinel.ticketer", "hashlib", "_hashlib"}
