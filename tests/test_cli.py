"""End-to-end command-line behavior and exit codes."""

from __future__ import annotations

import gzip
import json

import pytest

from conftest import cpe23, feed_bytes, feed_item
from cvesentinel.cli import main
from oracles import oracle_evaluate


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


class TestIngest:
    def test_two_disjoint_feeds_union(self, tmp_path, store, capsys):
        f1 = write(tmp_path, "a.json", feed_bytes([feed_item("CVE-2021-0001")]))
        f2 = write(tmp_path, "b.json", feed_bytes([feed_item("CVE-2021-0002")]))
        assert main(["ingest", f1, f2, "--date", "2021-06-01", "--store", store]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stored"] == 2

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

    def test_malformed_item_rejected_but_exit_zero(self, tmp_path, store, capsys):
        items = [feed_item("CVE-2021-0001"), feed_item(None)]
        assert ingest_day(tmp_path, store, "2021-06-01", items) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stored"] == 1
        assert payload["rejected_total"] == 1

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

    def test_gap_in_range_names_missing_date(self, tmp_path, store, capsys):
        ingest_day(tmp_path, store, "2021-06-01", [feed_item("CVE-2021-0001")])
        ingest_day(tmp_path, store, "2021-06-03", [feed_item("CVE-2021-0001")])
        capsys.readouterr()
        code = main(
            ["stats", "--report", "daily", "--from", "2021-06-01", "--to", "2021-06-03",
             "--store", store]
        )
        assert code == 2
        assert "2021-06-02" in capsys.readouterr().err

    def test_ranktest_report(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "1\n2\n")
        b = write(tmp_path, "b.txt", "3\n4\n")
        code = main(["stats", "--report", "ranktest", "--scores-a", a, "--scores-b", b])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "EXACT"
        assert payload["u_statistic"] == 0.0
        assert abs(payload["p_value"] - 1 / 3) < 1e-12

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

        records = [r for r in parse_feed(read_feed_bytes(feed)).records if r.cpe_list]
        expected = build_fp_filter(
            records, parse_cpe_dictionary((tmp_path / "dict.json").read_bytes()),
            source_year="2020",
        )
        expected.save(tmp_path / "expect_v.txt", tmp_path / "expect_p.txt")
        assert (tmp_path / "vendors.txt").read_bytes() == (tmp_path / "expect_v.txt").read_bytes()
        assert (tmp_path / "products.txt").read_bytes() == (tmp_path / "expect_p.txt").read_bytes()

    def test_evaluate_matches_oracle(self, tmp_path, capsys):
        feed = self._feeds(tmp_path)
        dictionary = write(tmp_path, "dict.json", json.dumps(DICTIONARY))
        code = main(["evaluate", feed, "--dictionary", dictionary])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)

        from cvesentinel.ingest import parse_cpe_dictionary, parse_feed, read_feed_bytes

        records = [r for r in parse_feed(read_feed_bytes(feed)).records if r.cpe_list]
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
