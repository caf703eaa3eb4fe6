"""Feed, dictionary, and inventory parsing; snapshot store and diffing."""

from __future__ import annotations

import errno
import gc
import gzip
import io
import json
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DAY_LAYOUTS, compact_day, cpe23, feed_bytes, feed_item, make_record, snapshot_of, store_snapshot,
)
from cvesentinel import ingest, store
from cvesentinel.cli import main
from cvesentinel.errors import (
    FeedParseError,
    FormatError,
    OrderingError,
    SnapshotExistsError,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
    ValidationError,
)
from cvesentinel.ingest import (
    Snapshot,
    diff_snapshots,
    find_previous_date,
    list_snapshot_dates,
    load_snapshot,
    load_snapshots,
    parse_asset_inventory,
    parse_cpe_dictionary,
    parse_feed,
    read_feed_bytes,
    snapshot_path,
)
from cvesentinel.model import CveRecord
from cvesentinel.normalize import StopWordList
from oracles import (
    oracle_diff_snapshots,
    oracle_gather_cpe_uris,
    oracle_inventory_rows,
    oracle_load_snapshot,
    oracle_parse_feed,
    oracle_store_snapshot,
)


# CPE names repeated across nodes and items; the last three are rejected.
_CPE_POOL = [cpe23("acme", "anvil"), cpe23("acme", "anvil", "2.0"), cpe23("px", "x"),
             cpe23("geotab", "r2d2"), "cpe:2.3:a:truncated", "not a cpe", 5]


def _config_node(depth: int):
    """A configuration node with at most ``depth`` levels of children."""
    match = st.sampled_from(_CPE_POOL[:4] * 6 + _CPE_POOL[4:]).map(lambda raw: {"cpe23Uri": raw})
    children = st.just([]) if depth == 1 else st.lists(_config_node(depth - 1), max_size=2)
    return st.fixed_dictionaries({
        "operator": st.just("OR"),
        "cpe_match": st.lists(match | st.just({"vulnerable": True}), max_size=3),
        "children": children,
    })


class TestParseFeed:
    def test_base_score_extracted(self):
        result = parse_feed(feed_bytes([feed_item("CVE-2021-0001", score=9.8)]))
        assert len(result.records) == 1
        assert float(result.records[0].cvss3_base) == 9.8

    def test_records_of_one_feed_share_their_dates_scores_and_cpe_names(self):
        """One object per distinct date, score notation and CPE string; a
        score of 1 and one of 1.0 stay apart."""
        anvil = [cpe23("acme", "anvil")]
        result = parse_feed(feed_bytes([
            feed_item("CVE-2021-0001", published="2021-06-01T03:15Z", score=7.5, cpes=anvil),
            feed_item("CVE-2021-0002", published="2021-06-01T09:00Z", modified="2021-06-01T10:00Z",
                      score=7.5, cpes=anvil),
            feed_item("CVE-2021-0003", score=1),
            feed_item("CVE-2021-0004", score=1.0),
        ]))
        one, two, three, four = result.records
        assert one.published is two.published is two.last_modified is three.published
        assert one.cvss3_base is two.cvss3_base and one.cpe_list[0] is two.cpe_list[0]
        assert three.cvss3_base.as_tuple() == Decimal("1").as_tuple()
        assert four.cvss3_base.as_tuple() == Decimal("1.0").as_tuple()

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

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    @pytest.mark.parametrize("as_bytes", [True, False], ids=["bytes", "str"])
    def test_malformed_json_offset_is_in_utf8_bytes(self, bom, as_bytes):
        text = bom + '{"CVE_Items":[{"x":"\u00e9\u00e9\u00e9\u00e9\u00e9"},}'
        with pytest.raises(FeedParseError) as info:
            parse_feed(text.encode("utf-8") if as_bytes else text)
        offset = 36 if bom else 33  # the "}" after the comma; each é is two bytes, a mark three
        assert str(info.value) == f"malformed feed JSON at byte {offset}: Expecting value"
        assert info.value.offset == offset
        assert text.encode("utf-8")[offset:offset + 1] == b"}"

    def test_last_cve_items_key_wins(self):
        first, second = feed_item("CVE-2021-0001"), feed_item("CVE-2021-0002")
        text = f'{{"CVE_Items":[{json.dumps(first)}, 5],"CVE_Items":[{json.dumps(second)}]}}'
        result = parse_feed(text)
        assert [r.id for r in result.records] == ["CVE-2021-0002"] and result.rejects == ()
        with pytest.raises(FeedParseError, match="lacks a CVE_Items array"):
            parse_feed(f'{{"CVE_Items":[{json.dumps(first)}],"CVE_Items":{{}}}}')

    @pytest.mark.parametrize("score", ["7.5", " 7.5 ", "75e-1", True])
    def test_score_that_is_not_a_number_is_a_reject(self, score):
        item = feed_item("CVE-2021-0001")
        item["impact"] = {"baseMetricV3": {"cvssV3": {"baseScore": score}}}
        result = parse_feed(feed_bytes([item, feed_item("CVE-2021-0002", score=7.5)]))
        assert [r.id for r in result.records] == ["CVE-2021-0002"]
        assert [r.reason for r in result.rejects] == [f"not a numeric score: {score!r}"]

    @pytest.mark.parametrize(
        "data",
        [b'{"CVE_Items": [{"impact": {"baseMetricV3": {"cvssV3": {"baseScore": '
         + b"9" * 5000 + b"}}}}]}", b"[" * 100_000],
        ids=["5000-digit-number", "deep-nesting"],
    )
    def test_unparseable_json_is_a_feed_error(self, data):
        with pytest.raises(FeedParseError, match="unparseable feed JSON"):
            parse_feed(data)

    @pytest.mark.parametrize("source", ["bytes", "file", "gzip"])
    def test_a_faulty_feed_builds_each_item_at_most_once(self, tmp_path, monkeypatch, source):
        """A feed that breaks after 50 items is walked once: its error comes
        from decoding its text whole, which builds no item."""
        ids = [f"CVE-2021-{n:04d}" for n in range(1, 51)]
        data = feed_bytes([feed_item(cve_id) for cve_id in ids])[:-2] + b', {"cve": }]}'
        built = []
        build = ingest._parse_feed_item

        def spy(item, cpes):
            built.append(item["cve"]["CVE_data_meta"]["ID"])
            return build(item, cpes)

        monkeypatch.setattr(ingest, "_parse_feed_item", spy)
        path = tmp_path / ("feed.json.gz" if source == "gzip" else "feed.json")
        path.write_bytes(gzip.compress(data) if source == "gzip" else data)
        with pytest.raises(FeedParseError, match="malformed feed JSON at byte"):
            if source == "bytes":
                parse_feed(data)
            else:
                with read_feed_bytes(path) as stream:
                    parse_feed(stream)
        assert built == ids

    def test_non_string_reference_is_an_item_reject(self):
        items = [feed_item("CVE-2021-0001", refs=[5]), feed_item("CVE-2021-0002", refs=[["x"]]),
                 feed_item("CVE-2021-0003", refs=["https://a"])]
        result = parse_feed(feed_bytes(items))
        assert [r.id for r in result.records] == ["CVE-2021-0003"]
        assert [(r.cve_id, r.reason) for r in result.rejects] == [
            ("CVE-2021-0001", "CVE-2021-0001: reference is not a string: 5"),
            ("CVE-2021-0002", "CVE-2021-0002: reference is not a string: ['x']"),
        ]

    def test_each_cpe_string_parsed_once_per_feed(self):
        anvil = cpe23("acme", "anvil")
        items = [feed_item("CVE-2021-0001", cpes=[anvil]),
                 feed_item("CVE-2021-0002", cpes=[cpe23("px", "x"), anvil])]
        first, second = parse_feed(feed_bytes(items)).records
        assert first.cpe_list[0] is second.cpe_list[1]

    def test_gzip_transparent(self, tmp_path):
        payload = feed_bytes([feed_item("CVE-2021-0001")])
        path = tmp_path / "feed.json.gz"
        path.write_bytes(gzip.compress(payload))
        with read_feed_bytes(path) as stream:
            assert stream.read() == payload

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


    # Where a JSON value of any type can sit in an item, with the keys on the way to it.
    _SHAPE_PATHS = [
        ("cve",), ("cve", "CVE_data_meta"), ("cve", "CVE_data_meta", "ID"),
        ("cve", "description"), ("cve", "description", "description_data"),
        ("cve", "references"), ("cve", "references", "reference_data"),
        ("configurations",), ("configurations", "nodes"), ("impact",),
        ("impact", "baseMetricV3"), ("impact", "baseMetricV3", "cvssV3"),
        ("impact", "baseMetricV3", "cvssV3", "baseScore"),
    ]
    _JSON = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
        | st.just(cpe23("acme", "anvil")),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["cpe_match", "children", "cpe23Uri", "lang", "value"]),
                          inner, max_size=3),
        max_leaves=8,
    )

    @settings(deadline=None)
    @given(st.sampled_from(_SHAPE_PATHS), _JSON, st.booleans())
    def test_any_shape_is_a_record_or_a_reject(self, path, value, in_node):
        item = feed_item("CVE-2021-0001", summary="s", score=5.0, cpes=[cpe23("acme", "anvil")])
        if in_node:  # inside a configuration node, where the CPE walk recurses
            item["configurations"]["nodes"][0]["children"] = [value]
        else:
            parent = item
            for key in path[:-1]:
                parent = parent.setdefault(key, {})
            parent[path[-1]] = value
        result = parse_feed(feed_bytes([item, feed_item("CVE-2021-0002")]))
        assert len(result.records) + len(result.rejects) == 2
        assert "CVE-2021-0002" in {r.id for r in result.records}

    @settings(deadline=None)
    @given(st.lists(st.lists(_config_node(4), max_size=3), min_size=1, max_size=4))
    def test_cpe_lists_equal_the_recursive_oracle(self, trees):
        items = []
        for n, nodes in enumerate(trees):
            item = feed_item(f"CVE-2021-{n + 1:04d}")
            item["configurations"]["nodes"] = nodes
            items.append(item)
        result = parse_feed(feed_bytes(items))
        records = {r.id: r for r in result.records}
        rejects = {r.cve_id: r.reason for r in result.rejects}
        for item in items:
            cve_id = item["cve"]["CVE_data_meta"]["ID"]
            try:
                expected = oracle_gather_cpe_uris(item["configurations"])
            except ValidationError as exc:
                assert rejects[cve_id] == str(exc)
                continue
            assert list(records[cve_id].cpe_list) == expected
            assert [u.raw for u in records[cve_id].cpe_list] == [u.raw for u in expected]


_FEED_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from([0.5, 1e300, "", "caf\u00e9"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["a", "\u2603"]), inner, max_size=2),
    max_leaves=6,
)
_BUILT_ITEM = st.builds(
    lambda n, summary, score, cpes, refs: feed_item(
        f"CVE-2021-{n:04d}", summary=summary, score=score, cpes=cpes, refs=refs),
    st.integers(1, 4),
    st.sampled_from(["", "caf\u00e9 \u2603 flaw", 'a "quoted" \\ value']),
    st.sampled_from([None, 0, 7.5, 10.0, 7.5, "7.5", 11.5]),
    st.lists(st.sampled_from(_CPE_POOL[:4] * 4 + _CPE_POOL[4:]), max_size=2),
    st.lists(st.sampled_from(["https://a", "https://b", "https://c", 5]), max_size=2),
)
# Built items three times as often as items without an id or a date, or of any shape.
_FEED_ITEM = st.one_of(
    _BUILT_ITEM, _BUILT_ITEM, _BUILT_ITEM,
    st.sampled_from([feed_item(None), feed_item("CVE-2021-0005", published=None)]), _FEED_JSON,
)
# Keys as they are written in the document: "CVE\u005fItems" decodes to CVE_Items.
_FEED_KEYS = ['"CVE_Items"'] * 3 + ['"CVE\\u005fItems"', '"CVE_data_type"', '"CVE_Item"',
              '"caf\u00e9"']
_WS = st.text(alphabet=" \t\n\r", max_size=2)
# Characters a mutation inserts: JSON punctuation, whitespace, and multi-byte text.
_INSERTED = st.sampled_from(list('{}[],:"\\ 0-eE\t\n') + ["\u00e9", "\u2603", "\ufeff", "\x00"])


@st.composite
def feed_texts(draw) -> str:
    """Feed documents laid out with drawn indent, separators and whitespace,
    with keys before and after CVE_Items, repeated CVE_Items keys and values
    of any type under them, some top levels that are not objects, a
    byte-order mark, and some texts then cut short or edited by one
    character."""
    indent = draw(st.sampled_from([None, 0, 2, "\t", " \r\n"]))
    separators = draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,\t", "\r: ")]))
    ensure_ascii = draw(st.booleans())

    def dump(value) -> str:
        return json.dumps(value, indent=indent, separators=separators, ensure_ascii=ensure_ascii)

    if draw(st.integers(0, 9)):
        entries = []
        for key in draw(st.lists(st.sampled_from(_FEED_KEYS), min_size=1, max_size=4)):
            items = "CVE" in key and "Items" in key and draw(st.integers(0, 3))
            value = draw(st.lists(_FEED_ITEM, max_size=4)) if items else draw(_FEED_JSON)
            entries.append(f"{key}{draw(_WS)}:{draw(_WS)}{dump(value)}")
        comma = draw(_WS) + "," + draw(_WS)
        text = "{" + draw(_WS) + comma.join(entries) + draw(_WS) + "}"
    else:
        text = dump(draw(st.lists(_FEED_ITEM, max_size=2) | _FEED_JSON))
    text = draw(st.sampled_from(["", "\ufeff"])) + draw(_WS) + text + draw(_WS)
    mutation = draw(st.sampled_from(["none", "none", "cut", "delete", "insert"]))
    if mutation != "none":
        at = draw(st.integers(0, len(text)))
        if mutation == "cut":
            text = text[:at]
        elif mutation == "delete":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + draw(_INSERTED) + text[at:]
    return text


def feed_outcome(parse, data) -> tuple:
    """What a feed parser gives: its records and rejects, or its error."""
    try:
        result = parse(data)
    except FeedParseError as exc:
        return "error", str(exc), exc.offset
    return "parsed", [repr(r) for r in result.records], result.rejects


class TestParseFeedOracle:
    @settings(max_examples=400, deadline=None)
    @given(feed_texts(), st.booleans())
    def test_parse_feed_equals_the_whole_document_oracle(self, text, as_bytes):
        data = text.encode("utf-8") if as_bytes else text
        assert feed_outcome(parse_feed, data) == feed_outcome(oracle_parse_feed, data)

    @pytest.mark.parametrize(
        "text",
        ['{"CVE_Items": []}', '{"CVE_Items": [] }  ', "[]", '"CVE_Items"', "{}", "",
         '{"CVE_Items": [1,]}', '{"CVE_Items": [], }', '{"CVE_Items": []} []', '{"CVE_Items" []}',
         '{"CVE_Items": [1 2]}', '{CVE_Items: []}', '\ufeff\ufeff{"CVE_Items": []}',
         '{"CVE_Items": [NaN, -Infinity]}', '{"a": 1, "CVE_Items": [], "b": [}',
         '{"CVE_Items": [' + "[" * 100_000 + "]}",
         '{"CVE_Items": [], "n": ' + "9" * 5000 + "}"],
    )
    def test_edge_documents_equal_the_oracle(self, text):
        for data in (text, text.encode("utf-8")):
            assert feed_outcome(parse_feed, data) == feed_outcome(oracle_parse_feed, data)

    @settings(max_examples=300, deadline=None)
    @given(feed_texts())
    def test_a_stream_read_in_small_chunks_equals_the_oracle(self, text):
        """Keys, numbers, multi-byte characters and the byte-order mark
        straddle chunks of 1, 2, 3 and 7 bytes. A feed that parses is
        never read again whole: that read is for errors only."""
        data = text.encode("utf-8")
        expected = feed_outcome(oracle_parse_feed, data)
        whole_reads = []
        read_whole = ingest._whole_text

        def whole_text(stream):
            whole_reads.append(stream)
            return read_whole(stream)

        for chunk in (1, 2, 3, 7):
            with mock.patch.object(ingest, "_FEED_CHUNK", chunk), \
                    mock.patch.object(ingest, "_whole_text", whole_text):
                assert feed_outcome(parse_feed, io.BytesIO(data)) == expected, chunk
        if expected[0] == "parsed":
            assert whole_reads == []


class TestFeedMemory:
    def test_items_are_not_decoded_all_at_once(self):
        """Parsing 4,000 rejected items allocates under 3 MB above the feed's
        text; decoding the whole feed first, as ``oracle_parse_feed`` does,
        takes several times that."""
        item = feed_item("CVE-2021-0001", published=None, summary="flaw " * 80,
                         refs=[f"https://example.com/advisory/{n}" for n in range(8)])
        text = json.dumps({"CVE_data_type": "CVE", "CVE_Items": [item] * 4000}, indent=1)
        tracemalloc.start()
        try:
            result = parse_feed(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(result.records), len(result.rejects)) == (0, 4000)
        assert peak < 3 * 2**20

    def test_a_gzipped_feed_is_not_read_whole(self, tmp_path):
        """A feed parsed from its gzip file holds neither the file's bytes
        nor its text: parsing 6 MB of text peaks under a quarter of that,
        most of it the rejects that are kept."""
        item = feed_item("CVE-2021-0001", published=None, summary="flaw " * 80,
                         refs=[f"https://example.com/advisory/{n}" for n in range(8)])
        text = json.dumps({"CVE_data_type": "CVE", "CVE_Items": [item] * 5000}, indent=1)
        path = tmp_path / "feed.json.gz"
        path.write_bytes(gzip.compress(text.encode("utf-8")))
        assert len(text) > 6 * 10**6
        tracemalloc.start()
        try:
            with read_feed_bytes(path) as stream:
                result = parse_feed(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(result.records), len(result.rejects)) == (0, 5000)
        assert peak < len(text) / 4


def cli_ingest(root: Path, feeds: list[bytes], day: str = "2021-06-01") -> tuple:
    """``sentinel ingest`` of the feeds, written to files under ``root``: its
    exit code, its stdout report and the bytes of the day it stored."""
    paths = []
    for n, data in enumerate(feeds):
        paths.append(root / f"feed-{n}.json")
        paths[-1].write_bytes(data)
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = main(["ingest", *map(str, paths), "--date", day, "--store", str(root / "store")])
    stored = snapshot_path(root / "store", date.fromisoformat(day))
    return code, stdout.getvalue(), stored.read_bytes() if stored.exists() else None


# Items that build, of four ids with drawn summaries and scores, so that
# feeds share ids with other records.
_GOOD_ITEM = st.builds(lambda n, summary, score: feed_item(f"CVE-2021-{n:04d}", summary=summary,
                                                            score=score),
                       st.integers(1, 4), st.sampled_from(["", "flaw", "caf\u00e9"]),
                       st.sampled_from([None, 7.5, 10.0]))
# A feed that lists its items plainly, under one CVE_Items key or two.
_LISTED_FEED = st.lists(st.lists(_GOOD_ITEM | _FEED_ITEM, max_size=5), min_size=1, max_size=2).map(
    lambda arrays: "{" + ", ".join(f'"CVE_Items": {json.dumps(a)}' for a in arrays) + "}")


class TestIngestLines:
    """``ingest`` keeps each feed's records as their stored lines only."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(feed_texts() | _LISTED_FEED | _LISTED_FEED, min_size=1, max_size=3))
    def test_ingest_stores_what_the_oracle_stores_of_the_merged_records(self, texts):
        """Feeds sharing ids: the later feed's record wins, each feed's
        rejects are counted, and a faulty feed exits 2 with nothing stored.
        Two feeds in three list their items plainly, so that most runs store
        a day."""
        feeds = [text.encode("utf-8") for text in texts]
        records, rejects, expected = {}, {}, (2, None)
        try:
            for n, data in enumerate(feeds):
                result = parse_feed(data)
                records.update((record.id, record) for record in result.records)
                rejects[f"feed-{n}.json"] = len(result.rejects)
        except FeedParseError:
            pass
        with tempfile.TemporaryDirectory() as tmp:
            if len(rejects) == len(feeds):
                day = Snapshot(date(2021, 6, 1), records)
                expected = (0, oracle_store_snapshot(Path(tmp) / "oracle", day).read_bytes())
            code, report, stored = cli_ingest(Path(tmp), feeds)
        assert (code, stored) == expected
        if code == 0:
            assert json.loads(report)["rejects"] == rejects

    def test_at_most_one_record_is_alive_when_a_line_is_encoded(self, tmp_path, monkeypatch):
        """Each record of a 50-item feed is built, encoded and dropped before
        the next is built."""
        items = [feed_item(f"CVE-2099-{n:04d}", summary=f"flaw {n}", score=5.0,
                           cpes=[cpe23("acme", f"p{n}")]) for n in range(1, 51)]
        alive = []
        to_dict = CveRecord.to_dict

        def counted(record):
            alive.append(sum(1 for obj in gc.get_objects()
                             if isinstance(obj, CveRecord) and obj.id.startswith("CVE-2099-")))
            return to_dict(record)

        monkeypatch.setattr(CveRecord, "to_dict", counted)
        code, _, stored = cli_ingest(tmp_path, [feed_bytes(items)])
        assert code == 0 and stored.count(b'{"id":"CVE-2099-') == 50
        assert alive == [1] * 50


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

    def test_custom_stop_words_standardize_each_entry(self):
        data = json.dumps([{"cpe23": cpe23("acme_server", "widget_server")}])
        assert parse_cpe_dictionary(data).pairs == {("acme server", "widget server")}
        assert parse_cpe_dictionary(data, StopWordList(frozenset({"server"}))).pairs == {
            ("acme", "widget")}

    def test_unrecognized_format(self):
        with pytest.raises(FormatError):
            parse_cpe_dictionary(b"name,vendor\n")

    @pytest.mark.parametrize("data", [b'[{"cpe23": ' + b"9" * 5000 + b"}]", b"[" * 100_000],
                             ids=["5000-digit-number", "deep-nesting"])
    def test_unparseable_json_is_a_format_error(self, data):
        with pytest.raises(FormatError, match="unparseable CPE dictionary JSON"):
            parse_cpe_dictionary(data)


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

    def test_custom_stop_words_standardize_both_kinds_of_row(self):
        """A row's name comes from its cpe23 column or from its raw columns,
        and the list given reaches both."""
        csv_data = ("asset_id,product_name,vendor_name,version,cpe23\n"
                    "A1,Widget Server,Acme Inc.,1.0,\n"
                    f"A2,anything,ignored,,{cpe23('acme_server', 'gadget_server', '2.0')}\n")

        def keys(stop_words):
            return [asset.wfn.key for asset in parse_asset_inventory(csv_data, stop_words).assets]

        assert keys(None) == [("acme", "widget server"), ("acme server", "gadget server")]
        # the list replaces the default one, so "inc" is no longer dropped
        assert keys(StopWordList(frozenset({"server"}))) == [("acme inc", "widget"), ("acme", "gadget")]

    def test_byte_order_mark_tolerated(self, inventory_csv):
        result = parse_asset_inventory(b"\xef\xbb\xbf" + inventory_csv)
        assert result.assets[0].wfn.name == "r2d2"

    def test_non_utf8_is_a_format_error(self, inventory_csv):
        with pytest.raises(FormatError):
            parse_asset_inventory(inventory_csv.replace(b"Geotab", b"G\xe9otab"))

    @pytest.mark.parametrize("row", [1, 3])
    def test_oversized_field_is_a_format_error_naming_the_row(self, inventory_csv, row):
        lines = inventory_csv.split(b"\n")
        lines[row - 1] = lines[row - 1].replace(b"Windows Server", b"x" * 200_000, 1) + b"y" * 200_000
        with pytest.raises(FormatError, match=f"^inventory row {row}: field larger than field limit"):
            parse_asset_inventory(b"\n".join(lines))


# Pieces of inventory text: cells, separators, quotes, a quoted line break,
# line breaks of each kind, a space and NUL.
_CSV_PIECES = st.sampled_from(["A1", "x y", ",", '"', '"a\nb"', '""', "\n", "\r", "\r\n", " ", "\x00"])


@st.composite
def inventory_texts(draw) -> str:
    """Inventory texts with the required header, a header short of a
    column, or none, drawn rows, and a final line break or none."""
    header = draw(st.sampled_from([",".join(ingest.INVENTORY_COLUMNS), "asset_id,cpe23", ""]))
    rows = draw(st.lists(st.lists(_CSV_PIECES, max_size=8).map("".join), max_size=5))
    breaks = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return breaks.join([header, *rows]) + draw(st.sampled_from(["", "\n", "\r\n"]))


def inventory_outcome(rows_of, text: str) -> tuple:
    """The rows read before a FormatError, and its message or None."""
    rows = []
    try:
        for row in rows_of(text):
            rows.append(row)
    except FormatError as exc:
        return rows, str(exc)
    return rows, None


class TestInventoryLines:
    @settings(max_examples=400, deadline=None)
    @given(inventory_texts())
    def test_rows_equal_those_read_through_stringio(self, text):
        assert inventory_outcome(ingest._inventory_rows, text) == inventory_outcome(
            oracle_inventory_rows, text)

    @pytest.mark.parametrize("text", ["", "\n", "a", "a\r\nb", "\r\r\n\n", "a\nb\n", "\x00\n"])
    def test_lines_are_those_of_stringio(self, text):
        assert list(ingest._text_lines(text)) == list(io.StringIO(text))


class TestSnapshotStore:
    def test_key_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Snapshot(date=date(2021, 6, 1), records={"CVE-2021-9999": make_record("CVE-2021-0001")})

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

    def test_only_files_named_yyyy_mm_dd_are_days(self, tmp_path):
        """Python 3.11 and later read 20210602 and 2021-W22-3 as 2021-06-02."""
        store_snapshot(tmp_path, snapshot_of("2021-06-01", [make_record("CVE-2021-0001")]))
        for name in ("20210602", "2021-W22-3", "2021-06-01.tmp.1"):
            (tmp_path / "snapshots" / name).write_text("{}", encoding="utf-8")
        assert list_snapshot_dates(tmp_path) == [date(2021, 6, 1)]
        assert find_previous_date(tmp_path, date(2021, 6, 3)) == date(2021, 6, 1)

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

    def test_one_compact_record_per_line(self, tmp_path):
        records = [
            make_record("CVE-2021-0001", score=9.8, cpes=[cpe23("acme", "anvil")], refs=["https://a"]),
            make_record("CVE-2021-0002", summary='two "lines"\nand caf\u00e9, \u2603'),
            make_record("CVE-2021-0003", modified="2021-06-02", score=0.0),
        ]
        path = store_snapshot(tmp_path, snapshot_of("2021-06-02", reversed(records)))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(records) + 2
        assert lines[0] == '{"date":"2021-06-02","record_count":3,"records":['
        assert lines[-1] == "]}"
        compact = [json.dumps(r.to_dict(), separators=(",", ":")) for r in records]  # sorted by id
        assert lines[1:-1] == [line + "," for line in compact[:-1]] + compact[-1:]
        text = path.read_text(encoding="utf-8")
        assert compact_day(json.loads(text)) == text  # the tests' writer of this layout
        loaded = load_snapshot(tmp_path, date(2021, 6, 2))
        assert [repr(r) for r in loaded.records.values()] == [repr(r) for r in records]

    def test_empty_day_is_two_lines(self, tmp_path):
        path = store_snapshot(tmp_path, snapshot_of("2021-06-01", []))
        assert path.read_text(encoding="utf-8").splitlines() == [
            '{"date":"2021-06-01","record_count":0,"records":[', "]}"]
        assert load_snapshot(tmp_path, date(2021, 6, 1)).records == {}

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.builds(
                make_record,
                st.sampled_from([f"CVE-2021-{n:04d}" for n in range(1, 9)] + ["CVE-2020-10000"]),
                summary=st.text(max_size=6),
                score=st.sampled_from([None, 0, 0.0, 7.5, 10]),
                cpes=st.lists(st.sampled_from(_CPE_POOL[:4]), max_size=2, unique=True),
                refs=st.lists(st.text(max_size=3), max_size=2),
            ),
            max_size=6,
        ),
        st.dates(date(1999, 1, 1), date(2030, 12, 31)),
    )
    def test_stored_day_equals_the_joined_oracle(self, records, day):
        snapshot = Snapshot(date=day, records={r.id: r for r in records})
        with tempfile.TemporaryDirectory() as tmp:
            streamed = store_snapshot(Path(tmp) / "a", snapshot).read_bytes()
            joined = oracle_store_snapshot(Path(tmp) / "b", snapshot).read_bytes()
        assert streamed == joined

    @pytest.mark.parametrize("day", ["2021-06-01", "2021-06-02"], ids=["overwrite", "new-day"])
    def test_failed_write_removes_its_temp_file(self, tmp_path, monkeypatch, day):
        kept = store_snapshot(tmp_path, snapshot_of("2021-06-01", [make_record("CVE-2021-0001")]))
        before = kept.read_bytes()
        writes = []

        class DiskFull(io.BufferedWriter):
            def write(self, data):
                writes.append(data)
                if len(writes) == 2:  # the head is written, then the disk fills
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        monkeypatch.setattr(store, "open", lambda file, mode="r": DiskFull(io.FileIO(file, "w"))
                            if "w" in mode else open(file, mode), raising=False)
        records = [make_record(f"CVE-2021-{n:04d}") for n in range(1, 4)]
        with pytest.raises(OSError, match="No space left"):
            store_snapshot(tmp_path, snapshot_of(day, records), overwrite=True)
        assert len(writes) == 2
        assert list((tmp_path / "snapshots").iterdir()) == [kept]
        assert kept.read_bytes() == before

    def test_indented_layout_still_loads(self, tmp_path):
        """Days stored before the compact layout, with ``indent=1``, load the same."""
        records = [
            make_record("CVE-2021-0001", score=9.8, cpes=[cpe23("acme", "anvil")], refs=["https://a"]),
            make_record("CVE-2021-0002", summary="caf\u00e9", cpes=[cpe23("px", "x", "2.0")]),
        ]
        payload = {"date": "2021-06-01", "record_count": 2, "records": [r.to_dict() for r in records]}
        path = tmp_path / "snapshots" / "2021-06-01"
        path.parent.mkdir()
        path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
        expected = snapshot_of("2021-06-01", records)
        for loaded in (load_snapshot(tmp_path, date(2021, 6, 1)),
                       oracle_load_snapshot(tmp_path, date(2021, 6, 1))):
            assert loaded == expected
            assert [repr(r) for r in loaded.records.values()] == [repr(r) for r in records]


# DAY_LAYOUTS, and the compact layout with a comma after the last record too,
# which is not JSON.
WRITTEN_LAYOUTS = {
    **DAY_LAYOUTS,
    "trailing-comma": lambda payload: compact_day(payload).replace("\n]}", ",\n]}"),
}


def write_day(store_root, day: date, records: list[dict], layout: str = "single-line") -> str:
    """Store record dicts as they are given, scores of any JSON type
    included, in one of ``WRITTEN_LAYOUTS``; returns the text written."""
    path = store_root / "snapshots" / day.isoformat()
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"date": day.isoformat(), "record_count": len(records), "records": records}
    text = WRITTEN_LAYOUTS[layout](payload)
    path.write_text(text, encoding="utf-8")
    return text


HISTORY_IDS = [f"CVE-2021-{n:04d}" for n in range(1, 6)]
# The values each stored field takes; 1 and 1.0, 10 and 10.0 store differently.
STORED_VALUES = {
    "cvss3_base": [None, 1, 1.0, 7.5, 10, 10.0],
    "cpe_list": [[], [cpe23("acme", "anvil")], [cpe23("acme", "anvil"), cpe23("px", "x", "2.0")]],
    "references": [[], ["https://a"], ["https://a", "https://b"]],
    "summary": ["", "anvil flaw", "anvil flaw, revised"],
}


@st.composite
def stored_histories(draw) -> list[list[dict]]:
    """Days of stored records: each CVE is kept, has one field changed, is
    removed, or is added (again)."""
    current: dict[str, dict] = {}
    days = []
    for _ in range(draw(st.integers(1, 5))):
        for cve_id in HISTORY_IDS:
            action = draw(st.sampled_from(["keep", "keep", "change", "remove"]))
            if cve_id not in current:
                if action != "keep":
                    current[cve_id] = {
                        "id": cve_id,
                        "published": "2021-05-01",
                        "last_modified": "2021-05-01",
                        **{key: draw(st.sampled_from(values)) for key, values in STORED_VALUES.items()},
                    }
            elif action == "change":
                key = draw(st.sampled_from(sorted(STORED_VALUES)))
                current[cve_id] = {**current[cve_id], key: draw(st.sampled_from(STORED_VALUES[key]))}
            elif action == "remove":
                del current[cve_id]
        days.append([current[cve_id] for cve_id in sorted(current)])
    return days


# Compact twice as often as each other layout, so that consecutive compact days are common.
DRAWN_LAYOUTS = st.sampled_from(["compact", *sorted(DAY_LAYOUTS)])
# Stored values that no record may hold.
BAD_VALUES = {
    "cvss3_base": [True, "NaN", "7.5"],
    "cpe_list": [[1], "abc", ["not a cpe"]],
    "references": ["abc", ["https://a", 5]],
    "summary": [5, None],
    "published": ["2021-13-01", 5],
}


def assert_loads_like_oracle(loaded: Snapshot, root, day: date) -> None:
    oracle = oracle_load_snapshot(root, day)
    assert loaded == oracle
    # repr tells Decimal("1") from Decimal("1.0"); == does not
    assert [repr(r) for r in loaded.records.values()] == [repr(r) for r in oracle.records.values()]


class TestLoadWithPrevious:
    def test_unchanged_record_is_the_previous_object(self, tmp_path):
        kept = make_record("CVE-2021-0001", cpes=[cpe23("acme", "anvil")])
        rescored = make_record("CVE-2021-0002", cpes=[cpe23("acme", "anvil")])
        store_snapshot(tmp_path, snapshot_of("2021-06-01", [kept, rescored]))
        store_snapshot(tmp_path, snapshot_of(
            "2021-06-02", [kept, make_record("CVE-2021-0002", score=5.0, cpes=[cpe23("acme", "anvil")])]
        ))
        first, second = load_snapshots(tmp_path, [date(2021, 6, 1), date(2021, 6, 2)])
        assert second.records["CVE-2021-0001"] is first.records["CVE-2021-0001"]
        assert second.records["CVE-2021-0002"] is not first.records["CVE-2021-0002"]
        assert_loads_like_oracle(second, tmp_path, date(2021, 6, 2))
        # one CPE string, parsed once per range
        (uri_kept,), (uri_rescored,) = (r.cpe_list for r in first.records.values())
        assert uri_kept is uri_rescored is second.records["CVE-2021-0002"].cpe_list[0]

    def test_a_lone_load_digests_no_line(self, tmp_path, digested):
        """A delta is checked against the day it is stored against by one
        digest of that day's file, alone or in a range, and its own lines by
        one digest of them; no line of the day below is digested."""
        days = _store_three_days(tmp_path)
        first = (tmp_path / "snapshots" / days[0].isoformat()).read_bytes()
        delta = (tmp_path / "snapshots" / days[1].isoformat()).read_bytes().split(b"\n")[1:-2]
        delta_lines = b"".join(line.removesuffix(b",") + b"\n" for line in delta)
        digested.clear()
        assert_loads_like_oracle(load_snapshot(tmp_path, days[1]), tmp_path, days[1])
        assert digested == [first, delta_lines]
        list(load_snapshots(tmp_path, days[:2]))
        assert digested == [first, delta_lines, first, delta_lines]

    def test_equal_dicts_in_other_text_are_decoded_again(self, tmp_path):
        """1, true and 1.0 are equal dict entries but different lines."""
        record = make_record("CVE-2021-0001", score=1.0).to_dict()
        days = [date(2021, 6, 1) + timedelta(days=n) for n in range(3)]
        for day, score in zip(days, [1.0, 1, 1.0]):
            write_day(tmp_path, day, [{**record, "cvss3_base": score}], "compact")
        loaded = list(load_snapshots(tmp_path, days))
        for day, snapshot in zip(days, loaded):
            assert_loads_like_oracle(snapshot, tmp_path, day)
        assert [repr(s.records["CVE-2021-0001"].cvss3_base) for s in loaded] == [
            "Decimal('1.0')", "Decimal('1')", "Decimal('1.0')"]

    def test_a_fallback_day_lends_no_lines(self, tmp_path):
        records = [make_record(f"CVE-2021-000{n}").to_dict() for n in (1, 2)]
        days = [date(2021, 6, 1) + timedelta(days=n) for n in range(3)]
        for day, layout in zip(days, ["compact", "indented", "compact"]):
            write_day(tmp_path, day, records, layout)
        first, second, third = load_snapshots(tmp_path, days)
        assert first.records == second.records == third.records
        assert all(third.records[i] is not first.records[i] for i in first.records)

    def test_a_known_line_out_of_place_is_still_checked(self, tmp_path):
        """A line of the day before, now last but still followed by its comma."""
        first, second = (make_record(f"CVE-2021-000{n}").to_dict() for n in (1, 2))
        days = [date(2021, 6, 1), date(2021, 6, 2)]
        write_day(tmp_path, days[0], [first, second], "compact")
        write_day(tmp_path, days[1], [first], "trailing-comma")
        loads = load_snapshots(tmp_path, days)
        next(loads)
        with pytest.raises(SnapshotIntegrityError, match="Expecting value"):
            next(loads)

    def test_a_corrupt_day_reports_the_whole_documents_error(self, tmp_path):
        """A bad record before a JSON error: the JSON error is the one reported."""
        bad = {**make_record("CVE-2021-0001").to_dict(), "cvss3_base": True}
        write_day(tmp_path, date(2021, 6, 1), [bad, make_record("CVE-2021-0002").to_dict()],
                  "trailing-comma")
        with pytest.raises(SnapshotIntegrityError, match="Expecting value") as loaded:
            load_snapshot(tmp_path, date(2021, 6, 1))
        with pytest.raises(SnapshotIntegrityError) as oracle:
            oracle_load_snapshot(tmp_path, date(2021, 6, 1))
        assert str(loaded.value) == str(oracle.value)

    @pytest.mark.parametrize("edit, fails", [("crlf", False), ("cr-between-tokens", False),
                                             ("cr-in-string", True)])
    def test_carriage_returns_load_and_fail_like_the_oracle(self, tmp_path, edit, fails):
        """A day read as lines of bytes against the oracle's read in text
        mode, which turns each carriage return into a line break."""
        records = [make_record(f"CVE-2021-000{n}", summary="s").to_dict() for n in (1, 2, 3)]
        days = [date(2021, 6, 1), date(2021, 6, 2)]
        write_day(tmp_path, days[0], records, "compact")
        text = compact_day({"date": "2021-06-02", "record_count": 3, "records": records})
        if edit == "crlf":
            text = text.replace("\n", "\r\n")
        elif edit == "cr-between-tokens":
            text = text.replace('"published"', '\r"published"', 2)
        else:
            text = text.replace('"summary":"s"', '"summary":"s\r"', 1)
        (tmp_path / "snapshots" / "2021-06-02").write_bytes(text.encode("utf-8"))
        loads = load_snapshots(tmp_path, days)
        next(loads)
        if not fails:
            assert_loads_like_oracle(next(loads), tmp_path, days[1])
            return
        with pytest.raises(SnapshotIntegrityError) as oracle:
            oracle_load_snapshot(tmp_path, days[1])
        with pytest.raises(SnapshotIntegrityError) as loaded:
            next(loads)
        assert str(loaded.value) == str(oracle.value)

    def test_a_count_with_a_non_ascii_digit_fails_like_the_oracle(self, tmp_path):
        """``int`` reads "1\u0661" as 11, but it is no JSON number."""
        records = [make_record(f"CVE-2021-{n:04d}").to_dict() for n in range(11)]
        text = compact_day({"date": "2021-06-01", "record_count": 11, "records": records})
        path = tmp_path / "snapshots" / "2021-06-01"
        path.parent.mkdir()
        path.write_text(text.replace('"record_count":11', '"record_count":1\u0661', 1), encoding="utf-8")
        with pytest.raises(SnapshotIntegrityError) as oracle:
            oracle_load_snapshot(tmp_path, date(2021, 6, 1))
        with pytest.raises(SnapshotIntegrityError) as loaded:
            load_snapshot(tmp_path, date(2021, 6, 1))
        assert str(loaded.value) == str(oracle.value)

    @pytest.mark.parametrize("layout", DAY_LAYOUTS)
    def test_a_record_that_is_not_an_object_is_an_integrity_error(self, tmp_path, layout):
        write_day(tmp_path, date(2021, 6, 1), [make_record("CVE-2021-0001").to_dict(), ["x"]], layout)
        with pytest.raises(SnapshotIntegrityError, match="stored record is not an object but list"):
            load_snapshot(tmp_path, date(2021, 6, 1))

    @given(stored_histories(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_chained_loads_equal_oracle_loads(self, history, data):
        layouts = [data.draw(DRAWN_LAYOUTS) for _ in history]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            days = [date(2021, 6, 1) + timedelta(days=n) for n in range(len(history))]
            texts = [write_day(root, day, records, layout)
                     for day, records, layout in zip(days, history, layouts)]
            previous = None
            for n, loaded in enumerate(load_snapshots(root, days)):
                assert gc.isenabled()
                assert_loads_like_oracle(loaded, root, days[n])
                if n and layouts[n - 1] == layouts[n] == "compact":
                    # each record line unchanged from the day before, its comma
                    # aside, is that day's object
                    before = {line.rstrip(",") for line in texts[n - 1].split("\n")[1:-2]}
                    for line in texts[n].split("\n")[1:-2]:
                        line = line.rstrip(",")
                        cve_id = json.loads(line)["id"]
                        shared = loaded.records[cve_id] is previous.records.get(cve_id)
                        assert shared == (line in before)
                previous = loaded

    @given(stored_histories(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_corrupt_days_fail_like_the_oracle(self, history, data):
        """A day with a bad value, or with a comma after its last record,
        fails with the oracle's error; the days before it load like the
        oracle's. The days are written in drawn layouts, or stored by the
        store, the later ones mostly as deltas, and one of them then edited."""
        bad_day = data.draw(st.integers(0, len(history) - 1))
        key = data.draw(st.sampled_from(sorted(BAD_VALUES)))
        bad = {key: data.draw(st.sampled_from(BAD_VALUES[key]))} if data.draw(st.booleans()) else None
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            days = [date(2021, 6, 1) + timedelta(days=n) for n in range(len(history))]
            if data.draw(st.booleans()):
                for day, records in zip(days, history):
                    store_snapshot(root, Snapshot(day, {r["id"]: CveRecord.from_dict(r) for r in records}))
                path = root / "snapshots" / days[bad_day].isoformat()
                lines = path.read_text(encoding="utf-8").split("\n")
                if bad and len(lines) > 3:
                    n = data.draw(st.integers(1, len(lines) - 3))
                    comma = "," if lines[n].endswith(",") else ""
                    record = {**json.loads(lines[n].rstrip(",")), **bad}
                    lines[n] = json.dumps(record, separators=(",", ":")) + comma
                else:
                    lines[-3] += ","
                path.write_text("\n".join(lines), encoding="utf-8")
            else:
                if history[bad_day] and bad:
                    n = data.draw(st.integers(0, len(history[bad_day]) - 1))
                    history[bad_day][n] = {**history[bad_day][n], **bad}
                for day, records in zip(days, history):
                    write_day(root, day, records,
                              data.draw(st.sampled_from(["compact", *sorted(WRITTEN_LAYOUTS)])))
            loads = load_snapshots(root, days)
            for day in days:
                try:
                    oracle_load_snapshot(root, day)
                except SnapshotIntegrityError as oracle:
                    with pytest.raises(SnapshotIntegrityError) as loaded:
                        next(loads)
                    assert str(loaded.value) == str(oracle)
                    return
                assert_loads_like_oracle(next(loads), root, day)


def _nested_feed(count: int) -> bytes:
    """Items with nested configuration children, every third one a reject."""
    items = []
    for n in range(count):
        item = feed_item(f"CVE-2021-{n + 1:04d}", summary="s", score=5.0, refs=["https://a"],
                         cpes=[cpe23("acme", "anvil")])
        child = {"cpe_match": [{"cpe23Uri": cpe23("px", "x", str(n % 7))}],
                 "children": [{"cpe_match": [{"cpe23Uri": cpe23("acme", "anvil", "2.0")}]}]}
        if n % 3 == 2:
            child["children"][0]["cpe_match"][0]["cpe23Uri"] = "not a cpe"
        item["configurations"]["nodes"][0]["children"] = [child]
        items.append(item)
    return feed_bytes(items)


def _store_three_days(root: Path) -> list[date]:
    days = [date(2021, 6, 1) + timedelta(days=n) for n in range(3)]
    for n, day in enumerate(days):
        store_snapshot(root, snapshot_of(day.isoformat(), [
            make_record("CVE-2021-0001", cpes=[cpe23("acme", "anvil")], refs=["https://a"]),
            make_record(f"CVE-2021-{n + 2:04d}", score=5.0, cpes=[cpe23("px", "x")]),
        ]))
    return days


class TestLoadMemory:
    def test_a_day_loads_without_its_text(self, tmp_path):
        """Loading day 1, stored whole, and then day 2, stored as its
        changes to day 1, each holds at its peak less than a quarter of
        day 1's file size above what it keeps: neither day's text nor its
        lines are held whole."""
        def records(day: int) -> list[CveRecord]:
            return [make_record(f"CVE-2021-{n:04d}", summary=f"flaw {n} " + "in the widget " * 50,
                                score=5.0 if n % 50 else day, cpes=[cpe23("acme", f"p{n}")],
                                refs=[f"https://example.com/advisory/{n}/{r}" for r in range(8)])
                    for n in range(1, 2001)]
        days = [date(2021, 6, 1), date(2021, 6, 2)]
        paths = [store_snapshot(tmp_path, snapshot_of(day.isoformat(), records(n)))
                 for n, day in enumerate(days, 1)]
        size = paths[0].stat().st_size
        assert size > 2 * 10**6
        assert paths[1].stat().st_size < size / 10
        loads = load_snapshots(tmp_path, days)
        loaded = []
        for _ in days:
            tracemalloc.start()
            try:
                loaded.append(next(loads))
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - held < size / 4
        first, second = loaded
        assert sum(second.records[i] is not first.records[i] for i in first.records) == 40


class TestCollector:
    """Building a feed or a stored day runs with the cyclic collector paused,
    which pays only because the build leaves no reference cycle behind."""

    @staticmethod
    def _unreachable_after(build) -> int:
        """Garbage that only the cyclic collector can free, left by ``build``."""
        gc.collect()
        gc.disable()
        try:
            build()
            return gc.collect()
        finally:
            gc.enable()

    def test_parse_feed_leaves_no_cycle(self):
        data = _nested_feed(30)
        result = parse_feed(data)
        assert (len(result.records), len(result.rejects)) == (20, 10)
        assert self._unreachable_after(lambda: parse_feed(data)) == 0

    def test_chained_loads_leave_no_cycle(self, tmp_path):
        days = _store_three_days(tmp_path)

        def chain():
            for _ in load_snapshots(tmp_path, days):
                pass

        assert self._unreachable_after(chain) == 0

    def test_collector_is_off_while_items_and_records_are_built(self, tmp_path, monkeypatch):
        days = _store_three_days(tmp_path)
        states: list[bool] = []

        def spy(build):
            def wrapper(*args):
                states.append(gc.isenabled())
                return build(*args)
            return wrapper

        monkeypatch.setattr(ingest, "_parse_feed_item", spy(ingest._parse_feed_item))
        monkeypatch.setattr(CveRecord, "from_dict", spy(CveRecord.from_dict))
        assert gc.isenabled()
        parse_feed(_nested_feed(3))
        for _ in load_snapshots(tmp_path, days[:2]):
            assert gc.isenabled()
        # 3 feed items; 2 records of the first day, and the one line of the
        # second day that the first does not hold
        assert states == [False] * 6
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize(
        "call, error",
        [
            ("feed", None),
            ("malformed-feed", FeedParseError),
            ("deep-feed", FeedParseError),
            ("no-items", FeedParseError),
            ("day", None),
            ("missing-day", SnapshotNotFoundError),
            ("corrupt-day", SnapshotIntegrityError),
        ],
    )
    def test_collector_state_restored(self, tmp_path, enabled, call, error):
        days = _store_three_days(tmp_path)
        (tmp_path / "snapshots" / days[2].isoformat()).write_text("[" * 100_000, encoding="utf-8")
        calls = {
            "feed": lambda: parse_feed(_nested_feed(3)),
            "malformed-feed": lambda: parse_feed(b"{broken"),
            "deep-feed": lambda: parse_feed(b"[" * 100_000),
            "no-items": lambda: parse_feed(b"{}"),
            "day": lambda: list(load_snapshots(tmp_path, days[:2])),
            "missing-day": lambda: load_snapshot(tmp_path, days[2] + timedelta(days=1)),
            "corrupt-day": lambda: load_snapshot(tmp_path, days[2]),
        }
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if error is None:
                calls[call]()
            else:
                with pytest.raises(error):
                    calls[call]()
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


_DIFF_IDS = [f"CVE-2021-{n:04d}" for n in range(1, 7)]


@st.composite
def _day_chains(draw):
    """2-4 ascending days; each CVE is absent (so it can vanish and come
    back), kept as the same object as the day before, copied as an equal
    but distinct object, or redrawn, which may or may not change it."""
    last: dict[str, object] = {}
    snapshots = []
    for n in range(draw(st.integers(2, 4))):
        records = []
        for cve_id in _DIFF_IDS:
            action = draw(st.sampled_from(["absent", "keep", "copy", "redraw"]))
            if action == "absent":
                continue
            if action == "copy" and cve_id in last:
                last[cve_id] = replace(last[cve_id])
            elif action == "redraw" or cve_id not in last:
                last[cve_id] = make_record(
                    cve_id,
                    summary=draw(st.sampled_from(["a", "b"])),
                    score=draw(st.sampled_from([None, 5.0])),
                    cpes=draw(st.lists(st.sampled_from(_CPE_POOL[:4]), max_size=2)),
                )
            records.append(last[cve_id])
        snapshots.append(snapshot_of(f"2021-06-0{n + 1}", records))
    return snapshots


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
        (after,) = diff.updated_cves
        assert older.records[after.id].cvss3_base is None
        assert float(after.cvss3_base) == 7.5

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

    @settings(max_examples=200, deadline=None)
    @given(_day_chains())
    def test_equals_pairwise_oracle(self, snaps):
        for older, newer in zip(snaps, snaps[1:]):
            diff = diff_snapshots(older, newer)
            oracle_new, oracle_pairs = oracle_diff_snapshots(older, newer)
            assert [r.id for r in diff.new_cves] == [r.id for r in oracle_new]
            assert list(diff.updated_cves) == [after for _, after in oracle_pairs]
            for record in diff.new_cves + diff.updated_cves:
                assert record is newer.records[record.id]

