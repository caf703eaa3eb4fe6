"""Finding names in summaries, filter construction, matching, evaluation."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cpe23, make_dictionary, make_record
from cvesentinel import matcher
from cvesentinel.errors import FormatError, ValidationError
from cvesentinel.matcher import (
    FUNCTION_WORDS,
    AssetIndex,
    FpFilter,
    build_fp_filter,
    evaluate_corpus,
    match_corpus,
    match_cve,
)
from cvesentinel.model import AssetRecord, MatchVia, WellFormedName
from cvesentinel.normalize import StopWordList, standardize
from oracles import (
    contains_name,
    oracle_build_filter,
    oracle_evaluate,
    oracle_match_corpus,
    summary_tokens,
)

SERVER = StopWordList(frozenset({"server"}))


def make_asset(asset_id: str, name: str, vendor: str, version: str = "") -> AssetRecord:
    return AssetRecord(asset_id=asset_id, wfn=WellFormedName(name=name, vendor=vendor, version=version))


# Names drawn from a small vocabulary overlap and contain one another. "for"
# is a function word, so a name holding it can never match a summary; "zk"
# and "q" fall below the default name cutoff.
NAME_WORDS = ["kilo", "bravo", "echo", "delta", "zulu", "for", "zk", "q"]
SUMMARY_FILLERS = ["flaw", "the", "in", "allows", "Kilo", "ECHO", "Bravo-Delta", "zulu.", "--"]


@st.composite
def names_and_summary(draw):
    """Names of 1 to 6 tokens and a summary that holds some of them whole."""
    words = st.sampled_from(NAME_WORDS)
    names = draw(st.sets(st.lists(words, min_size=1, max_size=6).map(" ".join), max_size=6))
    pieces = st.sampled_from(NAME_WORDS + SUMMARY_FILLERS + sorted(names))
    return names, " ".join(draw(st.lists(pieces, max_size=10)))


def found_names(names, summary: str) -> set[str]:
    return matcher._NameSet(names).found_in(matcher._summary_terms(summary))


class TestNameSet:
    def test_hyper_v_summary_holds_vendor_and_product(self):
        summary = "A vulnerability in Microsoft Hyper-V Virtual allows remote code execution."
        assert found_names({"microsoft", "hyper", "windows"}, summary) == {"microsoft", "hyper"}

    def test_empty_summary(self):
        assert matcher._summary_terms("") == ()
        assert found_names({"server"}, "") == set()

    def test_function_words_dropped_before_runs_are_taken(self):
        assert not {"the", "and"} & set(matcher._summary_terms("The server and the client"))
        assert found_names({"server client"}, "The server and the client") == {"server client"}

    def test_no_pure_punctuation_terms(self):
        terms = matcher._summary_terms("foo -- bar ... baz !!")
        assert all(any(ch.isalnum() for ch in t) for t in terms)
        assert found_names({"foo bar baz"}, "foo -- bar ... baz !!") == {"foo bar baz"}

    @given(names_and_summary())
    @settings(max_examples=300, deadline=None)
    def test_found_names_equal_oracle(self, inputs):
        names, summary = inputs
        expected = {n for n in names if contains_name(summary_tokens(summary), n)}
        assert found_names(names, summary) == expected


class TestBuildFpFilter:
    def test_name_outside_own_cpe_enters_filter(self):
        # summary mentions the dictionary product "hyper", own CPE says windows
        record = make_record(
            "CVE-2021-0001",
            summary="Microsoft Hyper-V Virtual escape vulnerability in Windows.",
            cpes=[cpe23("microsoft", "windows")],
        )
        dictionary = make_dictionary(
            [cpe23("microsoft", "windows"), cpe23("microsoft", "hyper")]
        )
        fp = build_fp_filter([record], dictionary)
        assert "hyper" in fp.product_names
        assert "windows" not in fp.product_names
        assert "microsoft" not in fp.vendor_names  # present in own CPE

    def test_empty_corpus(self):
        fp = build_fp_filter([], make_dictionary([cpe23("acme", "anvil")]))
        assert fp.vendor_names == frozenset()
        assert fp.product_names == frozenset()

    def test_record_without_cpe_rejected(self):
        with pytest.raises(ValidationError):
            build_fp_filter([make_record("CVE-2021-0001")], make_dictionary([]))

    def test_custom_stop_words_standardize_the_records_own_names(self):
        # the dictionary holds names already standardized, so only the
        # record's own CPE names are left for the list to change
        record = make_record("CVE-2021-0001", summary="Acme Widget Server flaw",
                             cpes=[cpe23("acme_server", "widget_server")])
        dictionary = make_dictionary([cpe23("acme", "gizmo"), cpe23("zenith", "widget")])
        fp = build_fp_filter([record], dictionary)
        assert (fp.vendor_names, fp.product_names) == ({"acme"}, {"widget"})
        fp = build_fp_filter([record], dictionary, stop_words=SERVER)
        assert (fp.vendor_names, fp.product_names) == (frozenset(), frozenset())

    def test_short_names_never_considered(self):
        record = make_record(
            "CVE-2021-0001",
            summary="issue in go runtime",
            cpes=[cpe23("acme", "anvil")],
        )
        dictionary = make_dictionary([cpe23("golang", "go"), cpe23("acme", "anvil")])
        fp = build_fp_filter([record], dictionary)
        assert "go" not in fp.product_names

    def test_planted_collisions_match_oracle(self):
        dictionary = make_dictionary(
            [
                cpe23("microsoft", "windows"),
                cpe23("microsoft", "hyper"),
                cpe23("acme", "anvil"),
                cpe23("acme", "rocket"),
                cpe23("geotab", "r2d2"),
                cpe23("oracle", "java"),
                cpe23("px", "xy"),  # short, must be ignored
            ]
        )
        corpus = [
            make_record(
                "CVE-2021-0001",
                summary="Microsoft Hyper-V Virtual flaw on Windows hosts",
                cpes=[cpe23("microsoft", "windows")],
            ),
            make_record(
                "CVE-2021-0002",
                summary="anvil and rocket interact badly, acme advises caution",
                cpes=[cpe23("acme", "anvil")],
            ),
            make_record(
                "CVE-2021-0003",
                summary="java applet sandbox escape",
                cpes=[cpe23("oracle", "java")],
            ),
            make_record(
                "CVE-2021-0004",
                summary="r2d2 telemetry leak geotab fleet",
                cpes=[cpe23("geotab", "r2d2")],
            ),
            make_record(
                "CVE-2021-0005",
                summary="windows kernel race condition xy",
                cpes=[cpe23("microsoft", "windows")],
            ),
            make_record(
                "CVE-2021-0006",
                summary="an unrelated buffer overflow",
                cpes=[cpe23("acme", "rocket")],
            ),
            make_record(
                "CVE-2021-0007",
                summary="rocket booster stage acme anvil hybrid",
                cpes=[cpe23("acme", "rocket"), cpe23("acme", "anvil")],
            ),
            make_record(
                "CVE-2021-0008",
                summary="oracle java and microsoft windows joint advisory",
                cpes=[cpe23("oracle", "java")],
            ),
            make_record(
                "CVE-2021-0009",
                summary="geotab r2d2 on windows",
                cpes=[cpe23("geotab", "r2d2")],
            ),
            make_record(
                "CVE-2021-0010",
                summary="hyper scale anvil deployment",
                cpes=[cpe23("microsoft", "hyper")],
            ),
        ]
        fp = build_fp_filter(corpus, dictionary)
        expect_vendors, expect_products = oracle_build_filter(corpus, dictionary)
        assert fp.vendor_names == frozenset(expect_vendors)
        assert fp.product_names == frozenset(expect_products)

    def test_save_load_round_trip(self, tmp_path):
        fp = FpFilter(
            vendor_names=frozenset({"acme", "oracle"}),
            product_names=frozenset({"hyper", "java"}),
            source_year="2020",
        )
        fp.save(tmp_path / "vendors.txt", tmp_path / "products.txt")
        loaded = FpFilter.load(tmp_path / "vendors.txt", tmp_path / "products.txt")
        assert loaded == fp

    @pytest.mark.parametrize("label", ["2019-2020", "nvd a=b #1", "", " 2020 "])
    def test_source_year_label_round_trips(self, tmp_path, label):
        fp = FpFilter(frozenset({"acme"}), frozenset({"hyper"}), source_year=label)
        fp.save(tmp_path / "vendors.txt", tmp_path / "products.txt")
        assert FpFilter.load(tmp_path / "vendors.txt", tmp_path / "products.txt") == fp

    def test_lists_with_different_labels_rejected(self, tmp_path):
        vendors = tmp_path / "vendors.txt"
        products = tmp_path / "products.txt"
        vendors.write_text("#source_year=2019\nacme\n", encoding="utf-8")
        products.write_text("#source_year=2020\nhyper\n", encoding="utf-8")
        with pytest.raises(FormatError, match="disagree on the source year: '2019' against '2020'"):
            FpFilter.load(vendors, products)

    @pytest.mark.parametrize("unlabeled", ["vendors", "products"])
    def test_list_without_label_takes_the_other_label(self, tmp_path, unlabeled):
        paths = {kind: tmp_path / f"{kind}.txt" for kind in ("vendors", "products")}
        for kind, path in paths.items():
            path.write_text(("" if kind == unlabeled else "#source_year=2020\n") + "acme\n")
        assert FpFilter.load(paths["vendors"], paths["products"]).source_year == "2020"

    def test_stop_word_digest_round_trips(self, tmp_path):
        digest = StopWordList(frozenset({"server", "widget"})).digest()
        fp = FpFilter(frozenset({"acme"}), frozenset({"hyper"}), "2020", stop_words_digest=digest)
        fp.save(tmp_path / "vendors.txt", tmp_path / "products.txt")
        assert (tmp_path / "vendors.txt").read_text(encoding="utf-8") == (
            f"#source_year=2020\n#stopwords={digest}\nacme\n")
        assert FpFilter.load(tmp_path / "vendors.txt", tmp_path / "products.txt") == fp

    def test_stop_word_digest_is_of_the_sorted_words(self):
        digest = StopWordList(frozenset({"widget", "server"})).digest()
        assert digest == hashlib.blake2b(b"server\nwidget", digest_size=16).hexdigest()

    def test_lists_with_different_stop_word_lists_rejected(self, tmp_path):
        vendors, products = tmp_path / "vendors.txt", tmp_path / "products.txt"
        vendors.write_text("#source_year=2020\n#stopwords=aa\nacme\n", encoding="utf-8")
        products.write_text("#source_year=2020\n#stopwords=bb\nhyper\n", encoding="utf-8")
        with pytest.raises(FormatError, match="disagree on the stop-word list: 'aa' against 'bb'"):
            FpFilter.load(vendors, products)

    @pytest.mark.parametrize("unlabeled", ["vendors", "products"])
    def test_list_without_stop_word_line_takes_the_other_one(self, tmp_path, unlabeled):
        paths = {kind: tmp_path / f"{kind}.txt" for kind in ("vendors", "products")}
        for kind, path in paths.items():
            path.write_text(("" if kind == unlabeled else "#stopwords=aa\n") + "acme\n")
        assert FpFilter.load(paths["vendors"], paths["products"]).stop_words_digest == "aa"

    def test_built_in_list_writes_no_stop_word_line(self, tmp_path):
        corpus = [make_record("CVE-2020-0001", summary="hyper flaw", cpes=[cpe23("acme", "anvil")])]
        dictionary = make_dictionary([cpe23("microsoft", "hyper")])
        build_fp_filter(corpus, dictionary, source_year="2020").save(
            tmp_path / "vendors.txt", tmp_path / "products.txt")
        assert (tmp_path / "vendors.txt").read_bytes() == b"#source_year=2020\n"
        assert (tmp_path / "products.txt").read_bytes() == b"#source_year=2020\nhyper\n"

    @pytest.mark.parametrize("brk", ["\n", "\r", "\x85", "\u2028"], ids=["lf", "cr", "nel", "ls"])
    def test_source_year_with_line_break_rejected_before_writing(self, tmp_path, brk):
        fp = FpFilter(frozenset(), frozenset(), source_year=f"2020{brk}widget")
        with pytest.raises(ValidationError, match="not one line"):
            fp.save(tmp_path / "vendors.txt", tmp_path / "products.txt")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "linked"])
    def test_one_file_for_both_lists_rejected_before_writing(self, tmp_path, link):
        vendors = tmp_path / "lists.txt"
        products = tmp_path / "link.txt" if link else vendors
        if link:
            products.symlink_to(vendors.name)
        fp = FpFilter(frozenset({"acme"}), frozenset({"hyper"}), source_year="2020")
        with pytest.raises(ValidationError, match="name the same file"):
            fp.save(vendors, products)
        assert not vendors.exists()

    def test_serialization_is_deterministic(self, tmp_path):
        fp = FpFilter(
            vendor_names=frozenset({"b", "a", "c"}),
            product_names=frozenset({"z", "y"}),
            source_year="2020",
        )
        fp.save(tmp_path / "v1.txt", tmp_path / "p1.txt")
        fp.save(tmp_path / "v2.txt", tmp_path / "p2.txt")
        assert (tmp_path / "v1.txt").read_bytes() == (tmp_path / "v2.txt").read_bytes()
        assert (tmp_path / "p1.txt").read_text().startswith("#source_year=2020\n")


class TestMatchCve:
    def test_cpe_exact_match(self):
        cve = make_record("CVE-2021-0001", cpes=[cpe23("microsoft", "windows")])
        index = AssetIndex([make_asset("A1", "windows", "microsoft")])
        (result,) = match_cve(cve, index)
        assert result.via is MatchVia.CPE
        assert result.asset_ids == ("A1",)
        assert result.matched_phrase is None

    def test_custom_stop_words_standardize_cpe_names(self):
        cve = make_record("CVE-2021-0001", cpes=[cpe23("acme", "widget_server")])
        index = AssetIndex([make_asset("A1", "widget", "acme")])
        assert match_corpus([cve], index) == []
        (result,) = match_corpus([cve], index, stop_words=SERVER)
        assert (result.via, result.asset_ids) == (MatchVia.CPE, ("A1",))

    def test_short_name_elided(self):
        cve = make_record("CVE-2021-0001", summary="x is vulnerable to takeover")
        index = AssetIndex([make_asset("A1", "x", "acme")])
        assert match_cve(cve, index) == []

    def test_vendor_cooccurrence_overrides_filter(self):
        cve = make_record(
            "CVE-2021-0001",
            summary="Microsoft Hyper-V Virtual guest escape on some hosts",
        )
        index = AssetIndex([make_asset("A1", "hyper", "microsoft")])
        fp = FpFilter(vendor_names=frozenset(), product_names=frozenset({"hyper"}))
        (result,) = match_cve(cve, index, fp)
        assert result.via is MatchVia.SUMMARY
        assert result.matched_phrase == "hyper"

    def test_filtered_name_without_vendor_blocked(self):
        cve = make_record("CVE-2021-0001", summary="hyper scale deployment issue")
        index = AssetIndex([make_asset("A1", "hyper", "microsoft")])
        fp = FpFilter(vendor_names=frozenset(), product_names=frozenset({"hyper"}))
        assert match_cve(cve, index, fp) == []

    def test_cpe_precedence_suppresses_summary(self):
        # summary names the asset, but the CPE list points elsewhere
        cve = make_record(
            "CVE-2021-0001",
            summary="anvil users should patch",
            cpes=[cpe23("microsoft", "windows")],
        )
        index = AssetIndex([make_asset("A1", "anvil", "acme")])
        assert match_cve(cve, index) == []

    def test_multiword_name_matches_as_phrase(self):
        cve = make_record("CVE-2021-0001", summary="flaw in SQL Server replication")
        index = AssetIndex([make_asset("A1", "sql server", "microsoft")])
        (result,) = match_cve(cve, index)
        assert result.matched_phrase == "sql server"

    def test_summary_needs_token_boundary(self):
        cve = make_record("CVE-2021-0001", summary="VirtualBox guest escape")
        index = AssetIndex([make_asset("A1", "box", "box")])
        assert match_cve(cve, index) == []

    def test_version_agnostic_groups_dedupe_assets(self):
        cve = make_record("CVE-2021-0001", cpes=[cpe23("geotab", "r2d2", "3.0")])
        index = AssetIndex(
            [
                make_asset("A1", "r2d2", "geotab", "3.0"),
                make_asset("A2", "r2d2", "geotab", "4.0"),
            ]
        )
        (result,) = match_cve(cve, index)
        assert result.asset_ids == ("A1", "A2")

    def test_cpe_keys_derived_once_per_product(self, monkeypatch):
        derived = []
        real = matcher.well_formed_from_cpe

        def counting(uri, stop_words=None):
            derived.append(uri.raw)
            return real(uri, stop_words)

        monkeypatch.setattr(matcher, "well_formed_from_cpe", counting)
        shared = cpe23("microsoft", "windows")
        undescribable = cpe23("acme", "2.0")  # product standardizes to nothing
        cves = [make_record(f"CVE-2021-000{i}", cpes=[undescribable, shared]) for i in (1, 2, 3)]
        index = AssetIndex([make_asset("A1", "windows", "microsoft")])
        results = match_corpus(cves, index)
        assert sorted(derived) == sorted([undescribable, shared])
        assert [(r.cve_id, r.asset_ids, r.via) for r in results] == [
            (cve.id, ("A1",), MatchVia.CPE) for cve in cves
        ]
        assert results == [r for cve in cves for r in match_cve(cve, index)]

    def test_match_corpus_ordering(self):
        cves = [
            make_record("CVE-2021-0002", summary="anvil crash"),
            make_record("CVE-2021-0001", summary="anvil hang"),
        ]
        index = AssetIndex([make_asset("A1", "anvil", "acme")])
        results = match_corpus(cves, index)
        assert [r.cve_id for r in results] == ["CVE-2021-0001", "CVE-2021-0002"]

    def test_filtered_name_matches_through_vendor_that_begins_no_name(self):
        # "zeta" begins the vendor "zeta labs" and no inventory name, so only
        # the vendor puts it among the terms that start phrases
        index = AssetIndex(
            [make_asset("A1", "widget", "zeta labs"), make_asset("A2", "labs portal", "acme")]
        )
        assert index.names.starts == {"widget", "zeta", "labs", "acme"}
        fp = FpFilter(vendor_names=frozenset(), product_names=frozenset({"widget"}))
        with_vendor = make_record("CVE-2021-0001", summary="Zeta Labs Widget crashes")
        (result,) = match_corpus([with_vendor], index, fp)
        assert (result.asset_ids, result.matched_phrase) == (("A1",), "widget")
        without_vendor = make_record("CVE-2021-0002", summary="Zeta Widget crashes in labs")
        assert match_corpus([without_vendor], index, fp) == []

    def test_name_whose_first_term_recurs_in_the_summary(self):
        index = AssetIndex([make_asset("A1", "kilo echo delta", "acme")])
        cve = make_record(
            "CVE-2021-0001", summary="Kilo echo and kilo bravo hosts, when kilo echo delta runs"
        )
        (result,) = match_corpus([cve], index)
        assert result.matched_phrase == "kilo echo delta"

    def test_duplicate_asset_id_rejected(self):
        with pytest.raises(ValidationError):
            AssetIndex([make_asset("A1", "anvil", "acme"), make_asset("A1", "rocket", "acme")])

    @given(st.sets(st.sampled_from(["anvil", "rocket", "hyper", "widget", "gadget"])))
    @settings(max_examples=40)
    def test_enlarging_filter_never_adds_matches(self, filtered):
        # assets without vendor co-occurrence in the summary
        cve = make_record("CVE-2021-0001", summary="anvil rocket widget problem")
        index = AssetIndex(
            [
                make_asset("A1", "anvil", "acme"),
                make_asset("A2", "rocket", "bolt"),
                make_asset("A3", "widget", "cog"),
            ]
        )
        base = len(match_cve(cve, index, FpFilter.empty()))
        grown = len(
            match_cve(
                cve,
                index,
                FpFilter(vendor_names=frozenset(), product_names=frozenset(filtered)),
            )
        )
        assert grown <= base


@st.composite
def match_inputs(draw):
    """Assets, a filter, CVEs with and without CPEs, and a name cutoff."""
    words = st.sampled_from(NAME_WORDS)
    keys = draw(
        st.lists(
            st.tuples(
                st.lists(words, min_size=0, max_size=2).map(" ".join),
                st.lists(words, min_size=1, max_size=6).map(" ".join),
            ),
            min_size=1,
            max_size=8,
        )
    )
    assets = [make_asset(f"A{i}", name, vendor) for i, (vendor, name) in enumerate(keys)]
    names = sorted({name for _, name in keys})
    fp_filter = FpFilter(
        vendor_names=frozenset(), product_names=frozenset(draw(st.sets(st.sampled_from(names))))
    )
    # "*" standardizes to an empty vendor; "2.0" to an empty, undescribable product
    cpes = st.sampled_from(
        [cpe23(v.replace(" ", "_") or "*", n.replace(" ", "_")) for v, n in keys]
        + [cpe23("zulu", "2.0"), cpe23("zulu", "kilo"), cpe23("kilo", "echo_delta")]
    )
    cves = []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        # whole names and vendors as pieces, so long names occur in summaries too
        pieces = st.sampled_from(NAME_WORDS + SUMMARY_FILLERS + names + [v for v, _ in keys])
        summary = draw(st.lists(pieces, max_size=10))
        cve_cpes = draw(st.one_of(st.just([]), st.lists(cpes, min_size=1, max_size=3)))
        cves.append(make_record(f"CVE-2021-{9 - i:04d}", summary=" ".join(summary), cpes=cve_cpes))
    return assets, fp_filter, cves, draw(st.sampled_from([1, 3]))


class TestMatchCorpusOracle:
    @given(match_inputs())
    @settings(max_examples=300, deadline=None)
    def test_match_corpus_equals_oracle(self, inputs):
        assets, fp_filter, cves, min_len = inputs
        got = match_corpus(cves, AssetIndex(assets), fp_filter, min_name_len=min_len)
        assert got == oracle_match_corpus(cves, assets, fp_filter, min_name_len=min_len)

    @given(match_inputs())
    @settings(max_examples=100, deadline=None)
    def test_unreachable_names_never_match(self, inputs):
        assets, fp_filter, cves, min_len = inputs
        index = AssetIndex(assets)
        expected = sorted(
            {a.wfn.name for a in assets if set(a.wfn.name.split()) & FUNCTION_WORDS}
        )
        assert list(index.unreachable_names) == expected
        matched = oracle_match_corpus(cves, assets, fp_filter, min_name_len=min_len)
        assert not {m.matched_phrase for m in matched} & set(index.unreachable_names)

    def test_function_word_names_are_reported(self):
        assets = [
            make_asset("A1", standardize("Tools for Widgets"), "acme"),
            make_asset("A2", standardize("Any"), "acme"),
            make_asset("A3", standardize("Widgets"), "acme"),
        ]
        index = AssetIndex(assets)
        assert index.unreachable_names == ("any", "tools for widgets")
        cve = make_record("CVE-2021-0001", summary="Any Tools for Widgets flaw")
        expected = oracle_match_corpus([cve], assets, FpFilter.empty())
        assert [m.matched_phrase for m in expected] == ["widgets"]
        assert match_corpus([cve], index) == expected


def _random_eval_fixture(seed: int, n_records: int = 50, n_entries: int = 200):
    rng = random.Random(seed)
    vendors = ["acme", "geotab", "microsoft", "oracle", "bolt", "cog", "px", "zx"]
    words = [
        "anvil", "rocket", "hyper", "widget", "gadget", "windows", "java",
        "server", "sql server", "r2d2", "engine", "panel", "agent", "x", "go",
        "relay", "probe", "beacon", "matrix", "lattice",
    ]
    entries = []
    for _ in range(n_entries):
        vendor = rng.choice(vendors)
        product = rng.choice(words)
        version = rng.choice(["*", "1.0", "2.5"])
        entries.append(cpe23(vendor, product.replace(" ", "_"), version))
    dictionary = make_dictionary(entries)

    fillers = ["issue", "flaw", "overflow", "in", "the", "remote", "crash", "leak"]
    corpus = []
    for i in range(n_records):
        own_vendor = rng.choice(vendors)
        own_product = rng.choice(words)
        mention: list[str] = []
        for _ in range(rng.randint(2, 7)):
            roll = rng.random()
            if roll < 0.35:
                mention.append(rng.choice(words))
            elif roll < 0.55:
                mention.append(rng.choice(vendors))
            else:
                mention.append(rng.choice(fillers))
        if rng.random() < 0.5:
            mention.append(own_product)
        if rng.random() < 0.4:
            mention.append(own_vendor)
        rng.shuffle(mention)
        corpus.append(
            make_record(
                f"CVE-2020-{i + 1:04d}",
                published="2020-03-01",
                summary=" ".join(mention),
                cpes=[cpe23(own_vendor, own_product.replace(" ", "_"))],
            )
        )
    return corpus, dictionary


class TestEvaluateCorpus:
    def test_direct_tp(self):
        record = make_record(
            "CVE-2021-0001",
            summary="Microsoft Windows kernel privilege escalation",
            cpes=[cpe23("microsoft", "windows")],
        )
        report = evaluate_corpus([record], make_dictionary([cpe23("microsoft", "windows")]))
        assert report.tp == 1
        assert report.fp == 0

    def test_fp_from_foreign_dictionary_pair(self):
        record = make_record(
            "CVE-2021-0001",
            summary="Microsoft Hyper-V Virtual flaw, update Windows",
            cpes=[cpe23("microsoft", "windows")],
        )
        dictionary = make_dictionary(
            [cpe23("microsoft", "windows"), cpe23("microsoft", "hyper")]
        )
        report = evaluate_corpus([record], dictionary)
        assert report.tp == 1  # own names present too
        assert report.fp == 1  # (microsoft, hyper) pair not in own CPE

    def test_custom_stop_words_standardize_the_records_own_names(self):
        record = make_record("CVE-2021-0001", summary="Flaw in Widget",
                             cpes=[cpe23("acme", "widget_server")])
        dictionary = make_dictionary([cpe23("acme", "anvil")])
        assert evaluate_corpus([record], dictionary).tp == 0
        assert evaluate_corpus([record], dictionary, stop_words=SERVER).tp == 1

    def test_empty_cpe_record_rejected(self):
        with pytest.raises(ValidationError):
            evaluate_corpus([make_record("CVE-2021-0001")], make_dictionary([]))

    def test_elided_name_count(self):
        dictionary = make_dictionary(
            [cpe23("px", "x"), cpe23("acme", "go"), cpe23("acme", "anvil")]
        )
        report = evaluate_corpus(
            [make_record("CVE-2021-0001", summary="x", cpes=[cpe23("acme", "anvil")])],
            dictionary,
        )
        # names shorter than 3: vendor "px", products "x" and "go"
        assert report.elided_names == 3

    def test_min_name_len_one_counts_nothing_elided(self):
        dictionary = make_dictionary([cpe23("px", "x")])
        report = evaluate_corpus(
            [make_record("CVE-2021-0001", summary="x px", cpes=[cpe23("acme", "anvil")])],
            dictionary,
            min_name_len=1,
        )
        assert report.elided_names == 0
        assert report.fp == 1

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    def test_matches_brute_force_oracle(self, seed):
        corpus, dictionary = _random_eval_fixture(seed)
        report = evaluate_corpus(corpus, dictionary)
        expected = oracle_evaluate(corpus, dictionary)
        assert report.to_dict() == expected

    @pytest.mark.parametrize("min_len", [1, 2, 4])
    def test_matches_oracle_at_other_thresholds(self, min_len):
        corpus, dictionary = _random_eval_fixture(99)
        report = evaluate_corpus(corpus, dictionary, min_name_len=min_len)
        assert report.to_dict() == oracle_evaluate(corpus, dictionary, min_name_len=min_len)
