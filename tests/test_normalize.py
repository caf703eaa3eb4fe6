"""Standardization rules and well-formed-name construction."""

from __future__ import annotations

import re

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import cpe23
from cvesentinel.errors import FormatError, ValidationError
from cvesentinel.model import CpeUri
from cvesentinel.normalize import (
    DEFAULT_STOP_WORDS,
    StopWordList,
    standardize,
    tokenize,
    well_formed_from_cpe,
    well_formed_from_raw,
)


class TestStandardize:
    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            ("R2D2 Beta version 3.0.1.16", "r2d2"),
            ("Geotab Inc.", "geotab"),
            ("", ""),
            ("(legacy) Foo 2021", "foo"),
            ("SQL Server 2019", "sql server"),
            ("Microsoft Corp", "microsoft"),
            ("Hyper-V", "hyper v"),
            ("Apache   HTTP   Server", "apache http server"),
        ],
    )
    def test_examples(self, raw, expected):
        assert standardize(raw) == expected

    def test_nested_brackets_removed(self):
        assert standardize("Foo (old (very old)) Bar") == "foo bar"

    def test_braces_removed(self):
        assert standardize("Widget {deprecated} Pro") == "widget pro"

    def test_unbalanced_brackets_dropped(self):
        assert standardize("( Acme") == "acme"
        assert "(" not in standardize("((((")

    def test_date_tokens_removed(self):
        assert standardize("Tool released 12.31.2021 build") == "tool released build"
        assert standardize("Suite 1999") == "suite"

    def test_version_token_removed_from_name(self):
        assert standardize("Thing 3.0.1.16") == "thing"

    def test_alphanumeric_tokens_kept(self):
        assert standardize("log4j v2") == "log4j v2"

    def test_custom_stop_words(self):
        stop = StopWordList(frozenset({"server"}))
        assert standardize("SQL Server", stop) == "sql"

    def test_underscore_and_slash_split(self):
        assert standardize("hyper_v") == "hyper v"
        assert standardize("client/server suite") == "client server suite"


class TestStopWordList:
    def test_default_contains_spec_words(self):
        for word in ("system", "software", "library", "version", "app"):
            assert word in DEFAULT_STOP_WORDS

    def test_from_lines_with_comments(self):
        stop = StopWordList.from_lines(["# corporate suffixes", "inc", "", "LTD  # mixed case ok"])
        assert stop.words == frozenset({"inc", "ltd"})

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            StopWordList(frozenset())

    def test_multi_token_line_rejected(self):
        with pytest.raises(FormatError):
            StopWordList.from_lines(["two words"])

    def test_from_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("system\nfoo\n# comment\n")
        assert StopWordList.from_file(path).words == frozenset({"system", "foo"})


class TestWellFormedFromCpe:
    def test_geotab_example(self):
        uri = CpeUri.parse("cpe:2.3:a:geotab:r2d2:3.0.1.16:*:*:*:*:*:*:*")
        wfn = well_formed_from_cpe(uri)
        assert (wfn.name, wfn.vendor, wfn.version) == ("r2d2", "geotab", "3.0.1.16")

    def test_wildcard_version_becomes_empty(self):
        assert well_formed_from_cpe(CpeUri.parse(cpe23("acme", "anvil"))).version == ""

    def test_underscore_becomes_space(self):
        assert well_formed_from_cpe(CpeUri.parse(cpe23("microsoft", "hyper_v"))).name == "hyper v"

    def test_empty_product_rejected(self):
        with pytest.raises(ValidationError):
            well_formed_from_cpe(CpeUri.parse(cpe23("acme", "2.0")))


class TestWellFormedFromRaw:
    def test_geotab_example_without_dictionary(self):
        wfn = well_formed_from_raw("R2D2 Beta version 3.0.1.16", "Geotab Inc.", "3.0.1.16")
        assert (wfn.name, wfn.vendor, wfn.version) == ("r2d2", "geotab", "3.0.1.16")

    def test_sql_server_example(self):
        wfn = well_formed_from_raw("SQL Server 2019", "Microsoft Corp", "15.0")
        assert (wfn.name, wfn.vendor, wfn.version) == ("sql server", "microsoft", "15.0")

    def test_empty_product_rejected(self):
        with pytest.raises(ValidationError):
            well_formed_from_raw("()", "Acme", "1.0")


_NUMERIC = re.compile(r"\d+(?:\.\d+)*")


class TestStandardizeProperties:
    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        once = standardize(text)
        assert standardize(once) == once

    @given(st.text(max_size=80))
    def test_case_insensitive(self, text):
        # Unicode has a few one-way case maps (e.g. dotless i) where
        # uppercasing itself destroys identity; those are out of scope.
        assume(text.upper().casefold() == text.casefold())
        assert standardize(text) == standardize(text.upper())

    @given(st.text(max_size=80))
    def test_no_brackets_or_numeric_tokens_in_output(self, text):
        out = standardize(text)
        assert not any(ch in out for ch in "(){}")
        for token in out.split():
            assert not _NUMERIC.fullmatch(token)

    @given(st.text(max_size=80))
    def test_no_standalone_stop_words_in_output(self, text):
        tokens = set(standardize(text).split())
        assert not tokens & DEFAULT_STOP_WORDS

    @given(st.text(max_size=80))
    def test_single_spaced_and_trimmed(self, text):
        out = standardize(text)
        assert out == " ".join(out.split())

    @given(st.text(max_size=40))
    def test_tokenize_never_emits_empty_or_uppercase(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()
