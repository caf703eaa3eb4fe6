"""Standardization rules and well-formed-name construction."""

from __future__ import annotations

import re

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import cpe23
from cvesentinel.errors import FormatError, ValidationError
from cvesentinel.model import CpeUri, _split_cpe_components
from cvesentinel.normalize import (
    DEFAULT_STOP_WORDS,
    StopWordList,
    standardize,
    tokenize,
    well_formed_from_cpe,
    well_formed_from_raw,
)
from oracles import oracle_standardize, oracle_tokenize


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

    def test_cherokee_letters_lowercased(self):
        # casefold maps Cherokee letters to uppercase; the output stays lowercase.
        assert standardize("\u13a0 \uab70") == "\uab70 \uab70"


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

    def test_from_lines_keeps_each_line_as_its_token(self):
        stop = StopWordList.from_lines(["Straße", "co.", "(beta)", "µ"])
        assert stop.words == frozenset({"strasse", "co", "beta", "\u03bc"})

    def test_folded_entries_remove_their_tokens(self):
        stop = StopWordList.from_lines(["straße", "co."])
        assert standardize("Straße Widget", stop) == "widget"
        assert standardize("Acme Co. Widget", stop) == "acme widget"

    @pytest.mark.parametrize("entry", ["e-commerce", "a_b", "x/y", "--", "..."])
    def test_line_that_is_not_one_token_rejected(self, entry):
        with pytest.raises(FormatError, match=f"stop-word line 3 .*{re.escape(repr(entry))}"):
            StopWordList.from_lines(["inc", "# comment", entry])

    @pytest.mark.parametrize("word", ["straße", "co.", "e-commerce", "Inc", " inc", ""])
    def test_word_that_is_not_its_own_token_rejected(self, word):
        with pytest.raises(ValidationError, match="not a single token"):
            StopWordList(frozenset({"inc", word}))


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

    def test_cherokee_product_accepted(self):
        assert well_formed_from_cpe(CpeUri.parse(cpe23("acme", "\u13a0"))).name == "\uab70"


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


# Separators, the underscore, brackets, edge punctuation and dots, beside
# letters and digits outside ASCII: "ß" folds to "ss", "µ" to Greek mu,
# Cherokee letters fold to uppercase, "٣" is a decimal digit, "²" a digit
# that is not decimal, "İ" folds to "i" plus a combining dot that is not
# alphanumeric, and "Σ" folds to "σ" where lower() alone gives a final "ς".
NAME_ALPHABET = " \t\n,;:/\\-_(){}.!'\"#*aZk019ßµ\u13a0\uab70\u0663\u00b2\u0130\u03a3"
names = st.one_of(st.text(max_size=40), st.text(alphabet=NAME_ALPHABET, max_size=40))
stop_lists = st.sets(
    st.sampled_from(["ss", "strasse", "k", "z0", "\u03bc", "\uab70", "\u0663", "a.k", "2019"]),
    min_size=1,
).map(lambda words: StopWordList(frozenset(words)))


class TestNormalizeOracles:
    @given(names)
    def test_tokenize_equals_oracle(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    @given(names)
    def test_standardize_equals_oracle(self, text):
        assert standardize(text) == oracle_standardize(text)

    @given(names, stop_lists)
    def test_standardize_with_stop_words_equals_oracle(self, text, stop):
        assert standardize(text, stop) == oracle_standardize(text, stop)

    @pytest.mark.parametrize("alphabet", ["aBz09.*-_?", "aBz09.*-_?\\:"])
    @given(data=st.data())
    def test_cpe_parse_equals_char_loop_split(self, alphabet, data):
        values = data.draw(st.lists(st.text(alphabet=alphabet, max_size=6), max_size=8))
        raw = ":".join(["cpe", "2.3", "a", *values])
        components = _split_cpe_components(raw)
        try:
            expected = CpeUri(
                "a", components[3].lower(), components[4].lower(), components[5], raw
            )
        except (IndexError, ValidationError):
            with pytest.raises(ValidationError):
                CpeUri.parse(raw)
            return
        assert CpeUri.parse(raw) == expected
