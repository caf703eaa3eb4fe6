"""Domain type construction, invariants, and the round trips of the stored
and emitted forms (CveRecord, Ticket)."""

from __future__ import annotations

import copy
import pickle
import weakref
from dataclasses import FrozenInstanceError, fields
from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cpe23, make_record
from cvesentinel.errors import ValidationError
from cvesentinel.model import (
    AssetRecord,
    CpeUri,
    CveRecord,
    MatchVia,
    SeverityLevel,
    SnapshotDiff,
    Ticket,
    WellFormedName,
)


class TestCpeUri:
    def test_parse_basic(self):
        uri = CpeUri.parse("cpe:2.3:a:geotab:r2d2:3.0.1.16:*:*:*:*:*:*:*")
        assert uri.part == "a"
        assert uri.vendor == "geotab"
        assert uri.product == "r2d2"
        assert uri.version == "3.0.1.16"

    def test_parse_uppercase_vendor_lowered(self):
        uri = CpeUri.parse(cpe23("Microsoft", "Windows"))
        assert (uri.vendor, uri.product) == ("microsoft", "windows")

    def test_escaped_colon_stays_in_value(self):
        uri = CpeUri.parse("cpe:2.3:a:vendor:product\\:pro:1.0:*:*:*:*:*:*:*")
        assert uri.product == "product:pro"

    def test_short_attribute_tail_tolerated(self):
        uri = CpeUri.parse("cpe:2.3:a:geotab:r2d2:3.0.1.16:*:*")
        assert uri.version == "3.0.1.16"

    def test_wrong_prefix_rejected(self):
        with pytest.raises(ValidationError):
            CpeUri.parse("cpe:/a:geotab:r2d2")

    @pytest.mark.parametrize("part", ["x", "*", ""])
    def test_bad_part_rejected(self, part):
        with pytest.raises(ValidationError):
            CpeUri.parse(f"cpe:2.3:{part}:v:p:1:*:*:*:*:*:*:*")

    def test_empty_vendor_rejected(self):
        with pytest.raises(ValidationError):
            CpeUri.parse("cpe:2.3:a::p:1:*:*:*:*:*:*:*")

    def test_truncated_rejected(self):
        with pytest.raises(ValidationError):
            CpeUri.parse("cpe:2.3:a:vendor:product")

    @pytest.mark.parametrize("raw", [5, None, [cpe23("acme", "anvil")]])
    def test_non_string_rejected(self, raw):
        with pytest.raises(ValidationError):
            CpeUri.parse(raw)


class TestCveRecord:
    def test_round_trip(self):
        record = make_record(
            "CVE-2021-1234",
            summary="buffer overflow",
            score=9.8,
            cpes=[cpe23("microsoft", "windows")],
            refs=["https://example.com/advisory"],
        )
        assert CveRecord.from_dict(record.to_dict()) == record

    def test_score_is_exact_decimal(self):
        record = make_record("CVE-2021-1234", score=9.8)
        assert record.cvss3_base == Decimal("9.8")

    @pytest.mark.parametrize("bad_id", ["CVE-21-1234", "cve-2021-1234", "CVE-2021-123", "XCVE-2021-1234"])
    def test_malformed_id_rejected(self, bad_id):
        with pytest.raises(ValidationError):
            make_record(bad_id)

    @pytest.mark.parametrize("field", [{"id": 5}, {"summary": 5}, {"summary": None}])
    def test_non_string_id_or_summary_rejected(self, field):
        data = {**make_record("CVE-2021-1234", summary="s").to_dict(), **field}
        with pytest.raises(ValidationError):
            CveRecord.from_dict(data)

    @pytest.mark.parametrize(
        "field",
        [{"references": "abc"}, {"references": None}, {"cpe_list": {cpe23("acme", "anvil"): 1}},
         {"cpe_list": cpe23("acme", "anvil")}],
        ids=["string-references", "null-references", "dict-cpe-list", "string-cpe-list"],
    )
    def test_stored_cpe_list_and_references_must_be_lists(self, field):
        data = {**make_record("CVE-2021-1234").to_dict(), **field}
        with pytest.raises(ValidationError, match="is not a list"):
            CveRecord.from_dict(data)

    @pytest.mark.parametrize("data, kind", [([], "list"), ("x", "str"), (5, "int")], ids=str)
    def test_from_dict_rejects_a_value_that_is_not_an_object(self, data, kind):
        with pytest.raises(ValidationError, match=f"^stored record is not an object but {kind}$"):
            CveRecord.from_dict(data)

    @pytest.mark.parametrize("reference", [5, ["x"], None])
    def test_non_string_reference_rejected(self, reference):
        with pytest.raises(ValidationError, match="reference is not a string"):
            make_record("CVE-2021-0001", refs=["https://a", reference])

    def test_modified_before_published_rejected(self):
        with pytest.raises(ValidationError):
            make_record("CVE-2021-1234", published="2021-06-02", modified="2021-06-01")

    @pytest.mark.parametrize("score", [-0.1, 10.1])
    def test_score_out_of_range_rejected(self, score):
        with pytest.raises(ValidationError):
            make_record("CVE-2021-1234", score=score)

    @pytest.mark.parametrize(
        "score",
        [True, False, float("nan"), float("inf"), float("-inf"), "NaN", "-Infinity", Decimal("sNaN"),
         "7.5"],
    )
    def test_non_finite_or_bool_score_rejected(self, score):
        with pytest.raises(ValidationError):
            make_record("CVE-2021-1234", score=score)

    def test_five_digit_sequence_accepted(self):
        assert make_record("CVE-2021-123456").id == "CVE-2021-123456"


class TestWellFormedName:
    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            WellFormedName(name="", vendor="geotab")

    def test_uppercase_rejected(self):
        with pytest.raises(ValidationError):
            WellFormedName(name="R2D2", vendor="geotab")

    def test_bracket_characters_rejected(self):
        with pytest.raises(ValidationError):
            WellFormedName(name="foo (bar", vendor="acme")

    def test_empty_vendor_allowed(self):
        assert WellFormedName(name="foo", vendor="").vendor == ""


class TestAssetRecord:
    def test_empty_asset_id_rejected(self):
        with pytest.raises(ValidationError):
            AssetRecord(asset_id="", wfn=WellFormedName(name="x", vendor="y"))


# One value of each slotted type: a record with every field set, and an asset.
SLOTTED = {
    "CpeUri": CpeUri.parse("cpe:2.3:a:vendor:product\\:pro:1.0:*:*:*:*:*:*:*"),
    "CveRecord": make_record("CVE-2021-0001", modified="2021-06-03", summary="flaw", score=7.5,
                             cpes=[cpe23("acme", "anvil")], refs=["https://a"]),
    "WellFormedName": WellFormedName(name="r2d2", vendor="geotab", version="3.0"),
    "AssetRecord": AssetRecord(asset_id="A1", wfn=WellFormedName(name="x", vendor="y")),
}


class TestSlottedTypes:
    @pytest.mark.parametrize("name", SLOTTED)
    def test_no_dict_and_no_weak_reference(self, name):
        value = SLOTTED[name]
        assert not hasattr(value, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(value)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("name", SLOTTED)
    def test_pickle_round_trip(self, name, protocol):
        value = SLOTTED[name]
        copied = pickle.loads(pickle.dumps(value, protocol))
        assert type(copied) is type(value) and copied == value and repr(copied) == repr(value)

    @pytest.mark.parametrize("name", SLOTTED)
    def test_deepcopy_round_trip(self, name):
        value = SLOTTED[name]
        copied = copy.deepcopy(value)
        assert copied is not value
        assert type(copied) is type(value) and copied == value and repr(copied) == repr(value)

    @pytest.mark.parametrize("name", SLOTTED)
    def test_a_copy_stays_frozen(self, name):
        for copied in (copy.deepcopy(SLOTTED[name]), pickle.loads(pickle.dumps(SLOTTED[name]))):
            with pytest.raises(FrozenInstanceError):
                setattr(copied, fields(copied)[0].name, None)


class TestTicket:
    def _ticket(self, **overrides):
        kwargs = dict(
            vendor="geotab",
            name="r2d2",
            cve_ids=("CVE-2021-0001", "CVE-2021-0002"),
            matched_assets=("A1", "A2"),
            max_severity=SeverityLevel.HIGH,
            created=date(2021, 6, 2),
            via={"CVE-2021-0001": MatchVia.CPE, "CVE-2021-0002": MatchVia.SUMMARY},
        )
        kwargs.update(overrides)
        return Ticket(**kwargs)

    def test_round_trip(self):
        ticket = self._ticket()
        assert Ticket.from_dict(ticket.to_dict()) == ticket

    def test_duplicate_cve_ids_rejected(self):
        with pytest.raises(ValidationError):
            self._ticket(
                cve_ids=("CVE-2021-0001", "CVE-2021-0001"),
                via={"CVE-2021-0001": MatchVia.CPE},
            )

    def test_empty_cve_ids_rejected(self):
        with pytest.raises(ValidationError):
            self._ticket(cve_ids=(), via={})

    def test_via_must_cover_cve_ids(self):
        with pytest.raises(ValidationError):
            self._ticket(via={"CVE-2021-0001": MatchVia.CPE})


@st.composite
def cve_records(draw):
    seq = draw(st.integers(min_value=1000, max_value=99999))
    published = date(2021, 6, draw(st.integers(1, 28)))
    lag = draw(st.integers(0, 10))
    score = draw(st.one_of(st.none(), st.integers(0, 100).map(lambda t: Decimal(t) / 10)))
    n_cpes = draw(st.integers(0, 3))
    cpes = tuple(
        CpeUri.parse(cpe23(draw(st.sampled_from(["acme", "geotab"])), f"prod{i}", "1.0"))
        for i in range(n_cpes)
    )
    return CveRecord(
        id=f"CVE-2021-{seq:04d}",
        published=published,
        last_modified=date.fromordinal(published.toordinal() + lag),
        summary=draw(st.text(max_size=60)),
        cvss3_base=score,
        cpe_list=cpes,
        references=tuple(draw(st.lists(st.sampled_from(["https://a", "https://b"]), max_size=2))),
    )


class TestRoundTripProperties:
    @given(cve_records())
    @settings(max_examples=60)
    def test_cve_record(self, record):
        assert CveRecord.from_dict(record.to_dict()) == record

    @given(
        st.lists(st.integers(1, 9999), min_size=1, max_size=5, unique=True),
        st.sampled_from(list(SeverityLevel)),
    )
    @settings(max_examples=40)
    def test_ticket(self, seqs, severity):
        cve_ids = tuple(f"CVE-2021-{n:04d}" for n in seqs)
        ticket = Ticket(
            vendor="geotab",
            name="r2d2",
            cve_ids=cve_ids,
            matched_assets=("A1",),
            max_severity=severity,
            created=date(2021, 6, 2),
            via={cve_id: MatchVia.SUMMARY for cve_id in cve_ids},
        )
        assert Ticket.from_dict(ticket.to_dict()) == ticket


class TestSnapshotDiff:
    def test_equal_dates_rejected(self):
        with pytest.raises(ValidationError):
            SnapshotDiff(date_from=date(2021, 6, 1), date_to=date(2021, 6, 1))
