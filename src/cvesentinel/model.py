"""Core domain types: CVE records, CPE names, assets, tickets, diffs.

All types are immutable after construction and validate their invariants
in ``__post_init__``; invalid values are rejected, never repaired. The
types built by the thousand (``CpeUri``, ``CveRecord``, ``WellFormedName``
and ``AssetRecord``) are slotted: their instances have no ``__dict__`` and
take no weak references. The two forms that are stored or emitted
round-trip through ``to_dict`` / ``from_dict``: ``CveRecord`` (the
snapshot store) and ``Ticket`` (the ticket stream). Flat report rows share
the ``to_dict`` of ``Row``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from datetime import date
from decimal import Decimal
from enum import Enum
from typing import Any, Mapping

from .errors import DomainError, ValidationError

CVE_ID_RE = re.compile(r"CVE-\d{4}-\d{4,}")

_CPE_PREFIX = "cpe:2.3:"
_CPE_PARTS = frozenset("aoh")
_BRACKET_RE = re.compile(r"[(){}]")


class SeverityLevel(Enum):
    """Qualitative CVSS v3 severity, plus UNSCORED for absent scores."""

    NONE = "NONE"
    LOW = "LOW"
    MEDIUM = "MEDIUM"
    HIGH = "HIGH"
    CRITICAL = "CRITICAL"
    UNSCORED = "UNSCORED"


def severity_bucket(score: Decimal | float | int | None) -> SeverityLevel:
    """Map a CVSS v3 base score onto its qualitative severity.

    Absent scores map to UNSCORED and an exact 0.0 to NONE; the named
    bands start at 0.1. Scores outside [0, 10] raise DomainError.
    """
    if score is None:
        return SeverityLevel.UNSCORED
    if not 0 <= score <= 10:
        raise DomainError(f"score {score} outside [0.0, 10.0]")
    if score == 0:
        return SeverityLevel.NONE
    if score < 4:
        return SeverityLevel.LOW
    if score < 7:
        return SeverityLevel.MEDIUM
    if score < 9:
        return SeverityLevel.HIGH
    return SeverityLevel.CRITICAL


class Row:
    """A flat report row: ``to_dict`` gives its fields in order, dates in
    ISO form and enums by value, so the fields are also its CSV header."""

    def to_dict(self) -> dict[str, Any]:
        row = {}
        for f in fields(self):  # type: ignore[arg-type]  # subclasses are dataclasses
            value = getattr(self, f.name)
            if isinstance(value, date):
                value = value.isoformat()
            elif isinstance(value, Enum):
                value = value.value
            row[f.name] = value
        return row


class MatchVia(Enum):
    """How a CVE was related to an asset: its CPE list or its summary text."""

    CPE = "CPE"
    SUMMARY = "SUMMARY"


def _split_cpe_components(text: str) -> list[str]:
    # Colons inside attribute values are backslash-escaped in the 2.3
    # formatted-string binding; the escape is consumed here.
    parts: list[str] = []
    current: list[str] = []
    chars = iter(text)
    for ch in chars:
        if ch == "\\":
            nxt = next(chars, None)
            current.append(nxt if nxt is not None else "\\")
        elif ch == ":":
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


@dataclass(frozen=True, slots=True)
class CpeUri:
    """One parsed CPE 2.3 formatted-string name."""

    part: str
    vendor: str
    product: str
    version: str
    raw: str

    def __post_init__(self) -> None:
        if not self.raw.startswith(_CPE_PREFIX):
            raise ValidationError(f"not a cpe:2.3 name: {self.raw!r}")
        if self.part not in _CPE_PARTS:
            raise ValidationError(f"CPE part must be one of a/o/h, got {self.part!r}")
        if not self.vendor or not self.product:
            raise ValidationError(f"CPE vendor and product must be non-empty: {self.raw!r}")

    @classmethod
    def parse(cls, raw: str) -> "CpeUri":
        """Parse a cpe:2.3 formatted string.

        Tolerates truncated attribute tails (anything past the version
        component is ignored) but requires at least part through version.
        """
        if not isinstance(raw, str):
            raise ValidationError(f"CPE name must be a string, got {raw!r}")
        if not raw.startswith(_CPE_PREFIX):
            raise ValidationError(f"not a cpe:2.3 name: {raw!r}")
        components = _split_cpe_components(raw) if "\\" in raw else raw.split(":")
        if len(components) < 6:
            raise ValidationError(f"truncated CPE name: {raw!r}")
        part, vendor, product, version = components[2], components[3], components[4], components[5]
        return cls(
            part=part,
            vendor=vendor.lower(),
            product=product.lower(),
            version=version,
            raw=raw,
        )


def _coerce_score(value: Any) -> Decimal | None:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float, Decimal)):
        raise ValidationError(f"not a numeric score: {value!r}")  # "7.5" is rejected, not repaired
    score = value if isinstance(value, Decimal) else Decimal(str(value))
    if not score.is_finite():  # NaN would raise on the range check below
        raise ValidationError(f"not a finite score: {value!r}")
    return score


@dataclass(frozen=True, slots=True)
class CveRecord:
    """One CVE entry as captured on a given day.

    Dates carry day precision only. ``cvss3_base`` is a decimal compared
    exactly, never with a floating tolerance.
    """

    id: str
    published: date
    last_modified: date
    summary: str
    cvss3_base: Decimal | None = None
    cpe_list: tuple[CpeUri, ...] = ()
    references: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "cvss3_base", _coerce_score(self.cvss3_base))
        object.__setattr__(self, "cpe_list", tuple(self.cpe_list))
        object.__setattr__(self, "references", tuple(self.references))
        if not isinstance(self.id, str) or not CVE_ID_RE.fullmatch(self.id):
            raise ValidationError(f"malformed CVE id: {self.id!r}")
        if not isinstance(self.summary, str):
            raise ValidationError(f"{self.id}: summary is not a string: {self.summary!r}")
        for ref in self.references:
            if not isinstance(ref, str):
                raise ValidationError(f"{self.id}: reference is not a string: {ref!r}")
        if self.last_modified < self.published:
            raise ValidationError(
                f"{self.id}: last_modified {self.last_modified} precedes published {self.published}"
            )
        score = self.cvss3_base
        if score is not None and not (Decimal(0) <= score <= Decimal(10)):
            raise ValidationError(f"{self.id}: cvss3_base {score} outside [0.0, 10.0]")

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "published": self.published.isoformat(),
            "last_modified": self.last_modified.isoformat(),
            "summary": self.summary,
            "cvss3_base": None if self.cvss3_base is None else float(self.cvss3_base),
            "cpe_list": [uri.raw for uri in self.cpe_list],
            "references": list(self.references),
        }

    @classmethod
    def from_dict(
        cls, data: dict[str, Any], memo: FieldMemo | None = None, earlier: CveRecord | None = None
    ) -> "CveRecord":
        """Build a record from its ``to_dict`` form, which must be a dict.

        ``memo`` gives the CPE names, dates and scores parsed for the
        records built before this one, and gains each one parsed here.
        ``earlier``, a record of the same CVE, lends its id, summary and
        references where this record's are equal, so that a changed record
        holds no second copy of the text that did not change; it is returned
        when the two are equal, scores written alike (1 is not 1.0).
        """
        if not isinstance(data, dict):
            raise ValidationError(f"stored record is not an object but {type(data).__name__}")
        memo = FieldMemo() if memo is None else memo
        raws, references = data.get("cpe_list", []), data.get("references", [])
        for label, value in (("cpe_list", raws), ("references", references)):
            if not isinstance(value, list):
                raise ValidationError(f"{label} is not a list but {type(value).__name__}")
        cpe_list = tuple([memo.cpe(raw) for raw in raws])
        cve_id = data["id"]
        published = memo.day(data["published"])
        last_modified = memo.day(data["last_modified"])
        summary, references = data["summary"], tuple(references)
        if earlier is not None:
            cve_id = earlier.id if cve_id == earlier.id else cve_id
            summary = earlier.summary if summary == earlier.summary else summary
            references = earlier.references if references == earlier.references else references
        record = cls(
            id=cve_id,
            published=published,
            last_modified=last_modified,
            summary=summary,
            cvss3_base=memo.score(data.get("cvss3_base")),
            cpe_list=cpe_list,
            references=references,
        )
        same = record == earlier and str(record.cvss3_base) == str(earlier.cvss3_base)
        return earlier if same else record


class FieldMemo:
    """The field values parsed for the records of one feed or one range of
    stored days, so that equal values are one object: a CPE name per raw
    string, a date per ISO string and a score per type and notation, each
    parsed and checked once, as a record's own parse would."""

    __slots__ = ("_cpes", "_days", "_scores")

    def __init__(self) -> None:
        self._cpes: dict[str, CpeUri] = {}
        self._days: dict[str, date] = {}
        self._scores: dict[tuple[type, str], Decimal] = {}

    def cpe(self, raw: str) -> CpeUri:
        """``CpeUri.parse(raw)``."""
        uri = self._cpes.get(raw)
        if uri is None:
            uri = self._cpes[raw] = CpeUri.parse(raw)
        return uri

    def day(self, text: str) -> date:
        """``date.fromisoformat(text)``; only a string is looked up."""
        if not isinstance(text, str):
            return date.fromisoformat(text)
        day = self._days.get(text)
        if day is None:
            day = self._days[text] = date.fromisoformat(text)
        return day

    def score(self, value: Any) -> Decimal | None:
        """The score of a JSON value, as ``CveRecord`` coerces it. Only an
        int or a float is looked up, keyed by its type and notation, so that
        1 and 1.0, or -0.0 and 0.0, keep the notation they are stored in."""
        if type(value) not in (int, float):  # None, a Decimal, and what is rejected
            return _coerce_score(value)
        key = (type(value), str(value))
        score = self._scores.get(key)
        if score is None:
            score = self._scores[key] = _coerce_score(value)
        return score


@dataclass(frozen=True, slots=True)
class WellFormedName:
    """Canonical {name, vendor, version} identity for a product.

    Name and vendor are standardized lowercase strings; construction with
    an empty name, uppercase characters, or leftover bracket characters is
    rejected. Absence of stop-words is guaranteed by the standardization
    that produces these values, not re-checked here (the list is
    configurable).
    """

    name: str
    vendor: str
    version: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("well-formed name requires a non-empty product name")
        for label, value in (("name", self.name), ("vendor", self.vendor)):
            if value != value.lower():
                raise ValidationError(f"well-formed {label} must be lowercase: {value!r}")
            if _BRACKET_RE.search(value):
                raise ValidationError(f"well-formed {label} contains bracket characters: {value!r}")

    @property
    def key(self) -> tuple[str, str]:
        return (self.vendor, self.name)


@dataclass(frozen=True, slots=True)
class AssetRecord:
    """One inventory asset: its id and the well-formed name its tickets group under."""

    asset_id: str
    wfn: WellFormedName

    def __post_init__(self) -> None:
        if not self.asset_id:
            raise ValidationError("asset_id must be non-empty")


@dataclass(frozen=True, eq=True)
class Ticket:
    """One work item per (vendor, product-name) group per run."""

    vendor: str
    name: str
    cve_ids: tuple[str, ...]
    matched_assets: tuple[str, ...]
    max_severity: SeverityLevel
    created: date
    via: Mapping[str, MatchVia] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cve_ids", tuple(self.cve_ids))
        object.__setattr__(self, "matched_assets", tuple(self.matched_assets))
        object.__setattr__(self, "via", dict(self.via))
        if not self.cve_ids:
            raise ValidationError("ticket must carry at least one CVE id")
        if len(set(self.cve_ids)) != len(self.cve_ids):
            raise ValidationError(f"duplicate CVE ids in ticket ({self.vendor}, {self.name})")
        if set(self.via) != set(self.cve_ids):
            raise ValidationError("ticket via map must cover exactly its CVE ids")

    __hash__ = None  # type: ignore[assignment]  # via is a mapping

    @property
    def key(self) -> tuple[str, str]:
        return (self.vendor, self.name)

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": {"vendor": self.vendor, "name": self.name},
            "cve_ids": list(self.cve_ids),
            "matched_assets": list(self.matched_assets),
            "max_severity": self.max_severity.value,
            "created": self.created.isoformat(),
            "via": {cve_id: self.via[cve_id].value for cve_id in self.cve_ids},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Ticket":
        return cls(
            vendor=data["key"]["vendor"],
            name=data["key"]["name"],
            cve_ids=tuple(data["cve_ids"]),
            matched_assets=tuple(data["matched_assets"]),
            max_severity=SeverityLevel(data["max_severity"]),
            created=date.fromisoformat(data["created"]),
            via={cve_id: MatchVia(v) for cve_id, v in data["via"].items()},
        )


@dataclass(frozen=True)
class SnapshotDiff:
    """The new and the changed CVEs of a later snapshot, as records of that
    later day; the earlier record of a changed CVE is the earlier day's."""

    date_from: date
    date_to: date
    new_cves: tuple[CveRecord, ...] = ()
    updated_cves: tuple[CveRecord, ...] = ()

    def __post_init__(self) -> None:
        if self.date_from >= self.date_to:
            raise ValidationError(
                f"diff requires date_from < date_to, got {self.date_from} >= {self.date_to}"
            )
