"""Core domain types: CVE records, CPE names, assets, tickets, diffs.

All types are immutable after construction and validate their invariants
in ``__post_init__``; invalid values are rejected, never repaired. The two
forms that are stored or emitted round-trip through ``to_dict`` /
``from_dict``: ``CveRecord`` (the snapshot store) and ``Ticket`` (the
ticket stream).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from decimal import Decimal, InvalidOperation
from enum import Enum
from typing import Any, Iterable, Mapping

from .errors import ValidationError

CVE_ID_RE = re.compile(r"CVE-\d{4}-\d{4,}")

_CPE_PREFIX = "cpe:2.3:"
_CPE_PARTS = frozenset("aoh")


class SeverityLevel(Enum):
    """Qualitative CVSS v3 severity, plus UNSCORED for absent scores."""

    NONE = "NONE"
    LOW = "LOW"
    MEDIUM = "MEDIUM"
    HIGH = "HIGH"
    CRITICAL = "CRITICAL"
    UNSCORED = "UNSCORED"

    @property
    def ticket_priority(self) -> int:
        """Output ordering for tickets: CRITICAL first, UNSCORED right after.

        Unscored CVEs are statistically indistinguishable from scored ones
        in severity, so they must not sink to the bottom of the queue.
        """
        return _TICKET_PRIORITY[self]


_TICKET_PRIORITY = {
    SeverityLevel.CRITICAL: 0,
    SeverityLevel.UNSCORED: 1,
    SeverityLevel.HIGH: 2,
    SeverityLevel.MEDIUM: 3,
    SeverityLevel.LOW: 4,
    SeverityLevel.NONE: 5,
}


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


@dataclass(frozen=True)
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
        if not raw.startswith(_CPE_PREFIX):
            raise ValidationError(f"not a cpe:2.3 name: {raw!r}")
        components = _split_cpe_components(raw)
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
    if isinstance(value, Decimal):
        return value
    try:
        return Decimal(str(value))
    except InvalidOperation as exc:
        raise ValidationError(f"not a decimal score: {value!r}") from exc


@dataclass(frozen=True)
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
        if not CVE_ID_RE.fullmatch(self.id):
            raise ValidationError(f"malformed CVE id: {self.id!r}")
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
    def from_dict(cls, data: Mapping[str, Any]) -> "CveRecord":
        return cls(
            id=data["id"],
            published=date.fromisoformat(data["published"]),
            last_modified=date.fromisoformat(data["last_modified"]),
            summary=data["summary"],
            cvss3_base=data.get("cvss3_base"),
            cpe_list=tuple(CpeUri.parse(raw) for raw in data.get("cpe_list", [])),
            references=tuple(data.get("references", [])),
        )


@dataclass(frozen=True)
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
            if any(ch in value for ch in "(){}"):
                raise ValidationError(f"well-formed {label} contains bracket characters: {value!r}")

    @property
    def key(self) -> tuple[str, str]:
        return (self.vendor, self.name)


@dataclass(frozen=True)
class AssetRecord:
    """One inventory row plus its derived well-formed name."""

    asset_id: str
    raw_product: str
    raw_vendor: str
    raw_version: str
    wfn: WellFormedName
    cpe: CpeUri | None = None

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
    """New and updated CVEs between two dated feed snapshots."""

    date_from: date
    date_to: date
    new_cves: tuple[CveRecord, ...] = ()
    updated_cves: tuple[tuple[CveRecord, CveRecord], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "new_cves", tuple(self.new_cves))
        object.__setattr__(self, "updated_cves", tuple(tuple(pair) for pair in self.updated_cves))
        if self.date_from >= self.date_to:
            raise ValidationError(
                f"diff requires date_from < date_to, got {self.date_from} >= {self.date_to}"
            )
        for before, after in self.updated_cves:
            if before.id != after.id:
                raise ValidationError(f"updated pair mixes ids {before.id} and {after.id}")
            if before == after:
                raise ValidationError(f"{before.id}: unchanged record listed as updated")


def max_severity_of(scores: Iterable[Decimal | None]) -> Decimal | None:
    """Highest score among the given ones, or None when none is scored."""
    present = [s for s in scores if s is not None]
    return max(present) if present else None
