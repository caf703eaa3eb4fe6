"""Parsers for NVD JSON 1.1 feeds, CPE dictionaries and asset inventories,
plus the dated snapshot store and snapshot diffing.

Feed parsing is item-tolerant: a broken item lands in a rejects list with
its index and reason while the remaining items still parse, so
``len(records) + len(rejects)`` always equals the feed's item count.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import os
import xml.etree.ElementTree as ET
import zlib
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Any, Iterable, Mapping

from .errors import (
    FeedParseError,
    FormatError,
    OrderingError,
    SnapshotExistsError,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
    ValidationError,
)
from .model import AssetRecord, CpeUri, CveRecord, SnapshotDiff
from .normalize import StopWordList, well_formed_from_cpe, well_formed_from_raw

INVENTORY_COLUMNS = ("asset_id", "product_name", "vendor_name", "version", "cpe23")


@dataclass(frozen=True)
class Snapshot:
    """All CVE records captured on one calendar date."""

    date: date
    records: Mapping[str, CveRecord]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", dict(self.records))
        for cve_id, record in self.records.items():
            if cve_id != record.id:
                raise ValidationError(f"snapshot key {cve_id!r} does not match record id {record.id!r}")


@dataclass(frozen=True)
class CpeDictionary:
    """The standardized (vendor, name) pairs of a CPE dictionary.

    Versions are not kept: the dictionary's users compare names only, so
    N versions of one product make one pair.
    """

    pairs: frozenset[tuple[str, str]]
    skipped: int = field(default=0, compare=False)

    @classmethod
    def empty(cls) -> "CpeDictionary":
        return cls(frozenset())

    @property
    def vendor_names(self) -> frozenset[str]:
        return frozenset(vendor for vendor, _ in self.pairs if vendor)

    @property
    def product_names(self) -> frozenset[str]:
        return frozenset(name for _, name in self.pairs)


@dataclass(frozen=True)
class FeedReject:
    index: int
    reason: str
    cve_id: str | None = None


@dataclass(frozen=True)
class FeedParseResult:
    records: tuple[CveRecord, ...]
    rejects: tuple[FeedReject, ...]


@dataclass(frozen=True)
class RowReject:
    row: int
    reason: str


@dataclass(frozen=True)
class InventoryParseResult:
    assets: tuple["AssetRecord", ...]
    rejects: tuple[RowReject, ...]


def _as_text(data: bytes | str) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise FormatError(f"input is not UTF-8 text: {exc}")
    return data.lstrip("﻿")


def _item_date(item: Mapping[str, Any], key: str) -> date | None:
    value = item.get(key)
    if not isinstance(value, str) or len(value) < 10:
        return None
    try:
        return date.fromisoformat(value[:10])
    except ValueError:
        return None


def _gather_cpe_uris(configurations: Mapping[str, Any]) -> list[CpeUri]:
    uris: list[CpeUri] = []
    seen: set[str] = set()

    def walk(node: Mapping[str, Any]) -> None:
        for match in node.get("cpe_match", []):
            raw = match.get("cpe23Uri")
            if raw is None:
                continue
            if raw not in seen:
                seen.add(raw)
                uris.append(CpeUri.parse(raw))
        for child in node.get("children", []):
            walk(child)

    for node in configurations.get("nodes", []):
        walk(node)
    return uris


def _parse_feed_item(item: Mapping[str, Any]) -> CveRecord:
    cve = item.get("cve") or {}
    meta = cve.get("CVE_data_meta") or {}
    cve_id = meta.get("ID")
    if not cve_id:
        raise ValidationError("item lacks a CVE id")
    published = _item_date(item, "publishedDate")
    if published is None:
        raise ValidationError("item lacks a publishedDate")
    last_modified = _item_date(item, "lastModifiedDate") or published

    summary = ""
    for desc in (cve.get("description") or {}).get("description_data", []):
        if desc.get("lang") == "en":
            summary = desc.get("value", "")
            break

    score = None
    impact = item.get("impact") or {}
    base_metric = impact.get("baseMetricV3") or {}
    cvss3 = base_metric.get("cvssV3") or {}
    if "baseScore" in cvss3:
        score = cvss3["baseScore"]

    references = tuple(
        ref["url"]
        for ref in (cve.get("references") or {}).get("reference_data", [])
        if ref.get("url")
    )

    return CveRecord(
        id=cve_id,
        published=published,
        last_modified=last_modified,
        summary=summary,
        cvss3_base=score,
        cpe_list=tuple(_gather_cpe_uris(item.get("configurations") or {})),
        references=references,
    )


def parse_feed(data: bytes | str) -> FeedParseResult:
    """Parse an NVD JSON 1.1 feed into records plus item-level rejects."""
    try:
        document = json.loads(_as_text(data))
    except json.JSONDecodeError as exc:
        raise FeedParseError(f"malformed feed JSON at byte {exc.pos}: {exc.msg}", offset=exc.pos)
    if not isinstance(document, dict) or not isinstance(document.get("CVE_Items"), list):
        raise FeedParseError("feed document lacks a CVE_Items array")

    records: list[CveRecord] = []
    rejects: list[FeedReject] = []
    for index, item in enumerate(document["CVE_Items"]):
        if not isinstance(item, dict):
            rejects.append(FeedReject(index=index, reason="item is not an object"))
            continue
        meta_id = ((item.get("cve") or {}).get("CVE_data_meta") or {}).get("ID")
        try:
            records.append(_parse_feed_item(item))
        except ValidationError as exc:
            rejects.append(FeedReject(index=index, reason=str(exc), cve_id=meta_id))
    return FeedParseResult(records=tuple(records), rejects=tuple(rejects))


def read_feed_bytes(path: str | Path) -> bytes:
    """Read a feed file, decompressing transparently when it ends in .gz."""
    raw = Path(path).read_bytes()
    if not str(path).endswith(".gz"):
        return raw
    try:
        return gzip.decompress(raw)
    except (EOFError, OSError, zlib.error) as exc:  # truncated, not gzip, corrupt deflate
        raise FeedParseError(f"{path}: unreadable gzip stream: {exc}")


def merge_records(batches: Iterable[Iterable[CveRecord]]) -> dict[str, CveRecord]:
    """Union several record lists into one id-keyed map; later batches win."""
    merged: dict[str, CveRecord] = {}
    for batch in batches:
        for record in batch:
            merged[record.id] = record
    return merged


def _cpe_names_from_xml(text: str) -> Iterable[str]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise FormatError(f"unparseable CPE dictionary XML: {exc}")
    for elem in root.iter():
        if elem.tag.endswith("cpe23-item"):
            name = elem.get("name")
            if name is not None:
                yield name


def _cpe_names_from_json(text: str) -> Iterable[str]:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"unparseable CPE dictionary JSON: {exc}")
    if not isinstance(document, list):
        raise FormatError("simplified CPE dictionary must be a JSON array")
    for obj in document:
        if isinstance(obj, dict) and "cpe23" in obj:
            yield obj["cpe23"]
        else:
            yield ""  # counted as a skip downstream


def parse_cpe_dictionary(
    data: bytes | str, stop_words: StopWordList | None = None
) -> CpeDictionary:
    """Parse the official XML dictionary or the simplified JSON list.

    Entries that fail to parse or whose product standardizes to empty are
    skipped; the skip count is carried on the returned dictionary.
    """
    text = _as_text(data).strip()
    if not text:
        return CpeDictionary.empty()
    if text.startswith("<"):
        names = _cpe_names_from_xml(text)
    elif text.startswith("["):
        names = _cpe_names_from_json(text)
    else:
        raise FormatError("CPE dictionary is neither XML nor a JSON array")

    pairs: set[tuple[str, str]] = set()
    skipped = 0
    for raw in names:
        try:
            pairs.add(well_formed_from_cpe(CpeUri.parse(raw), stop_words).key)
        except ValidationError:
            skipped += 1
    return CpeDictionary(frozenset(pairs), skipped=skipped)


def parse_asset_inventory(
    data: bytes | str,
    stop_words: StopWordList | None = None,
) -> InventoryParseResult:
    """Parse the asset inventory CSV.

    Rows with a cpe23 column take their well-formed name from the CPE;
    others standardize the raw columns. Rows whose product standardizes to
    empty are rejected with their 1-based row number.
    """
    reader = csv.DictReader(io.StringIO(_as_text(data)))
    header = reader.fieldnames or []
    missing = [col for col in INVENTORY_COLUMNS if col not in header]
    if missing:
        raise FormatError(f"inventory is missing required columns: {', '.join(missing)}")

    assets: list[AssetRecord] = []
    rejects: list[RowReject] = []
    for row_number, row in enumerate(reader, start=2):  # row 1 is the header
        raw_cpe = (row.get("cpe23") or "").strip()
        try:
            if raw_cpe:
                cpe = CpeUri.parse(raw_cpe)
                wfn = well_formed_from_cpe(cpe, stop_words)
            else:
                cpe = None
                wfn = well_formed_from_raw(
                    row.get("product_name") or "",
                    row.get("vendor_name") or "",
                    row.get("version") or "",
                    stop_words,
                )
            assets.append(
                AssetRecord(
                    asset_id=row.get("asset_id") or "",
                    raw_product=row.get("product_name") or "",
                    raw_vendor=row.get("vendor_name") or "",
                    raw_version=row.get("version") or "",
                    cpe=cpe,
                    wfn=wfn,
                )
            )
        except ValidationError as exc:
            rejects.append(RowReject(row=row_number, reason=str(exc)))
    return InventoryParseResult(assets=tuple(assets), rejects=tuple(rejects))


def snapshot_dir(store_root: str | Path) -> Path:
    return Path(store_root) / "snapshots"


def snapshot_path(store_root: str | Path, day: date) -> Path:
    return snapshot_dir(store_root) / day.isoformat()


def store_snapshot(store_root: str | Path, snapshot: Snapshot, overwrite: bool = False) -> Path:
    """Persist a snapshot as one JSON file named by its date.

    Refuses to clobber an existing date unless overwrite is set. The write
    goes through a temp file so a crash never leaves a half-written day.
    """
    path = snapshot_path(store_root, snapshot.date)
    if path.exists() and not overwrite:
        raise SnapshotExistsError(f"snapshot for {snapshot.date.isoformat()} already stored")
    path.parent.mkdir(parents=True, exist_ok=True)
    records = [snapshot.records[cve_id].to_dict() for cve_id in sorted(snapshot.records)]
    payload = {
        "date": snapshot.date.isoformat(),
        "record_count": len(records),
        "records": records,
    }
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    tmp.replace(path)
    return path


def load_snapshot(store_root: str | Path, day: date) -> Snapshot:
    """Load the snapshot stored for a date; verifies count and date stamps."""
    path = snapshot_path(store_root, day)
    if not path.exists():
        raise SnapshotNotFoundError(f"no snapshot stored for {day.isoformat()}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        stored_date = date.fromisoformat(payload["date"])
        records = [CveRecord.from_dict(d) for d in payload["records"]]
        count = payload["record_count"]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, ValidationError) as exc:
        raise SnapshotIntegrityError(f"corrupt snapshot file {path}: {exc}")
    if stored_date != day:
        raise SnapshotIntegrityError(f"snapshot file {path} is stamped {stored_date.isoformat()}")
    if count != len(records):
        raise SnapshotIntegrityError(
            f"snapshot file {path} declares {count} records but holds {len(records)}"
        )
    record_map = {rec.id: rec for rec in records}
    if len(record_map) != len(records):
        raise SnapshotIntegrityError(f"snapshot file {path} repeats a CVE id")
    return Snapshot(date=day, records=record_map)


def list_snapshot_dates(store_root: str | Path) -> list[date]:
    """All stored snapshot dates, ascending."""
    directory = snapshot_dir(store_root)
    if not directory.is_dir():
        return []
    dates = []
    for entry in directory.iterdir():
        try:
            dates.append(date.fromisoformat(entry.name))
        except ValueError:
            continue  # temp files etc.
    return sorted(dates)


def find_previous_date(store_root: str | Path, day: date) -> date | None:
    """Nearest stored date strictly before the given one, if any."""
    earlier = [d for d in list_snapshot_dates(store_root) if d < day]
    return max(earlier) if earlier else None


def diff_snapshots(older: Snapshot, newer: Snapshot) -> SnapshotDiff:
    """New and changed records between two snapshots.

    A record counts as updated on any structural difference, not just a
    moved last_modified stamp. Swapped arguments are rejected.
    """
    if older.date >= newer.date:
        raise OrderingError(
            f"diff requires older < newer, got {older.date.isoformat()} >= {newer.date.isoformat()}"
        )
    new = []
    updated = []
    for cve_id in sorted(newer.records):
        record = newer.records[cve_id]
        previous = older.records.get(cve_id)
        if previous is None:
            new.append(record)
        elif previous != record:
            updated.append((previous, record))
    return SnapshotDiff(
        date_from=older.date,
        date_to=newer.date,
        new_cves=tuple(new),
        updated_cves=tuple(updated),
    )
