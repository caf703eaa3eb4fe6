"""Shared fixture builders: feed items, records, dictionaries, inventories."""

from __future__ import annotations

import json
from datetime import date
from typing import Any, Iterable, Sequence

import pytest

from cvesentinel import store
from cvesentinel.ingest import CpeDictionary, Snapshot
from cvesentinel.model import CpeUri, CveRecord
from cvesentinel.normalize import well_formed_from_cpe


def cpe23(vendor: str, product: str, version: str = "*", part: str = "a") -> str:
    return f"cpe:2.3:{part}:{vendor}:{product}:{version}:*:*:*:*:*:*:*"


def make_record(
    cve_id: str,
    published: str = "2021-06-01",
    modified: str | None = None,
    summary: str = "",
    score: float | None = None,
    cpes: Sequence[str] = (),
    refs: Sequence[str] = (),
) -> CveRecord:
    return CveRecord(
        id=cve_id,
        published=date.fromisoformat(published),
        last_modified=date.fromisoformat(modified or published),
        summary=summary,
        cvss3_base=score,
        cpe_list=tuple(CpeUri.parse(raw) for raw in cpes),
        references=tuple(refs),
    )


def make_dictionary(cpe_strings: Iterable[str]) -> CpeDictionary:
    return CpeDictionary(frozenset(well_formed_from_cpe(CpeUri.parse(raw)).key for raw in cpe_strings))


def feed_item(
    cve_id: str | None,
    published: str | None = "2021-06-01T03:15Z",
    modified: str | None = None,
    summary: str = "",
    score: float | None = None,
    cpes: Sequence[str] = (),
    refs: Sequence[str] = (),
) -> dict[str, Any]:
    """One CVE_Items entry in NVD JSON 1.1 shape."""
    meta: dict[str, Any] = {}
    if cve_id is not None:
        meta["ID"] = cve_id
    item: dict[str, Any] = {
        "cve": {
            "CVE_data_meta": meta,
            "description": {
                "description_data": [{"lang": "en", "value": summary}] if summary else []
            },
            "references": {"reference_data": [{"url": url} for url in refs]},
        },
        "configurations": {
            "CVE_data_version": "4.0",
            "nodes": [
                {
                    "operator": "OR",
                    "cpe_match": [{"vulnerable": True, "cpe23Uri": raw} for raw in cpes],
                }
            ]
            if cpes
            else [],
        },
    }
    if score is not None:
        item["impact"] = {"baseMetricV3": {"cvssV3": {"baseScore": score}}}
    else:
        item["impact"] = {}
    if published is not None:
        item["publishedDate"] = published
    if modified is not None:
        item["lastModifiedDate"] = modified
    return item


def feed_bytes(items: Sequence[dict[str, Any]]) -> bytes:
    return json.dumps(
        {"CVE_data_type": "CVE", "CVE_data_format": "MITRE", "CVE_Items": list(items)}
    ).encode("utf-8")


def snapshot_of(day: str, records: Iterable[CveRecord]) -> Snapshot:
    return Snapshot(date=date.fromisoformat(day), records={r.id: r for r in records})


def store_snapshot(store_root, snapshot: Snapshot, overwrite: bool = False):
    """Store a snapshot as ``ingest`` stores a day: from each record's line."""
    lines = {cve_id: store.record_line(record) for cve_id, record in snapshot.records.items()}
    return store.store_snapshot(store_root, snapshot.date, lines, overwrite=overwrite)


def _compact(value: Any) -> str:
    return json.dumps(value, separators=(",", ":"))


def compact_day(payload: dict[str, Any]) -> str:
    """A stored day's payload laid out as ``store_snapshot`` writes it: the
    head line, one compact record per line, each but the last followed by
    a comma, then ``]}``."""
    head = (f'{{"date":{_compact(payload["date"])},'
            f'"record_count":{_compact(payload["record_count"])},"records":[')
    body = ",".join("\n" + _compact(record) for record in payload["records"])
    return f"{head}{body}\n]}}\n"


# The ways a stored day's payload is written out: as the store writes it,
# as one line, in the indented layout of older days, and two layouts that
# look compact but are not: the first record spans two lines, or the first
# two records share one.
DAY_LAYOUTS = {
    "compact": compact_day,
    "single-line": json.dumps,
    "indented": lambda payload: json.dumps(payload, indent=1),
    "split-record": lambda payload: compact_day(payload).replace('{"id":', '{\n"id":', 1),
    "shared-line": lambda payload: compact_day(payload).replace("},\n{", "},{", 1),
}


@pytest.fixture
def inventory_csv() -> bytes:
    rows = [
        "asset_id,product_name,vendor_name,version,cpe23",
        'A1,"R2D2 Beta version 3.0.1.16","Geotab Inc.",3.0.1.16,',
        "A2,Windows Server,Microsoft,2019,",
        f"A3,anything,ignored,9.9,{cpe23('microsoft', 'windows', '10')}",
    ]
    return ("\n".join(rows) + "\n").encode("utf-8")


@pytest.fixture
def digested(monkeypatch) -> list[bytearray]:
    """The bytes of each digest that the store computes while the test runs."""
    digests: list[bytearray] = []
    digest = store.blake2b

    class Spy:
        def __init__(self, data: bytes = b"", **kwargs):
            self.data = bytearray(data)
            self.hash = digest(data, **kwargs)
            digests.append(self.data)

        def update(self, data: bytes) -> None:
            self.data += data
            self.hash.update(data)

        def digest(self) -> bytes:
            return self.hash.digest()

        def hexdigest(self) -> str:
            return self.hash.hexdigest()

    monkeypatch.setattr(store, "blake2b", Spy)
    return digests
