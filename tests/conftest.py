"""Shared fixture builders: feed items, records, dictionaries, inventories."""

from __future__ import annotations

import json
from datetime import date
from typing import Any, Iterable, Sequence

import pytest

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


@pytest.fixture
def inventory_csv() -> bytes:
    rows = [
        "asset_id,product_name,vendor_name,version,cpe23",
        'A1,"R2D2 Beta version 3.0.1.16","Geotab Inc.",3.0.1.16,',
        "A2,Windows Server,Microsoft,2019,",
        f"A3,anything,ignored,9.9,{cpe23('microsoft', 'windows', '10')}",
    ]
    return ("\n".join(rows) + "\n").encode("utf-8")
