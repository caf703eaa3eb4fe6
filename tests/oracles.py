"""Independent brute-force reference implementations used by the tests.

These deliberately take different routes from the library: containment is
substring search over a space-joined token string instead of n-gram set
membership, summary matching tests every asset key against every CVE
instead of looking summary phrases up in an index, the exact rank-test
distribution comes from Gaussian binomial polynomial arithmetic instead of
the library's iterative count, a feed item's CPE names are gathered by
recursion over its configuration tree instead of with an explicit stack,
a feed is decoded whole with ``json.loads`` before its items are built,
instead of one item at a time, a stored day is written as one joined
string instead of line by line, a stored day is loaded on its own,
building every record from its dict, instead of reusing the records of the
day before, the history reports regroup a whole list of snapshots into
per-CVE lists of (date, record) and scan each list, instead of folding the
day-to-day diffs one at a time, and a diff walks the later day's sorted ids
and pairs each changed record with the earlier one, compared by value only.
An inventory's lines are read through ``io.StringIO`` instead of split by
hand. Names are tokenized by splitting on separators and trimming each piece's
edge punctuation character by character, instead of with one token
pattern, and standardized without any shortcut.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
from dataclasses import replace
from datetime import date
from decimal import Decimal
from itertools import combinations
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from cvesentinel.analytics import CompletionDelay, CompletionField, DailyCompleteness, DelayReport
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
    INVENTORY_COLUMNS,
    CpeDictionary,
    FeedParseResult,
    FeedReject,
    Snapshot,
    _item_id,
    _objects,
    _parse_feed_item,
    snapshot_path,
)
from cvesentinel.matcher import FUNCTION_WORDS, FpFilter, MatchResult
from cvesentinel.model import AssetRecord, CpeUri, CveRecord, FieldMemo, MatchVia
from cvesentinel.normalize import DEFAULT_STOP_WORDS, StopWordList, as_text, standardize

_SEPARATORS = re.compile(r"[\s,;:/\\_-]+")


def oracle_tokenize(text: str) -> list[str]:
    """Fold, split on separators, trim non-alphanumeric edges, drop empties."""
    tokens = []
    for piece in _SEPARATORS.split(text.casefold().lower()):
        start, end = 0, len(piece)
        while start < end and not piece[start].isalnum():
            start += 1
        while end > start and not piece[end - 1].isalnum():
            end -= 1
        if start < end:
            tokens.append(piece[start:end])
    return tokens


def oracle_standardize(raw: str, stop_words: StopWordList | None = None) -> str:
    """Drop bracketed spans to a fixpoint, then every number, date, year and
    stop-word token, testing each pattern on every token."""
    stop = stop_words.words if stop_words is not None else DEFAULT_STOP_WORDS
    text = raw.casefold().lower()
    prev = None
    while prev != text:
        prev = text
        text = re.sub(r"\([^()]*\)", " ", text)
        text = re.sub(r"\{[^{}]*\}", " ", text)
    text = re.sub(r"[(){}]", " ", text)
    droppable = (r"\d+(?:\.\d+)*", r"\d{1,2}[-/.]\d{1,2}[-/.]\d{2,4}", r"(?:19|20)\d{2}")
    kept = [
        tok
        for tok in oracle_tokenize(text)
        if tok not in stop and not any(re.fullmatch(p, tok) for p in droppable)
    ]
    return " ".join(kept)


def summary_tokens(summary: str) -> list[str]:
    return [tok for tok in oracle_tokenize(summary) if tok not in FUNCTION_WORDS]


def contains_name(tokens: Sequence[str], name: str) -> bool:
    """Substring-on-token-boundary containment."""
    return f" {name} " in f" {' '.join(tokens)} "


def own_name_sets(record: CveRecord) -> tuple[set[str], set[str], set[tuple[str, str]]]:
    vendors: set[str] = set()
    products: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    for uri in record.cpe_list:
        vendor = standardize(uri.vendor)
        product = standardize(uri.product)
        if vendor:
            vendors.add(vendor)
        if product:
            products.add(product)
            pairs.add((vendor, product))
    return vendors, products, pairs


def oracle_evaluate(
    corpus: Iterable[CveRecord], dictionary: CpeDictionary, min_name_len: int = 3
) -> dict[str, int | float]:
    """Scan every dictionary pair against every summary."""
    corpus = list(corpus)
    vendors = dictionary.vendor_names
    products = dictionary.product_names
    pairs = sorted(dictionary.pairs)
    elided = sum(1 for v in vendors if 0 < len(v) < min_name_len) + sum(
        1 for p in products if 0 < len(p) < min_name_len
    )

    tp = fp = tp_strict = 0
    for record in corpus:
        tokens = summary_tokens(record.summary)
        own_vendors, own_products, own_pairs = own_name_sets(record)
        if any(
            len(name) >= min_name_len and contains_name(tokens, name)
            for name in own_vendors | own_products
        ):
            tp += 1
        if any(
            len(v) >= min_name_len
            and len(p) >= min_name_len
            and contains_name(tokens, v)
            and contains_name(tokens, p)
            for v, p in own_pairs
        ):
            tp_strict += 1
        if any(
            len(v) >= min_name_len
            and len(p) >= min_name_len
            and contains_name(tokens, v)
            and contains_name(tokens, p)
            and (v, p) not in own_pairs
            for v, p in pairs
        ):
            fp += 1
    total = len(corpus)
    return {
        "total": total,
        "tp": tp,
        "fp": fp,
        "fp_rate": (fp / total) if total else 0.0,
        "elided_names": elided,
        "tp_strict": tp_strict,
    }


def oracle_build_filter(
    corpus: Iterable[CveRecord], dictionary: CpeDictionary, min_name_len: int = 3
) -> tuple[set[str], set[str]]:
    """Scan every (record, dictionary-name) pair one by one."""
    filter_vendors: set[str] = set()
    filter_products: set[str] = set()
    for record in corpus:
        tokens = summary_tokens(record.summary)
        own_vendors, own_products, _ = own_name_sets(record)
        for vendor in dictionary.vendor_names:
            if len(vendor) >= min_name_len and vendor not in own_vendors:
                if contains_name(tokens, vendor):
                    filter_vendors.add(vendor)
        for product in dictionary.product_names:
            if len(product) >= min_name_len and product not in own_products:
                if contains_name(tokens, product):
                    filter_products.add(product)
    return filter_vendors, filter_products


def oracle_match_corpus(
    cves: Iterable[CveRecord],
    assets: Iterable[AssetRecord],
    fp_filter: FpFilter,
    min_name_len: int = 3,
) -> list[MatchResult]:
    """Test every (vendor, name) asset key against every CVE, one by one.

    A CVE with CPEs matches the keys its CPEs name exactly (products that
    standardize to nothing name no key) and is never matched by summary.
    Otherwise every key whose name is long enough and occurs in the summary
    matches, unless the name is on the filter and its vendor does not also
    occur there.
    """
    groups: dict[tuple[str, str], list[str]] = {}
    for asset in assets:
        groups.setdefault(asset.wfn.key, []).append(asset.asset_id)
    results = []
    for cve in sorted(cves, key=lambda c: c.id):
        if cve.cpe_list:
            named = {
                (standardize(uri.vendor), standardize(uri.product))
                for uri in cve.cpe_list
                if standardize(uri.product)
            }
            for key in sorted(groups):
                if key in named:
                    results.append(MatchResult(cve.id, tuple(sorted(groups[key])), MatchVia.CPE))
            continue
        tokens = summary_tokens(cve.summary)
        for vendor, name in sorted(groups):
            if len(name) < min_name_len or not contains_name(tokens, name):
                continue
            if name in fp_filter.product_names and not (
                len(vendor) >= min_name_len and contains_name(tokens, vendor)
            ):
                continue
            ids = tuple(sorted(groups[(vendor, name)]))
            results.append(MatchResult(cve.id, ids, MatchVia.SUMMARY, matched_phrase=name))
    return results


def oracle_exact_mwu_p(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided exact p by enumerating every label assignment (untied)."""
    n1, n2 = len(a), len(b)
    pooled = sorted(a) + sorted(b)
    pooled = sorted(pooled)
    assert len(set(pooled)) == len(pooled), "enumeration oracle needs untied data"

    rank_of = {value: i + 1 for i, value in enumerate(pooled)}
    offset = n1 * (n1 + 1) / 2
    observed = sum(rank_of[x] for x in a) - offset
    u_min = min(observed, n1 * n2 - observed)

    total = 0
    below = 0
    for chosen in combinations(range(1, n1 + n2 + 1), n1):
        u = sum(chosen) - offset
        total += 1
        if u <= u_min:
            below += 1
    return min(1.0, 2 * below / total)


def _mul_one_minus_qk(coeffs: list[int], k: int) -> list[int]:
    out = [0] * (len(coeffs) + k)
    for j, c in enumerate(coeffs):
        out[j] += c
        out[j + k] -= c
    return out


def _div_one_minus_qk(coeffs: list[int], k: int) -> list[int]:
    # c_j = a_j + c_{j-k}; exact since (1 - q^k) divides the numerator
    out = list(coeffs)
    for j in range(k, len(out)):
        out[j] += out[j - k]
    while out and out[-1] == 0:
        out.pop()
    return out


def oracle_u_distribution(m: int, n: int) -> list[int]:
    """Counts of U values 0..m*n via the Gaussian binomial coefficient."""
    coeffs = [1]
    for i in range(1, m + 1):
        coeffs = _mul_one_minus_qk(coeffs, n + i)
    for i in range(1, m + 1):
        coeffs = _div_one_minus_qk(coeffs, i)
    coeffs += [0] * (m * n + 1 - len(coeffs))
    return coeffs


def oracle_exact_mwu_p_large(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided exact p from the polynomial distribution (untied)."""
    n1, n2 = len(a), len(b)
    pooled = sorted(a + b)
    assert len(set(pooled)) == len(pooled)
    rank_of = {value: i + 1 for i, value in enumerate(pooled)}
    observed = sum(rank_of[x] for x in a) - n1 * (n1 + 1) / 2
    u_min = int(min(observed, n1 * n2 - observed))
    dist = oracle_u_distribution(n1, n2)
    total = sum(dist)
    below = sum(dist[: u_min + 1])
    return min(1.0, 2 * below / total)


def oracle_gather_cpe_uris(configurations: Mapping[str, Any]) -> list[CpeUri]:
    """The distinct CPE names of a configuration tree, by recursion."""
    uris: list[CpeUri] = []
    seen: set[str] = set()

    def walk(node: Mapping[str, Any]) -> None:
        for match in _objects(node, "cpe_match"):
            raw = match.get("cpe23Uri")
            if raw is None:
                continue
            if not isinstance(raw, str):
                raise ValidationError(f"CPE name must be a string, got {raw!r}")
            if raw not in seen:
                seen.add(raw)
                uris.append(CpeUri.parse(raw))
        for child in _objects(node, "children"):
            walk(child)

    for node in _objects(configurations, "nodes"):
        walk(node)
    return uris


def oracle_parse_feed(data: bytes | str) -> FeedParseResult:
    """Decode the whole feed with ``json.loads``, then build each item. A
    malformed feed's offset is the input's UTF-8 length less that of the
    text from json's error position on."""
    text = as_text(data)
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raw = data if isinstance(data, bytes) else data.encode("utf-8", "surrogatepass")
        offset = len(raw) - len(text[exc.pos:].encode("utf-8", "surrogatepass"))
        raise FeedParseError(f"malformed feed JSON at byte {offset}: {exc.msg}", offset=offset)
    except (ValueError, RecursionError) as exc:
        raise FeedParseError(f"unparseable feed JSON: {exc}")
    if not isinstance(document, dict) or not isinstance(document.get("CVE_Items"), list):
        raise FeedParseError("feed document lacks a CVE_Items array")

    records: list[CveRecord] = []
    rejects: list[FeedReject] = []
    for index, item in enumerate(document["CVE_Items"]):
        if not isinstance(item, dict):
            rejects.append(FeedReject(index=index, reason="item is not an object"))
            continue
        try:
            records.append(_parse_feed_item(item, FieldMemo()))  # nothing shared between items
        except ValidationError as exc:
            rejects.append(FeedReject(index=index, reason=str(exc), cve_id=_item_id(item)))
    return FeedParseResult(records=tuple(records), rejects=tuple(rejects))


def oracle_inventory_rows(text: str) -> Iterator[tuple[int, dict[str, str]]]:
    """The inventory's rows after its checked header, numbered from 2, read
    by a csv reader over ``io.StringIO`` of the text; a row the reader
    cannot read is a FormatError naming it."""
    reader = csv.DictReader(io.StringIO(text))
    row_number = 1  # the row being read
    try:
        missing = [col for col in INVENTORY_COLUMNS if col not in (reader.fieldnames or [])]
        if missing:
            raise FormatError(f"inventory is missing required columns: {', '.join(missing)}")
        row_number = 2
        for row in reader:
            yield row_number, row
            row_number += 1
    except csv.Error as exc:
        raise FormatError(f"inventory row {row_number}: {exc}")


def oracle_store_snapshot(store_root: str | Path, snapshot: Snapshot, overwrite: bool = False) -> Path:
    """Write a day as one string: the head line, the compact records joined
    line by line in id order, and the tail."""
    path = snapshot_path(store_root, snapshot.date)
    if path.exists() and not overwrite:
        raise SnapshotExistsError(f"snapshot for {snapshot.date.isoformat()} already stored")
    path.parent.mkdir(parents=True, exist_ok=True)
    records = snapshot.records
    head = f'{{"date":"{snapshot.date.isoformat()}","record_count":{len(records)},"records":['
    body = ",".join(
        "\n" + json.dumps(records[cve_id].to_dict(), separators=(",", ":")) for cve_id in sorted(records)
    )
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(f"{head}{body}\n]}}\n", encoding="utf-8")
    tmp.replace(path)
    return path


# The head line of a day stored as its changes to an earlier day, in the
# one form the store writes: compact, its removed ids a compact list, with
# or without the digest of its lines.
_ORACLE_DELTA_HEAD = re.compile(
    r'\{"date":"(\d{4}-\d\d-\d\d)","record_count":(?:0|[1-9]\d{0,17}),"base":"(\d{4}-\d\d-\d\d)",'
    r'"base_digest":"[0-9a-f]{32}","digest":"([0-9a-f]{32})",(?:"lines_digest":"[0-9a-f]{32}",)?'
    r'"removed":(\[(?:"[^"\\\n]*"(?:,"[^"\\\n]*")*)?\]),"records":\['
)


def _oracle_delta_head(first_line: str) -> tuple[str, str] | None:
    """The day a delta's head line names and the digest it states, when the
    line is one: its dates real days and its removed ids all strings."""
    head = _ORACLE_DELTA_HEAD.fullmatch(first_line)
    try:
        date.fromisoformat(head[1]), date.fromisoformat(head[2])
        if all(isinstance(i, str) for i in json.loads(head[4])):
            return head[2], head[3]
    except (TypeError, ValueError):  # no match, a day such as 2021-13-01
        pass
    return None


def oracle_content_digest(path: Path) -> str:
    """The digest a delta's head line states, or else the BLAKE2b digest of
    the whole file's bytes."""
    data = path.read_bytes()
    head = _oracle_delta_head(data.split(b"\n", 1)[0].decode("utf-8", "replace"))
    return head[1] if head else hashlib.blake2b(data, digest_size=16).hexdigest()


def _oracle_file(path: Path, day: date) -> dict[str, Any]:
    """One stored file decoded whole and checked on its own: its date,
    count and records, and for a delta its base, digests and removed ids."""
    text = None
    try:
        text = path.read_text(encoding="utf-8")
        payload = json.loads(text)
        stored_date = date.fromisoformat(payload["date"])
        records = [CveRecord.from_dict(d) for d in payload["records"]]
        count = payload["record_count"]
        base = None
        if "base" in payload:
            removed = payload["removed"]
            if not (isinstance(payload["base_digest"], str) and isinstance(payload["digest"], str)
                    and isinstance(payload.get("lines_digest", ""), str)
                    and isinstance(removed, list) and all(isinstance(i, str) for i in removed)):
                raise ValueError("malformed delta head")
            base = date.fromisoformat(payload["base"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, ValidationError) as exc:
        head = _oracle_delta_head(text.split("\n", 1)[0]) if text else None
        where = f"{path} (changes to {head[0]})" if head else path
        raise SnapshotIntegrityError(f"corrupt snapshot file {where}: {exc}")
    where = path if base is None else f"{path} (changes to {base.isoformat()})"
    if stored_date != day:
        raise SnapshotIntegrityError(f"snapshot file {where} is stamped {stored_date.isoformat()}")
    ids = [rec.id for rec in records]
    if base is None:
        if count != len(records):
            raise SnapshotIntegrityError(
                f"snapshot file {where} declares {count} records but holds {len(records)}"
            )
        removed, base_digest = [], None
    else:
        ids += removed
        base_digest = payload["base_digest"]
    if len(set(ids)) != len(ids):
        raise SnapshotIntegrityError(f"snapshot file {where} repeats a CVE id")
    if base is not None and "lines_digest" in payload:
        # of each record re-encoded compactly, with a line break after it
        lines = "".join(json.dumps(d, separators=(",", ":")) + "\n" for d in payload["records"])
        if payload["lines_digest"] != hashlib.blake2b(lines.encode(), digest_size=16).hexdigest():
            raise SnapshotIntegrityError(f"snapshot file {where} holds other lines than it states")
    return {"where": where, "count": count, "records": records, "base": base,
            "base_digest": base_digest, "removed": removed}


def oracle_load_snapshot(store_root: str | Path, day: date) -> Snapshot:
    """Load one stored day on its own, building every record from its dict:
    each file of its chain is decoded whole and checked, newest first, and
    the files are then applied in date order."""
    path = snapshot_path(store_root, day)
    if not path.exists():
        raise SnapshotNotFoundError(f"no snapshot stored for {day.isoformat()}")
    snapshot_day = day
    chain = [_oracle_file(path, day)]
    while chain[-1]["base"] is not None:
        file, base = chain[-1], chain[-1]["base"]
        base_path = snapshot_path(store_root, base)
        if base >= day or not base_path.exists():
            raise SnapshotIntegrityError(
                f"snapshot file {file['where']}: no earlier snapshot stored for {base.isoformat()}")
        if oracle_content_digest(base_path) != file["base_digest"]:
            raise SnapshotIntegrityError(
                f"snapshot file {file['where']}: the content of {base.isoformat()} has changed since")
        day = base
        chain.append(_oracle_file(base_path, day))
    records: dict[str, CveRecord] = {}
    for file in reversed(chain):
        for cve_id in file["removed"]:
            if cve_id not in records:
                raise SnapshotIntegrityError(
                    f"snapshot file {file['where']} removes {cve_id}, which "
                    f"{file['base'].isoformat()} does not hold")
            del records[cve_id]
        records.update((rec.id, rec) for rec in file["records"])
    top = chain[0]
    if top["base"] is not None:
        records = dict(sorted(records.items()))
        if top["count"] != len(records):
            raise SnapshotIntegrityError(
                f"snapshot file {top['where']} declares {top['count']} records but holds {len(records)}"
            )
    return Snapshot(date=snapshot_day, records=records)


def oracle_diff_snapshots(
    older: Snapshot, newer: Snapshot
) -> tuple[list[CveRecord], list[tuple[CveRecord, CveRecord]]]:
    """The new records of ``newer`` and the (before, after) pairs of its
    changed ones, both in id order."""
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
    return new, updated


def _check_order(snapshots: Sequence[Snapshot]) -> None:
    for earlier, later in zip(snapshots, snapshots[1:]):
        if earlier.date >= later.date:
            raise OrderingError(
                f"snapshots must be strictly ascending, got {earlier.date} before {later.date}"
            )


def oracle_histories(snapshots: Sequence[Snapshot]) -> dict[str, list[tuple[date, CveRecord]]]:
    """Per-CVE appearance sequence, in snapshot order (first seen first)."""
    _check_order(snapshots)
    histories: dict[str, list[tuple[date, CveRecord]]] = {}
    for snapshot in snapshots:
        for cve_id in sorted(snapshot.records):
            histories.setdefault(cve_id, []).append((snapshot.date, snapshot.records[cve_id]))
    return histories


def oracle_daily_completeness(snapshots: Sequence[Snapshot]) -> list[DailyCompleteness]:
    """Each day's new CVEs, the ids not in the day before, over a whole list."""
    snapshots = list(snapshots)
    _check_order(snapshots)
    results = []
    for previous, current in zip(snapshots, snapshots[1:]):
        new = [current.records[i] for i in current.records.keys() - previous.records.keys()]
        results.append(
            DailyCompleteness(
                date=current.date,
                total_reports=len(new),
                missing_cvss=sum(1 for r in new if r.cvss3_base is None),
                missing_cpe=sum(1 for r in new if not r.cpe_list),
                missing_mitigation=sum(1 for r in new if not r.references),
            )
        )
    return results


def _has_field(record: CveRecord, field: CompletionField) -> bool:
    if field is CompletionField.CVSS:
        return record.cvss3_base is not None
    return bool(record.cpe_list)


def oracle_completion_delays(snapshots: Sequence[Snapshot], field: CompletionField) -> DelayReport:
    """Scan each CVE's whole appearance list for the field.

    A field dated before the published date is a reject here, where the
    walk this copies raised on the negative delay.
    """
    delays: list[CompletionDelay] = []
    updated_no_field: list[str] = []
    never: list[str] = []
    rejected: list[str] = []
    for cve_id, states in sorted(oracle_histories(list(snapshots)).items()):
        first_date, first_record = states[0]
        if _has_field(first_record, field):
            continue
        completed_at = next(
            (day for day, rec in states[1:] if _has_field(rec, field)), None
        )
        if completed_at is not None and completed_at < first_record.published:
            rejected.append(cve_id)
        elif completed_at is not None:
            delays.append(
                CompletionDelay(
                    cve_id=cve_id,
                    published=first_record.published,
                    completed=completed_at,
                    field=field,
                    days=(completed_at - first_record.published).days,
                )
            )
        elif any(rec != first_record for _, rec in states[1:]):
            updated_no_field.append(cve_id)
        else:
            never.append(cve_id)
    return DelayReport(
        field=field,
        delays=tuple(delays),
        updated_without_field=tuple(updated_no_field),
        never_updated=tuple(never),
        rejected=tuple(rejected),
    )


def oracle_assemble_vendor_corpus(snapshots: Sequence[Snapshot]) -> list[CveRecord]:
    """Each first record with the CPEs of every later appearance appended."""
    corpus = []
    for cve_id, states in sorted(oracle_histories(list(snapshots)).items()):
        _, first_record = states[0]
        seen_raw = {uri.raw for uri in first_record.cpe_list}
        union = list(first_record.cpe_list)
        for _, record in states[1:]:
            for uri in record.cpe_list:
                if uri.raw not in seen_raw:
                    seen_raw.add(uri.raw)
                    union.append(uri)
        record = first_record
        if len(union) != len(first_record.cpe_list):
            record = replace(first_record, cpe_list=tuple(union))
        corpus.append(record)
    return corpus


def oracle_split_scores(snapshots: Sequence[Snapshot]) -> tuple[list[Decimal], list[Decimal]]:
    """First scores, found by scanning each CVE's whole appearance list."""
    initial: list[Decimal] = []
    later: list[Decimal] = []
    for _, states in sorted(oracle_histories(list(snapshots)).items()):
        _, first_record = states[0]
        if first_record.cvss3_base is not None:
            initial.append(first_record.cvss3_base)
            continue
        first_score = next(
            (rec.cvss3_base for _, rec in states[1:] if rec.cvss3_base is not None), None
        )
        if first_score is not None:
            later.append(first_score)
    return initial, later
