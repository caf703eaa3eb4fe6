"""Parsers for NVD JSON 1.1 feeds, CPE dictionaries and asset inventories,
plus the names of the dated snapshot store (``store``), its diffs among
them, and date-range loads.

Feed parsing is item-tolerant: a broken item lands in a rejects list with
its index and reason while the remaining items still parse, so
``len(records) + len(rejects)`` always equals the feed's item count.
"""

from __future__ import annotations

import codecs
import csv
import gzip
import io
import json
import zlib
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping

from .errors import FeedParseError, FormatError, ValidationError
from .model import AssetRecord, CpeUri, CveRecord, FieldMemo
from .normalize import StopWordList, as_text, well_formed_from_cpe, well_formed_from_raw

# The snapshot store, whose public names this module gives too.
from .store import (  # noqa: F401
    Snapshot,
    _gc_paused,
    diff_snapshots,
    earlier_line_digests,
    find_previous_date,
    list_snapshot_dates,
    line_digest,
    load_snapshot,
    new_cves,
    record_line,
    snapshot_dir,
    snapshot_path,
    store_snapshot,
    stored_changes,
)

INVENTORY_COLUMNS = ("asset_id", "product_name", "vendor_name", "version", "cpe23")

# The json module's own scanner pieces, so that a feed is walked by the
# grammar and whitespace (``[ \t\n\r]``) of ``json.loads``.
_DECODER = json.JSONDecoder()
_WHITESPACE = json.decoder.WHITESPACE.match
_scanstring = json.decoder.scanstring
# Yielded by the feed walk where a CVE_Items value starts.
_ARRAY, _NOT_ARRAY = object(), object()
_NO_ITEMS = "feed document lacks a CVE_Items array"
# Bytes of a feed stream read at a time, or more while one value runs on.
_FEED_CHUNK = 1 << 16


@dataclass(frozen=True)
class CpeDictionary:
    """The standardized (vendor, name) pairs of a CPE dictionary.

    Versions are not kept: the dictionary's users compare names only, so
    N versions of one product make one pair.
    """

    pairs: frozenset[tuple[str, str]]
    skipped: int = field(default=0, compare=False)

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


def _item_date(item: Mapping[str, Any], key: str, memo: FieldMemo) -> date | None:
    value = item.get(key)
    if not isinstance(value, str) or len(value) < 10:
        return None
    try:
        return memo.day(value[:10])
    except ValueError:
        return None


def _object(parent: Mapping[str, Any], key: str) -> Mapping[str, Any]:
    """``parent[key]``, which must be an object when present; an absent or
    empty value reads as an empty object."""
    value = parent.get(key) or {}
    if not isinstance(value, dict):
        raise ValidationError(f"{key} is not an object")
    return value


def _objects(parent: Mapping[str, Any], key: str) -> list[Mapping[str, Any]]:
    """``parent[key]``, which must be an array of objects when present; an
    absent or empty value reads as an empty array."""
    value = parent.get(key) or []
    if not isinstance(value, list):
        raise ValidationError(f"{key} is not an array")
    for entry in value:  # a loop, not all(): this runs for every item of every feed
        if not isinstance(entry, dict):
            raise ValidationError(f"{key} holds a non-object")
    return value


def _gather_cpe_uris(configurations: Mapping[str, Any], memo: FieldMemo) -> tuple[CpeUri, ...]:
    """The distinct CPE names of an item's configuration tree, in document
    order (each node's own names before its children's), through the
    feed's ``memo``, so a feed parses each string once."""
    uris: dict[str, CpeUri] = {}
    stack = _objects(configurations, "nodes")[::-1]
    while stack:  # a stack, not recursion: a recursive closure is a cycle per item
        node = stack.pop()
        for match in _objects(node, "cpe_match"):
            raw = match.get("cpe23Uri")
            if raw is None:
                continue
            if not isinstance(raw, str):
                raise ValidationError(f"CPE name must be a string, got {raw!r}")
            if raw not in uris:
                uris[raw] = memo.cpe(raw)
        stack.extend(reversed(_objects(node, "children")))
    return tuple(uris.values())


def _item_id(item: Mapping[str, Any]) -> Any:
    """The item's CVE id, for its reject; None when there is no object path to it."""
    cve = item.get("cve")
    meta = cve.get("CVE_data_meta") if isinstance(cve, dict) else None
    return meta.get("ID") if isinstance(meta, dict) else None


def _parse_feed_item(item: Mapping[str, Any], memo: FieldMemo) -> CveRecord:
    cve = _object(item, "cve")
    cve_id = _object(cve, "CVE_data_meta").get("ID")
    if not cve_id:
        raise ValidationError("item lacks a CVE id")
    published = _item_date(item, "publishedDate", memo)
    if published is None:
        raise ValidationError("item lacks a publishedDate")
    last_modified = _item_date(item, "lastModifiedDate", memo) or published

    summary = ""
    for desc in _objects(_object(cve, "description"), "description_data"):
        if desc.get("lang") == "en":
            summary = desc.get("value", "")
            break

    score = None
    cvss3 = _object(_object(_object(item, "impact"), "baseMetricV3"), "cvssV3")
    if "baseScore" in cvss3:
        score = cvss3["baseScore"]

    references = tuple(
        ref["url"]
        for ref in _objects(_object(cve, "references"), "reference_data")
        if ref.get("url")
    )
    cpe_list = _gather_cpe_uris(_object(item, "configurations"), memo)

    return CveRecord(
        id=cve_id,
        published=published,
        last_modified=last_modified,
        summary=summary,
        cvss3_base=memo.score(score),  # after the CPE names, whose faults are named first
        cpe_list=cpe_list,
        references=references,
    )


def _walk_feed(text: str, stream: BinaryIO | None = None) -> Iterator[Any]:
    """Walk the JSON object at the start of ``text``, and of the UTF-8
    text read from ``stream`` after it, to the end, decoding each value in
    turn and dropping it, except under a ``CVE_Items`` key: there
    ``_ARRAY`` is yielded and then each element of the array as it is
    decoded, or ``_NOT_ARRAY`` for a value of any other type. A leading
    byte-order mark is skipped.

    Without a stream, ``text`` is the whole document. Each read from the
    stream drops the text before the walk's position, so what is held is
    the value being decoded and a chunk after it. A read asks for at least
    as many bytes as the text held, so a long value is decoded again only
    a logarithmic number of times.

    Raises ValueError or RecursionError where the text is not one such
    object, which may be short of where ``json.loads`` would stop, and
    what reading the stream raises, such as a UnicodeDecodeError.
    """
    decode = _DECODER.raw_decode
    utf8 = codecs.getincrementaldecoder("utf-8")().decode
    idx = 0

    def more() -> bool:
        """Append the stream's next chunk to the text not yet walked; False at the end."""
        nonlocal text, idx
        while stream is not None:
            block = stream.read(max(_FEED_CHUNK, len(text) - idx))
            chunk = utf8(block, not block)
            if chunk:
                text, idx = text[idx:] + chunk, 0
                return True
            if not block:
                break
        return False

    def peek() -> str:
        """The character after any whitespace at idx, which moves onto it; "" at the end."""
        nonlocal idx
        idx = _WHITESPACE(text, idx).end()
        while idx == len(text) and more():
            idx = _WHITESPACE(text, idx).end()
        return text[idx:idx + 1]

    def punct() -> str:
        """``peek``, and past the character."""
        nonlocal idx
        char = peek()
        idx += 1
        return char

    def scan(scanner: Callable[[str, int], tuple[Any, int]]) -> Any:
        """What ``scanner`` decodes at idx, which moves past it.

        It is decoded again with the next chunk when it fails or ends less
        than three characters short of the text's end: a cut value fails,
        a number can go on in the next chunk, and the ``.`` of ``1.5`` or
        the ``e+`` of ``1e+5``, cut from their digits, end ``1``."""
        nonlocal idx
        while True:
            try:
                decoded, end = scanner(text, idx)
            except ValueError:
                if more():
                    continue
                raise
            if end + 2 < len(text) or not more():
                idx = end
                return decoded

    if not text:
        more()
    if text.startswith("\ufeff"):
        idx = 1
    if punct() != "{":
        raise ValueError("not an object")
    if peek() == "}":
        idx += 1
    else:
        char = ","
        while char == ",":
            if punct() != '"':
                raise ValueError("expected a key")
            name = scan(_scanstring)
            if punct() != ":":
                raise ValueError("expected ':'")
            if peek() != "[" or name != "CVE_Items":
                scan(decode)
                if name == "CVE_Items":
                    yield _NOT_ARRAY
            else:
                yield _ARRAY
                idx += 1
                if peek() == "]":
                    idx += 1
                else:
                    char = ","
                    while char == ",":
                        peek()
                        yield scan(decode)
                        char = punct()
                    if char != "]":
                        raise ValueError("expected ',' or ']'")
            char = punct()
        if char != "}":
            raise ValueError("expected ',' or '}'")
    if peek():
        raise ValueError("extra data")


def _feed_error(text: str) -> FeedParseError:
    """The error of a feed document the walk stopped in, from decoding
    ``text`` whole as ``json.loads`` does; its offset is in UTF-8 bytes of
    ``text``, so a byte-order mark counts. A document ``json.loads``
    accepts lacks a ``CVE_Items`` array."""
    start = 1 if text.startswith("\ufeff") else 0
    try:
        json.loads(text[start:])
    except json.JSONDecodeError as exc:
        offset = len(text[:start + exc.pos].encode("utf-8", "surrogatepass"))
        return FeedParseError(f"malformed feed JSON at byte {offset}: {exc.msg}", offset=offset)
    except (ValueError, RecursionError) as exc:  # a huge number literal, deep nesting
        return FeedParseError(f"unparseable feed JSON: {exc}")
    return FeedParseError(_NO_ITEMS)


def _whole_text(stream: BinaryIO) -> str:
    """The text of a feed stream read again from its start, all at once,
    for the error a whole read gives: a gzip stream's compressed bytes are
    decompressed whole, as a chunked read may fail with another message,
    and each error names the stream's file."""
    source = str(getattr(stream, "name", "input"))
    if isinstance(stream, gzip.GzipFile):
        stream.fileobj.seek(0)
        try:
            data = gzip.decompress(stream.fileobj.read())
        except (EOFError, OSError, zlib.error) as exc:  # truncated, not gzip, corrupt deflate
            raise FeedParseError(f"{source}: unreadable gzip stream: {exc}")
    else:
        stream.seek(0)
        data = stream.read()
    return as_text(data, source, keep_bom=True)


@_gc_paused()
def _read_feed(
    data: bytes | str | BinaryIO, start: Callable[[], Any], keep: Callable[[Any, CveRecord], object]
) -> tuple[Any, tuple[FeedReject, ...]]:
    """What ``keep`` puts of each record of a feed's bytes, text or stream
    into the collection ``start`` makes at each ``CVE_Items`` array, and
    that array's rejects; the last array wins. Each record is built, kept
    and dropped before the next item is built."""
    if isinstance(data, bytes):
        data = io.BytesIO(data)
    text, stream = (data, None) if isinstance(data, str) else ("", data)
    kept, count, rejects = None, 0, []
    memo = FieldMemo()

    def walk() -> Iterator[Any]:
        """The feed's walk, a fault in it or its reads the feed's error; a fault
        in building or keeping a record is raised in the loop, not here."""
        try:
            yield from _walk_feed(text, stream)
        except (ValueError, RecursionError, EOFError, OSError, zlib.error):
            raise _feed_error(text if stream is None else _whole_text(stream))

    for item in walk():
        if item is _ARRAY:
            kept, count, rejects = start(), 0, []
        elif item is _NOT_ARRAY:
            kept = None
        elif not isinstance(item, dict):
            rejects.append(FeedReject(index=count, reason="item is not an object"))
            count += 1
        else:
            try:
                keep(kept, _parse_feed_item(item, memo))
            except ValidationError as exc:
                rejects.append(FeedReject(index=count, reason=str(exc), cve_id=_item_id(item)))
            count += 1
    if kept is None:
        raise FeedParseError(_NO_ITEMS)
    return kept, tuple(rejects)


def parse_feed(data: bytes | str | BinaryIO) -> FeedParseResult:
    """Parse an NVD JSON 1.1 feed into records plus item-level rejects.

    ``data`` is the feed's bytes or text, or a binary stream of it, such as
    ``read_feed_bytes`` opens; bytes are read in chunks like a stream, and
    text is walked as it is. The feed is decoded one ``CVE_Items`` element
    at a time, and each element is built into its record or reject before
    the next is decoded, so neither the feed's text nor its decoded tree is
    held whole. As with ``json.loads``, the last of repeated ``CVE_Items``
    keys wins. A feed that turns out malformed, not UTF-8 or not gzip is
    decoded whole once, for the error a whole read gives only; a malformed
    feed's error gives the UTF-8 byte offset of the fault, a byte-order
    mark included. Each distinct CPE string, date and score notation of
    the feed is parsed once, and its records share the one object."""
    records, rejects = _read_feed(data, list, list.append)
    return FeedParseResult(records=tuple(records), rejects=rejects)


def parse_feed_lines(
    data: bytes | str | BinaryIO, earlier: dict[str, bytes] | None = None
) -> tuple[dict[str, bytes | None], int]:
    """A feed read as ``parse_feed`` reads it, kept as the stored line
    (``record_line``) of each record by id, a later record of an id winning,
    with its count of rejects. Each record is encoded as soon as it is built
    and then dropped, so no record of the feed is held.

    ``earlier`` maps ids to the ``line_digest`` of the day before's line,
    as ``earlier_line_digests`` gives them: a record whose line has its
    id's digest there is kept as its id alone, mapped to None, and that
    digest is taken out of ``earlier``, so a later record of the id is
    kept with its line."""
    earlier = {} if earlier is None else earlier

    def keep(lines: dict[str, bytes | None], record: CveRecord) -> None:
        line = record_line(record)
        digest = earlier.get(record.id)
        if digest is not None and digest == line_digest(line):
            del earlier[record.id]
            line = None
        lines[record.id] = line

    lines, rejects = _read_feed(data, dict, keep)
    return lines, len(rejects)


def read_feed_bytes(path: str | Path) -> BinaryIO:
    """Open a feed file as a binary stream, decompressing transparently when
    its name ends in .gz; a gzip fault is raised by ``parse_feed``."""
    return gzip.open(path) if str(path).endswith(".gz") else open(path, "rb")


def _cpe_names_from_xml(text: str) -> Iterable[str]:
    import xml.etree.ElementTree as ET  # here, not at the top: only this parse needs it
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
    except (ValueError, RecursionError) as exc:
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
    text = as_text(data).strip()
    if not text:
        return CpeDictionary(frozenset())
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


def _text_lines(text: str) -> Iterator[str]:
    """The lines of ``text``, each split after its line feed and only there,
    as ``io.StringIO`` reads them, without a copy of the text."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _inventory_rows(text: str) -> Iterator[tuple[int, dict[str, str]]]:
    """The rows after the checked header (row 1), numbered from 2. A row the
    csv module cannot read, say a field over ``csv.field_size_limit()``, is
    a FormatError naming it."""
    reader = csv.DictReader(_text_lines(text))
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


def parse_asset_inventory(
    data: bytes | str,
    stop_words: StopWordList | None = None,
) -> InventoryParseResult:
    """Parse the asset inventory CSV.

    Rows with a cpe23 column take their well-formed name from the CPE;
    others standardize the raw columns. Rows whose product standardizes to
    empty are rejected with their 1-based row number.
    """
    assets: list[AssetRecord] = []
    rejects: list[RowReject] = []
    for row_number, row in _inventory_rows(as_text(data)):
        raw_cpe = (row.get("cpe23") or "").strip()
        try:
            if raw_cpe:
                wfn = well_formed_from_cpe(CpeUri.parse(raw_cpe), stop_words)
            else:
                wfn = well_formed_from_raw(
                    row.get("product_name") or "",
                    row.get("vendor_name") or "",
                    row.get("version") or "",
                    stop_words,
                )
            assets.append(AssetRecord(asset_id=row.get("asset_id") or "", wfn=wfn))
        except ValidationError as exc:
            rejects.append(RowReject(row=row_number, reason=str(exc)))
    return InventoryParseResult(assets=tuple(assets), rejects=tuple(rejects))


def load_snapshots(store_root: str | Path, days: Iterable[date]) -> Iterator[Snapshot]:
    """Load the given days in order, each as it is asked for, each through
    ``load_snapshot`` with the day loaded before it.

    The replay of each day stops at the day loaded before it: a delta
    stored against that day is read from its own file, its unchanged
    records are that day's objects, and the one digest taken is that
    day's, which hashes its whole file when it is stored whole. Each CPE
    string, date and score notation is parsed once per range, and the
    range's records share the one object.
    """
    previous = None
    memo = FieldMemo()
    for day in days:
        previous = load_snapshot(store_root, day, previous=previous, memo=memo)
        yield previous
