"""The dated snapshot store: one file per day, in a line layout, holding
the day whole or as its changes to an earlier stored day.

A day's file is one JSON document of plain lines: a head line, one
compact record per line in id order, and a tail line. A day is stored
from those lines (each record's ``record_line``), not from its records:
the store writes, compares and hashes lines only; a line that ``ingest``
found equal to the earlier day's by ``line_digest`` is given as its id
alone and taken from that day's files. A delta's head names
the day it is stored against and that day's content digest, its own
content digest, the digest of its own lines, and the ids it removes; its
lines are its new and changed records. A day is replayed from the lines of
its chain's files, read side by side down to a day stored whole; a day in
another layout, or one whose stored bytes hold a fault, is loaded by
decoding each of those files whole. A bug in the replay is raised.
A head has one form, the compact one store_snapshot writes, keys in order:
a day with a head in any other form is loaded whole, and the next day is stored whole.
What is new on a stored day is ``new_cves``: a delta against the nearest earlier stored
day decodes only its lines of new ids, any other day takes ``diff_snapshots`` of both loads.
"""

from __future__ import annotations

import gc
import json
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from datetime import date
from operator import attrgetter
from pathlib import Path
from typing import Any, BinaryIO, Callable, Container, Iterable, Iterator, Mapping, NamedTuple

# hashlib.blake2b is this very type; importing hashlib would load OpenSSL
# too, about 3 MB more in every process that loads a day.
from _blake2 import blake2b

from .errors import (
    OrderingError,
    SnapshotConflictError,
    SnapshotExistsError,
    SnapshotIntegrityError,
    SnapshotNotFoundError,
    ValidationError,
)
from .model import CveRecord, FieldMemo, SnapshotDiff

# The C encoder; any indent would force the pure-Python one.
_RECORD_ENCODER = json.JSONEncoder(separators=(",", ":"))
_DECODER = json.JSONDecoder()


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore its state.

    Building a feed or a stored day allocates many containers that live
    until the build ends, and leaves no reference cycle, so each collection
    those allocations would trigger finds nothing to free. A collector the
    caller had turned off stays off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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


def snapshot_dir(store_root: str | Path) -> Path:
    return Path(store_root) / "snapshots"


def snapshot_path(store_root: str | Path, day: date) -> Path:
    return snapshot_dir(store_root) / day.isoformat()


_TAIL = b"]}\n"
# A record line as store_snapshot writes it, which begins with its id.
_LINE_ID = re.compile(rb'\{"id":"(CVE-\d{4}-\d{4,})"[,}]')
_DIGEST_SIZE = 16
# What decoding stored bytes raises on a fault in them.
_DECODE_FAULTS = (KeyError, TypeError, ValueError, RecursionError, ValidationError)


class _Head(NamedTuple):
    """What a stored day's first line says, by its keys in order: its date and
    record count, and for a delta the day it is stored against, the content
    digests of that day and of this one, the digest of its own lines (which
    deltas stored before it existed lack), and the ids it removes."""

    date: date
    record_count: int
    base: date | None = None
    base_digest: str | None = None
    digest: str | None = None
    lines_digest: str | None = None
    removed: tuple[str, ...] = ()

    def line(self) -> bytes:
        """The head's line, without its break: the compact JSON of its fields (a day stored
        whole's first two, a delta's lines digest when it has one), the closing brace
        replaced by the records' opening."""
        head = self._replace(date=self.date.isoformat(), base=self.base and self.base.isoformat())
        fields = {key: value for key, value in zip(self._fields, head if self.base else head[:2])
                  if value is not None}
        return _RECORD_ENCODER.encode(fields).encode()[:-1] + b',"records":['

    def where(self, path: Path) -> str:
        """The file, as errors name it: a delta with the day it is stored against."""
        return f"{path}" if self.base is None else f"{path} (changes to {self.base.isoformat()})"


class _NotLines(Exception):
    """A file not in the line layout, or a fault in its bytes: the one signal a replay falls back on."""


def _parse_head(line: bytes) -> _Head | None:
    """The head of a day in the line layout: a first line that is the line() of the
    head it decodes to, its count an int of 0 or more, its digests lowercase hex."""
    try:  # a line that does not open the records, such as a whole day on one line, is not decoded
        head = _payload_head(json.loads(line + b"]}")) if line.endswith(b"[\n") else None
    except _DECODE_FAULTS:
        return None
    ok = head and type(head.record_count) is int and head.record_count >= 0
    ok = ok and all(re.fullmatch("[0-9a-f]{32}", digest) for digest in head[3:6] if digest is not None)
    return head if ok and head.line() + b"\n" == line else None


def _head_of(path: Path) -> _Head | None:
    """The head of a stored file in the line layout; None for another layout or no file."""
    try:
        with open(path, "rb") as file:
            return _parse_head(file.readline())
    except FileNotFoundError:
        return None


def _payload_head(payload: Any) -> _Head:
    """The head of a stored day decoded whole, whose keys are _Head's field names; raises
    KeyError, TypeError or ValueError where a field is missing or of the wrong type."""
    stored_date, count = (payload[key] for key in _Head._fields[:2])
    if "base" not in payload:
        return _Head(date.fromisoformat(stored_date), count)
    removed, lines_digest = payload["removed"], payload.get("lines_digest", "")
    if not (isinstance(payload["base_digest"], str) and isinstance(payload["digest"], str)
            and isinstance(lines_digest, str)
            and isinstance(removed, list) and all(isinstance(i, str) for i in removed)):
        raise ValueError("malformed delta head")
    return _Head(date.fromisoformat(stored_date), count, date.fromisoformat(payload["base"]),
                 payload["base_digest"], payload["digest"], payload.get("lines_digest"),
                 tuple(removed))


def _content_digest(path: Path, head: _Head | None) -> str:
    """The content digest of a stored day, given its head: a delta states its
    own; any other day is digested from its bytes. A delta states the digest
    of the bytes its day would have stored whole, so rewriting a delta whole
    keeps its digest."""
    if head is not None and head.base is not None:
        return head.digest
    digest = blake2b(digest_size=_DIGEST_SIZE)
    with open(path, "rb") as file:
        for block in iter(lambda: file.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _lines_digest(lines: Iterable[bytes]) -> str:
    """A delta's lines digest: of its record lines in order, each without its
    comma and followed by a line break."""
    digest = blake2b(digest_size=_DIGEST_SIZE)
    for line in lines:
        digest.update(line + b"\n")
    return digest.hexdigest()


def _decode_line(
    cve_id: str, line: bytes, memo: FieldMemo, earlier: CveRecord | None = None
) -> CveRecord:
    """The record of the stored line of ``cve_id``, which must be one JSON
    value and decode to a record of that id; raises _NotLines where not."""
    try:
        text = line.decode("utf-8")
        data, end = _DECODER.raw_decode(text)
        record = CveRecord.from_dict(data, memo, earlier)
    except _DECODE_FAULTS:
        raise _NotLines from None
    if end != len(text) or record.id != cve_id:
        raise _NotLines
    return record


@_gc_paused()
def load_snapshot(
    store_root: str | Path,
    day: date,
    *,
    previous: Snapshot | None = None,
    memo: FieldMemo | None = None,
) -> Snapshot:
    """Load the snapshot stored for a date, checking its date stamp, its
    record count, its ids and, for a delta, its chain.

    A day is replayed from the lines of its chain's files read side by
    side, so each record is decoded once. When the chain reaches
    ``previous``, the files above it are applied to its records, whose
    unchanged records are then the same objects. A line of an id that
    ``previous`` holds is built from that record (``CveRecord.from_dict``'s
    ``earlier``), each line built once. Any other layout, and any fault in
    the stored bytes, is left to a load of each file decoded whole, which
    names the fault; a bug in the replay is raised. ``memo`` holds the CPE
    names, dates and scores parsed before and gains each one parsed here;
    without it, each is parsed once per load.
    """
    path = snapshot_path(store_root, day)
    if not path.exists():
        raise SnapshotNotFoundError(f"no snapshot stored for {day.isoformat()}")
    memo = FieldMemo() if memo is None else memo
    kept = {} if previous is None else previous.records
    try:
        chain = _chain(store_root, day, None if previous is None else previous.date)
        if chain is None:
            raise _NotLines
        below = kept if chain[-1][1].base is not None else {}
        gone = {cve_id for _, head in chain for cve_id in head.removed}
        records = {cve_id: record for cve_id, record in below.items() if cve_id not in gone}
        for cve_id, line in _content(chain, below):
            record = _decode_line(cve_id, line, memo, kept.get(cve_id))
            records[record.id] = record  # keyed by the record's own id, not a copy of it
        if below:
            records = {cve_id: records[cve_id] for cve_id in sorted(records)}
        if len(records) != chain[0][1].record_count:
            raise _NotLines
        return Snapshot(date=day, records=records)
    except _NotLines:
        return _load_whole(store_root, day, memo)


def _load_whole(store_root: str | Path, day: date, memo: FieldMemo) -> Snapshot:
    """Load a stored day by decoding each file of its chain whole and
    checking it, newest first, then applying the files in date order: the
    load of a day in any JSON layout, and the one that names a fault."""
    path = snapshot_path(store_root, day)
    files: list[tuple[str, _Head, list[CveRecord]]] = []
    while True:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            date.fromisoformat(payload["date"])  # a bad date is named before a bad record
            built = [CveRecord.from_dict(data, memo) for data in payload["records"]]
            head = _payload_head(payload)
        except _DECODE_FAULTS as exc:
            head = _head_of(path)
            raise SnapshotIntegrityError(
                f"corrupt snapshot file {path if head is None else head.where(path)}: {exc}")
        where = head.where(path)
        if head.date != day:
            raise SnapshotIntegrityError(f"snapshot file {where} is stamped {head.date.isoformat()}")
        if head.base is None and head.record_count != len(built):
            raise SnapshotIntegrityError(
                f"snapshot file {where} declares {head.record_count} records but holds {len(built)}")
        ids = [record.id for record in built] + list(head.removed)
        if len(set(ids)) != len(ids):
            raise SnapshotIntegrityError(f"snapshot file {where} repeats a CVE id")
        if head.lines_digest is not None and head.lines_digest != _lines_digest(
                _RECORD_ENCODER.encode(data).encode() for data in payload["records"]):
            raise SnapshotIntegrityError(f"snapshot file {where} holds other lines than it states")
        files.append((where, head, built))
        if head.base is None:
            break
        base_path = snapshot_path(store_root, head.base)
        if head.base >= day or not base_path.exists():
            raise SnapshotIntegrityError(
                f"snapshot file {where}: no earlier snapshot stored for {head.base.isoformat()}")
        if _content_digest(base_path, _head_of(base_path)) != head.base_digest:
            raise SnapshotIntegrityError(
                f"snapshot file {where}: the content of {head.base.isoformat()} has changed since")
        path, day = base_path, head.base
    records: dict[str, CveRecord] = {}
    for where, head, built in reversed(files):
        for cve_id in head.removed:
            if records.pop(cve_id, None) is None:
                raise SnapshotIntegrityError(f"snapshot file {where} removes {cve_id}, "
                                             f"which {head.base.isoformat()} does not hold")
        records.update((record.id, record) for record in built)
    where, top, _ = files[0]
    if top.base is not None:
        records = {cve_id: records[cve_id] for cve_id in sorted(records)}
        if top.record_count != len(records):
            raise SnapshotIntegrityError(
                f"snapshot file {where} declares {top.record_count} records but holds {len(records)}")
    return Snapshot(date=top.date, records=records)


def _chain(
    store_root: str | Path, day: date, stop: date | None = None
) -> list[tuple[Path, _Head]] | None:
    """The files a stored day is replayed from, its own first, each with
    its head: down to a day stored whole, or to the file stored against
    ``stop``, whose content is checked but whose chain is not read. None
    when one of them is missing or not in the line layout, or holds other
    content than the file after it was stored against."""
    chain: list[tuple[Path, _Head]] = []
    while day is not None:
        path = snapshot_path(store_root, day)
        head = _head_of(path)
        if head is None or head.date != day or (chain and (
                day >= chain[-1][1].date or _content_digest(path, head) != chain[-1][1].base_digest)):
            return None
        if chain and day == stop:
            break
        chain.append((path, head))
        day = head.base
    return chain


def _sorted_lines(
    path: Path, head: _Head, rank: int, stale: set[int]
) -> Iterator[tuple[str, int, bytes]]:
    """(id, rank, line) for each record line of a file in the line layout,
    read after its head one at a time, each line without its comma and
    line break. Raises _NotLines where a line lacks the comma the layout
    puts after every record but the last, or has one after the last, or
    the tail line is missing; where a line does not begin with its id and
    hold one "id" key, or the ids do not ascend; and where a day stored whole
    holds other than its count of lines. Once its lines are read, adds
    ``rank`` to ``stale`` where a delta's lines do not match the lines
    digest it states."""
    digest = blake2b(digest_size=_DIGEST_SIZE) if head.lines_digest is not None else None
    with open(path, "rb") as file:
        file.readline()
        last, lines = "", 0
        line = file.readline()
        for following in file:  # one line ahead: the last record line has no comma
            comma = following != _TAIL
            if line.endswith(b",\n") != comma:
                raise _NotLines
            record = line[:-2] if comma else line[:-1]
            match = _LINE_ID.match(record)
            cve_id = match[1].decode() if match else ""
            if cve_id <= last or record.count(b'"id":') != 1:
                raise _NotLines
            last, lines = cve_id, lines + 1
            if digest is not None:
                digest.update(record + b"\n")
            yield cve_id, rank, record
            line = following
        if line != _TAIL:
            raise _NotLines
    if head.base is None and lines != head.record_count:
        raise _NotLines
    if digest is not None and digest.hexdigest() != head.lines_digest:
        stale.add(rank)


def _content(
    chain: list[tuple[Path, _Head]], below: Container[str] = ()
) -> Iterator[tuple[str, bytes]]:
    """The (id, line) pairs of the day at the head of ``chain``, in id order,
    replayed from the lines of its files read side by side, none decoded.
    ``below`` holds the ids of the day the last file is stored against,
    when that file is a delta. Raises _NotLines where a file is not in the
    line layout in id order, and where a file removes an id that the day
    below it does not hold, that it holds itself or that it removes twice,
    and where a line is taken from a delta whose lines do not match its
    lines digest (a delta whose every line a later file supersedes gives
    the day nothing, and is not held to it); these are checked as the lines
    run out, so a replay reads them all."""
    import heapq  # here, not at the top: only a replay reads a chain this way

    # A removal is an event of its file's rank with no line, so it sorts
    # before a line of the same id and rank.
    removals = sorted((cve_id, rank, b"") for rank, (_, head) in enumerate(chain)
                      for cve_id in head.removed)
    stale: set[int] = set()  # the ranks of the files whose lines differ from their digest
    taken: set[int] = set()  # the ranks of the files a line was taken from
    files = (_sorted_lines(path, head, rank, stale) for rank, (path, head) in enumerate(chain))
    last, gone_at = None, None  # the id of the event before, and its rank if it was a removal
    for cve_id, rank, line in heapq.merge(removals, *files):
        if gone_at is not None:  # the next event must show that the day below held ``last``
            held = line and rank > gone_at if cve_id == last else last in below
            if not held:
                raise _NotLines
        if cve_id != last and line:
            taken.add(rank)
            yield cve_id, line
        last, gone_at = cve_id, None if line else rank
    if gone_at is not None and last not in below or stale & taken:
        raise _NotLines


@_gc_paused()
def new_cves(store_root: str | Path, day: date) -> tuple[CveRecord, ...] | None:
    """The records of a stored day whose ids the nearest earlier stored day
    lacks, in id order; None when either day is not stored.

    A day stored as changes to that day, each delta of its chain stating a
    lines digest, decodes only its lines of new ids; its other lines and the
    ids below are read with a load's checks: each link's content digest,
    each file's layout and id order, the lines digest of each delta a line
    is taken from, the removals and the record count. Any other day, and any
    fault these checks or a new line's decoding find, is left to
    ``diff_snapshots`` over loads of both days, the earlier first, which name
    the fault; a bug in the replay is raised."""
    previous = find_previous_date(store_root, day)
    if previous is None or not snapshot_path(store_root, day).exists():
        return None
    memo, chain = FieldMemo(), _chain(store_root, day)
    head = chain[0][1] if chain else None
    if head and head.base == previous and all(link.lines_digest is not None for _, link in chain[:-1]):
        with suppress(_NotLines):
            base_ids = {cve_id for cve_id, _ in _content(chain[1:])}
            new = tuple(_decode_line(cve_id, line, memo)
                        for cve_id, line in _content(chain[:1], base_ids) if cve_id not in base_ids)
            if head.record_count == len(base_ids) - len(head.removed) + len(new):
                return new
    older = load_snapshot(store_root, previous, memo=memo)
    return diff_snapshots(older, load_snapshot(store_root, day, previous=older, memo=memo)).new_cves


def diff_snapshots(older: Snapshot, newer: Snapshot) -> SnapshotDiff:
    """The records of ``newer`` that are new or changed since ``older``,
    each list sorted by id; swapped arguments are rejected.

    A record is changed on any difference in value, not just a moved
    last_modified stamp. The same object in both days costs one ``is`` test.
    """
    if older.date >= newer.date:
        raise OrderingError(
            f"diff requires older < newer, got {older.date.isoformat()} >= {newer.date.isoformat()}"
        )
    new, updated = [], []
    for cve_id, record in newer.records.items():
        previous = older.records.get(cve_id)
        if previous is None:
            new.append(record)
        elif previous is not record and previous != record:
            updated.append(record)
    by_id = attrgetter("id")
    return SnapshotDiff(older.date, newer.date, tuple(sorted(new, key=by_id)),
                        tuple(sorted(updated, key=by_id)))


def _line_count(path: Path) -> int:
    with open(path, "rb") as file:
        return sum(block.count(b"\n") for block in iter(lambda: file.read(1 << 16), b"")) - 2


def _write_day(write: Callable[[bytes], object], head: _Head, lines: Iterable[bytes]) -> None:
    """A day in the line layout, a piece at a time: its head, its record
    lines, each but the last followed by a comma, and its tail."""
    write(head.line())
    separator = b"\n"
    for line in lines:
        write(separator + line)
        separator = b",\n"
    write(b"\n" + _TAIL)


@contextmanager
def replacing(path: str | Path) -> Iterator[BinaryIO]:
    """The writer of every file the package writes: a temp file next to
    ``path`` (a link's target) that replaces it once the block completes and
    is deleted when it fails. A path as given that is not a regular file (a
    FIFO, a device) cannot be replaced, and is written in place."""
    given = Path(path)
    if given.exists() and not given.is_file():
        with open(given, "wb") as out:
            yield out
        return
    path = given.resolve()
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        file = open(tmp, "wb")
    except OSError as exc:
        exc.filename = str(given)  # the file asked for, not its temp file
        raise
    try:
        with file as out:
            yield out
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def record_line(record: CveRecord) -> bytes:
    """A record's line in a stored day: its compact JSON, without a line break."""
    return _RECORD_ENCODER.encode(record.to_dict()).encode()


def _merged(
    lines: Mapping[str, bytes | None], chain: list[tuple[Path, _Head]] | None,
    changed: list[bytes], removed: list[str],
) -> Iterator[bytes]:
    """The lines of a new day in id order, read side by side with the lines
    of the day at the head of ``chain``, when there is one: an id given
    without a line (None) takes that day's line of the id, each line that
    differs from that day's line of its id is added to ``changed``, and each
    id of that day the new day lacks to ``removed``. Raises _NotLines where
    the chain cannot be replayed from its lines, and where an id given
    without a line has none there."""
    earlier = _content(chain) if chain else iter(())
    old = next(earlier, None)  # the earlier day's (id, line) not yet passed
    for cve_id in sorted(lines):
        while old and old[0] < cve_id:
            removed.append(old[0])
            old = next(earlier, None)
        line = lines[cve_id]
        if line is None:
            if not (old and old[0] == cve_id):
                raise _NotLines
            line = old[1]
        if old != (cve_id, line):
            changed.append(line)
        if old and old[0] == cve_id:
            old = next(earlier, None)
        yield line
    while old:
        removed.append(old[0])
        old = next(earlier, None)


def _write_delta(
    out: BinaryIO, day: date, lines: Mapping[str, bytes | None], chain: list[tuple[Path, _Head]],
    base_digest: str,
) -> None:
    """Write the day of ``lines`` as its changes to the day at the head of
    ``chain``, whose content digest is ``base_digest``; raises _NotLines,
    with nothing written, where that day cannot be replayed from its files'
    lines. The new day is written whole into its content digest, its lines
    merged with the earlier day's; the lines that differ are kept until the
    head, with the removed ids, that digest and theirs, is written."""
    changed: list[bytes] = []
    removed: list[str] = []
    digest = blake2b(digest_size=_DIGEST_SIZE)
    _write_day(digest.update, _Head(day, len(lines)), _merged(lines, chain, changed, removed))
    _write_day(out.write, _Head(day, len(lines), chain[0][1].date, base_digest,
                                digest.hexdigest(), _lines_digest(changed), tuple(removed)), changed)


def line_digest(line: bytes) -> bytes:
    """The 16-byte BLAKE2b digest of a stored line, by which a new day's line is found unchanged."""
    return blake2b(line, digest_size=_DIGEST_SIZE).digest()


def earlier_line_digests(
    store_root: str | Path, day: date
) -> tuple[dict[str, bytes], tuple[date, str] | None]:
    """The ``line_digest`` of each line of the nearest stored day before
    ``day``, by id, read in one replay of its chain's lines, none decoded,
    and that day's date and content digest, the ``base`` that
    ``store_snapshot`` takes; empty and None when there is no such day, or
    it cannot be read or replayed from its lines."""
    with suppress(_NotLines, OSError):
        previous = find_previous_date(store_root, day)
        chain = None if previous is None else _chain(store_root, previous)
        if chain:
            digests = {cve_id: line_digest(line) for cve_id, line in _content(chain)}
            return digests, (previous, _content_digest(*chain[0]))
    return {}, None


def _conflict(day: date, base: tuple[date, str]) -> SnapshotConflictError:
    return SnapshotConflictError(f"snapshot {base[0].isoformat()} changed in the store while "
                                 f"{day.isoformat()} was compared with it; {day.isoformat()} is not stored")


def store_snapshot(
    store_root: str | Path, day: date, lines: Mapping[str, bytes | None], overwrite: bool = False,
    base: tuple[date, str] | None = None,
) -> Path:
    """Persist a day, given as the ``record_line`` of each of its records by
    id, as one JSON file named by its date; returns the file's path.

    The file is in the line layout: a head line, then one compact record
    per line in id order, so a changed record is one changed line. When
    the nearest earlier stored day can be replayed from its lines, the
    file is a delta: its head names that day and its content digest, and
    lists the removed ids, and its lines are those of the new and changed
    records only. The day is stored whole when there is no such day, and
    once the deltas since the last day stored whole, each counting its
    lines, its removed ids and itself, reach that day's record count. The
    earlier day is read a line at a time and never decoded, and no record
    is encoded here.

    ``base`` is the date and content digest of the day ``lines`` was
    compared with, as ``earlier_line_digests`` gives them; with it, an id
    may be given without a line (None), and takes that day's line. Where
    the nearest earlier stored day is no longer that day with that
    content, or cannot be replayed from its lines to give them, nothing is
    stored: SnapshotConflictError.

    Refuses to clobber an existing date unless overwrite is set; a later
    day stored as changes to the day overwritten is first rewritten whole,
    with the same content digest. The write goes through a temp file,
    which replaces the day only once complete and is deleted when the
    write fails, so a crash never leaves a half-written day.
    """
    path = snapshot_path(store_root, day)
    if path.exists() and not overwrite:
        raise SnapshotExistsError(f"snapshot for {day.isoformat()} already stored")
    previous = find_previous_date(store_root, day)
    chain = None if previous is None else _chain(store_root, previous)
    base_digest = chain and _content_digest(*chain[0])
    if base is not None and base != (previous, base_digest):
        raise _conflict(day, base)
    if path.exists():
        for later in list_snapshot_dates(store_root):
            head = _head_of(snapshot_path(store_root, later)) if later > day else None
            if head is not None and head.base == day:
                _rewrite_whole(store_root, later)
    path.parent.mkdir(parents=True, exist_ok=True)
    delta = chain
    if chain:  # the whole-day rule, which keeps replays short
        changes = sum(_line_count(file) + len(head.removed) + 1 for file, head in chain[:-1])
        delta = chain if changes < chain[-1][1].record_count else None
    # the day whole: merged with the earlier day's lines where some are given without one
    whole = _merged(lines, chain, [], []) if base else (lines[cve_id] for cve_id in sorted(lines))
    with replacing(path) as out:
        try:
            if delta is None:
                _write_day(out.write, _Head(day, len(lines)), whole)
            else:
                _write_delta(out, day, lines, delta, base_digest)
        except _NotLines:
            if base is not None:
                raise _conflict(day, base) from None
            _write_day(out.write, _Head(day, len(lines)), whole)
    return path


def _rewrite_whole(store_root: str | Path, day: date) -> None:
    """Rewrite a delta whole, replayed from its chain's lines."""
    path = snapshot_path(store_root, day)
    chain = _chain(store_root, day)
    try:
        if chain is None:
            raise _NotLines
        with replacing(path) as out:
            _write_day(out.write, _Head(day, chain[0][1].record_count),
                       (line for _, line in _content(chain)))
    except _NotLines:
        raise SnapshotIntegrityError(
            f"snapshot file {chain[0][1].where(path) if chain else path} cannot be replayed "
            "to be rewritten whole") from None


def stored_changes(path: str | Path) -> tuple[date, int, int, int] | None:
    """For a day stored as a delta: the day it is stored against, and its
    numbers of new, changed and removed records; None for a day stored
    whole; SnapshotIntegrityError where that day is missing or in another layout."""
    path = Path(path)
    head = _head_of(path)
    if head is None or head.base is None:
        return None
    base = _head_of(path.with_name(head.base.isoformat()))
    if base is None:
        raise SnapshotIntegrityError(f"snapshot file {head.where(path)}: "
                                     f"{head.base.isoformat()} is missing or not in the line layout")
    new = head.record_count - base.record_count + len(head.removed)
    return head.base, new, _line_count(path) - new, len(head.removed)


def list_snapshot_dates(store_root: str | Path) -> list[date]:
    """All stored snapshot dates, ascending."""
    directory = snapshot_dir(store_root)
    if not directory.is_dir():
        return []
    dates = []
    for entry in directory.iterdir():
        try:
            dates.append((date.fromisoformat(entry.name), entry.name))
        except ValueError:
            continue  # temp files etc.
    return sorted(day for day, name in dates if day.isoformat() == name)  # 3.11 reads 20210601 too


def find_previous_date(store_root: str | Path, day: date) -> date | None:
    """Nearest stored date strictly before the given one, if any."""
    earlier = [d for d in list_snapshot_dates(store_root) if d < day]
    return max(earlier) if earlier else None
