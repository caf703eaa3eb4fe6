"""Exception hierarchy shared across the package.

Each class declares the exit code the CLI returns for it: store conflicts
exit 3, integrity failures exit 4, and everything else that is the
caller's fault exits 2, as an ``OSError`` does.
"""

from __future__ import annotations


class SentinelError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 2


class ValidationError(SentinelError):
    """A domain value violates one of its construction invariants."""


class FeedParseError(SentinelError):
    """The feed document itself is unusable (not item-level trouble)."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class FormatError(SentinelError):
    """An input file does not follow its declared layout."""


class SnapshotNotFoundError(SentinelError):
    """No stored snapshot exists for the requested date."""


class SnapshotExistsError(SentinelError):
    """A snapshot for this date is already stored and overwrite was not requested."""
    exit_code = 3


class SnapshotIntegrityError(SentinelError):
    """A stored snapshot file is corrupt or inconsistent with its name."""
    exit_code = 4


class OrderingError(SentinelError):
    """Snapshot arguments were not supplied in ascending date order."""


class DomainError(SentinelError):
    """An analytics input lies outside the operation's domain."""


class MatchIntegrityError(SentinelError):
    """A match references an asset or CVE id that is not in the given indexes."""
    exit_code = 4


class EmitError(SentinelError):
    """Writing tickets to a sink failed; `written` counts the lines flushed."""

    def __init__(self, message: str, written: int):
        super().__init__(message)
        self.written = written
