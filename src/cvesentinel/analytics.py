"""Completeness statistics over snapshot histories.

Covers per-day missing-field counts for newly published CVEs, the
days-until-completion distribution for fields that arrive late, per-vendor
incompleteness percentages, the severity cross-tabulation of initially
scored versus later scored CVEs, and a Wilcoxon-Mann-Whitney rank test
with exact small-sample p-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from itertools import pairwise
from math import comb
from typing import Any, Iterable, Sequence

from .errors import DomainError, ValidationError
from . import ingest  # diff_snapshots is looked up at each call, so a wrapper put there sees it
from .ingest import Snapshot
from .model import CpeUri, CveRecord, Row, SeverityLevel, severity_bucket  # re-exported
from .normalize import StopWordList, standardize


class CompletionField(Enum):
    CVSS = "CVSS"
    CPE = "CPE"


class RankMethod(Enum):
    EXACT = "EXACT"
    NORMAL_APPROX = "NORMAL_APPROX"


@dataclass(frozen=True)
class DailyCompleteness(Row):
    """Field coverage of the CVEs first published on one day."""

    date: date
    total_reports: int
    missing_cvss: int
    missing_cpe: int
    missing_mitigation: int

    def __post_init__(self) -> None:
        for label in ("missing_cvss", "missing_cpe", "missing_mitigation"):
            if getattr(self, label) > self.total_reports:
                raise ValidationError(f"{label} exceeds total_reports on {self.date}")


@dataclass(frozen=True)
class CompletionDelay(Row):
    """Days from initial publication to the field's first appearance."""

    cve_id: str
    published: date
    completed: date
    field: CompletionField
    days: int

    def __post_init__(self) -> None:
        expected = (self.completed - self.published).days
        if self.days != expected or self.days < 0:
            raise ValidationError(
                f"{self.cve_id}: days={self.days} inconsistent with "
                f"{self.published}..{self.completed}"
            )


@dataclass(frozen=True)
class DelayReport:
    """Four-way split of the initially-incomplete CVEs.

    Every CVE first seen without the field lands in exactly one bucket:
    completed (with a delay record), updated without gaining the field,
    never updated at all within the history, or rejected because the field
    arrived on a day before the record's published date (a negative delay).
    """

    field: CompletionField
    delays: tuple[CompletionDelay, ...]
    updated_without_field: tuple[str, ...]
    never_updated: tuple[str, ...]
    rejected: tuple[str, ...] = ()

    @property
    def completed_count(self) -> int:
        return len(self.delays)

    @property
    def average_days(self) -> float | None:
        if not self.delays:
            return None
        return sum(d.days for d in self.delays) / len(self.delays)


@dataclass(frozen=True)
class VendorStats(Row):
    """Per-vendor share of CVEs published without an initial score."""

    vendor: str
    total: int
    initially_unscored: int
    pct_unscored: float

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise ValidationError(f"vendor {self.vendor!r} has non-positive total")
        if self.initially_unscored / self.total != self.pct_unscored:
            raise ValidationError(f"vendor {self.vendor!r}: inconsistent pct_unscored")


@dataclass(frozen=True)
class ScoreTableRow(Row):
    level: SeverityLevel
    initial_count: int
    initial_pct: int
    later_count: int
    later_pct: int


@dataclass(frozen=True)
class ScoreTable:
    """Severity distribution of initially scored vs later scored CVEs."""

    rows: tuple[ScoreTableRow, ...]
    initial_total: int
    later_total: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "initial_total": self.initial_total,
            "later_total": self.later_total,
            "rows": [row.to_dict() for row in self.rows],
        }


@dataclass(frozen=True)
class RankTestResult(Row):
    """Wilcoxon-Mann-Whitney outcome; u_statistic belongs to sample a."""

    u_statistic: float
    p_value: float
    method: RankMethod
    n1: int
    n2: int

    def __post_init__(self) -> None:
        if not 0 <= self.u_statistic <= self.n1 * self.n2:
            raise ValidationError(f"U={self.u_statistic} outside [0, {self.n1 * self.n2}]")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValidationError(f"p-value {self.p_value} outside [0, 1]")


@dataclass(slots=True)
class _History:
    """What the reports need of one CVE's appearances after its first."""

    first: CveRecord
    changed: bool = False  # some later record differs from the first
    scored_on: date | None = None  # first later day with a score
    score: Decimal | None = None  # the score of that day
    cpe_on: date | None = None  # first later day with a CPE list
    added: dict[str, CpeUri] | None = None  # later CPEs the first lacks, by raw string


def _fold(snapshots: Iterable[Snapshot]) -> dict[str, _History]:
    """Per-CVE history, folded one snapshot at a time in date order.

    The first day's records are first sightings. Each later day adds only
    its diff against the day before: a record kept unchanged adds nothing
    its earlier appearance did not, and a CVE back after a gap is new in
    the diff and continues its history.
    """
    snapshots = iter(snapshots)
    older = next(snapshots, None)
    histories = {} if older is None else {i: _History(r) for i, r in older.records.items()}
    for newer in snapshots:
        diff = ingest.diff_snapshots(older, newer)
        day = newer.date
        for record in diff.new_cves + diff.updated_cves:
            history = histories.get(record.id)
            if history is None:
                histories[record.id] = _History(record)
                continue
            first = history.first
            if not history.changed and record != first:
                history.changed = True
            if history.scored_on is None and record.cvss3_base is not None:
                history.scored_on, history.score = day, record.cvss3_base
            if record.cpe_list and history.cpe_on is None:
                history.cpe_on = day
            if record.cpe_list != first.cpe_list:
                first_raws = {uri.raw for uri in first.cpe_list}
                for uri in record.cpe_list:
                    if uri.raw not in first_raws:
                        if history.added is None:
                            history.added = {}
                        history.added.setdefault(uri.raw, uri)
        older = newer
    return histories


def daily_completeness(snapshots: Iterable[Snapshot]) -> list[DailyCompleteness]:
    """Missing-field counts over each day's newly appearing CVEs.

    The first snapshot only serves as the baseline; output starts with the
    second day.
    """
    results = []
    for previous, current in pairwise(snapshots):
        new = ingest.diff_snapshots(previous, current).new_cves
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


def completion_delays(snapshots: Iterable[Snapshot], field: CompletionField) -> DelayReport:
    """Track how long initially-incomplete CVEs wait for the given field.

    For each CVE first seen without the field: the first later snapshot
    carrying it yields a delay measured from the record's published date,
    or a reject when that snapshot is dated before the published date;
    CVEs that change without gaining the field, or never change at all,
    are tallied separately.
    """
    delays: list[CompletionDelay] = []
    updated_no_field: list[str] = []
    never: list[str] = []
    rejected: list[str] = []
    for cve_id, history in sorted(_fold(snapshots).items()):
        first = history.first
        if field is CompletionField.CVSS:
            had_field, completed_at = first.cvss3_base is not None, history.scored_on
        else:
            had_field, completed_at = bool(first.cpe_list), history.cpe_on
        if had_field:
            continue
        if completed_at is None:
            (updated_no_field if history.changed else never).append(cve_id)
        elif completed_at < first.published:
            rejected.append(cve_id)
        else:
            delays.append(
                CompletionDelay(
                    cve_id=cve_id,
                    published=first.published,
                    completed=completed_at,
                    field=field,
                    days=(completed_at - first.published).days,
                )
            )
    return DelayReport(
        field=field,
        delays=tuple(delays),
        updated_without_field=tuple(updated_no_field),
        never_updated=tuple(never),
        rejected=tuple(rejected),
    )


def assemble_vendor_corpus(snapshots: Iterable[Snapshot]) -> list[CveRecord]:
    """Each CVE as first captured, with its CPE list widened by later updates.

    The score reflects the initial report while the CPE list is the union
    over the whole history, which is exactly the shape vendor_completeness
    wants. CVEs that never carry a CPE come back with an empty list.
    """
    corpus = []
    for _, history in sorted(_fold(snapshots).items()):
        record = history.first
        if history.added:
            record = replace(record, cpe_list=record.cpe_list + tuple(history.added.values()))
        corpus.append(record)
    return corpus


def vendor_completeness(
    records: Iterable[CveRecord], stop_words: StopWordList | None = None
) -> list[VendorStats]:
    """Per-vendor totals and initially-unscored percentages.

    A CVE naming k distinct vendors counts toward all k. Every record must
    yield at least one standardized vendor name, otherwise DomainError.
    Output is sorted worst-first (pct_unscored descending, vendor name as
    tiebreak).
    """
    totals: dict[str, int] = {}
    unscored: dict[str, int] = {}
    for record in records:
        vendors = {standardize(uri.vendor, stop_words) for uri in record.cpe_list}
        vendors.discard("")
        if not vendors:
            raise DomainError(f"{record.id}: no usable CPE vendor")
        for vendor in vendors:
            totals[vendor] = totals.get(vendor, 0) + 1
            if record.cvss3_base is None:
                unscored[vendor] = unscored.get(vendor, 0) + 1
    stats = [
        VendorStats(
            vendor=vendor,
            total=totals[vendor],
            initially_unscored=unscored.get(vendor, 0),
            pct_unscored=unscored.get(vendor, 0) / totals[vendor],
        )
        for vendor in totals
    ]
    stats.sort(key=lambda s: (-s.pct_unscored, s.vendor))
    return stats


def split_scores(snapshots: Iterable[Snapshot]) -> tuple[list[Decimal], list[Decimal]]:
    """Scores of initially scored CVEs vs the first score of late-scored ones."""
    initial: list[Decimal] = []
    later: list[Decimal] = []
    for _, history in sorted(_fold(snapshots).items()):
        if history.first.cvss3_base is not None:
            initial.append(history.first.cvss3_base)
        elif history.score is not None:
            later.append(history.score)
    return initial, later


def _pct_half_up(count: int, total: int) -> int:
    if total == 0:
        return 0
    share = Decimal(count) * 100 / Decimal(total)
    return int(share.quantize(Decimal("1"), rounding=ROUND_HALF_UP))


_TABLE_LEVELS = (
    SeverityLevel.CRITICAL,
    SeverityLevel.HIGH,
    SeverityLevel.MEDIUM,
    SeverityLevel.LOW,
)


def score_table(
    initially_scored: Sequence[Decimal | float],
    later_scored: Sequence[Decimal | float],
) -> ScoreTable:
    """Cross-tabulate severities of the two scored populations.

    Only strictly positive scores are admitted (a zero or absent score has
    no row here). Percentages are of the column total, rounded half-up to
    whole percent.
    """
    def tally(scores: Sequence[Decimal | float]) -> dict[SeverityLevel, int]:
        counts = {level: 0 for level in _TABLE_LEVELS}
        for score in scores:
            if score is None or score == 0:
                raise DomainError("score table covers scored CVEs only; got 0.0 or absent")
            counts[severity_bucket(score)] += 1
        return counts

    initial_counts = tally(initially_scored)
    later_counts = tally(later_scored)
    initial_total = len(initially_scored)
    later_total = len(later_scored)
    rows = tuple(
        ScoreTableRow(
            level=level,
            initial_count=initial_counts[level],
            initial_pct=_pct_half_up(initial_counts[level], initial_total),
            later_count=later_counts[level],
            later_pct=_pct_half_up(later_counts[level], later_total),
        )
        for level in _TABLE_LEVELS
    )
    return ScoreTable(rows=rows, initial_total=initial_total, later_total=later_total)


def _midranks(pooled: Sequence[float]) -> tuple[list[float], list[int]]:
    """Ranks (ties averaged) in input order, plus the tie-group sizes."""
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    tie_sizes = []
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        midrank = (i + j + 2) / 2  # ranks are 1-based
        for k in range(i, j + 1):
            ranks[order[k]] = midrank
        tie_sizes.append(j - i + 1)
        i = j + 1
    return ranks, tie_sizes


# Largest n1 * n2 that the exact method accepts; beyond it the normal
# approximation is the only choice. The count takes min(n1, n2) passes over
# up to n1 * n2 / 2 + 1 integers: at the bound, about 1 s for 200 + 200
# untied scores on one core of a 2-vCPU machine.
EXACT_MAX_CELLS = 40_000


def exact_u_cdf_count(n1: int, n2: int, u_max: int) -> int:
    """Count of assignments with U <= u_max under the null, untied case.

    The counts of U are the coefficients of the Gaussian binomial
    [n1 + n2 choose n1]; it is built one factor (1 - q^(n+i)) / (1 - q^i)
    at a time (Harding 1984, Applied Statistics 33(1):1-6), truncated
    after q^u_max because neither step reads a higher coefficient.
    """
    m, n = sorted((n1, n2))
    counts = [1] + [0] * u_max
    for i in range(1, m + 1):
        for u in range(u_max, n + i - 1, -1):  # times (1 - q^(n+i))
            counts[u] -= counts[u - n - i]
        for u in range(i, u_max + 1):  # divided by (1 - q^i)
            counts[u] += counts[u - i]
    return sum(counts)


def mann_whitney_u(
    a: Sequence[float],
    b: Sequence[float],
    method: str = "auto",
) -> RankTestResult:
    """Two-sided Wilcoxon-Mann-Whitney test.

    With method="auto" the exact null distribution is enumerated whenever
    the samples are untied and n1*n2 <= 400; otherwise the normal
    approximation with tie-corrected variance and continuity correction is
    used. Pass "exact" or "normal" to force a branch; "exact" raises
    DomainError above n1*n2 = EXACT_MAX_CELLS. Identical constant samples
    have zero variance and return p = 1.0. A NaN has no rank, so it raises
    DomainError; infinite values rank like any other.
    """
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    if not a or not b:
        raise DomainError("both samples must be non-empty")
    if any(math.isnan(x) for x in a + b):
        raise DomainError("samples must not contain NaN")
    if method not in ("auto", "exact", "normal"):
        raise DomainError(f"unknown method {method!r}")

    n1, n2 = len(a), len(b)
    ranks, tie_sizes = _midranks(a + b)
    r1 = sum(ranks[:n1])
    u1 = r1 - n1 * (n1 + 1) / 2
    u2 = n1 * n2 - u1
    has_ties = any(size > 1 for size in tie_sizes)

    if method == "auto":
        method = "exact" if not has_ties and n1 * n2 <= 400 else "normal"

    if method == "exact":
        if has_ties:
            raise DomainError("exact method requires untied samples")
        if n1 * n2 > EXACT_MAX_CELLS:
            raise DomainError(
                f"exact method is limited to n1*n2 <= {EXACT_MAX_CELLS}, got {n1}*{n2}; "
                "use the normal approximation"
            )
        total = comb(n1 + n2, n1)
        below = exact_u_cdf_count(n1, n2, int(min(u1, u2)))
        p = min(1.0, 2 * below / total)
        return RankTestResult(
            u_statistic=float(u1), p_value=p, method=RankMethod.EXACT, n1=n1, n2=n2
        )

    n = n1 + n2
    mean = n1 * n2 / 2
    tie_term = sum(size**3 - size for size in tie_sizes)
    variance = n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        p = 1.0
    else:
        z = max(0.0, abs(u1 - mean) - 0.5) / math.sqrt(variance)
        p = math.erfc(z / math.sqrt(2))
    return RankTestResult(
        u_statistic=float(u1), p_value=min(1.0, p), method=RankMethod.NORMAL_APPROX, n1=n1, n2=n2
    )
