"""Expected outputs computed from the generator's plan, apart from the program.

Summary matching is brute force in the manner of ``tests/oracles.py``:
containment is a substring search on token boundaries of the summary's
space-joined tokens, never a set of n-grams. Names come from the plan, so
the program's normalizer is not consulted. The documented rules applied
on top are the short-name cutoff (``--min-name-len`` 3), the
false-positive filter with its vendor co-occurrence override, CPE
precedence over the summary, and the ticket order (CRITICAL, UNSCORED,
HIGH, MEDIUM, LOW, NONE, then vendor and name).

Each ``check_*`` function raises ``CheckFailed`` naming the first
difference.
"""

from __future__ import annotations

import json
import re

from generate import CLOSED_CLASS, FILTER_YEAR, CvePlan, Inputs, day_date

MIN_NAME_LEN = 3
_SPLIT_RE = re.compile(r"[\s,;:/\\_-]+")
_EDGE_RE = re.compile(r"^[^0-9a-z]+|[^0-9a-z]+$")
_DROPPED = frozenset(CLOSED_CLASS)
_TICKET_ORDER = ("CRITICAL", "UNSCORED", "HIGH", "MEDIUM", "LOW", "NONE")


class CheckFailed(AssertionError):
    pass


def _expect(name: str, got: object, want: object) -> None:
    """Raise CheckFailed at the first place where ``got`` differs from ``want``."""
    if got == want:
        return
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            raise CheckFailed(f"{name}: {len(got)} entries, expected {len(want)}")
        i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        _expect(f"{name}[{i}]", got[i], want[i])
    if isinstance(got, dict) and isinstance(want, dict):
        key = next(k for k in sorted(set(got) | set(want)) if k not in got or k not in want
                   or got[k] != want[k])
        if key in got and key in want:
            _expect(f"{name}.{key}", got[key], want[key])
        raise CheckFailed(f"{name}.{key}: got {got.get(key)!r}, expected {want.get(key)!r}")
    raise CheckFailed(f"{name}: got {got!r}, expected {want!r}")


def _text(summary: str) -> tuple[str, set[str]]:
    """Space-delimited token string of a summary, and its token set."""
    tokens = []
    for piece in _SPLIT_RE.split(summary.lower()):
        token = _EDGE_RE.sub("", piece)
        if token and token not in _DROPPED:
            tokens.append(token)
    return " " + " ".join(tokens) + " ", set(tokens)


def _contains(text: str, name: str) -> bool:
    return f" {name} " in text


def _by_first_token(names) -> dict[str, list]:
    index: dict[str, list] = {}
    for item in names:
        name = item[1] if isinstance(item, tuple) else item
        index.setdefault(name.split()[0], []).append(item)
    return index


def _found(text: str, tokens: set[str], index: dict[str, list], name_of) -> list:
    return [
        item
        for token in sorted(tokens)
        for item in index.get(token, ())
        if _contains(text, name_of(item))
    ]


def severity(tenths: int | None) -> str:
    if tenths is None:
        return "UNSCORED"
    if tenths == 0:
        return "NONE"
    if tenths < 40:
        return "LOW"
    if tenths < 70:
        return "MEDIUM"
    if tenths < 90:
        return "HIGH"
    return "CRITICAL"


def ingest_output(inputs: Inputs, day: int) -> dict:
    rejects = inputs.feed_rejects[day]
    return {
        "date": day_date(day).isoformat(),
        "stored": sum(1 for c in inputs.cves if c.first_day <= day),
        "rejects": dict(rejects),
        "rejected_total": sum(rejects.values()),
    }


def filter_lists(inputs: Inputs) -> tuple[list[str], list[str]]:
    """Dictionary vendors and products that some labeled summary names without owning them."""
    vendors = sorted({p.vendor for p in inputs.products if len(p.vendor) >= MIN_NAME_LEN})
    products = sorted({p.name for p in inputs.products if len(p.name) >= MIN_NAME_LEN})
    vendor_index, product_index = _by_first_token(vendors), _by_first_token(products)
    found_vendors: set[str] = set()
    found_products: set[str] = set()
    for plan in inputs.filter_corpus:
        cpes = plan.cpes(0)
        if not cpes:
            continue
        text, tokens = _text(plan.summary)
        own_vendors = {product.vendor for product, _ in cpes}
        own_products = {product.name for product, _ in cpes}
        found_vendors.update(set(_found(text, tokens, vendor_index, str)) - own_vendors)
        found_products.update(set(_found(text, tokens, product_index, str)) - own_products)
    return sorted(found_vendors), sorted(found_products)


def build_filter_output(inputs: Inputs, vendors: list[str], products: list[str]) -> dict:
    usable = sum(1 for c in inputs.filter_corpus if c.cpes(0))
    return {
        "vendors": len(vendors),
        "products": len(products),
        "corpus_records": usable,
        "excluded_no_cpe": len(inputs.filter_corpus) - usable,
        "source_year": FILTER_YEAR,
    }


def tickets(inputs: Inputs, cves: list[CvePlan], day: int, filtered: set[str]) -> list[dict]:
    """The ticket stream for ``cves`` as they stand on ``day``."""
    inventory = inputs.inventory
    index = _by_first_token([key for key in inventory if len(key[1]) >= MIN_NAME_LEN])
    groups: dict[tuple[str, str], dict[str, str]] = {}
    for plan in cves:
        cpes = plan.cpes(day)
        if cpes:
            keys = {product.key for product, _ in cpes if product.key in inventory}
            via = "CPE"
        else:
            text, tokens = _text(plan.summary)
            keys = {
                key
                for key in _found(text, tokens, index, lambda k: k[1])
                if key[1] not in filtered
                or (len(key[0]) >= MIN_NAME_LEN and _contains(text, key[0]))
            }
            via = "SUMMARY"
        for key in keys:
            groups.setdefault(key, {})[plan.id] = via

    by_id = {plan.id: plan for plan in cves}
    out = []
    for (vendor, name), via in groups.items():
        cve_ids = sorted(via)
        scores = [by_id[i].score for i in cve_ids if by_id[i].has_score(day)]
        out.append(
            {
                "key": {"vendor": vendor, "name": name},
                "cve_ids": cve_ids,
                "matched_assets": inventory[(vendor, name)],
                "max_severity": severity(max(scores) if scores else None),
                "created": day_date(day).isoformat(),
                "via": {i: via[i] for i in cve_ids},
            }
        )
    out.sort(key=lambda t: (_TICKET_ORDER.index(t["max_severity"]), t["key"]["vendor"], t["key"]["name"]))
    return out


def _history(inputs: Inputs) -> list[CvePlan]:
    return [c for c in inputs.cves if c.first_day < inputs.scale.days]


def stats_daily(inputs: Inputs) -> dict:
    days = []
    for day in range(1, inputs.scale.days):
        new = [c for c in inputs.cves if c.first_day == day]
        days.append(
            {
                "date": day_date(day).isoformat(),
                "total_reports": len(new),
                "missing_cvss": sum(1 for c in new if not c.has_score(day)),
                "missing_cpe": sum(1 for c in new if not c.cpes(day)),
                "missing_mitigation": sum(1 for c in new if not c.has_refs(day)),
            }
        )
    out: dict = {"report": "daily", "days": days}
    if days:
        for label in ("missing_cvss", "missing_cpe", "missing_mitigation"):
            out[f"average_{label}"] = sum(d[label] for d in days) / len(days)
    return out


def stats_delays(inputs: Inputs) -> dict:
    last = inputs.scale.days - 1
    delays, updated, never = [], 0, 0
    for plan in _history(inputs):
        if plan.has_score(plan.first_day):
            continue
        if plan.cvss_day is not None and plan.cvss_day <= last:
            completed = day_date(plan.cvss_day)
            delays.append(
                {
                    "cve_id": plan.id,
                    "published": plan.published.isoformat(),
                    "completed": completed.isoformat(),
                    "field": "CVSS",
                    "days": (completed - plan.published).days,
                }
            )
        elif any(d <= last for d in plan.event_days()):
            updated += 1
        else:
            never += 1
    return {
        "report": "delays",
        "field": "CVSS",
        "completed": len(delays),
        "updated_no_field": updated,
        "never": never,
        "average_days": sum(d["days"] for d in delays) / len(delays) if delays else None,
        "delays": delays,
    }


def stats_vendors(inputs: Inputs) -> dict:
    last = inputs.scale.days - 1
    totals: dict[str, int] = {}
    unscored: dict[str, int] = {}
    skipped = 0
    for plan in _history(inputs):
        vendors = {product.vendor for product, _ in plan.cpes(last)}
        if not vendors:
            skipped += 1
        for vendor in vendors:
            totals[vendor] = totals.get(vendor, 0) + 1
            if not plan.has_score(plan.first_day):
                unscored[vendor] = unscored.get(vendor, 0) + 1
    rows = [
        {
            "vendor": vendor,
            "total": total,
            "initially_unscored": unscored.get(vendor, 0),
            "pct_unscored": unscored.get(vendor, 0) / total,
        }
        for vendor, total in totals.items()
    ]
    rows.sort(key=lambda r: (-r["pct_unscored"], r["vendor"]))
    return {"report": "vendors", "skipped_no_vendor": skipped, "vendors": rows}


def _half_up_pct(count: int, total: int) -> int:
    return (200 * count + total) // (2 * total) if total else 0


def stats_table(inputs: Inputs) -> dict:
    last = inputs.scale.days - 1
    initial, later = [], []
    for plan in _history(inputs):
        if plan.has_score(plan.first_day):
            initial.append(plan.score)
        elif plan.cvss_day is not None and plan.cvss_day <= last:
            later.append(plan.score)
    zeros = initial.count(0) + later.count(0)
    initial = [s for s in initial if s]
    later = [s for s in later if s]
    rows = []
    for level in ("CRITICAL", "HIGH", "MEDIUM", "LOW"):
        a = sum(1 for s in initial if severity(s) == level)
        b = sum(1 for s in later if severity(s) == level)
        rows.append(
            {
                "level": level,
                "initial_count": a,
                "initial_pct": _half_up_pct(a, len(initial)),
                "later_count": b,
                "later_pct": _half_up_pct(b, len(later)),
            }
        )
    return {
        "report": "table",
        "dropped_zero_scores": zeros,
        "initial_total": len(initial),
        "later_total": len(later),
        "rows": rows,
    }


# --- checks on the program's outputs ------------------------------------


def check_json(name: str, stdout: str, want: dict) -> None:
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{name}: output is not JSON ({exc})")
    _expect(name, got, want)


def check_tickets(stdout: str, want: list[dict]) -> None:
    try:
        got = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"tickets: a line is not JSON ({exc})")
    _expect("tickets", got, want)


def check_filter_files(
    vendors_text: str, products_text: str, vendors: list[str], products: list[str]
) -> None:
    header = [f"#source_year={FILTER_YEAR}"]
    _expect("filter vendors", vendors_text.splitlines(), header + vendors)
    _expect("filter products", products_text.splitlines(), header + products)


def check_rejected_rows(stderr: str, want: int) -> None:
    got = sum(1 for line in stderr.splitlines() if line.startswith("inventory row "))
    _expect("rejected inventory rows", got, want)


def new_cves(inputs: Inputs, day: int) -> list[CvePlan]:
    return [c for c in inputs.cves if c.first_day == day]


def visible_cves(inputs: Inputs, day: int) -> list[CvePlan]:
    return [c for c in inputs.cves if c.first_day <= day]
