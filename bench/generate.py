"""Seeded synthetic inputs in NVD JSON 1.1 shape, and the plan behind them.

Every input is a pure function of (workload, seed): one ``random.Random``
seeded with a string drives the whole generator, and nothing iterates a
set or depends on ``PYTHONHASHSEED``. The plan (which CVE mentions which
product, which field arrives on which day, which feed items are broken)
is kept beside the files so that the checks in ``reference.py`` can work
from the plan rather than from the program's output.

Names are built so that their standardized form is known without running
the program's normalizer: vendor and product words are made-up
consonant-vowel-consonant words (never a stop word, function word, number
or date), plus a few common English words used as product names, which
is what the false-positive filter exists for, and a few two-letter names
that fall below the default ``--min-name-len`` of 3. Product names have at
most 4 tokens: a 5-token name can never match under the default
``--max-phrase-len 4`` and the program gives no warning about it.
"""

from __future__ import annotations

import gzip
import json
import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

START = date(2021, 6, 1)
FILTER_YEAR = "2020"

_CONSONANTS = "bdgklmnprstvz"
_VOWELS = "aeiou"
SHORT_NAMES = ("zk", "vx", "kz", "xq")
COMMON_PRODUCT_WORDS = ("console", "gateway", "portal", "monitor", "agent", "viewer", "studio")

# Closed-class words the summaries use. The program drops closed-class
# words before matching, so a name interrupted by one still matches.
CLOSED_CLASS = (
    "a", "an", "the", "in", "of", "to", "via", "and", "with", "by", "for", "before", "when",
    "which", "that", "could", "may", "or", "through", "on", "from", "is", "are", "was", "be",
    "been", "has", "have", "not", "all", "some", "other",
)
_CONTENT = (
    "vulnerability", "allows", "remote", "attackers", "execute", "arbitrary", "code", "crafted",
    "request", "overflow", "buffer", "memory", "corruption", "denial", "service", "cross", "site",
    "scripting", "injection", "sql", "privilege", "escalation", "authentication", "bypass", "users",
    "component", "parameter", "function", "file", "upload", "path", "traversal", "information",
    "disclosure", "sensitive", "attacker", "local", "improper", "validation", "input", "handling",
    "versions", "prior", "issue", "discovered", "affected", "unspecified", "vectors", "leading",
    "exposure", "certain", "configurations", "web", "interface", "server", "client", "module",
    "plugin", "firmware", "kernel", "api", "endpoint", "header", "cookie", "session", "token",
    "user", "admin", "panel", "unauthenticated", "heap", "stack", "null", "pointer", "dereference",
    "race", "condition", "integer", "xml", "external", "entity", "forgery", "open", "redirect",
)
_FILLER = _CONTENT * 3 + CLOSED_CLASS

# Delays (days) after which a missing field arrives; None means never.
_LATE_DAYS = (1, 1, 2, 2, 3, 4, 6, 9, None, None, None)

REJECT_KINDS = ("no_id", "bad_published", "not_object", "score_out_of_range", "truncated_cpe")
REJECTS_PER_FEED = 2
CPE_LESS_SHARE = 0.4  # of new CVEs, as in NVD


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload's inputs."""

    products: int
    inventory_keys: int
    base_cves: int
    days: int
    new_per_day: int
    updates_per_day: int
    filter_corpus: int


# Two figures follow NVD: about 40% of new CVEs without CPEs and a few
# hundred new CVEs a day. The rest are chosen so that one round of a
# workload takes seconds; their ratios are not NVD's (see README.md).
SCALES = {
    "daily": Scale(
        products=3000, inventory_keys=1200, base_cves=6000, days=2, new_per_day=300,
        updates_per_day=400, filter_corpus=2000,
    ),
    "full-match": Scale(
        products=4000, inventory_keys=2500, base_cves=3000, days=1, new_per_day=0,
        updates_per_day=0, filter_corpus=2000,
    ),
    "history": Scale(
        products=1500, inventory_keys=0, base_cves=1500, days=10, new_per_day=150,
        updates_per_day=150, filter_corpus=0,
    ),
}


@dataclass(frozen=True)
class Product:
    vendor: str  # standardized vendor name, tokens joined by spaces
    name: str  # standardized product name
    versions: tuple[str, ...]

    @property
    def key(self) -> tuple[str, str]:
        return (self.vendor, self.name)

    def cpe(self, version: str) -> str:
        vendor = self.vendor.replace(" ", "_")
        name = self.name.replace(" ", "_")
        return f"cpe:2.3:a:{vendor}:{name}:{version}:*:*:*:*:*:*:*"


def day_date(day: int) -> date:
    return START + timedelta(days=day)


@dataclass
class CvePlan:
    """One CVE over the whole history: what it says and when each field lands.

    A field whose day is at most ``first_day`` is there from the start; a
    day of None means the field never arrives.
    """

    id: str
    first_day: int
    published: date
    initial_modified: date
    summary: str
    score: int  # CVSS v3 base score in tenths, once it has arrived
    cvss_day: int | None
    cpes_initial: tuple[tuple[Product, str], ...]
    cpes_late: tuple[tuple[Product, str], ...]
    cpe_day: int | None
    refs: tuple[str, ...]
    refs_day: int | None
    touch_days: list[int] = field(default_factory=list)

    def has_score(self, day: int) -> bool:
        return self.cvss_day is not None and self.cvss_day <= day

    def cpes(self, day: int) -> tuple[tuple[Product, str], ...]:
        if self.cpe_day is not None and self.cpe_day <= day:
            return self.cpes_initial + self.cpes_late
        return self.cpes_initial

    def has_refs(self, day: int) -> bool:
        return self.refs_day is not None and self.refs_day <= day

    def event_days(self) -> list[int]:
        late = [d for d in (self.cvss_day, self.cpe_day, self.refs_day) if d is not None]
        return [d for d in late + self.touch_days if d > self.first_day]

    def last_modified(self, day: int) -> date:
        events = [d for d in self.event_days() if d <= day]
        return day_date(max(events)) if events else self.initial_modified

    def feed_item(self, day: int) -> dict:
        cpes = self.cpes(day)
        item: dict = {
            "cve": {
                "data_type": "CVE",
                "data_format": "MITRE",
                "data_version": "4.0",
                "CVE_data_meta": {"ID": self.id, "ASSIGNER": "cve@mitre.org"},
                "problemtype": {"problemtype_data": [{"description": []}]},
                "references": {
                    "reference_data": [
                        {"url": url, "name": url, "refsource": "MISC", "tags": []}
                        for url in (self.refs if self.has_refs(day) else ())
                    ]
                },
                "description": {"description_data": [{"lang": "en", "value": self.summary}]},
            },
            "configurations": {
                "CVE_data_version": "4.0",
                "nodes": [
                    {
                        "operator": "OR",
                        "children": [],
                        "cpe_match": [
                            {"vulnerable": True, "cpe23Uri": product.cpe(version), "cpe_name": []}
                            for product, version in cpes
                        ],
                    }
                ]
                if cpes
                else [],
            },
            "impact": {},
            "publishedDate": f"{self.published.isoformat()}T15:15Z",
            "lastModifiedDate": f"{self.last_modified(day).isoformat()}T18:02Z",
        }
        if self.has_score(day):
            item["impact"] = {
                "baseMetricV3": {
                    "cvssV3": {"version": "3.1", "baseScore": self.score / 10},
                    "exploitabilityScore": 3.9,
                    "impactScore": 3.6,
                }
            }
        return item


@dataclass
class Inputs:
    """Files written for one workload, and the plan they were made from."""

    scale: Scale
    products: list[Product]
    cves: list[CvePlan]
    feeds: list[list[Path]]  # per day
    feed_rejects: list[dict[str, int]]  # per day: feed file name -> planted rejects
    inventory: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    inventory_rejects: int = 0
    inventory_path: Path | None = None
    dictionary_path: Path | None = None
    filter_feed: Path | None = None
    filter_corpus: list[CvePlan] = field(default_factory=list)

    @property
    def dates(self) -> list[date]:
        return [day_date(d) for d in range(self.scale.days)]


class _Words:
    """Distinct made-up words of two consonant-vowel-consonant syllables."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def take(self) -> str:
        while True:
            word = "".join(
                self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS) + self.rng.choice(_CONSONANTS)
                for _ in range(2)
            )
            if word not in self.used:
                self.used.add(word)
                return word


def _versions(rng: random.Random) -> tuple[str, ...]:
    count = rng.choice((1, 1, 2, 3))
    return tuple(
        f"{rng.randint(1, 12)}.{rng.randint(0, 9)}.{rng.randint(0, 30)}" for _ in range(count)
    )


def _universe(rng: random.Random, count: int) -> list[Product]:
    words = _Words(rng)
    vendors = [
        " ".join(words.take() for _ in range(rng.choice((1, 1, 1, 2))))
        for _ in range(max(8, count // 4))
    ]
    products: list[Product] = []
    keys: set[tuple[str, str]] = set()

    def add(vendor: str, name: str) -> None:
        if (vendor, name) not in keys:
            keys.add((vendor, name))
            products.append(Product(vendor, name, _versions(rng)))

    for word in COMMON_PRODUCT_WORDS:
        for vendor in rng.sample(vendors, 2):
            add(vendor, word)
    for word in SHORT_NAMES:
        add(rng.choice(vendors), word)
    while len(products) < count:
        length = rng.choices((1, 2, 3, 4), weights=(50, 30, 15, 5))[0]
        tokens = [words.take() for _ in range(length)]
        if len(tokens) > 1 and products and rng.random() < 0.15:
            # shares its first word with an existing name, as product lines do
            tokens[0] = rng.choice(products).name.split()[0]
        add(rng.choice(vendors), " ".join(tokens))
    return products


def _display(name: str, rng: random.Random) -> str:
    tokens = name.split()
    style = rng.random()
    if style < 0.5:
        return " ".join(t.capitalize() for t in tokens)
    if style < 0.7 and len(tokens) > 1:
        return "-".join(t.capitalize() for t in tokens)
    if style < 0.85:
        return name.upper()
    return name


def _mention(product: Product, with_vendor: bool, rng: random.Random) -> str:
    name = _display(product.name, rng)
    if not with_vendor:
        return name
    vendor = _display(product.vendor, rng)
    return f"{vendor} {name}" if rng.random() < 0.6 else f"{name} by {vendor}"


def _summary(rng: random.Random, mentions: list[str]) -> str:
    length = rng.choice((8, 12, 16, 20, 25, 30, 40, 55))
    words = [rng.choice(_FILLER) for _ in range(length)]
    if rng.random() < 0.15:
        words.insert(rng.randrange(len(words) + 1), rng.choice(COMMON_PRODUCT_WORDS))
    if rng.random() < 0.4:
        words.insert(rng.randrange(len(words) + 1), f"{rng.randint(1, 9)}.{rng.randint(0, 9)}")
    for mention in mentions:
        words.insert(rng.randrange(len(words) + 1), mention)
    for i in range(len(words) - 1):
        if rng.random() < 0.06:
            words[i] += ","
    text = " ".join(words)
    return text[0].upper() + text[1:] + "."


class _Picker:
    """Zipf-like choice of products, so some CPE strings repeat often."""

    def __init__(self, rng: random.Random, products: list[Product]):
        self.rng = rng
        self.order = list(products)
        rng.shuffle(self.order)
        total = 0.0
        self.cum = []
        for rank in range(len(self.order)):
            total += 1.0 / (rank + 1) ** 0.8
            self.cum.append(total)

    def pick(self) -> Product:
        return self.rng.choices(self.order, cum_weights=self.cum)[0]

    def cpe(self) -> tuple[Product, str]:
        product = self.pick()
        return product, self.rng.choice(product.versions)


def _score(rng: random.Random) -> int:
    if rng.random() < 0.02:
        return 0
    return rng.choices(
        (rng.randint(10, 39), rng.randint(40, 69), rng.randint(70, 89), rng.randint(90, 100)),
        weights=(5, 40, 40, 15),
    )[0]


def _late(rng: random.Random, first_day: int) -> int | None:
    delay = rng.choice(_LATE_DAYS)
    return None if delay is None else first_day + delay


def _cve(
    rng: random.Random,
    cve_id: str,
    first_day: int,
    published: date,
    picker: _Picker,
    targets: list[Product],
    cpe_less: bool,
    has_score: float,
    has_refs: float,
) -> CvePlan:
    """One CVE and its summary; ``targets`` are the products the filter catches."""
    mentions: list[str] = []
    cpes_initial: tuple[tuple[Product, str], ...] = ()
    if cpe_less:
        roll = rng.random()
        if roll < 0.55:
            mentions.append(_mention(picker.pick(), rng.random() < 0.5, rng))
        elif roll < 0.65:
            mentions.append(_mention(picker.pick(), False, rng))
            mentions.append(_mention(picker.pick(), rng.random() < 0.5, rng))
        elif roll < 0.8 and targets:
            mentions.append(_mention(rng.choice(targets), rng.random() < 0.35, rng))
        elif roll < 0.85:
            short = [p for p in picker.order if p.name in SHORT_NAMES]
            mentions.append(_mention(rng.choice(short), rng.random() < 0.5, rng))
        cpes_late = tuple(picker.cpe() for _ in range(rng.choice((1, 1, 2))))
        cpe_day = _late(rng, first_day)
    else:
        cpes_initial = tuple(picker.cpe() for _ in range(rng.choice((1, 1, 1, 2, 3))))
        if rng.random() < 0.8:
            mentions.append(_mention(cpes_initial[0][0], rng.random() < 0.4, rng))
        if targets and rng.random() < 0.05:
            mentions.append(_mention(rng.choice(targets), rng.random() < 0.3, rng))
        cpes_late = (picker.cpe(),) if rng.random() < 0.1 else ()
        cpe_day = _late(rng, first_day) if cpes_late else None
    score_day = first_day if rng.random() < has_score else _late(rng, first_day)
    refs_day = first_day if rng.random() < has_refs else _late(rng, first_day)
    modified = published + timedelta(days=rng.randint(0, 3))
    return CvePlan(
        id=cve_id,
        first_day=first_day,
        published=published,
        initial_modified=min(modified, day_date(first_day)),
        summary=_summary(rng, mentions),
        score=_score(rng),
        cvss_day=score_day,
        cpes_initial=cpes_initial,
        cpes_late=cpes_late,
        cpe_day=cpe_day,
        refs=tuple(
            f"https://example.{rng.choice(('com', 'org', 'net'))}/advisory/{cve_id.lower()}/{i}"
            for i in range(rng.choice((1, 1, 2, 3)))
        ),
        refs_day=refs_day,
    )


def _exact_share(rng: random.Random, count: int, share: float) -> list[bool]:
    """``count`` flags of which exactly ``round(count * share)`` are set, shuffled."""
    chosen = round(count * share)
    flags = [True] * chosen + [False] * (count - chosen)
    rng.shuffle(flags)
    return flags


def _reject_item(kind: str, number: int) -> object:
    cve_id = f"CVE-2000-{number:05d}"
    if kind == "not_object":
        return f"{cve_id} withdrawn"
    item = {
        "cve": {
            "CVE_data_meta": {"ID": cve_id},
            "description": {"description_data": [{"lang": "en", "value": "Broken entry."}]},
            "references": {"reference_data": []},
        },
        "configurations": {"CVE_data_version": "4.0", "nodes": []},
        "impact": {},
        "publishedDate": "2021-05-01T10:00Z",
        "lastModifiedDate": "2021-05-02T10:00Z",
    }
    if kind == "no_id":
        item["cve"]["CVE_data_meta"] = {}
    elif kind == "bad_published":
        item["publishedDate"] = "not a date"
    elif kind == "score_out_of_range":
        item["impact"] = {"baseMetricV3": {"cvssV3": {"baseScore": 11.5}}}
    elif kind == "truncated_cpe":
        item["configurations"]["nodes"] = [
            {"operator": "OR", "cpe_match": [{"vulnerable": True, "cpe23Uri": "cpe:2.3:a:acme"}]}
        ]
    return item


def _write_feed(path: Path, items: list) -> None:
    document = {
        "CVE_data_type": "CVE",
        "CVE_data_format": "MITRE",
        "CVE_data_version": "4.0",
        "CVE_data_numberOfCVEs": str(len(items)),
        "CVE_data_timestamp": "2021-06-01T00:00Z",
        "CVE_Items": items,
    }
    data = json.dumps(document, separators=(",", ":")).encode("utf-8")
    path.write_bytes(gzip.compress(data, compresslevel=6, mtime=0))


def _with_rejects(rng: random.Random, items: list, count: int, counter: list[int]) -> list:
    items = list(items)
    for _ in range(count):
        counter[0] += 1
        kind = REJECT_KINDS[counter[0] % len(REJECT_KINDS)]
        items.insert(rng.randrange(len(items) + 1), _reject_item(kind, counter[0]))
    return items


def _inventory(
    rng: random.Random, products: list[Product], keys: int, path: Path
) -> tuple[dict[tuple[str, str], list[str]], int]:
    chosen = [p for p in products if p.name in COMMON_PRODUCT_WORDS or p.name in SHORT_NAMES]
    rest = [p for p in products if p not in chosen]
    chosen += rng.sample(rest, keys - len(chosen))
    rng.shuffle(chosen)
    rows = ["asset_id,product_name,vendor_name,version,cpe23"]
    inventory: dict[tuple[str, str], list[str]] = {}
    number = 0
    for product in chosen:
        for _ in range(rng.choice((1, 1, 2, 3))):
            number += 1
            asset_id = f"AST-{number:06d}"
            version = rng.choice(product.versions)
            inventory.setdefault(product.key, []).append(asset_id)
            if rng.random() < 0.2:
                rows.append(f"{asset_id},anything,ignored,{version},{product.cpe(version)}")
                continue
            raw_name = " ".join(t.capitalize() for t in product.name.split())
            raw_name = rng.choice(
                (raw_name, f"{raw_name} version {version}", f"{raw_name} (x64)",
                 f"{raw_name} Beta", product.name.replace(" ", "-"), raw_name.upper())
            )
            raw_vendor = product.vendor.title() + rng.choice(("", " Inc.", " Ltd", " Corporation", " GmbH"))
            rows.append(f'{asset_id},"{raw_name}","{raw_vendor}",{version},')
    # rows whose product name standardizes to nothing are rejected, not fatal
    rejects = 2
    for _ in range(rejects):
        number += 1
        rows.insert(rng.randrange(2, len(rows) + 1), f'AST-{number:06d},"Version 2.0 (beta)",Acme,2.0,')
    for key in inventory:
        inventory[key].sort()
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return inventory, rejects


def _dictionary(products: list[Product], path: Path) -> None:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<cpe-list xmlns="http://cpe.mitre.org/dictionary/2.0" '
        'xmlns:cpe-23="http://scap.nist.gov/schema/cpe-extension/2.3">',
    ]
    for product in products:
        for version in product.versions:
            title = f"{product.vendor.title()} {product.name.title()} {version}"
            lines.append(
                f'  <cpe-item name="cpe:/a:{product.vendor}:{product.name}:{version}">'
                f'<title xml:lang="en-US">{title}</title>'
                f'<cpe-23:cpe23-item name="{product.cpe(version)}"/></cpe-item>'
            )
    lines.append("</cpe-list>")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(workload: str, seed: int, out: Path) -> Inputs:
    """Write the workload's inputs under ``out`` and return them with their plan."""
    scale = SCALES[workload]
    rng = random.Random(f"cvesentinel-bench:{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    products = _universe(rng, scale.products)
    picker = _Picker(rng, products)
    common = [p for p in products if p.name in COMMON_PRODUCT_WORDS]
    targets = common + rng.sample(products, max(1, len(products) // 40))

    cves: list[CvePlan] = []
    number = 10000
    for cpe_less in _exact_share(rng, scale.base_cves, CPE_LESS_SHARE):
        number += rng.randint(1, 3)
        published = START - timedelta(days=rng.randint(1, 700))
        cves.append(
            _cve(rng, f"CVE-{published.year}-{number}", 0, published, picker, targets,
                 cpe_less, has_score=0.9, has_refs=0.95)
        )
    for day in range(1, scale.days):
        for existing in rng.sample(range(len(cves)), scale.updates_per_day):
            cves[existing].touch_days.append(day)
        for cpe_less in _exact_share(rng, scale.new_per_day, CPE_LESS_SHARE):
            number += rng.randint(1, 3)
            published = day_date(day) - timedelta(days=rng.choice((0, 0, 0, 1, 2)))
            cves.append(
                _cve(rng, f"CVE-{published.year}-{number}", day, published, picker, targets,
                     cpe_less, has_score=0.55, has_refs=0.8)
            )
    cves.sort(key=lambda c: c.id)

    inputs = Inputs(
        scale=scale, products=products, cves=cves, feeds=[], feed_rejects=[],
    )
    counter = [0]
    for day in range(scale.days):
        today = day_date(day)
        visible = [c for c in cves if c.first_day <= day]
        split = {
            f"nvdcve-1.1-{today.isoformat()}-archive.json.gz": [c for c in visible if c.published < START],
            f"nvdcve-1.1-{today.isoformat()}-recent.json.gz": [c for c in visible if c.published >= START],
        }
        paths, rejects = [], {}
        for name, group in split.items():
            if not group:
                continue
            items = _with_rejects(
                rng, [c.feed_item(day) for c in group], REJECTS_PER_FEED, counter
            )
            _write_feed(out / name, items)
            paths.append(out / name)
            rejects[name] = REJECTS_PER_FEED
        inputs.feeds.append(paths)
        inputs.feed_rejects.append(rejects)

    if scale.inventory_keys:
        inputs.inventory_path = out / "inventory.csv"
        inputs.inventory, inputs.inventory_rejects = _inventory(
            rng, products, scale.inventory_keys, inputs.inventory_path
        )
        inputs.dictionary_path = out / "official-cpe-dictionary_v2.3.xml"
        _dictionary(products, inputs.dictionary_path)

    if scale.filter_corpus:
        corpus = []
        number = 40000
        # a few labeled CVEs lack CPEs; build-filter excludes them
        for cpe_less in _exact_share(rng, scale.filter_corpus, 0.05):
            number += rng.randint(1, 3)
            published = date(int(FILTER_YEAR), 1, 1) + timedelta(days=rng.randint(0, 365))
            corpus.append(
                _cve(rng, f"CVE-{FILTER_YEAR}-{number}", 0, published, picker, targets,
                     cpe_less, has_score=0.9, has_refs=0.9)
            )
        # the labeled year mentions every filter target in some unrelated CVE
        for target in targets:
            plan = rng.choice([c for c in corpus if c.cpes_initial])
            plan.summary = _summary(rng, [_mention(target, False, rng)] + [plan.summary])
        inputs.filter_corpus = corpus
        inputs.filter_feed = out / f"nvdcve-1.1-{FILTER_YEAR}.json.gz"
        _write_feed(
            inputs.filter_feed,
            _with_rejects(rng, [c.feed_item(0) for c in corpus], REJECTS_PER_FEED, counter),
        )
    return inputs
