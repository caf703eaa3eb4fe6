"""Relating CVEs to assets, with or without a CPE list.

When a CVE carries CPEs, matching is exact well-formed-name equality.
When it does not, the summary text is tokenized into candidate terms and
phrases; an asset matches when its standardized product name appears as a
contiguous phrase, subject to a short-name cutoff and a historical
false-positive filter. A product name on the filter is only believed when
the asset's vendor name co-occurs in the same summary, since a name plus
its vendor is much stronger evidence than the name alone.

Term extraction is deterministic tokenization plus closed-class word
removal; no POS tagging is involved, because the match itself is a pure
name-containment test.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from .errors import ValidationError
from .ingest import CpeDictionary
from .model import AssetRecord, CveRecord, MatchVia
from .normalize import StopWordList, standardize, tokenize, well_formed_from_cpe

DEFAULT_MAX_PHRASE_LEN = 4
DEFAULT_MIN_NAME_LEN = 3

# Closed-class English words: articles, prepositions, conjunctions,
# pronouns, auxiliaries. Product names are open-class, so dropping these
# from summaries costs nothing and shrinks the phrase sets considerably.
FUNCTION_WORDS = frozenset(
    """
    a an the and or but nor so yet if while because although than that
    whether when where this these those it its they them their he she his
    her hers we us our ours you your yours i me my mine who whom whose
    which what in on at by for with to from of into onto over under via
    through before after during between within without against about
    across along among around behind below beneath beside besides beyond
    down up off out near per since until upon toward towards is are was
    were be been being am do does did done has have had having can could
    may might must shall should will would not no all any some each
    every both few more most other such only own same as also then there
    here how why
    """.split()
)


@dataclass(frozen=True)
class SummaryTerms:
    """Candidate terms from one CVE summary plus their contiguous phrases."""

    cve_id: str
    terms: tuple[str, ...]
    phrases: frozenset[str]


@dataclass(frozen=True)
class FpFilter:
    """Names that historically appear in summaries of unrelated CVEs."""

    vendor_names: frozenset[str]
    product_names: frozenset[str]
    source_year: str = ""

    @classmethod
    def empty(cls) -> "FpFilter":
        return cls(vendor_names=frozenset(), product_names=frozenset())

    def save(self, vendors_path: str | Path, products_path: str | Path) -> None:
        for path, names in ((vendors_path, self.vendor_names), (products_path, self.product_names)):
            lines = [f"#source_year={self.source_year}"]
            lines.extend(sorted(names))
            Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, vendors_path: str | Path, products_path: str | Path) -> "FpFilter":
        def read(path: str | Path) -> tuple[frozenset[str], str]:
            names = set()
            year = ""
            for line in Path(path).read_text(encoding="utf-8").splitlines():
                line = line.strip()
                if line.startswith("#source_year="):
                    year = line.split("=", 1)[1]
                elif line and not line.startswith("#"):
                    names.add(line)
            return frozenset(names), year

        vendors, year_v = read(vendors_path)
        products, year_p = read(products_path)
        return cls(vendor_names=vendors, product_names=products, source_year=year_v or year_p)


@dataclass(frozen=True)
class MatchResult:
    """One CVE related to one (vendor, name) asset group."""

    cve_id: str
    asset_ids: tuple[str, ...]
    via: MatchVia
    matched_phrase: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "asset_ids", tuple(self.asset_ids))
        if self.via is MatchVia.CPE and self.matched_phrase is not None:
            raise ValidationError("CPE matches carry no matched phrase")


@dataclass(frozen=True)
class EvalReport:
    """Extraction quality over a labeled corpus.

    ``tp`` follows the inclusive reading (own vendor or product found);
    ``tp_strict`` additionally requires a full vendor+product pair and is
    reported alongside for transparency. A record may count toward both
    tp and fp, so tp + fp can reach but never exceed 2x total.
    """

    total: int
    tp: int
    fp: int
    fp_rate: float
    elided_names: int
    tp_strict: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "tp": self.tp,
            "fp": self.fp,
            "fp_rate": self.fp_rate,
            "elided_names": self.elided_names,
            "tp_strict": self.tp_strict,
        }


class AssetIndex:
    """Read-only asset lookup by id, by (vendor, name) key and by name.

    ``phrase_len`` is the longest name or vendor in tokens, so summary
    phrases enumerated up to it reach every name and every vendor.
    ``unreachable_names`` lists the names holding a function word: summary
    terms never contain one, so these names can never match a summary.
    """

    def __init__(self, assets: Iterable[AssetRecord]):
        self.by_id: dict[str, AssetRecord] = {}
        self.by_key: dict[tuple[str, str], list[AssetRecord]] = {}
        for asset in assets:
            if asset.asset_id in self.by_id:
                raise ValidationError(f"duplicate asset id {asset.asset_id!r}")
            self.by_id[asset.asset_id] = asset
            self.by_key.setdefault(asset.wfn.key, []).append(asset)
        self._ids = {
            key: tuple(sorted(a.asset_id for a in group)) for key, group in self.by_key.items()
        }
        self.by_name: dict[str, list[tuple[str, str]]] = {}
        for key in sorted(self.by_key):
            self.by_name.setdefault(key[1], []).append(key)
        self.phrase_len = _needed_phrase_len(part for key in self.by_key for part in key)
        self.unreachable_names = tuple(
            sorted(name for name in self.by_name if not FUNCTION_WORDS.isdisjoint(name.split()))
        )

    def ids_for(self, key: tuple[str, str]) -> tuple[str, ...]:
        return self._ids.get(key, ())

    def __len__(self) -> int:
        return len(self.by_id)


def extract_summary_terms(
    summary: str, max_phrase_len: int = DEFAULT_MAX_PHRASE_LEN, cve_id: str = ""
) -> SummaryTerms:
    """Tokenize a summary and enumerate its contiguous phrases.

    Function words are dropped before phrase enumeration, so "windows of
    microsoft" yields the bigram "windows microsoft".
    """
    if max_phrase_len < 1:
        raise ValidationError(f"max_phrase_len must be >= 1, got {max_phrase_len}")
    terms = tuple(tok for tok in tokenize(summary) if tok not in FUNCTION_WORDS)
    phrases = set()
    for n in range(1, max_phrase_len + 1):
        for i in range(len(terms) - n + 1):
            phrases.add(" ".join(terms[i : i + n]))
    return SummaryTerms(cve_id=cve_id, terms=terms, phrases=frozenset(phrases))


def _needed_phrase_len(names: Iterable[str]) -> int:
    longest = 1
    for name in names:
        if name:
            longest = max(longest, name.count(" ") + 1)
    return longest


def _dictionary_names(
    dictionary: CpeDictionary, min_name_len: int
) -> tuple[set[str], set[str], int]:
    """Dictionary vendor and product names of at least ``min_name_len``,
    and the phrase length that reaches the longest of them."""
    vendors = {v for v in dictionary.vendor_names if len(v) >= min_name_len}
    products = {p for p in dictionary.product_names if len(p) >= min_name_len}
    return vendors, products, _needed_phrase_len(vendors | products)


def _own_names(
    record: CveRecord, stop_words: StopWordList | None
) -> tuple[set[str], set[str], set[tuple[str, str]]]:
    """Standardized vendor names, product names and pairs from a record's CPEs."""
    vendors: set[str] = set()
    products: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    for uri in record.cpe_list:
        vendor = standardize(uri.vendor, stop_words)
        product = standardize(uri.product, stop_words)
        if vendor:
            vendors.add(vendor)
        if product:
            products.add(product)
            pairs.add((vendor, product))
    return vendors, products, pairs


def build_fp_filter(
    corpus: Iterable[CveRecord],
    dictionary: CpeDictionary,
    min_name_len: int = DEFAULT_MIN_NAME_LEN,
    stop_words: StopWordList | None = None,
    source_year: str = "",
) -> FpFilter:
    """Compile the historical false-positive name lists.

    A dictionary vendor (or product) name joins the filter when it occurs
    in some corpus summary whose own CPE list does not carry it. Names
    shorter than ``min_name_len`` after standardization are never
    considered. Every corpus record must carry a CPE list.
    """
    dict_vendors, dict_products, phrase_len = _dictionary_names(dictionary, min_name_len)
    filter_vendors: set[str] = set()
    filter_products: set[str] = set()
    for record in corpus:
        if not record.cpe_list:
            raise ValidationError(f"{record.id}: filter corpus requires a non-empty CPE list")
        own_vendors, own_products, _ = _own_names(record, stop_words)
        phrases = extract_summary_terms(record.summary, phrase_len, record.id).phrases
        filter_vendors.update((dict_vendors & phrases) - own_vendors)
        filter_products.update((dict_products & phrases) - own_products)
    return FpFilter(
        vendor_names=frozenset(filter_vendors),
        product_names=frozenset(filter_products),
        source_year=source_year,
    )


def match_cve(
    cve: CveRecord,
    assets: AssetIndex,
    fp_filter: FpFilter | None = None,
    min_name_len: int = DEFAULT_MIN_NAME_LEN,
    stop_words: StopWordList | None = None,
) -> list[MatchResult]:
    """Match one CVE against the asset index.

    A non-empty CPE list takes precedence and suppresses summary matching
    entirely. Otherwise the summary's phrases, up to the longest name in
    the index, are looked up by name. Results are ordered by (vendor,
    name) key and deduplicated per asset group.
    """
    return match_corpus([cve], assets, fp_filter, min_name_len, stop_words)


def match_corpus(
    cves: Iterable[CveRecord],
    assets: AssetIndex,
    fp_filter: FpFilter | None = None,
    min_name_len: int = DEFAULT_MIN_NAME_LEN,
    stop_words: StopWordList | None = None,
) -> list[MatchResult]:
    """Match many CVEs; output ordered by cve id, then asset group."""
    fp_filter = fp_filter or FpFilter.empty()
    # (vendor, product) of a CPE -> its key, None when the product is
    # undescribable; scoped to the call so it cannot grow across calls
    cpe_keys: dict[tuple[str, str], tuple[str, str] | None] = {}
    results: list[MatchResult] = []
    for cve in sorted(cves, key=lambda c: c.id):
        if cve.cpe_list:
            matched_keys: set[tuple[str, str]] = set()
            for uri in cve.cpe_list:
                pair = (uri.vendor, uri.product)
                if pair not in cpe_keys:
                    try:
                        cpe_keys[pair] = well_formed_from_cpe(uri, stop_words).key
                    except ValidationError:
                        cpe_keys[pair] = None  # undescribable product name
                key = cpe_keys[pair]
                if key in assets.by_key:
                    matched_keys.add(key)
            for key in sorted(matched_keys):
                results.append(
                    MatchResult(cve_id=cve.id, asset_ids=assets.ids_for(key), via=MatchVia.CPE)
                )
            continue

        phrases = extract_summary_terms(cve.summary, assets.phrase_len, cve.id).phrases
        hits = sorted(key for phrase in phrases for key in assets.by_name.get(phrase, ()))
        for vendor, name in hits:
            if len(name) < min_name_len:
                continue
            if name in fp_filter.product_names:
                vendor_present = len(vendor) >= min_name_len and vendor in phrases
                if not vendor_present:
                    continue
            results.append(
                MatchResult(
                    cve_id=cve.id,
                    asset_ids=assets.ids_for((vendor, name)),
                    via=MatchVia.SUMMARY,
                    matched_phrase=name,
                )
            )
    return results


def evaluate_corpus(
    corpus: Iterable[CveRecord],
    dictionary: CpeDictionary,
    min_name_len: int = DEFAULT_MIN_NAME_LEN,
    stop_words: StopWordList | None = None,
) -> EvalReport:
    """Score extraction quality on a corpus whose records all carry CPEs.

    A record is a true positive when one of its own CPE vendor or product
    names occurs among its summary phrases, and a false positive when some
    dictionary vendor+product pair occurs there without being in the
    record's own CPE list. Phrase enumeration adapts to the longest
    candidate name, so no name is missed for length.
    """
    corpus = list(corpus)
    dict_vendors, dict_products, dict_needed = _dictionary_names(dictionary, min_name_len)
    pairs = dictionary.pairs
    elided = sum(1 for v in dictionary.vendor_names if 0 < len(v) < min_name_len) + sum(
        1 for p in dictionary.product_names if 0 < len(p) < min_name_len
    )
    tp = fp = tp_strict = 0
    for record in corpus:
        if not record.cpe_list:
            raise ValidationError(f"{record.id}: evaluation corpus requires a non-empty CPE list")
        own_vendors, own_products, own_pairs = _own_names(record, stop_words)
        needed = max(dict_needed, _needed_phrase_len(own_vendors | own_products))
        phrases = extract_summary_terms(record.summary, needed, record.id).phrases

        own_hits = {n for n in own_vendors | own_products if len(n) >= min_name_len} & phrases
        if own_hits:
            tp += 1
        if any(
            v in phrases and p in phrases
            for v, p in own_pairs
            if len(v) >= min_name_len and len(p) >= min_name_len
        ):
            tp_strict += 1
        # narrow to names actually present before touching the pair set, so
        # cost tracks the summary, not the dictionary
        found_vendors = dict_vendors & phrases
        found_products = dict_products & phrases
        if any(
            (v, p) in pairs and (v, p) not in own_pairs
            for v in found_vendors
            for p in found_products
        ):
            fp += 1

    total = len(corpus)
    return EvalReport(
        total=total,
        tp=tp,
        fp=fp,
        fp_rate=(fp / total) if total else 0.0,
        elided_names=elided,
        tp_strict=tp_strict,
    )
