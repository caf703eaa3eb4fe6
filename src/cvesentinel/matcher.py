"""Relating CVEs to assets, with or without a CPE list.

When a CVE carries CPEs, matching is exact well-formed-name equality.
When it does not, the summary text is tokenized into candidate terms; an
asset matches when its standardized product name appears as a contiguous
run of terms, subject to a short-name cutoff and a historical
false-positive filter. A product name on the filter is only believed when
the asset's vendor name co-occurs in the same summary, since a name plus
its vendor is much stronger evidence than the name alone.

Term extraction is deterministic tokenization plus closed-class word
removal; no POS tagging is involved, because the match itself is a pure
name-containment test. One name set (``_NameSet``) finds the names a
summary holds for matching, filter building and evaluation alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import FormatError, ValidationError
from .ingest import CpeDictionary
from .model import AssetRecord, CveRecord, MatchVia, Row
from .normalize import (DEFAULT_MIN_NAME_LEN, StopWordList, read_text_file, standardize, tokenize,
                        well_formed_from_cpe)
from .store import replacing

# The header lines of a filter list, before their labels: the source year
# always, the digest of the stop-word list only when one was given.
_LABEL = "#source_year="
_STOP_WORDS_LABEL = "#stopwords="
_LABELS = {_LABEL: "source year", _STOP_WORDS_LABEL: "stop-word list"}

# Closed-class English words: articles, prepositions, conjunctions,
# pronouns, auxiliaries. Product names are open-class, so dropping these
# from summaries costs nothing and shrinks the runs to enumerate.
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
class FpFilter:
    """Names that historically appear in summaries of unrelated CVEs."""

    vendor_names: frozenset[str]
    product_names: frozenset[str]
    source_year: str = ""
    stop_words_digest: str | None = None  # of the list the names were standardized under

    @classmethod
    def empty(cls) -> "FpFilter":
        return cls(vendor_names=frozenset(), product_names=frozenset())

    @staticmethod
    def header(source_year: str) -> str:
        """The label line that begins both lists; the label must be one line."""
        header = f"{_LABEL}{source_year}"
        if header.splitlines() != [header]:  # a line break would plant names in both lists
            raise ValidationError(f"source year {source_year!r} is not one line")
        return header

    def save(self, vendors_path: str | Path, products_path: str | Path) -> None:
        """Write both lists, each through a temp file: both are replaced, or neither is."""
        if Path(vendors_path).resolve() == Path(products_path).resolve():
            raise ValidationError(f"{vendors_path} and {products_path} name the same file")
        header = [self.header(self.source_year)]
        if self.stop_words_digest is not None:
            header.append(f"{_STOP_WORDS_LABEL}{self.stop_words_digest}")
        with replacing(vendors_path) as vendors, replacing(products_path) as products:
            for out, names in ((vendors, self.vendor_names), (products, self.product_names)):
                out.write(("\n".join(header + sorted(names)) + "\n").encode())

    @classmethod
    def load(cls, vendors_path: str | Path, products_path: str | Path) -> "FpFilter":
        """Read both lists; a label is kept exactly as written, and a list
        without one takes the other's, but two different labels are an error."""
        def read(path: str | Path) -> tuple[frozenset[str], dict[str, str]]:
            names = set()
            labels = {}
            for line in read_text_file(path).splitlines():
                if label := next((k for k in _LABELS if line.startswith(k)), ""):
                    labels[label] = line[len(label) :]
                elif (name := line.strip()) and not name.startswith("#"):
                    names.add(name)
            return frozenset(names), labels

        vendors, labels_v = read(vendors_path)
        products, labels_p = read(products_path)
        for label, what in _LABELS.items():
            if label in labels_v and label in labels_p and labels_v[label] != labels_p[label]:
                raise FormatError(f"{vendors_path} and {products_path} disagree on the {what}: "
                                  f"{labels_v[label]!r} against {labels_p[label]!r}")
        labels = {**labels_p, **labels_v}  # a list without a label takes the other's
        return cls(vendors, products, labels.get(_LABEL, ""), labels.get(_STOP_WORDS_LABEL))


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
class EvalReport(Row):
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


class _NameSet:
    """Names, the longest of them in tokens, and the set of their first tokens.

    Only a run of summary terms that begins with a first token and is no
    longer than the longest name can equal a name, so no other run is built.
    """

    def __init__(self, names: Iterable[str]):
        self.names = frozenset(names)
        self.longest = max((name.count(" ") + 1 for name in self.names), default=1)
        self.starts = frozenset(name.split(" ", 1)[0] for name in self.names)

    def found_in(self, terms: tuple[str, ...]) -> frozenset[str]:
        """The names that occur as contiguous runs of ``terms``."""
        runs = []
        for i, term in enumerate(terms):
            if term in self.starts:
                run = term
                runs.append(run)
                for nxt in terms[i + 1 : i + self.longest]:
                    run = f"{run} {nxt}"
                    runs.append(run)
        return self.names.intersection(runs)


class AssetIndex:
    """Read-only asset lookup by id, by (vendor, name) key and by name.

    ``_ids`` maps each key to the sorted ids of its asset group, and
    ``names`` is the name set over every name and every vendor.
    ``unreachable_names`` lists the names holding a function word: summary
    terms never contain one, so these names can never match a summary.
    """

    def __init__(self, assets: Iterable[AssetRecord]):
        self.by_id: dict[str, AssetRecord] = {}
        groups: dict[tuple[str, str], list[str]] = {}
        for asset in assets:
            if asset.asset_id in self.by_id:
                raise ValidationError(f"duplicate asset id {asset.asset_id!r}")
            self.by_id[asset.asset_id] = asset
            groups.setdefault(asset.wfn.key, []).append(asset.asset_id)
        self._ids = {key: tuple(sorted(ids)) for key, ids in groups.items()}
        self.by_name: dict[str, list[tuple[str, str]]] = {}
        for key in sorted(self._ids):
            self.by_name.setdefault(key[1], []).append(key)
        self.names = _NameSet(part for key in self._ids for part in key)
        self.unreachable_names = tuple(
            sorted(name for name in self.by_name if not FUNCTION_WORDS.isdisjoint(name.split()))
        )


def _summary_terms(summary: str) -> tuple[str, ...]:
    return tuple(tok for tok in tokenize(summary) if tok not in FUNCTION_WORDS)


def _dictionary_names(
    dictionary: CpeDictionary, min_name_len: int
) -> tuple[set[str], set[str], _NameSet]:
    """Dictionary vendor and product names of at least ``min_name_len``,
    and the name set over both."""
    vendors = {v for v in dictionary.vendor_names if len(v) >= min_name_len}
    products = {p for p in dictionary.product_names if len(p) >= min_name_len}
    return vendors, products, _NameSet(vendors | products)


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
    dict_vendors, dict_products, dict_names = _dictionary_names(dictionary, min_name_len)
    filter_vendors: set[str] = set()
    filter_products: set[str] = set()
    for record in corpus:
        if not record.cpe_list:
            raise ValidationError(f"{record.id}: filter corpus requires a non-empty CPE list")
        own_vendors, own_products, _ = _own_names(record, stop_words)
        found = dict_names.found_in(_summary_terms(record.summary))
        filter_vendors.update((dict_vendors & found) - own_vendors)
        filter_products.update((dict_products & found) - own_products)
    return FpFilter(
        vendor_names=frozenset(filter_vendors),
        product_names=frozenset(filter_products),
        source_year=source_year,
        stop_words_digest=stop_words.digest() if stop_words else None,
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
    entirely. Otherwise the index's name set finds the names and vendors
    that occur in the summary, and each name found matches its asset
    groups. Results are ordered by (vendor, name) key and deduplicated per
    asset group.
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
                if key in assets._ids:
                    matched_keys.add(key)
            for key in sorted(matched_keys):
                results.append(
                    MatchResult(cve_id=cve.id, asset_ids=assets._ids[key], via=MatchVia.CPE)
                )
            continue

        found = assets.names.found_in(_summary_terms(cve.summary))
        hits = sorted(key for name in found for key in assets.by_name.get(name, ()))
        for vendor, name in hits:
            if len(name) < min_name_len:
                continue
            if name in fp_filter.product_names:
                vendor_present = len(vendor) >= min_name_len and vendor in found
                if not vendor_present:
                    continue
            results.append(
                MatchResult(
                    cve_id=cve.id,
                    asset_ids=assets._ids[vendor, name],
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
    names occurs in its summary, and a false positive when some dictionary
    vendor+product pair occurs there without being in the record's own CPE
    list. Names are found by the rule ``tickets`` uses: one name set over
    the dictionary names and one over the record's own names, each reaching
    its longest name, so no name is missed for length.
    """
    dict_vendors, dict_products, dict_names = _dictionary_names(dictionary, min_name_len)
    pairs = dictionary.pairs
    elided = sum(1 for v in dictionary.vendor_names if 0 < len(v) < min_name_len) + sum(
        1 for p in dictionary.product_names if 0 < len(p) < min_name_len
    )
    total = tp = fp = tp_strict = 0
    for record in corpus:
        total += 1
        if not record.cpe_list:
            raise ValidationError(f"{record.id}: evaluation corpus requires a non-empty CPE list")
        own_vendors, own_products, own_pairs = _own_names(record, stop_words)
        terms = _summary_terms(record.summary)
        own_names = _NameSet(n for n in own_vendors | own_products if len(n) >= min_name_len)
        own_found = own_names.found_in(terms)
        if own_found:
            tp += 1
        if any(v in own_found and p in own_found for v, p in own_pairs):
            tp_strict += 1
        # narrow to names actually present before touching the pair set, so
        # cost tracks the summary, not the dictionary
        found = dict_names.found_in(terms)
        found_vendors = dict_vendors & found
        found_products = dict_products & found
        if any(
            (v, p) in pairs and (v, p) not in own_pairs
            for v in found_vendors
            for p in found_products
        ):
            fp += 1

    return EvalReport(
        total=total,
        tp=tp,
        fp=fp,
        fp_rate=(fp / total) if total else 0.0,
        elided_names=elided,
        tp_strict=tp_strict,
    )
