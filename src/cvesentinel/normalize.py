"""Product and vendor name standardization.

Inventories rarely record software names uniformly, so matching against
feed data needs a cleaning pass first: lowercase everything, drop
bracketed asides, drop bare numbers, dates and filler words, and collapse
whitespace. ``standardize`` is total and idempotent; the well-formed-name
constructors reject products whose names clean down to nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import FormatError, ValidationError
from .model import CpeUri, WellFormedName

# "system"/"software"/"library"/"version"/"app" are the classic inventory
# filler words; the corporate suffixes are needed so that e.g. a vendor
# column reading "Geotab Inc." standardizes to plain "geotab".
DEFAULT_STOP_WORDS = frozenset(
    {
        "system",
        "software",
        "library",
        "version",
        "app",
        "beta",
        "alpha",
        "inc",
        "ltd",
        "llc",
        "corp",
        "corporation",
        "co",
        "gmbh",
        "project",
        "edition",
    }
)

# Underscores are CPE's word separator; hyphens and slashes separate words
# in prose ("Hyper-V" must yield the token "hyper").
_SPLIT_RE = re.compile(r"[\s,;:/\\_-]+")
_PAREN_RE = re.compile(r"\([^()]*\)")
_BRACE_RE = re.compile(r"\{[^{}]*\}")
_NUMERIC_RE = re.compile(r"\d+(?:\.\d+)*")
_DATE_RE = re.compile(r"\d{1,2}[-/.]\d{1,2}[-/.]\d{2,4}")
_YEAR_RE = re.compile(r"(?:19|20)\d{2}")


@dataclass(frozen=True)
class StopWordList:
    """Tokens removed wherever they stand alone in a name."""

    words: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", frozenset(self.words))
        if not self.words:
            raise ValidationError("stop-word list must be non-empty")
        for word in self.words:
            if word != word.lower():
                raise ValidationError(f"stop-word must be lowercase: {word!r}")

    @classmethod
    def default(cls) -> "StopWordList":
        return cls(DEFAULT_STOP_WORDS)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "StopWordList":
        words = set()
        for line in lines:
            token = line.split("#", 1)[0].strip().lower()
            if not token:
                continue
            if any(ch.isspace() for ch in token):
                raise FormatError(f"stop-word line holds more than one token: {line!r}")
            words.add(token)
        return cls(frozenset(words))

    @classmethod
    def from_file(cls, path: str | Path) -> "StopWordList":
        return cls.from_lines(Path(path).read_text(encoding="utf-8").splitlines())


def _drop_bracketed(text: str) -> str:
    # Innermost-first until fixpoint, so nested spans disappear too.
    prev = None
    while prev != text:
        prev = text
        text = _PAREN_RE.sub(" ", text)
        text = _BRACE_RE.sub(" ", text)
    # Unbalanced leftovers are deleted outright; no output may contain them.
    return re.sub(r"[(){}]", " ", text)


def _strip_edge_punct(token: str) -> str:
    start, end = 0, len(token)
    while start < end and not token[start].isalnum():
        start += 1
    while end > start and not token[end - 1].isalnum():
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    """Lowercase and split into tokens, trimming edge punctuation.

    Splits on whitespace and on , ; : / \\ _ - so that CPE-style and
    prose-style spellings of the same name produce the same tokens.
    Casefolding (not plain lower) keeps one-way case mappings like the
    micro sign from defeating caseless comparison.
    """
    tokens = []
    for piece in _SPLIT_RE.split(text.casefold()):
        token = _strip_edge_punct(piece)
        if token:
            tokens.append(token)
    return tokens


def _is_droppable(token: str, stop: frozenset[str]) -> bool:
    if _NUMERIC_RE.fullmatch(token):
        return True
    if _DATE_RE.fullmatch(token) or _YEAR_RE.fullmatch(token):
        return True
    return token in stop


def standardize(raw: str, stop_words: StopWordList | None = None) -> str:
    """Clean a raw product or vendor string into its canonical form.

    Lowercases, removes parenthesized/braced spans, drops standalone
    numeric and date-like tokens and stop-words, and collapses whitespace.
    Total: any input is accepted and the result may be empty.
    """
    stop = stop_words.words if stop_words is not None else DEFAULT_STOP_WORDS
    text = _drop_bracketed(raw.casefold())
    kept = [tok for tok in tokenize(text) if not _is_droppable(tok, stop)]
    return " ".join(kept)


def well_formed_from_cpe(cpe: CpeUri, stop_words: StopWordList | None = None) -> WellFormedName:
    """Derive the well-formed name recorded by a CPE entry.

    The wildcard version "*" maps to an empty version string. Raises
    ValidationError when the product name standardizes to empty.
    """
    name = standardize(cpe.product, stop_words)
    if not name:
        raise ValidationError(f"CPE product standardizes to empty: {cpe.raw!r}")
    return WellFormedName(
        name=name,
        vendor=standardize(cpe.vendor, stop_words),
        version="" if cpe.version == "*" else cpe.version,
    )


def well_formed_from_raw(
    product: str,
    vendor: str,
    version: str,
    stop_words: StopWordList | None = None,
) -> WellFormedName:
    """Build a well-formed name from raw inventory columns.

    Raises ValidationError when the product standardizes to empty.
    """
    name = standardize(product, stop_words)
    if not name:
        raise ValidationError(f"product name standardizes to empty: {product!r}")
    return WellFormedName(name=name, vendor=standardize(vendor, stop_words), version=version)
