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

# A token runs from an alphanumeric character to the last one before a
# separator ([^\W_] is exactly str.isalnum). Underscores are CPE's word
# separator; hyphens and slashes separate words in prose ("Hyper-V" must
# yield the token "hyper").
_TOKEN_RE = re.compile(r"[^\W_](?:[^\s,;:/\\_-]*[^\W_])?")
_BRACKET_RE = re.compile(r"[(){}]")
_PAREN_RE = re.compile(r"\([^()]*\)")
_BRACE_RE = re.compile(r"\{[^{}]*\}")
_NUMERIC_RE = re.compile(r"\d+(?:\.\d+)*")
_DATE_RE = re.compile(r"\d{1,2}[-/.]\d{1,2}[-/.]\d{2,4}")
_YEAR_RE = re.compile(r"(?:19|20)\d{2}")

# The shortest standardized name, in characters, that the matcher takes as
# evidence; the default of --min-name-len.
DEFAULT_MIN_NAME_LEN = 3


@dataclass(frozen=True)
class StopWordList:
    """Tokens removed wherever they stand alone in a name.

    Each word must be its own one token under ``tokenize``: any other word
    (``straße``, ``co.``, ``e-commerce``) could never equal a token.
    """

    words: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", frozenset(self.words))
        if not self.words:
            raise ValidationError("stop-word list must be non-empty")
        for word in self.words:
            if tokenize(word) != [word]:
                raise ValidationError(f"stop-word is not a single token: {word!r}")

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "StopWordList":
        """Each line's text before ``#``, as its one token; a line with text
        that is not exactly one token raises FormatError."""
        words = set()
        for number, line in enumerate(lines, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            tokens = tokenize(text)
            if len(tokens) != 1:
                raise FormatError(f"stop-word line {number} is not exactly one token: {line!r}")
            words.add(tokens[0])
        return cls(frozenset(words))

    @classmethod
    def from_file(cls, path: str | Path) -> "StopWordList":
        return cls.from_lines(read_text_file(path).splitlines())


def as_text(data: bytes | str, source: str = "input", *, keep_bom: bool = False) -> str:
    """Text of UTF-8 input without its leading byte-order mark, unless
    ``keep_bom``; bytes that are not UTF-8 raise FormatError naming
    ``source``. Only one mark is dropped: a second one is text."""
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8" if keep_bom else "utf-8-sig")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{source} is not UTF-8 text: {exc}")
    return data[1:] if data.startswith("\ufeff") and not keep_bom else data


def read_text_file(path: str | Path) -> str:
    """The text of a UTF-8 file, through ``as_text``."""
    return as_text(Path(path).read_bytes(), str(path))


def _drop_bracketed(text: str) -> str:
    if not _BRACKET_RE.search(text):
        return text
    # Innermost-first until fixpoint, so nested spans disappear too.
    prev = None
    while prev != text:
        prev = text
        text = _PAREN_RE.sub(" ", text)
        text = _BRACE_RE.sub(" ", text)
    # Unbalanced leftovers are deleted outright; no output may contain them.
    return _BRACKET_RE.sub(" ", text)


def _fold(text: str) -> str:
    """Casefold, then lowercase: casefolding maps lowercase Cherokee to
    its uppercase letters, which ``lower`` maps back."""
    return text.casefold().lower()


def tokenize(text: str) -> list[str]:
    """Lowercase and split into tokens, trimming edge punctuation.

    Splits on whitespace and on , ; : / \\ _ - so that CPE-style and
    prose-style spellings of the same name produce the same tokens.
    Casefolding (not plain lower) keeps one-way case mappings like the
    micro sign from defeating caseless comparison.
    """
    return _TOKEN_RE.findall(_fold(text))


def _is_droppable(token: str, stop: frozenset[str]) -> bool:
    # Numbers, dates and years all begin with a digit (\d is str.isdecimal).
    if token[0].isdecimal() and (
        _NUMERIC_RE.fullmatch(token) or _DATE_RE.fullmatch(token) or _YEAR_RE.fullmatch(token)
    ):
        return True
    return token in stop


def standardize(raw: str, stop_words: StopWordList | None = None) -> str:
    """Clean a raw product or vendor string into its canonical form.

    Lowercases, removes parenthesized/braced spans, drops standalone
    numeric and date-like tokens and stop-words, and collapses whitespace.
    Total: any input is accepted and the result may be empty.
    """
    stop = stop_words.words if stop_words is not None else DEFAULT_STOP_WORDS
    # _fold is idempotent, so the folded text is tokenized without folding again
    text = _drop_bracketed(_fold(raw))
    kept = [tok for tok in _TOKEN_RE.findall(text) if not _is_droppable(tok, stop)]
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
