"""Context-window feature extraction.

The feature of a number is its two neighboring words on each side plus the
number's own surface shape. ``line_windows`` finds the window of every
number of a line from one scan of the line's words (``scan_words``); two
bisects over the word offsets give the first and last word a number
covers. Window words are mapped to keyword classes through an editable
lexicon, and the four positions, the shape kind, and a digit-count bucket
are six integer codes (``codes``), one-hot encoded into a fixed
56-dimension vector (``one_hot``) that does not depend on any corpus
statistics.
"""

from __future__ import annotations

import functools
import io
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import IntEnum
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .locator import (
    SENTENCE_PUNCTUATION,
    SHAPE_KINDS,
    NumberShape,
    NumberToken,
    locate_numbers,
    scan_words,
)


class KeywordClass(IntEnum):
    Month = 0
    TimeWord = 1
    PhoneWord = 2
    CurrencyWord = 3
    MeasurementUnit = 4
    CollectiveNoun = 5
    PercentWord = 6
    MagnitudeWord = 7
    ValueWord = 8
    Unknown = 9
    Boundary = 10


KEYWORD_CLASSES: tuple[KeywordClass, ...] = tuple(KeywordClass)

# vector layout: 4 position blocks of 11, then 9 shape kinds, then 3 buckets
_N_CLASSES = len(KEYWORD_CLASSES)
_N_SHAPES = len(SHAPE_KINDS)
_N_BUCKETS = 3
FEATURE_DIM = 4 * _N_CLASSES + _N_SHAPES + _N_BUCKETS
# where the block of each of the six codes starts
_OFFSETS = (0, _N_CLASSES, 2 * _N_CLASSES, 3 * _N_CLASSES, 4 * _N_CLASSES, 4 * _N_CLASSES + _N_SHAPES)


class LexiconError(ValueError):
    pass


# Unknown and Boundary are given by a failed lookup and a sentence edge, never by an entry
_ASSIGNABLE = {c.name: c for c in KEYWORD_CLASSES if c not in (KeywordClass.Unknown, KeywordClass.Boundary)}


def add_entry(entries: dict[str, KeywordClass], word: str, class_name: str) -> None:
    """Check one lexicon entry and add it to ``entries``: the word must be one
    lowercase word as ``scan_words`` finds it (without whitespace, neither
    starting nor ending with sentence punctuation) and new to ``entries``,
    the class an assignable keyword class. A bad entry raises LexiconError."""
    if word.split() != [word] or word != word.lower() or word.strip(SENTENCE_PUNCTUATION) != word:
        # scan_words splits on whitespace, detaches end punctuation and
        # lowercases, so such a word could never match
        raise LexiconError(
            f"lexicon word {word!r} must be one lowercase word without whitespace, "
            f"neither starting nor ending with any of {SENTENCE_PUNCTUATION}"
        )
    cls = _ASSIGNABLE.get(class_name)
    if cls is None:
        if class_name in KeywordClass.__members__:
            raise LexiconError(f"{class_name} is reserved and may not be assigned")
        raise LexiconError(f"unknown keyword class {class_name!r}")
    if word in entries:
        raise LexiconError(f"duplicate lexicon entry {word!r}")
    entries[word] = cls


@dataclass(frozen=True)
class Lexicon:
    """Word -> keyword-class map; every entry passes ``add_entry``. Only the
    field is frozen: ``load_lexicon`` and ``Pipeline._read`` fill the dict
    in place, and the program changes it no more once they return."""

    entries: dict[str, KeywordClass]

    def __post_init__(self) -> None:
        checked: dict[str, KeywordClass] = {}
        for word, cls in self.entries.items():
            add_entry(checked, word, cls.name)

    def lookup(self, word: str | None) -> KeywordClass:
        """The class of a window slot: Boundary for None (past the sentence
        edge), else of ``word`` as ``scan_words`` lowers it, or Unknown."""
        if word is None:
            return KeywordClass.Boundary
        return self.entries.get(word, KeywordClass.Unknown)


def read_utf8(path: Path, error: type[ValueError]) -> str:
    """The text of ``path``; bytes that are not UTF-8 raise ``error`` naming the file and offset."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start} (0x{exc.object[exc.start]:02x}) is not UTF-8: {exc.reason}") from None


def load_lexicon(path: str | Path) -> Lexicon:
    """Load a lexicon file: UTF-8, one ``word<TAB>ClassName`` per line,
    ``#`` starts a comment, blank lines ignored. Errors name ``path:line``."""
    p = Path(path)
    lexicon = Lexicon(entries={})
    for lineno, line in enumerate(io.StringIO(read_utf8(p, LexiconError), newline=None), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("\t")
        try:
            if len(parts) != 2:
                raise LexiconError(f"expected 'word<TAB>ClassName', got {line!r}")
            add_entry(lexicon.entries, parts[0].strip().lower(), parts[1].strip())
        except LexiconError as exc:
            raise LexiconError(f"{p}:{lineno}: {exc}") from None
    return lexicon


def default_lexicon_path() -> Path:
    return Path(str(resources.files("numctx").joinpath("data/lexicon.tsv")))


@functools.cache
def default_lexicon() -> Lexicon:
    return load_lexicon(default_lexicon_path())


class ContextWindow(NamedTuple):
    """The lowered words around a number; ``None`` marks a sentence boundary.
    Iterating a window gives its four slots in this order."""

    preposition2: str | None
    preposition1: str | None
    postposition1: str | None
    postposition2: str | None


def line_windows(text: str, numbers: list[NumberToken]) -> list[ContextWindow]:
    """The window of each of ``numbers``, located in ``text``, from one scan
    of the line's words: the two words before the first and the two after
    the last word overlapping the number, a slot past either end of the line
    being None.

    A number may cover several words (an absorbed ``RM`` keeps its own
    word), and words are disjoint and in text order, so the covered words
    run from the first that ends after the number starts to the last that
    starts before it ends.
    """
    if not numbers:
        return []
    starts, ends, lowered = scan_words(text)
    n = len(lowered)
    windows = []
    for number in numbers:
        start, end = number.span
        first = bisect_right(ends, start)
        last = bisect_left(starts, end) - 1
        if first > last:
            raise ValueError(f"number token {number.raw!r} at {number.span} overlaps no word token")
        windows.append(
            ContextWindow(
                preposition2=lowered[first - 2] if first >= 2 else None,
                preposition1=lowered[first - 1] if first >= 1 else None,
                postposition1=lowered[last + 1] if last + 1 < n else None,
                postposition2=lowered[last + 2] if last + 2 < n else None,
            )
        )
    return windows


def _bucket(digit_count: int) -> int:
    if digit_count <= 2:
        return 0
    if digit_count <= 4:
        return 1
    return 2


def codes(window: ContextWindow, shape: NumberShape, lexicon: Lexicon) -> tuple[int, ...]:
    """The six codes a context vector is the one-hot of: the keyword class of
    each window slot (pre2, pre1, post1, post2), the shape kind and the
    digit bucket."""
    classes = [int(lexicon.lookup(word)) for word in window]
    return (*classes, int(shape.kind), _bucket(shape.digit_count))


def one_hot(codes: tuple[int, ...]) -> np.ndarray:
    """The fixed 56-dim vector of six codes, one 1.0 in each block."""
    vec = np.zeros(FEATURE_DIM, dtype=np.float64)
    for offset, code in zip(_OFFSETS, codes):
        vec[offset + code] = 1.0
    return vec


def token_at(text: str, span: tuple[int, int]) -> NumberToken:
    """The located number token whose span is exactly ``span``."""
    for token in locate_numbers(text):
        if token.span == tuple(span):
            return token
    raise ValueError(f"span {span} is not a located number token in {text!r}")
