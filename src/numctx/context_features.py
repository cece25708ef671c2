"""Context-window feature extraction.

The feature of a number is its two neighboring words on each side plus the
number's own surface shape. Window words are mapped to keyword classes
through an editable lexicon, and the four positions, the shape kind, and a
digit-count bucket are six integer codes (``codes``), one-hot encoded into
a fixed 56-dimension vector (``one_hot``) that does not depend on any
corpus statistics.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass
from enum import IntEnum
from importlib import resources
from pathlib import Path

import numpy as np

from .locator import (
    SHAPE_KINDS,
    NumberShape,
    NumberToken,
    WordToken,
    locate_numbers,
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
    lowercase word without whitespace and new to ``entries``, the class an
    assignable keyword class. A bad entry raises LexiconError."""
    if word.split() != [word] or word != word.lower():
        # tokenize splits on whitespace and lookups lowercase, so such a word could never match
        raise LexiconError(f"lexicon word {word!r} must be one lowercase word without whitespace")
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
    """Immutable word -> keyword-class map; every entry passes ``add_entry``."""

    entries: dict[str, KeywordClass]

    def __post_init__(self) -> None:
        checked: dict[str, KeywordClass] = {}
        for word, cls in self.entries.items():
            add_entry(checked, word, cls.name)

    def lookup(self, word: str) -> KeywordClass:
        return self.entries.get(word.lower(), KeywordClass.Unknown)


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


@dataclass(frozen=True)
class ContextWindow:
    """The lowered words around a number; ``None`` marks a sentence boundary."""

    preposition2: str | None
    preposition1: str | None
    postposition1: str | None
    postposition2: str | None

    def slots(self) -> tuple[str | None, str | None, str | None, str | None]:
        return (self.preposition2, self.preposition1, self.postposition1, self.postposition2)


def extract_window(tokens: list[WordToken], number_index: int) -> ContextWindow:
    """Window around the word token at ``number_index``."""
    if not 0 <= number_index < len(tokens):
        raise IndexError(f"number_index {number_index} out of range for {len(tokens)} tokens")
    return _window_between(tokens, number_index, number_index)


def window_for_token(tokens: list[WordToken], number: NumberToken) -> ContextWindow:
    """Window around a located number.

    A number may cover several word tokens (an absorbed ``RM`` keeps its own
    word token), so the window is taken before the first and after the last
    word token overlapping the number's span.
    """
    start, end = number.span
    covered = [i for i, t in enumerate(tokens) if t.span[0] < end and t.span[1] > start]
    if not covered:
        raise ValueError(f"number token {number.raw!r} at {number.span} overlaps no word token")
    return _window_between(tokens, covered[0], covered[-1])


def _window_between(tokens: list[WordToken], first: int, last: int) -> ContextWindow:
    def word(i: int) -> str | None:
        return tokens[i].lowered if 0 <= i < len(tokens) else None

    return ContextWindow(
        preposition2=word(first - 2),
        preposition1=word(first - 1),
        postposition1=word(last + 1),
        postposition2=word(last + 2),
    )


def classify_word(lexicon: Lexicon, word: str | None) -> KeywordClass:
    """Boundary for out-of-sentence positions, else lexicon class or Unknown."""
    if word is None:
        return KeywordClass.Boundary
    return lexicon.lookup(word)


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
    classes = [int(classify_word(lexicon, word)) for word in window.slots()]
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
