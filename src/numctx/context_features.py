"""Context-window feature extraction.

The feature of a number is its two neighboring words on each side plus the
number's own surface shape. ``line_numbers`` reads a line in one pass over its
located numbers: each number's window is searched outward from its own span
for the two words before and the two after (``number_window`` over
``words_before`` and ``words_after``, which lowercase only those), and its
shape is ``shape_of``'s. Window words are mapped to keyword classes through an
editable lexicon, and the four positions, the shape kind, and a digit-count
bucket are six plain-int codes, read straight from the lexicon's entries
(``codes``). Their one-hot is a fixed 56-column row that does not depend on
any corpus statistics; ``one_hot_row`` gives its six nonzero columns, and no
dense vector is built to classify. ``default_lexicon_path`` and
``bundled_corpus_path`` locate the bundled data without importing ``corpus``.
"""

from __future__ import annotations

import functools
import io
from enum import IntEnum
from importlib import resources
from pathlib import Path
from typing import Iterator, NamedTuple

from .locator import (
    SENTENCE_PUNCTUATION,
    SHAPE_KINDS,
    NumberShape,
    NumberToken,
    locate_numbers,
    shape_of,
    words_after,
    words_before,
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
_UNKNOWN, _BOUNDARY = KeywordClass.Unknown, KeywordClass.Boundary

# row layout: 4 position blocks of 11, then 9 shape kinds, then 3 buckets
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
    lowercase word as a window holds it (without whitespace, neither
    starting nor ending with sentence punctuation) and new to ``entries``,
    the class an assignable keyword class. A bad entry raises LexiconError."""
    if words_after(word, 0, 2) != [word]:  # a word the window search changes could never match
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


class Lexicon:
    """Word -> keyword-class map, ``entries``; every entry passes ``add_entry``.
    ``load_lexicon`` and ``Pipeline._read`` fill the dict in place, and the
    program changes it no more once they return. ``codes`` and the
    verbalizer's cue tests read ``entries`` directly."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[str, KeywordClass]):
        self.entries: dict[str, KeywordClass] = {}
        for word, cls in entries.items():
            add_entry(self.entries, word, cls.name)


def read_utf8(path: Path, error: type[ValueError]) -> str:
    """The text of ``path`` less one leading byte-order mark; bytes that are
    not UTF-8 raise ``error`` naming the file and their offset from its first
    byte, which utf-8-sig would count from after the mark."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: byte {exc.start} (0x{exc.object[exc.start]:02x}) is not UTF-8: {exc.reason}") from None
    return text.removeprefix("\ufeff")


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


def bundled_corpus_path() -> Path:
    return Path(str(resources.files("numctx").joinpath("data/corpus.csv")))


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


def number_window(text: str, number: NumberToken) -> ContextWindow:
    """The window of ``number``, located in ``text``: the two words before the
    chunk holding its first character and the two after the chunk holding
    its last, a slot past either end of the line being None."""
    start, end = number.span
    before, after = words_before(text, start, 2), words_after(text, end, 2)
    nb, na = len(before), len(after)
    return ContextWindow(
        before[1] if nb > 1 else None, before[0] if nb else None, after[0] if na else None, after[1] if na > 1 else None
    )


def line_numbers(text: str) -> Iterator[tuple[NumberToken, ContextWindow, NumberShape]]:
    """Each number located in ``text`` as ``(number, window, shape)``, in span
    order, each window searched from the number's own span."""
    for number in locate_numbers(text):
        yield number, number_window(text, number), shape_of(number)


def _bucket(digit_count: int) -> int:
    if digit_count <= 2:
        return 0
    if digit_count <= 4:
        return 1
    return 2


def codes(window: ContextWindow, shape: NumberShape, lexicon: Lexicon) -> tuple[int, ...]:
    """The six codes a context vector is the one-hot of: the keyword class of
    each window slot (pre2, pre1, post1, post2), the shape kind and the digit
    bucket, all plain ints. A slot's class is Boundary for None (past the
    sentence edge), else its word's entry in ``lexicon``, or Unknown."""
    get = lexicon.entries.get
    # a member's _value_ is its plain int, read without the call int() makes
    classes = [(_BOUNDARY if word is None else get(word, _UNKNOWN))._value_ for word in window]
    return (*classes, shape.kind._value_, _bucket(shape.digit_count))


def one_hot_row(codes: tuple[int, ...]) -> dict[int, float]:
    """The nonzero columns of the fixed 56-column encoding of six codes, in
    ascending order: one 1.0 in each block."""
    return {offset + code: 1.0 for offset, code in zip(_OFFSETS, codes)}


def token_at(text: str, span: tuple[int, int]) -> NumberToken:
    """The located number token whose span is exactly ``span``."""
    for token in locate_numbers(text):
        if token.span == tuple(span):
            return token
    raise ValueError(f"span {span} is not a located number token in {text!r}")
