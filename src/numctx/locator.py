"""Words and number location.

A word is a whitespace-separated chunk with its leading and trailing
sentence punctuation (``SENTENCE_PUNCTUATION``) detached; a chunk that is
punctuation only is no word. ``words_before`` and ``words_after`` search
outward from a position for the nearest few words, and strip and
lowercase no chunk beyond them; a chunk the position cuts (neither
character beside it is whitespace) is none of them. The pair is the one
word rule, and ``context_features.line_numbers`` calls it once each side of
each located number.

Numbers are maximal ASCII digit runs. Punctuation out of ``. , : - /`` is
absorbed into a number only when flanked by digits on both sides, so a
sentence-final full stop never joins the number before it. An immediately
preceding ``+`` or ``RM`` (glued or space-separated) not after a letter or
digit, and an immediately following ``%``, are absorbed as attached symbols.

The number pattern opens with the lookahead ``(?=[+R0-9])``. Every match
already starts with ``+``, the ``R`` of ``RM`` or a digit, so the lookahead
is implied by the rest of the pattern and changes no match. It lets ``re``
reject any other position after one character test, where it would
otherwise enter the optional prefix group there first.

``NumberToken`` and ``NumberShape`` are NamedTuples: immutable, and a record
also equals the plain tuple of its fields.
"""

from __future__ import annotations

import re
from enum import IntEnum
from typing import NamedTuple

# [0-9], not \d: ASCII digits only. [^\W_] is exactly str.isalnum. + before RM.
_NUMBER_RE = re.compile(r"(?=[+R0-9])(?:(?<![^\W_])(?:(\+)|(RM) ?))?([0-9]+(?:[.,:/-][0-9]+)*)(%)?")
_SEPARATOR_RE = re.compile(r"([.,:/-])")
# detached from both ends of a word, kept inside it
SENTENCE_PUNCTUATION = ".,;!?()\"'"


class NumberToken(NamedTuple):
    """A located number with its attached symbols.

    ``digit_groups`` interleaved with ``separators`` reconstructs the raw
    text minus the attached prefix/suffix symbols. A NamedTuple, so it also
    equals the plain tuple of its fields.
    """

    raw: str
    span: tuple[int, int]
    digit_groups: tuple[str, ...]
    separators: tuple[str, ...]
    prefix_symbol: str | None = None
    suffix_symbol: str | None = None


class ShapeKind(IntEnum):
    PlainInt = 0
    Decimal = 1
    SlashDate = 2
    HyphenGroups = 3
    ColonTime = 4
    DotTime = 5
    SignedPhone = 6
    CurrencyPrefixed = 7
    PercentSuffixed = 8


SHAPE_KINDS: tuple[ShapeKind, ...] = tuple(ShapeKind)


class NumberShape(NamedTuple):
    kind: ShapeKind
    digit_count: int
    group_lengths: tuple[int, ...]


def is_word_character(ch: str) -> bool:
    """Whether ``ch`` is neither whitespace nor sentence punctuation, so that
    it lies inside the word of its chunk. A located number starts with
    ``+``, ``R`` or a digit and ends with a digit or ``%``: both ends are
    word characters."""
    return not ch.isspace() and ch not in SENTENCE_PUNCTUATION


def words_before(text: str, pos: int, count: int) -> list[str]:
    """The lowered words of the chunks that end at or before ``pos``, the
    nearest first, at most ``count`` of them. A chunk that ``pos`` cuts is
    not among them."""
    chunks = text[:pos].split()
    if 0 < pos < len(text) and not text[pos - 1].isspace() and not text[pos].isspace():
        del chunks[-1]
    words: list[str] = []
    for chunk in reversed(chunks):
        word = chunk.strip(SENTENCE_PUNCTUATION)
        if word:
            words.append(word.lower())
            if len(words) == count:
                break
    return words


def words_after(text: str, pos: int, count: int) -> list[str]:
    """The lowered words of the chunks that start at or after ``pos``, the
    nearest first, at most ``count`` of them. A chunk that ``pos`` cuts is
    not among them."""
    chunks = text[pos:].split()
    if 0 < pos < len(text) and not text[pos - 1].isspace() and not text[pos].isspace():
        del chunks[0]
    words: list[str] = []
    for chunk in chunks:
        word = chunk.strip(SENTENCE_PUNCTUATION)
        if word:
            words.append(word.lower())
            if len(words) == count:
                break
    return words


def locate_numbers(text: str) -> list[NumberToken]:
    """Return every number token in ``text``, ordered by start offset."""
    found: list[NumberToken] = []
    for m in _NUMBER_RE.finditer(text):
        parts = _SEPARATOR_RE.split(m[3])
        # positional, in field order: a keyword call costs twice as much
        found.append(NumberToken(m[0], m.span(), tuple(parts[0::2]), tuple(parts[1::2]), m[1] or m[2], m[4]))
    return found


def shape_of(token: NumberToken) -> NumberShape:
    """Classify a number token's surface shape.

    Precedence: SlashDate, ColonTime, SignedPhone, CurrencyPrefixed,
    PercentSuffixed, HyphenGroups, then the single-dot rule (DotTime when
    the left group has 1-2 digits and the right exactly 2, Decimal for any
    other single dot), and PlainInt for everything else.
    """
    seps = token.separators
    groups = token.digit_groups
    lengths = tuple(map(len, groups))
    digit_count = sum(lengths)

    if len(groups) == 3 and seps == ("/", "/"):
        kind = ShapeKind.SlashDate
    elif ":" in seps:
        kind = ShapeKind.ColonTime
    elif token.prefix_symbol == "+":
        kind = ShapeKind.SignedPhone
    elif token.prefix_symbol == "RM":
        kind = ShapeKind.CurrencyPrefixed
    elif token.suffix_symbol == "%":
        kind = ShapeKind.PercentSuffixed
    elif "-" in seps:
        kind = ShapeKind.HyphenGroups
    elif seps == (".",):
        if lengths[0] <= 2 and lengths[1] == 2:
            kind = ShapeKind.DotTime
        else:
            kind = ShapeKind.Decimal
    else:
        kind = ShapeKind.PlainInt

    return NumberShape(kind, digit_count, lengths)
