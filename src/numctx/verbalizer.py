"""Malay verbalization of classified number tokens.

Every output is lowercase words separated by single spaces, where a cue
word the lexicon names is spoken as written; each reader builds that form
itself, so ``verbalize`` returns what the reader returns. Where a format
admits several spoken variants, the choice is made explicit through
``VerbalizationStyle`` rather than guessed. Some templates need words that
live next to the number instead of inside it (a month name after a day, an
``am``/``pm`` marker after a clock time, the unit after a measurement), so
``verbalize`` accepts the optional context window those words come from, and
the lexicon tells which of those words names a month, a currency or a unit.
A month, a day period or a currency is the first window word that names one,
searched post1, post2, pre1, pre2 (``_cue``); a unit, and the ``sen`` that
makes a bare Currency amount count sen, are read from post1 only.
Which shapes each label can be read from, and the reader that reads them,
live in one table, ``_READINGS``; a label applied to any other shape raises
``VerbalizationError`` before a reader runs.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from functools import cache
from typing import NamedTuple

from .context_features import ContextWindow, KeywordClass, Lexicon, default_lexicon
from .labels import FormatLabel
from .locator import NumberShape, NumberToken, ShapeKind, shape_of

_ONES = ["kosong", "satu", "dua", "tiga", "empat", "lima", "enam", "tujuh", "lapan", "sembilan"]
_MAGNITUDES = ["", "ribu", "juta", "bilion", "trilion", "kuadrilion"]
MONTHS = [
    "januari", "februari", "mac", "april", "mei", "jun",
    "julai", "ogos", "september", "oktober", "november", "disember",
]
_UNIT_ABBREVS = {
    "mm": "milimeter",
    "cm": "sentimeter",
    "m": "meter",
    "km": "kilometer",
    "mg": "miligram",
    "g": "gram",
    "kg": "kilogram",
    "ml": "mililiter",
    "l": "liter",
}
# the period a window word names; "pm" (None) names the afternoon or evening of the hour
_PERIODS = {"pagi": "pagi", "petang": "petang", "malam": "malam", "tengah": "tengah hari", "am": "pagi", "pm": None}

# the window of a number read without one: every slot past the sentence edge
_NO_WINDOW = ContextWindow(None, None, None, None)

CARDINAL_LIMIT = 10**18


class YearMode(Enum):
    Paired = "paired"
    Full = "full"


class CurrencyMode(Enum):
    Symbolic = "symbolic"
    Spoken = "spoken"


class UnitMode(Enum):
    Abbrev = "abbrev"
    Full = "full"


class VerbalizationStyle(NamedTuple):
    year_mode: YearMode = YearMode.Full
    currency_mode: CurrencyMode = CurrencyMode.Spoken
    unit_mode: UnitMode = UnitMode.Full


DEFAULT_STYLE = VerbalizationStyle()


class VerbalizationError(ValueError):
    """A token's shape cannot be read under the requested format label."""


def cardinal(n: int) -> str:
    """Render a non-negative integer as Malay words; from 10**18 up, past the
    largest magnitude word, the digits are read one by one."""
    if n < 0:
        raise ValueError(f"cardinal is defined for non-negative integers, got {n}")
    if n < 1000:
        return _group_words(n) if n else _ONES[0]
    if n >= CARDINAL_LIMIT:
        return _digits_spoken(str(n))

    parts: list[str] = []  # most significant group last
    for magnitude in _MAGNITUDES:
        n, group = divmod(n, 1000)
        if magnitude == "ribu" and group == 1:
            parts.append("seribu")
        elif group:
            parts.append(f"{_group_words(group)} {magnitude}" if magnitude else _group_words(group))
        if not n:
            break
    return " ".join(reversed(parts))


# a cache, not a table built at import: a one-shot process reads few groups,
# and the arguments are 1..999, so it holds at most 999 entries
@cache
def _group_words(value: int) -> str:
    """Words for 1..999."""
    hundreds, rest = divmod(value, 100)
    parts: list[str] = []
    if hundreds == 1:
        parts.append("seratus")
    elif hundreds > 1:
        parts.append(f"{_ONES[hundreds]} ratus")
    if rest == 0:
        pass
    elif rest < 10:
        parts.append(_ONES[rest])
    elif rest == 10:
        parts.append("sepuluh")
    elif rest == 11:
        parts.append("sebelas")
    elif rest < 20:
        parts.append(f"{_ONES[rest - 10]} belas")
    else:
        tens, ones = divmod(rest, 10)
        parts.append(f"{_ONES[tens]} puluh")
        if ones:
            parts.append(_ONES[ones])
    return " ".join(parts)


def year_words(year: int, mode: YearMode) -> str:
    """A year either in full or as two paired 2-digit cardinals."""
    if mode == YearMode.Paired and 1000 <= year <= 9999:
        high, low = divmod(year, 100)
        return f"{cardinal(high)} {cardinal(low)}"
    return cardinal(year)


def _digits_spoken(digits: str) -> str:
    return " ".join(_ONES[int(d)] for d in digits)


def _cue(context: ContextWindow, accepts: Callable[[str], bool]) -> str | None:
    """The first window word that ``accepts`` takes, trying post1, post2, pre1, pre2."""
    slots = (context.postposition1, context.postposition2, context.preposition1, context.preposition2)
    return next((word for word in slots if word is not None and accepts(word)), None)


def verbalize(
    token: NumberToken,
    label: FormatLabel,
    style: VerbalizationStyle = DEFAULT_STYLE,
    context: ContextWindow | None = None,
    lexicon: Lexicon | None = None,
    shape: NumberShape | None = None,
) -> str:
    """Convert a classified number token into Malay words; ``lexicon`` (the
    bundled one by default) tells which context words name a month, a
    currency or a unit, so a lexicon without ``Month`` rows names no month.
    ``shape`` is the token's ``shape_of``, for a caller that already has it."""
    lexicon = lexicon if lexicon is not None else default_lexicon()
    context = context if context is not None else _NO_WINDOW
    shape = shape if shape is not None else shape_of(token)
    reader, kinds = _READINGS[label]
    if shape.kind not in kinds:
        raise VerbalizationError(f"token {token.raw!r} with shape {shape.kind.name} cannot be read as {label.name}")
    return reader(token, shape, style, context, lexicon)


def _month_name(month: int) -> str:
    if 1 <= month <= 12:
        return MONTHS[month - 1]
    # out-of-range month group: read it as a plain cardinal
    return cardinal(month)


def _verbalize_date(token, shape, style, context, lexicon) -> str:
    # yyyy-mm-dd is d/m/y reversed; the kind test matters, as a PlainInt
    # such as 2024,05,12 has the same group lengths
    iso = shape.kind == ShapeKind.HyphenGroups and shape.group_lengths == (4, 2, 2)
    if shape.kind == ShapeKind.SlashDate or iso:
        day, month, year = (int(g) for g in (token.digit_groups[::-1] if iso else token.digit_groups))
        return f"{cardinal(day)} {_month_name(month)} {year_words(year, style.year_mode)}"
    if shape.kind == ShapeKind.HyphenGroups:
        if shape.group_lengths == (4, 2):
            year, month = int(token.digit_groups[0]), int(token.digit_groups[1])
            return f"{_month_name(month)} {year_words(year, style.year_mode)}"
        return " ".join(cardinal(int(g)) for g in token.digit_groups)
    # plain integer: 4 digits read as a year, anything else as a day number
    # with the month picked up from the surrounding words when present
    value = int("".join(token.digit_groups))
    if shape.digit_count == 4:
        return year_words(value, style.year_mode)
    month = _cue(context, lambda w: lexicon.entries.get(w) == KeywordClass.Month)
    if month:
        return f"{cardinal(value)} {month}"
    return cardinal(value)


def _day_period(hour24: int) -> str:
    if hour24 == 12:
        return "tengah hari"
    if hour24 < 12:
        return "pagi"
    if hour24 <= 18:
        return "petang"
    return "malam"


def _verbalize_time(token, shape, style, context, lexicon) -> str:
    hour = int(token.digit_groups[0])
    minutes = int(token.digit_groups[1]) if len(token.digit_groups) > 1 else 0
    word = _cue(context, _PERIODS.__contains__)
    period = _PERIODS.get(word) or _day_period(hour % 12 + 12 if word == "pm" else hour)
    hour12 = hour % 12 or 12
    if minutes:
        return f"{cardinal(hour12)} {cardinal(minutes)} {period}"
    return f"{cardinal(hour12)} {period}"


def _verbalize_phone(token, shape, style, context, lexicon) -> str:
    # digit by digit; group breaks (hyphens) become pauses, '+' is silent
    return " ".join(_digits_spoken(group) for group in token.digit_groups)


def _whole_and_fraction(token: NumberToken) -> tuple[int, str]:
    """The whole part, comma groups joined, and the digits of a final '.'
    group, or "" when the token has none."""
    if token.separators and token.separators[-1] == ".":
        return int("".join(token.digit_groups[:-1])), token.digit_groups[-1]
    return int("".join(token.digit_groups)), ""


def _verbalize_currency(token, shape, style, context, lexicon) -> str:
    whole, fraction = _whole_and_fraction(token)
    if not fraction and shape.kind != ShapeKind.CurrencyPrefixed and context.postposition1 == "sen":
        return f"{cardinal(whole)} sen"  # 50 sen is half a ringgit, not 50 of them
    # one or two fraction digits are sen, a single digit tens of them (2.5 reads
    # as 2.50); a longer fraction is no sen amount, so the amount reads as a decimal
    cents = int(fraction.ljust(2, "0")) if len(fraction) <= 2 else 0
    symbolic = style.currency_mode == CurrencyMode.Symbolic
    says_unit = whole or not cents  # the spoken style names the currency after a whole amount
    unit = None
    if says_unit or symbolic:
        unit = _cue(context, lambda w: lexicon.entries.get(w) == KeywordClass.CurrencyWord) or "ringgit"
    rm = symbolic and unit == "ringgit"  # rm stands for ringgit alone; any other currency reads as spoken
    parts = ["rm"] if rm else []
    if says_unit:
        parts.append(cardinal(whole) if len(fraction) <= 2 else _decimal_words(token))
        if not rm:
            parts.append(unit)
    if cents:
        parts.append(f"{cardinal(cents)} sen")
    return " ".join(parts)


def _decimal_words(token: NumberToken) -> str:
    """Integer part, then 'perpuluhan' and spoken digits for a '.' group."""
    whole, fraction = _whole_and_fraction(token)
    if fraction:
        return f"{cardinal(whole)} perpuluhan {_digits_spoken(fraction)}"
    return cardinal(whole)


def _measurement_unit(context: ContextWindow, mode: UnitMode, lexicon: Lexicon) -> str | None:
    word = context.postposition1
    if word in _UNIT_ABBREVS:
        return _UNIT_ABBREVS[word] if mode == UnitMode.Full else word
    if lexicon.entries.get(word) in (KeywordClass.MeasurementUnit, KeywordClass.CollectiveNoun):
        return word
    return None


def _verbalize_measurement(token, shape, style, context, lexicon) -> str:
    words = _decimal_words(token)
    unit = _measurement_unit(context, style.unit_mode, lexicon)
    if unit:
        return f"{words} {unit}"
    return words


def _verbalize_percentage(token, shape, style, context, lexicon) -> str:
    if "-" in token.separators:
        joined = " hingga ".join(cardinal(int(g)) for g in token.digit_groups)
        return f"{joined} peratus"
    return f"{_decimal_words(token)} peratus"


# the one reading table: each label's reader and the shapes that reader accepts
_READINGS: dict[FormatLabel, tuple[Callable[..., str], tuple[ShapeKind, ...]]] = {
    FormatLabel.Date: (_verbalize_date, (ShapeKind.PlainInt, ShapeKind.SlashDate, ShapeKind.HyphenGroups)),
    FormatLabel.Time: (_verbalize_time, (ShapeKind.PlainInt, ShapeKind.ColonTime, ShapeKind.DotTime)),
    FormatLabel.Phone: (_verbalize_phone, (ShapeKind.PlainInt, ShapeKind.HyphenGroups, ShapeKind.SignedPhone)),
    FormatLabel.Currency: (
        _verbalize_currency,
        (ShapeKind.CurrencyPrefixed, ShapeKind.PlainInt, ShapeKind.Decimal, ShapeKind.DotTime),
    ),
    FormatLabel.Measurement: (_verbalize_measurement, (ShapeKind.PlainInt, ShapeKind.Decimal, ShapeKind.DotTime)),
    FormatLabel.Percentage: (
        _verbalize_percentage,
        (ShapeKind.PercentSuffixed, ShapeKind.PlainInt, ShapeKind.Decimal, ShapeKind.DotTime, ShapeKind.HyphenGroups),
    ),
}
