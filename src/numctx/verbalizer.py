"""Malay verbalization of classified number tokens.

Every output is normalized to lowercase letters and single spaces. Where a
format admits several spoken variants, the choice is made explicit through
``VerbalizationStyle`` rather than guessed. Some templates need words that
live next to the number instead of inside it (a month name after a day, an
``am``/``pm`` marker after a clock time, the unit after a measurement), so
``verbalize`` accepts the optional context window those words come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .context_features import ContextWindow, KeywordClass, Lexicon, default_lexicon
from .labels import FormatLabel
from .locator import NumberToken, ShapeKind, shape_of

_ONES = ["kosong", "satu", "dua", "tiga", "empat", "lima", "enam", "tujuh", "lapan", "sembilan"]
_MAGNITUDES = ["", "ribu", "juta", "bilion", "trilion", "kuadrilion"]
_MONTHS = [
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
_PERIOD_WORDS = {"pagi", "petang", "malam", "tengah", "am", "pm"}

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


@dataclass(frozen=True)
class VerbalizationStyle:
    year_mode: YearMode = YearMode.Full
    currency_mode: CurrencyMode = CurrencyMode.Spoken
    unit_mode: UnitMode = UnitMode.Full


DEFAULT_STYLE = VerbalizationStyle()


class VerbalizationError(ValueError):
    """A token's shape cannot be read under the requested format label."""


# shapes each format label can verbalize
_COMPATIBLE: dict[FormatLabel, frozenset[ShapeKind]] = {
    FormatLabel.Date: frozenset(
        {ShapeKind.PlainInt, ShapeKind.SlashDate, ShapeKind.HyphenGroups}
    ),
    FormatLabel.Time: frozenset({ShapeKind.PlainInt, ShapeKind.ColonTime, ShapeKind.DotTime}),
    FormatLabel.Phone: frozenset(
        {ShapeKind.PlainInt, ShapeKind.HyphenGroups, ShapeKind.SignedPhone}
    ),
    FormatLabel.Currency: frozenset(
        {ShapeKind.CurrencyPrefixed, ShapeKind.PlainInt, ShapeKind.Decimal, ShapeKind.DotTime}
    ),
    FormatLabel.Measurement: frozenset(
        {ShapeKind.PlainInt, ShapeKind.Decimal, ShapeKind.DotTime}
    ),
    FormatLabel.Percentage: frozenset(
        {
            ShapeKind.PercentSuffixed,
            ShapeKind.PlainInt,
            ShapeKind.Decimal,
            ShapeKind.DotTime,
            ShapeKind.HyphenGroups,
        }
    ),
}


def cardinal(n: int) -> str:
    """Render a non-negative integer as Malay words; from 10**18 up, past the
    largest magnitude word, the digits are read one by one."""
    if n < 0:
        raise ValueError(f"cardinal is defined for non-negative integers, got {n}")
    if n >= CARDINAL_LIMIT:
        return _digits_spoken(str(n))
    if n == 0:
        return _ONES[0]

    groups: list[int] = []  # least significant first
    while n > 0:
        groups.append(n % 1000)
        n //= 1000
    parts: list[str] = []
    for power in range(len(groups) - 1, -1, -1):
        group = groups[power]
        if group == 0:
            continue
        if power == 1 and group == 1:
            parts.append("seribu")
            continue
        words = _group_words(group)
        if power > 0:
            words = f"{words} {_MAGNITUDES[power]}"
        parts.append(words)
    return " ".join(parts)


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


def _context_slots(context: ContextWindow | None) -> list[str]:
    if context is None:
        return []
    return [w for w in context.slots() if w is not None]


def verbalize(
    token: NumberToken,
    label: FormatLabel,
    style: VerbalizationStyle = DEFAULT_STYLE,
    context: ContextWindow | None = None,
    lexicon: Lexicon | None = None,
) -> str:
    """Convert a classified number token into Malay words; ``lexicon`` (the
    bundled one by default) tells which context words name a currency or unit."""
    lexicon = lexicon if lexicon is not None else default_lexicon()
    shape = shape_of(token)
    if shape.kind not in _COMPATIBLE[label]:
        raise VerbalizationError(
            f"token {token.raw!r} with shape {shape.kind.name} cannot be read as {label.name}"
        )
    if label == FormatLabel.Date:
        words = _verbalize_date(token, shape, style, context)
    elif label == FormatLabel.Time:
        words = _verbalize_time(token, shape, context)
    elif label == FormatLabel.Phone:
        words = _verbalize_phone(token)
    elif label == FormatLabel.Currency:
        words = _verbalize_currency(token, style, context, lexicon)
    elif label == FormatLabel.Measurement:
        words = _verbalize_measurement(token, style, context, lexicon)
    else:
        words = _verbalize_percentage(token)
    return " ".join(words.lower().split())


def _month_name(month: int) -> str:
    if 1 <= month <= 12:
        return _MONTHS[month - 1]
    # out-of-range month group: read it as a plain cardinal
    return cardinal(month)


_MONTH_SET = frozenset(_MONTHS)


def _month_from_context(context: ContextWindow | None) -> str | None:
    if context is None:
        return None
    for word in (context.postposition1, context.postposition2, context.preposition1, context.preposition2):
        if word in _MONTH_SET:
            return word
    return None


def _verbalize_date(token, shape, style, context) -> str:
    if shape.kind == ShapeKind.SlashDate:
        day, month, year = (int(g) for g in token.digit_groups)
        return f"{cardinal(day)} {_month_name(month)} {year_words(year, style.year_mode)}"
    if shape.kind == ShapeKind.HyphenGroups:
        if shape.group_lengths == (4, 2, 2):
            year, month, day = (int(g) for g in token.digit_groups)
            return f"{cardinal(day)} {_month_name(month)} {year_words(year, style.year_mode)}"
        if shape.group_lengths == (4, 2):
            year, month = int(token.digit_groups[0]), int(token.digit_groups[1])
            return f"{_month_name(month)} {year_words(year, style.year_mode)}"
        return " ".join(cardinal(int(g)) for g in token.digit_groups)
    # plain integer: 4 digits read as a year, anything else as a day number
    # with the month picked up from the surrounding words when present
    value = int("".join(token.digit_groups))
    if shape.digit_count == 4:
        return year_words(value, style.year_mode)
    month = _month_from_context(context)
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


def _verbalize_time(token, shape, context) -> str:
    hour = int(token.digit_groups[0])
    minutes = int(token.digit_groups[1]) if len(token.digit_groups) > 1 else 0
    period = None
    for word in _context_slots(context):
        if word in _PERIOD_WORDS:
            if word == "am":
                period = "pagi"
            elif word == "pm":
                period = _day_period(hour % 12 + 12)
            elif word == "tengah":
                period = "tengah hari"
            else:
                period = word
            break
    if period is None:
        period = _day_period(hour)
    hour12 = hour % 12 or 12
    if minutes:
        return f"{cardinal(hour12)} {cardinal(minutes)} {period}"
    return f"{cardinal(hour12)} {period}"


def _verbalize_phone(token) -> str:
    # digit by digit; group breaks (hyphens) become pauses, '+' is silent
    return " ".join(_digits_spoken(group) for group in token.digit_groups)


def _split_money(token: NumberToken) -> tuple[int, int]:
    """(whole, cents): a final '.' group is cents, comma groups join."""
    if token.separators and token.separators[-1] == ".":
        whole_digits = "".join(token.digit_groups[:-1])
        cents_digits = token.digit_groups[-1]
        # single fraction digit means tens of sen: 2.5 reads as 2.50
        cents = int(cents_digits) * 10 if len(cents_digits) == 1 else int(cents_digits)
        return int(whole_digits), cents
    return int("".join(token.digit_groups)), 0


def _currency_unit(context: ContextWindow | None, lexicon: Lexicon) -> str:
    for word in _context_slots(context):
        if lexicon.lookup(word) == KeywordClass.CurrencyWord:
            return word
    return "ringgit"


def _verbalize_currency(token, style, context, lexicon) -> str:
    whole, cents = _split_money(token)
    if style.currency_mode == CurrencyMode.Symbolic:
        parts = ["rm"]
        if whole or not cents:
            parts.append(cardinal(whole))
        if cents:
            parts.append(f"{cardinal(cents)} sen")
        return " ".join(parts)
    unit = _currency_unit(context, lexicon)
    parts = []
    if whole or not cents:
        parts.append(f"{cardinal(whole)} {unit}")
    if cents:
        parts.append(f"{cardinal(cents)} sen")
    return " ".join(parts)


def _decimal_words(token: NumberToken) -> str:
    """Integer part, then 'perpuluhan' and spoken digits for a '.' group."""
    if token.separators and token.separators[-1] == ".":
        whole = int("".join(token.digit_groups[:-1]))
        return f"{cardinal(whole)} perpuluhan {_digits_spoken(token.digit_groups[-1])}"
    return cardinal(int("".join(token.digit_groups)))


def _measurement_unit(context: ContextWindow | None, mode: UnitMode, lexicon: Lexicon) -> str | None:
    if context is None:
        return None
    word = context.postposition1
    if word is None:
        return None
    if word in _UNIT_ABBREVS:
        return _UNIT_ABBREVS[word] if mode == UnitMode.Full else word
    if lexicon.lookup(word) in (KeywordClass.MeasurementUnit, KeywordClass.CollectiveNoun):
        return word
    return None


def _verbalize_measurement(token, style, context, lexicon) -> str:
    words = _decimal_words(token)
    unit = _measurement_unit(context, style.unit_mode, lexicon)
    if unit:
        return f"{words} {unit}"
    return words


def _verbalize_percentage(token) -> str:
    if "-" in token.separators:
        joined = " hingga ".join(cardinal(int(g)) for g in token.digit_groups)
        return f"{joined} peratus"
    return f"{_decimal_words(token)} peratus"
