import itertools
import os
import string
import subprocess
import sys
from collections.abc import Callable
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import numctx
from numctx import verbalizer
from numctx.context_features import ContextWindow, KeywordClass, Lexicon, default_lexicon, number_window
from numctx.labels import FormatLabel
from numctx.locator import NumberToken, ShapeKind, locate_numbers, shape_of
from numctx.verbalizer import (
    DEFAULT_STYLE,
    MONTHS,
    CurrencyMode,
    UnitMode,
    VerbalizationError,
    VerbalizationStyle,
    YearMode,
    cardinal,
    verbalize,
    year_words,
)

D, T, P, C, M, PC = FormatLabel


def tok(text: str) -> NumberToken:
    (token,) = locate_numbers(text)
    return token


def win(text: str, index: int = 0) -> ContextWindow:
    return number_window(text, locate_numbers(text)[index])


class TestCardinal:
    @pytest.mark.parametrize(
        "n,words",
        [
            (0, "kosong"),
            (1, "satu"),
            (9, "sembilan"),
            (10, "sepuluh"),
            (11, "sebelas"),
            (12, "dua belas"),
            (19, "sembilan belas"),
            (20, "dua puluh"),
            (21, "dua puluh satu"),
            (74, "tujuh puluh empat"),
            (100, "seratus"),
            (101, "seratus satu"),
            (245, "dua ratus empat puluh lima"),
            (1000, "seribu"),
            (1500, "seribu lima ratus"),
            (1924, "seribu sembilan ratus dua puluh empat"),
            (2000, "dua ribu"),
            (10500, "sepuluh ribu lima ratus"),
            (1000000, "satu juta"),
            (2000003, "dua juta tiga"),
            (1000000000, "satu bilion"),
        ],
    )
    def test_grammar(self, n, words):
        assert cardinal(n) == words

    def test_range_errors(self):
        with pytest.raises(ValueError):
            cardinal(-1)

    def test_digit_by_digit_from_10_18(self):
        # past kuadrilion there is no magnitude word, so the digits are read
        assert cardinal(10**18) == "satu " + " ".join(["kosong"] * 18)
        assert cardinal(123456789012345678901) == (
            "satu dua tiga empat lima enam tujuh lapan sembilan kosong "
            "satu dua tiga empat lima enam tujuh lapan sembilan kosong satu"
        )

    def test_largest_value(self):
        words = cardinal(10**18 - 1)
        assert words.startswith("sembilan ratus sembilan puluh sembilan kuadrilion")

    def test_injective_on_sample(self):
        # distinct integers must verbalize to distinct strings
        sample = sorted(set(range(2000)) | set(range(0, 1_000_000, 107)))
        rendered = [cardinal(n) for n in sample]
        assert len(set(rendered)) == len(sample)

    def test_alphabet(self):
        allowed = set(string.ascii_lowercase + " ")
        for n in range(0, 5000, 37):
            assert set(cardinal(n)) <= allowed


# frozen copy of cardinal and its group reader as they stood before the group
# words were cached and numbers under 1000 returned their group directly
_MAGNITUDES = ["", "ribu", "juta", "bilion", "trilion", "kuadrilion"]
_CARDINAL_LIMIT = 10**18


def _oracle_cardinal(n: int) -> str:
    if n < 0:
        raise ValueError(f"cardinal is defined for non-negative integers, got {n}")
    if n >= _CARDINAL_LIMIT:
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
        words = _oracle_group_words(group)
        if power > 0:
            words = f"{words} {_MAGNITUDES[power]}"
        parts.append(words)
    return " ".join(parts)


def _oracle_group_words(value: int) -> str:
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


class TestCardinalMatchesFrozenCardinal:
    def test_every_integer_below_100000(self):
        for n in range(100_000):
            assert cardinal(n) == _oracle_cardinal(n), n

    @given(st.integers(0, 10**21))
    @example(999)
    @example(1000)
    @example(1001)
    @example(999_999)
    @example(10**6)
    @example(10**18 - 1)
    @example(10**18)
    def test_any_integer(self, n):
        assert cardinal(n) == _oracle_cardinal(n)


class TestGroupMemo:
    def test_holds_at_most_one_entry_per_group(self):
        for n in range(10**6 + 1):
            cardinal(n)
        assert verbalizer._group_words.cache_info().currsize <= 999

    def test_importing_the_cli_reads_no_group(self):
        # a one-shot classify process pays for the groups it reads, not for a table
        env = {**os.environ, "PYTHONPATH": str(Path(numctx.__file__).parents[1])}
        script = "import numctx.cli, numctx.verbalizer as v; print(v._group_words.cache_info())"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (0, "CacheInfo(hits=0, misses=0, maxsize=None, currsize=0)\n")


class TestYearWords:
    def test_full(self):
        assert year_words(1924, YearMode.Full) == "seribu sembilan ratus dua puluh empat"

    def test_paired(self):
        assert year_words(1924, YearMode.Paired) == "sembilan belas dua puluh empat"

    def test_paired_with_low_tail(self):
        assert year_words(1905, YearMode.Paired) == "sembilan belas lima"

    def test_paired_only_for_four_digit_years(self):
        assert year_words(924, YearMode.Paired) == cardinal(924)


class TestVerbalizeFixtures:
    def test_percentage(self):
        assert verbalize(tok("5%"), PC) == "lima peratus"

    def test_time_pm(self):
        text = "2.00 PM"
        assert verbalize(tok(text), T, context=win(text)) == "dua petang"

    def test_currency_spoken(self):
        assert verbalize(tok("RM 2.50"), C) == "dua ringgit lima puluh sen"

    def test_currency_symbolic(self):
        style = VerbalizationStyle(currency_mode=CurrencyMode.Symbolic)
        assert verbalize(tok("RM 2"), C, style) == "rm dua"
        assert verbalize(tok("RM 0.50"), C, style) == "rm lima puluh sen"

    def test_year_modes(self):
        assert verbalize(tok("1924"), D) == "seribu sembilan ratus dua puluh empat"
        paired = VerbalizationStyle(year_mode=YearMode.Paired)
        assert verbalize(tok("1924"), D, paired) == "sembilan belas dua puluh empat"

    def test_measurement_unit_modes(self):
        text = "jarak 5 cm sahaja"
        assert verbalize(tok(text), M, context=win(text)) == "lima sentimeter"
        abbrev = VerbalizationStyle(unit_mode=UnitMode.Abbrev)
        assert verbalize(tok(text), M, abbrev, context=win(text)) == "lima cm"

    def test_measurement_full_word_unit(self):
        text = "sejauh 42 kilometer dari sini"
        assert verbalize(tok(text), M, context=win(text)) == "empat puluh dua kilometer"

    def test_measurement_collective_noun(self):
        text = "seramai 40 orang hadir"
        assert verbalize(tok(text), M, context=win(text)) == "empat puluh orang"

    def test_time_six_am(self):
        assert verbalize(tok("06.00"), T) == "enam pagi"

    def test_time_fourteen_hundred(self):
        assert verbalize(tok("14.00"), T) == "dua petang"

    def test_time_with_minutes(self):
        text = "pukul 2.30 petang"
        assert verbalize(tok(text), T, context=win(text)) == "dua tiga puluh petang"

    def test_period_after_the_time_beats_one_before(self):
        text = "Esok pagi pukul 8.30 malam"
        assert verbalize(tok(text), T, context=win(text)) == "lapan tiga puluh malam"

    def test_time_colon_noon(self):
        assert verbalize(tok("12:47"), T) == "dua belas empat puluh tujuh tengah hari"

    def test_time_evening_from_hour(self):
        assert verbalize(tok("20:15"), T) == "lapan lima belas malam"

    def test_phone_digit_by_digit(self):
        assert (
            verbalize(tok("03-4012345"), P)
            == "kosong tiga empat kosong satu dua tiga empat lima"
        )

    def test_phone_signed_plus_silent(self):
        words = verbalize(tok("+60-12"), P)
        assert words == "enam kosong satu dua"

    def test_date_with_month_from_context(self):
        text = "Mahkamah menetapkan 21 Januari ini untuk sebutan semula kes"
        assert verbalize(tok(text), D, context=win(text)) == "dua puluh satu januari"

    def test_date_slash(self):
        assert (
            verbalize(tok("21/01/2020"), D)
            == "dua puluh satu januari dua ribu dua puluh"
        )

    def test_date_iso_hyphen(self):
        assert verbalize(tok("2020-01-21"), D) == "dua puluh satu januari dua ribu dua puluh"

    def test_date_year_month_hyphen(self):
        assert verbalize(tok("2020-06"), D) == "jun dua ribu dua puluh"

    def test_day_without_context(self):
        assert verbalize(tok("21"), D) == "dua puluh satu"

    def test_currency_foreign_unit_from_context(self):
        text = "bernilai 500 euro semalam"
        assert verbalize(tok(text), C, context=win(text)) == "lima ratus euro"

    def test_units_come_from_the_given_lexicon(self):
        added = {"yen": KeywordClass.CurrencyWord, "bakul": KeywordClass.MeasurementUnit}
        lexicon = Lexicon(entries={**default_lexicon().entries, **added})
        text = "harga 500 yen sahaja"
        assert verbalize(tok(text), C, context=win(text)) == "lima ratus ringgit"
        assert verbalize(tok(text), C, context=win(text), lexicon=lexicon) == "lima ratus yen"
        text = "dua 3 bakul buah"
        assert verbalize(tok(text), M, context=win(text)) == "tiga"
        assert verbalize(tok(text), M, context=win(text), lexicon=lexicon) == "tiga bakul"

    def test_currency_word_after_the_number_beats_one_before(self):
        text = "dolar 500 ringgit sahaja"
        assert verbalize(tok(text), C, context=win(text)) == "lima ratus ringgit"

    def test_bare_amount_before_sen_reads_sen(self):
        text = "Harga 50 sen sahaja ."
        assert verbalize(tok(text), C, context=win(text)) == "lima puluh sen"
        symbolic = VerbalizationStyle(currency_mode=CurrencyMode.Symbolic)
        assert verbalize(tok(text), C, symbolic, context=win(text)) == "lima puluh sen"
        # with RM, or with a fraction, the amount is ringgit
        assert verbalize(tok("RM 50 sen"), C, context=win("RM 50 sen")) == "lima puluh ringgit"
        assert verbalize(tok("1.50 sen"), C, context=win("1.50 sen")) == "satu ringgit lima puluh sen"

    def test_fraction_of_three_digits_reads_as_a_decimal_amount(self):
        text = "kerugian dianggarkan RM 1.234 semalam"
        assert verbalize(tok(text), C, context=win(text)) == "satu perpuluhan dua tiga empat ringgit"
        symbolic = VerbalizationStyle(currency_mode=CurrencyMode.Symbolic)
        assert verbalize(tok(text), C, symbolic, context=win(text)) == "rm satu perpuluhan dua tiga empat"
        assert verbalize(tok("harga 1.234 dolar"), C, context=win("harga 1.234 dolar")) == (
            "satu perpuluhan dua tiga empat dolar"
        )

    def test_symbolic_style_writes_rm_for_ringgit_only(self):
        symbolic = VerbalizationStyle(currency_mode=CurrencyMode.Symbolic)
        for text, words in [
            ("Barang itu bernilai 500 euro semalam", "lima ratus euro"),
            ("kos 3.50 dolar sahaja", "tiga dolar lima puluh sen"),
            ("kos 0.50 dolar sahaja", "lima puluh sen"),
            ("harga 500 ringgit sahaja", "rm lima ratus"),
            ("Harga RM 12.50 sahaja", "rm dua belas lima puluh sen"),
        ]:
            assert verbalize(tok(text), C, symbolic, context=win(text)) == words

    def test_currency_plain_ringgit_default(self):
        assert verbalize(tok("250"), C) == "dua ratus lima puluh ringgit"

    def test_percentage_decimal(self):
        assert verbalize(tok("2.5%"), PC) == "dua perpuluhan lima peratus"

    def test_percentage_range_hyphen(self):
        assert verbalize(tok("10-20 peratus"), PC) == "sepuluh hingga dua puluh peratus"


class TestMonthWords:
    def test_bundled_lexicon_month_words_are_months(self):
        entries = default_lexicon().entries
        assert [w for w, c in entries.items() if c == KeywordClass.Month] == MONTHS

    def test_month_word_comes_from_the_given_lexicon(self):
        lexicon = Lexicon(entries={**default_lexicon().entries, "jan": KeywordClass.Month})
        text = "Mesyuarat pada 21 jan ini"
        assert verbalize(tok(text), D, context=win(text)) == "dua puluh satu"
        assert verbalize(tok(text), D, context=win(text), lexicon=lexicon) == "dua puluh satu jan"

    def test_lexicon_without_months_names_none(self):
        text = "Mahkamah menetapkan 21 Januari ini"
        assert verbalize(tok(text), D, context=win(text), lexicon=Lexicon(entries={})) == "dua puluh satu"


# frozen copy of the shapes each label can be read from; verbalize must raise
# for exactly the label and shape pairs outside it
READABLE = {
    D: {ShapeKind.PlainInt, ShapeKind.SlashDate, ShapeKind.HyphenGroups},
    T: {ShapeKind.PlainInt, ShapeKind.ColonTime, ShapeKind.DotTime},
    P: {ShapeKind.PlainInt, ShapeKind.HyphenGroups, ShapeKind.SignedPhone},
    C: {ShapeKind.CurrencyPrefixed, ShapeKind.PlainInt, ShapeKind.Decimal, ShapeKind.DotTime},
    M: {ShapeKind.PlainInt, ShapeKind.Decimal, ShapeKind.DotTime},
    PC: {ShapeKind.PercentSuffixed, ShapeKind.PlainInt, ShapeKind.Decimal, ShapeKind.DotTime, ShapeKind.HyphenGroups},
}


class TestCompatibility:
    def test_error_names_token_and_label(self):
        with pytest.raises(VerbalizationError, match=r"12:47.*Currency"):
            verbalize(tok("12:47"), C)

    @pytest.mark.parametrize(
        "text,label",
        [
            ("12:47", D),
            ("21/01/2020", T),
            ("RM 2.50", M),
            ("25%", P),
            ("+60-12-345678", C),
            ("2.5", D),
        ],
    )
    def test_incompatible_pairs(self, text, label):
        with pytest.raises(VerbalizationError):
            verbalize(tok(text), label)

    def test_every_reachable_pair_verbalizes_or_raises(self):
        samples = {
            ShapeKind.PlainInt: "250",
            ShapeKind.Decimal: "2.5",
            ShapeKind.SlashDate: "21/01/2020",
            ShapeKind.HyphenGroups: "10-20",
            ShapeKind.ColonTime: "12:47",
            ShapeKind.DotTime: "2.30",
            ShapeKind.SignedPhone: "+60-12-345678",
            ShapeKind.CurrencyPrefixed: "RM 2.50",
            ShapeKind.PercentSuffixed: "25%",
        }
        assert set(samples) == set(ShapeKind)
        allowed = set(string.ascii_lowercase + " ")
        for kind, text in samples.items():
            assert shape_of(tok(text)).kind == kind
            for label in FormatLabel:
                if kind not in READABLE[label]:
                    with pytest.raises(VerbalizationError):
                        verbalize(tok(text), label)
                    continue
                words = verbalize(tok(text), label)
                assert words
                assert set(words) <= allowed
                assert "  " not in words


class TestStyleDefaults:
    def test_documented_defaults(self):
        assert DEFAULT_STYLE.year_mode == YearMode.Full
        assert DEFAULT_STYLE.currency_mode == CurrencyMode.Spoken
        assert DEFAULT_STYLE.unit_mode == UnitMode.Full


# --- frozen oracle --------------------------------------------------------
# The six readers and verbalize as they stood while the verbalizer still kept
# a second copy of several reading rules (its own month set, two money and
# decimal splits, two date lines, two currency templates, an if/elif period
# chain), with the currency reader's three later rules added: a bare amount
# before the word sen counts sen, a fraction of three or more digits is read
# as a decimal amount, and the symbolic style writes rm for ringgit only.
# verbalize must read every token, label, style and window exactly as they
# do, errors included.

_ONES = ["kosong", "satu", "dua", "tiga", "empat", "lima", "enam", "tujuh", "lapan", "sembilan"]
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


def _digits_spoken(digits: str) -> str:
    return " ".join(_ONES[int(d)] for d in digits)


def _context_slots(context: ContextWindow | None) -> list[str]:
    # the period and currency readers search post1, post2, pre1, pre2, as the
    # month search does: a word right after a number names it before one in front
    if context is None:
        return []
    slots = (context.postposition1, context.postposition2, context.preposition1, context.preposition2)
    return [w for w in slots if w is not None]


def oracle_verbalize(token, label, style=DEFAULT_STYLE, context=None, lexicon=None, shape=None) -> str:
    lexicon = lexicon if lexicon is not None else default_lexicon()
    shape = shape if shape is not None else shape_of(token)
    reader, kinds = _READINGS[label]
    if shape.kind not in kinds:
        raise VerbalizationError(f"token {token.raw!r} with shape {shape.kind.name} cannot be read as {label.name}")
    words = reader(token, shape, style, context, lexicon)
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


def _verbalize_date(token, shape, style, context, lexicon) -> str:
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


def _verbalize_time(token, shape, style, context, lexicon) -> str:
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


def _verbalize_phone(token, shape, style, context, lexicon) -> str:
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
        if lexicon.entries.get(word) == KeywordClass.CurrencyWord:
            return word
    return "ringgit"


def _verbalize_currency(token, shape, style, context, lexicon) -> str:
    has_fraction = bool(token.separators) and token.separators[-1] == "."
    # an amount without RM or a fraction, followed by the word sen, counts sen
    if not has_fraction and token.prefix_symbol != "RM" and context is not None and context.postposition1 == "sen":
        return f"{cardinal(int(''.join(token.digit_groups)))} sen"
    # the symbolic style writes rm for ringgit only: any other currency reads as spoken
    writes_rm = style.currency_mode == CurrencyMode.Symbolic and _currency_unit(context, lexicon) == "ringgit"
    # a fraction of three or more digits is no sen amount: the amount is a decimal
    if has_fraction and len(token.digit_groups[-1]) > 2:
        if writes_rm:
            return f"rm {_decimal_words(token)}"
        return f"{_decimal_words(token)} {_currency_unit(context, lexicon)}"
    whole, cents = _split_money(token)
    if writes_rm:
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


def _outcome(read, *args):
    try:
        return read(*args)
    except ValueError as exc:  # VerbalizationError, or int() past its digit limit
        return (type(exc), str(exc))


STYLES = [VerbalizationStyle(*modes) for modes in itertools.product(YearMode, CurrencyMode, UnitMode)]


def _digits(min_size: int, max_size: int) -> st.SearchStrategy[str]:
    return st.text("0123456789", min_size=min_size, max_size=max_size)


_TOKENS = st.one_of(
    # any digit groups, each but the last followed by a separator, with or
    # without the attached symbols
    st.builds(
        lambda prefix, groups, seps, suffix: prefix + "".join(map("".join, zip(groups[:-1], seps))) + groups[-1] + suffix,
        st.sampled_from(["", "", "+", "RM", "RM "]),
        st.lists(
            st.one_of(st.sampled_from(["0", "1", "5", "01", "12", "13", "21", "50", "2024"]), _digits(1, 20)),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.sampled_from(".,:-/"), min_size=3, max_size=3),
        st.sampled_from(["", "", "%"]),
    ),
    # plain integers: every label reads them, and Date takes a month word from the window
    _digits(1, 20),
    # the shapes the date, time and money readers take apart
    st.builds("{}-{}-{}".format, _digits(4, 4), _digits(2, 2), _digits(2, 2)),
    st.builds("{}-{}".format, _digits(4, 4), _digits(2, 2)),
    st.builds("{}/{}/{}".format, _digits(1, 2), _digits(1, 2), _digits(1, 4)),
    st.builds("{}{}.{}".format, st.sampled_from(["", "RM ", "RM"]), _digits(1, 4), _digits(1, 3)),
    st.builds("{}.{}".format, _digits(1, 2), _digits(2, 2)),
    st.builds("{}:{}".format, _digits(1, 2), _digits(2, 2)),
    st.builds("{}.{}%".format, _digits(1, 3), _digits(1, 2)),
)
# the shapes Currency reads: digit groups joined by ',' or '.', with or without RM
_CURRENCY_TOKENS = st.builds(
    lambda prefix, groups, seps: prefix + "".join(map("".join, zip(groups[:-1], seps))) + groups[-1],
    st.sampled_from(["", "", "RM", "RM "]),
    st.lists(st.one_of(st.sampled_from(["0", "1", "5", "50"]), _digits(1, 4)), min_size=1, max_size=3),
    st.lists(st.sampled_from(".,"), min_size=2, max_size=2),
)
# each label that reads the token's shape is drawn three times as often as one that refuses it
_CASES = _TOKENS.flatmap(
    lambda text: st.tuples(
        st.just(text),
        st.sampled_from([*[lb for lb in FormatLabel if shape_of(tok(text)).kind in READABLE[lb]] * 2, *FormatLabel]),
    )
)
_CURRENCY_WORDS = ["ringgit", "euro", "dolar", "baht", "sen", "rm"]
_WINDOW_WORDS = st.one_of(
    st.none(),
    # period words, then months (with an abbreviation the bundled lexicon lacks)
    st.sampled_from(["pagi", "petang", "malam", "tengah", "hari", "am", "pm"]),
    st.sampled_from([*MONTHS, "jan", "ogo"]),
    # currency words, then unit words and abbreviations, collective nouns
    st.sampled_from(_CURRENCY_WORDS),
    st.sampled_from(["meter", "kilometer", "gram", "mol", "orang", "buah", "ekor", "cm", "km", "kg", "ml", "l", "mg"]),
    # words the bundled lexicon does not class, and words of other classes
    st.sampled_from(["mesyuarat", "harga", "pada", "ini", "peratus", "juta", "tel", "jam"]),
)
_WINDOWS = st.one_of(st.none(), st.builds(ContextWindow, _WINDOW_WORDS, _WINDOW_WORDS, _WINDOW_WORDS, _WINDOW_WORDS))


class TestMatchesFrozenReaders:
    @settings(max_examples=1000, deadline=None)
    @given(_CASES, st.sampled_from(STYLES), _WINDOWS)
    @example(("2024-12-01", D), DEFAULT_STYLE, None)  # ISO: day last
    @example(("RM 2.5", C), DEFAULT_STYLE, None)  # one fraction digit: tens of sen
    @example(("RM 0.5", C), STYLES[-1], None)
    @example(("21", D), DEFAULT_STYLE, ContextWindow("pada", "mac", "jun", None))  # post before pre
    @example(("2.00", T), DEFAULT_STYLE, ContextWindow(None, None, "pm", "pagi"))
    @example(("8.30", T), DEFAULT_STYLE, ContextWindow("pagi", "pukul", "malam", None))  # Esok pagi pukul 8.30 malam
    @example(("500", C), DEFAULT_STYLE, ContextWindow(None, "dolar", "ringgit", None))  # post1 before pre1
    @example(("50", C), STYLES[0], ContextWindow(None, "harga", "sen", "sahaja"))  # Harga 50 sen sahaja
    @example(("RM 1.234", C), DEFAULT_STYLE, ContextWindow("kerugian", "dianggarkan", "semalam", None))
    @example(("500", C), STYLES[0], ContextWindow("itu", "bernilai", "euro", "semalam"))  # rm is ringgit only
    def test_verbalize_reads_as_the_frozen_readers(self, case, style, window):
        text, label = case
        token = tok(text)
        expected = _outcome(oracle_verbalize, token, label, style, window)
        assert _outcome(verbalize, token, label, style, window) == expected
        assert _outcome(verbalize, token, label, style, window, None, shape_of(token)) == expected

    # _WINDOWS puts sen at post1 in about 1 case in 70; here every token
    # has a shape Currency reads and post1 is a currency word or the edge
    @settings(max_examples=1000, deadline=None)
    @given(
        _CURRENCY_TOKENS,
        st.sampled_from(STYLES),
        st.builds(ContextWindow, _WINDOW_WORDS, _WINDOW_WORDS, st.sampled_from([None, *_CURRENCY_WORDS]), _WINDOW_WORDS),
    )
    def test_currency_reads_as_the_frozen_reader(self, text, style, window):
        token = tok(text)
        assert _outcome(verbalize, token, C, style, window) == _outcome(oracle_verbalize, token, C, style, window)


# a unit word and a currency word that are not plain ASCII, added to the bundled lexicon
_CUE_LEXICON = Lexicon(
    entries={**default_lexicon().entries, "m²": KeywordClass.MeasurementUnit, "usd$": KeywordClass.CurrencyWord}
)
_CUE_WORDS = st.one_of(_WINDOW_WORDS, st.sampled_from(["m²", "usd$"]))


class TestReadersBuildTheFinalForm:
    # verbalize returns the reader's string as it is, so each reader must
    # itself give lowercase words separated by single spaces
    @settings(max_examples=1000, deadline=None)
    @given(
        _CASES,
        st.sampled_from(STYLES),
        st.one_of(_WINDOWS, st.builds(ContextWindow, _CUE_WORDS, _CUE_WORDS, _CUE_WORDS, _CUE_WORDS)),
        st.sampled_from([default_lexicon(), _CUE_LEXICON]),
    )
    @example(("120", M), DEFAULT_STYLE, ContextWindow("luas", "rumah", "m²", "sahaja"), _CUE_LEXICON)
    @example(("RM 2.50", C), STYLES[0], ContextWindow(None, "harga", "usd$", None), _CUE_LEXICON)
    def test_reader_output_is_lowercase_single_spaced(self, case, style, window, lexicon):
        text, label = case
        token = tok(text)
        shape = shape_of(token)
        reader, kinds = verbalizer._READINGS[label]
        if shape.kind not in kinds:
            return
        words = reader(token, shape, style, window or ContextWindow(None, None, None, None), lexicon)
        assert words == " ".join(words.lower().split())
