import string

import pytest

from numctx.context_features import ContextWindow, KeywordClass, Lexicon, default_lexicon, window_for_token
from numctx.labels import FormatLabel
from numctx.locator import NumberToken, ShapeKind, locate_numbers, tokenize
from numctx.verbalizer import (
    DEFAULT_STYLE,
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
    return window_for_token(tokenize(text), locate_numbers(text)[index])


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

    def test_currency_plain_ringgit_default(self):
        assert verbalize(tok("250"), C) == "dua ratus lima puluh ringgit"

    def test_percentage_decimal(self):
        assert verbalize(tok("2.5%"), PC) == "dua perpuluhan lima peratus"

    def test_percentage_range_hyphen(self):
        assert verbalize(tok("10-20 peratus"), PC) == "sepuluh hingga dua puluh peratus"


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
        allowed = set(string.ascii_lowercase + " ")
        for kind, text in samples.items():
            for label in FormatLabel:
                try:
                    words = verbalize(tok(text), label)
                except VerbalizationError:
                    continue
                assert words
                assert set(words) <= allowed
                assert "  " not in words


class TestStyleDefaults:
    def test_documented_defaults(self):
        assert DEFAULT_STYLE.year_mode == YearMode.Full
        assert DEFAULT_STYLE.currency_mode == CurrencyMode.Spoken
        assert DEFAULT_STYLE.unit_mode == UnitMode.Full
