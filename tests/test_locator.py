import re

import pytest
from conftest import _oracle_tokenize
from hypothesis import given, settings, strategies as st

from numctx.locator import (
    NumberShape,
    NumberToken,
    ShapeKind,
    locate_numbers,
    shape_of,
    words_after,
    words_before,
)


def every_word(text: str) -> list[str]:
    # a line has no more words than characters
    return words_after(text, 0, len(text))


class TestWordsBeforeAndAfter:
    def test_court_sentence(self):
        assert every_word("Mahkamah menetapkan 21 Januari ini untuk sebutan semula kes") == [
            "mahkamah", "menetapkan", "21", "januari", "ini", "untuk", "sebutan", "semula", "kes",
        ]

    def test_empty_text(self):
        assert words_before("", 0, 2) == words_after("", 0, 2) == []

    def test_detaches_final_full_stop(self):
        # hand tokenization: trailing '.' leaves the word, number dot stays
        assert every_word("harga RM 2.50.") == ["harga", "rm", "2.50"]

    def test_detaches_leading_and_trailing_punctuation(self):
        assert every_word('(dia berkata "ya!") ...') == ["dia", "berkata", "ya"]

    def test_nearest_first_and_at_most_count(self):
        text = "satu dua tiga empat lima"
        assert words_before(text, len(text), 2) == ["lima", "empat"]
        assert words_after(text, 0, 3) == ["satu", "dua", "tiga"]

    def test_a_chunk_the_position_cuts_is_left_out(self):
        # 10 is inside "tiga"; 5 and 8 cut "(RM5)" after its '(' and before its ')'
        assert words_before("satu dua tiga empat", 10, 2) == ["dua", "satu"]
        assert words_after("satu dua tiga empat", 10, 2) == ["empat"]
        assert words_before("kos (RM5) naik", 5, 2) == ["kos"]
        assert words_after("kos (RM5) naik", 8, 2) == ["naik"]

    def test_a_chunk_of_punctuation_only_is_no_word(self):
        assert words_before("satu ; dua ... 5", 15, 2) == ["dua", "satu"]
        assert words_after("5 , dua ! tiga", 1, 2) == ["dua", "tiga"]

    def test_word_internal_hyphen_kept(self):
        assert every_word("kata-kata itu") == ["kata-kata", "itu"]


class TestLocateNumbers:
    def test_currency_with_space(self):
        (token,) = locate_numbers("RM 2.50")
        assert token.prefix_symbol == "RM"
        assert token.digit_groups == ("2", "50")
        assert token.separators == (".",)
        assert token.raw == "RM 2.50"

    def test_currency_glued(self):
        (token,) = locate_numbers("RM2")
        assert token.prefix_symbol == "RM"
        assert token.digit_groups == ("2",)

    def test_no_numbers(self):
        assert locate_numbers("tiada nombor di sini") == []

    def test_two_tokens_by_hand_scan(self):
        tokens = locate_numbers("hubungi 03-4012345 sebelum 5 petang")
        assert len(tokens) == 2
        assert tokens[0].raw == "03-4012345"
        assert tokens[0].digit_groups == ("03", "4012345")
        assert tokens[1].raw == "5"

    def test_sentence_final_dot_not_absorbed(self):
        (token,) = locate_numbers("nombor itu ialah 250.")
        assert token.raw == "250"

    def test_percent_suffix(self):
        (token,) = locate_numbers("naik 25% semalam")
        assert token.suffix_symbol == "%"
        assert token.raw == "25%"

    def test_plus_prefix_boundary(self):
        (token,) = locate_numbers("+60-12-345678")
        assert token.prefix_symbol == "+"
        # '+' between digits is arithmetic, not a phone prefix
        tokens = locate_numbers("3+4")
        assert [t.raw for t in tokens] == ["3", "4"]
        assert tokens[1].prefix_symbol is None

    def test_rm_needs_word_boundary(self):
        (token,) = locate_numbers("FIRM2 syarikat")
        assert token.prefix_symbol is None
        assert token.raw == "2"

    def test_ordered_by_start(self):
        spans = [t.span for t in locate_numbers("1 dan 2 dan 33 dan 4")]
        assert spans == sorted(spans)


class TestRecords:
    def test_fields_cannot_be_assigned(self):
        (token,) = locate_numbers("RM 2.50")
        shape = shape_of(token)
        with pytest.raises(AttributeError):
            token.raw = "RM 3"
        with pytest.raises(AttributeError):
            shape.kind = ShapeKind.PlainInt

    @pytest.mark.parametrize(
        "text,token,shape",
        [
            (
                "harga RM 2.50",
                NumberToken(raw="RM 2.50", span=(6, 13), digit_groups=("2", "50"), separators=(".",), prefix_symbol="RM"),
                NumberShape(kind=ShapeKind.CurrencyPrefixed, digit_count=3, group_lengths=(1, 2)),
            ),
            (
                "naik 25%",
                NumberToken(raw="25%", span=(5, 8), digit_groups=("25",), separators=(), suffix_symbol="%"),
                NumberShape(kind=ShapeKind.PercentSuffixed, digit_count=2, group_lengths=(2,)),
            ),
            (
                "21/01/2020",
                NumberToken(raw="21/01/2020", span=(0, 10), digit_groups=("21", "01", "2020"), separators=("/", "/")),
                NumberShape(kind=ShapeKind.SlashDate, digit_count=8, group_lengths=(2, 2, 4)),
            ),
        ],
    )
    def test_keyword_built_record_equals_located(self, text, token, shape):
        (located,) = locate_numbers(text)
        assert located == token
        assert shape_of(located) == shape


class TestShapeOf:
    def parse(self, text):
        (token,) = locate_numbers(text)
        return token

    def test_hyphen_phone(self):
        shape = shape_of(self.parse("03-4012345"))
        assert shape.kind == ShapeKind.HyphenGroups
        assert shape.group_lengths == (2, 7)

    def test_colon_time(self):
        assert shape_of(self.parse("12:47")).kind == ShapeKind.ColonTime

    def test_plain_int(self):
        shape = shape_of(self.parse("1500"))
        assert shape.kind == ShapeKind.PlainInt
        assert shape.digit_count == 4

    @pytest.mark.parametrize(
        "text,kind",
        [
            ("21/01/2020", ShapeKind.SlashDate),
            ("+60-12-345678", ShapeKind.SignedPhone),
            ("RM 2.50", ShapeKind.CurrencyPrefixed),
            ("25%", ShapeKind.PercentSuffixed),
            ("2.50", ShapeKind.DotTime),
            ("12.30", ShapeKind.DotTime),
            ("2.5", ShapeKind.Decimal),
            ("123.45", ShapeKind.Decimal),
            ("12.345", ShapeKind.Decimal),
            ("1,000", ShapeKind.PlainInt),
            ("1/2", ShapeKind.PlainInt),
            ("2020-01", ShapeKind.HyphenGroups),
        ],
    )
    def test_precedence_table(self, text, kind):
        assert shape_of(self.parse(text)).kind == kind

    def test_signed_beats_hyphen(self):
        # '+' prefix wins over the hyphen rule for +xx-xx-xxxxxx patterns
        assert shape_of(self.parse("+60-12-345678")).kind == ShapeKind.SignedPhone

    def test_currency_beats_dot(self):
        assert shape_of(self.parse("RM 2.50")).kind == ShapeKind.CurrencyPrefixed


def _reconstruct(token: NumberToken) -> str:
    body = token.digit_groups[0] + "".join(s + g for s, g in zip(token.separators, token.digit_groups[1:]))
    prefix_len = len(token.raw) - len(body) - len(token.suffix_symbol or "")
    prefix_text = token.raw[:prefix_len]
    return prefix_text + body + (token.suffix_symbol or "")


_TEXT_ALPHABET = st.sampled_from(list("ab 0123456789.,:-/%+RM"))


class TestProperties:
    @given(st.lists(_TEXT_ALPHABET, max_size=40).map("".join))
    def test_spans_disjoint_and_raw_matches(self, text):
        tokens = locate_numbers(text)
        previous_end = -1
        for token in tokens:
            start, end = token.span
            assert start >= previous_end
            assert text[start:end] == token.raw
            assert _reconstruct(token) == token.raw
            previous_end = end

    @given(st.lists(_TEXT_ALPHABET, max_size=40).map("".join))
    def test_idempotence(self, text):
        for token in locate_numbers(text):
            again = locate_numbers(token.raw)
            assert len(again) == 1
            assert again[0].digit_groups == token.digit_groups
            assert again[0].separators == token.separators
            assert again[0].prefix_symbol == token.prefix_symbol
            assert again[0].suffix_symbol == token.suffix_symbol
            assert shape_of(again[0]) == shape_of(token)

    @given(st.lists(_TEXT_ALPHABET, max_size=40).map("".join))
    def test_shape_groups_consistent(self, text):
        for token in locate_numbers(text):
            shape = shape_of(token)
            assert shape.group_lengths == tuple(len(g) for g in token.digit_groups)
            assert shape.digit_count == sum(shape.group_lengths)


# --- differential oracle ----------------------------------------------------
# A frozen copy of the character-walking number scanner that the compiled
# pattern replaced; the pattern must give exactly the same tokens on every
# input, as the word searches must give the words of conftest's frozen
# tokenizer.


def _assert_words_match_the_oracle(text: str) -> None:
    """At every position, ``words_before`` gives the lowered oracle words of
    the chunks ending at or before it and ``words_after`` those of the chunks
    starting at or after it, nearest first."""
    chunks = [(m.start(), m.end()) for m in re.finditer(r"\S+", text)]
    words = []
    for start, end, word in _oracle_tokenize(text):
        (chunk,) = [c for c in chunks if c[0] <= start and end <= c[1]]
        words.append((chunk, word.lower()))
    for pos in range(len(text) + 1):
        before = [word for (_, chunk_end), word in reversed(words) if chunk_end <= pos]
        after = [word for (chunk_start, _), word in words if chunk_start >= pos]
        for count in (1, 2, len(text) + 1):
            assert words_before(text, pos, count) == before[:count]
            assert words_after(text, pos, count) == after[:count]


def _oracle_is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _oracle_boundary_before(text: str, pos: int) -> bool:
    return pos == 0 or not text[pos - 1].isalnum()


def _oracle_locate_numbers(text: str) -> list[NumberToken]:
    found: list[NumberToken] = []
    i, n = 0, len(text)
    while i < n:
        if not _oracle_is_digit(text[i]):
            i += 1
            continue
        body_start = i
        groups: list[str] = []
        seps: list[str] = []
        while True:
            run_start = i
            while i < n and _oracle_is_digit(text[i]):
                i += 1
            groups.append(text[run_start:i])
            if i < n - 1 and text[i] in ".,:-/" and _oracle_is_digit(text[i + 1]):
                seps.append(text[i])
                i += 1
                continue
            break
        body_end = i

        prefix: str | None = None
        start = body_start
        if body_start >= 1 and text[body_start - 1] == "+" and _oracle_boundary_before(text, body_start - 1):
            prefix, start = "+", body_start - 1
        elif (
            body_start >= 3
            and text[body_start - 3 : body_start] == "RM "
            and _oracle_boundary_before(text, body_start - 3)
        ):
            prefix, start = "RM", body_start - 3
        elif (
            body_start >= 2
            and text[body_start - 2 : body_start] == "RM"
            and _oracle_boundary_before(text, body_start - 2)
        ):
            prefix, start = "RM", body_start - 2

        suffix: str | None = None
        end = body_end
        if end < n and text[end] == "%":
            suffix, end = "%", end + 1

        found.append(
            NumberToken(
                raw=text[start:end],
                span=(start, end),
                digit_groups=tuple(groups),
                separators=tuple(seps),
                prefix_symbol=prefix,
                suffix_symbol=suffix,
            )
        )
    return found


# "RM" is one symbol, and a lone "R" and "M" test its halves; "_", "é", "٣" (a
# non-ASCII digit) and "²" tell str.isalnum, \w and \d apart; a no-break
# space and a line separator split words but are no "RM " space
_ORACLE_ALPHABET = st.sampled_from(
    list("0123456789.,:-/%+ \taxRM_é٣²;!?()\"'\xa0\u2028") + ["RM"]
)


class TestMatchesFrozenScanner:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_ORACLE_ALPHABET, max_size=30).map("".join))
    def test_random_text(self, text):
        assert locate_numbers(text) == _oracle_locate_numbers(text)
        _assert_words_match_the_oracle(text)

    @pytest.mark.parametrize(
        "text",
        [
            "x+5", "5+6", "5%+6", "+RM5", "xRM5", "1,RM 2", "٣5", "_RM 5",
            "_+5", "é+5", "²RM5", "RM  5", "RM 5.", "+60-12-345678.", "1.2.3,4:5/6-7%%",
            '(a.b) "c"!', "...", "\t'x'\t", "kata-kata, (RM 2.50).",
            "R5", "xR5", "RRM5", "R M5", "+R5", "RM+5",
        ],
    )
    def test_edge_cases(self, text):
        assert locate_numbers(text) == _oracle_locate_numbers(text)
        _assert_words_match_the_oracle(text)
