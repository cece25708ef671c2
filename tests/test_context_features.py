import itertools
import re
import sys

import numpy as np
import pytest
from conftest import LINE_ALPHABET, _oracle_tokenize
from hypothesis import example, given, settings, strategies as st

from numctx.context_features import (
    FEATURE_DIM,
    ContextWindow,
    KeywordClass,
    Lexicon,
    LexiconError,
    add_entry,
    codes,
    default_lexicon,
    line_numbers,
    load_lexicon,
    number_window,
    one_hot_row,
    token_at,
)
from numctx.locator import NumberShape, ShapeKind, locate_numbers, shape_of, words_after
from numctx.pipeline import ContextFeatures

COURT_SENTENCE = "Mahkamah menetapkan 21 Januari ini untuk sebutan semula kes"


def encode_span(text, span, lexicon):
    """Encode the number at ``span`` as ``classify`` does."""
    tok = token_at(text, span)
    window = number_window(text, tok)
    features = ContextFeatures(lexicon)
    return _dense(features.row(features.key(window, tok, shape_of(tok))))


def _dense(row):
    """The 56-dim vector a row's (column, value) pairs scatter to; columns ascend."""
    assert list(row) == sorted(row)
    vec = np.zeros(FEATURE_DIM)
    vec[list(row)] = list(row.values())
    return vec


def _one_hot_dense(codes):
    return _dense(one_hot_row(codes))


class TestLineWindows:
    def test_court_sentence(self):
        (number,) = locate_numbers(COURT_SENTENCE)
        assert number_window(COURT_SENTENCE, number) == ContextWindow("mahkamah", "menetapkan", "januari", "ini")

    def test_first_token_has_boundaries(self):
        text = "21 Januari ini"
        (number,) = locate_numbers(text)
        window = number_window(text, number)
        assert window.preposition2 is None
        assert window.preposition1 is None
        assert window.postposition1 == "januari"

    def test_two_numbers_by_hand(self):
        text = "dari 5 hingga 10 peratus"
        window = number_window(text, locate_numbers(text)[1])
        assert window == ContextWindow("5", "hingga", "peratus", None)

    def test_absorbed_symbol_words_not_in_window(self):
        text = "harga barang RM 2.50 sahaja"
        (number,) = locate_numbers(text)
        window = number_window(text, number)
        # 'RM' belongs to the number, so the window starts before it
        assert window == ContextWindow("harga", "barang", "sahaja", None)

    @pytest.mark.parametrize("space", [" ", "\xa0", "\u3000"])
    def test_window_across_space(self, space):
        # a no-break or ideographic space parts words as a plain space does
        text = space.join(["satu", "21", "Januari", "ini"])
        (number,) = locate_numbers(text)
        assert number.span == (5, 7)
        assert number_window(text, number) == ContextWindow(None, "satu", "januari", "ini")


# --- differential oracle ----------------------------------------------------
# A frozen copy of the window rule as a scan of every word of the line for
# each number, over the words of conftest's frozen tokenizer: the covered
# words, then the two on either side of them.


def _oracle_window(words, number):
    start, end = number.span
    covered = [i for i, (w_start, w_end, _) in enumerate(words) if w_start < end and w_end > start]
    if not covered:
        raise ValueError(f"number token {number.raw!r} at {number.span} overlaps no word token")

    def word(i):
        return words[i][2].lower() if 0 <= i < len(words) else None

    first, last = covered[0], covered[-1]
    return ContextWindow(
        preposition2=word(first - 2),
        preposition1=word(first - 1),
        postposition1=word(last + 1),
        postposition2=word(last + 2),
    )


def test_str_isspace_is_the_oracle_whitespace():
    # the window search splits chunks with str.split() and tests str.isspace;
    # the frozen tokenizer's chunks are re's \S+ runs: one word boundary
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(filter(str.isspace, every)) == "".join(re.findall(r"\s", every))


class TestLineWindowsMatchTheTokenScan:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(LINE_ALPHABET, max_size=40).map("".join))
    def test_random_line(self, text):
        numbers = locate_numbers(text)
        words = _oracle_tokenize(text)
        assert list(line_numbers(text)) == [(n, _oracle_window(words, n), shape_of(n)) for n in numbers]


# pre2 past the sentence edge, pre1 a word the lexicon lacks, post1 a month, post2 a percent word
_SLOTS_WINDOW = ContextWindow(None, "xyzzy", "januari", "peratus")
_PLAIN_SHAPE = NumberShape(ShapeKind.PlainInt, 2, (2,))


class TestClassifyWord:
    def test_month(self):
        assert default_lexicon().entries["januari"] == KeywordClass.Month
        assert codes(_SLOTS_WINDOW, _PLAIN_SHAPE, default_lexicon())[2] == KeywordClass.Month

    def test_percent_word(self):
        assert default_lexicon().entries["peratus"] == KeywordClass.PercentWord
        assert codes(_SLOTS_WINDOW, _PLAIN_SHAPE, default_lexicon())[3] == KeywordClass.PercentWord

    def test_unknown(self):
        assert "xyzzy" not in default_lexicon().entries
        assert codes(_SLOTS_WINDOW, _PLAIN_SHAPE, default_lexicon())[1] == KeywordClass.Unknown

    def test_boundary(self):
        assert codes(_SLOTS_WINDOW, _PLAIN_SHAPE, default_lexicon())[0] == KeywordClass.Boundary

    def test_case_insensitive(self):
        # the lexicon holds lowercase words; the window scan lowers the line's words
        text = "pada 21 JANUARI ini"
        (number,) = locate_numbers(text)
        window = number_window(text, number)
        assert codes(window, shape_of(number), default_lexicon())[2] == KeywordClass.Month

    @pytest.mark.parametrize(
        "word,cls",
        [
            ("ringgit", KeywordClass.CurrencyWord),
            ("jam", KeywordClass.TimeWord),
            ("telefon", KeywordClass.PhoneWord),
            ("kilometer", KeywordClass.MeasurementUnit),
            ("orang", KeywordClass.CollectiveNoun),
            ("puluh", KeywordClass.MagnitudeWord),
            ("seramai", KeywordClass.ValueWord),
        ],
    )
    def test_keyword_inventory(self, word, cls):
        assert default_lexicon().entries[word] == cls


def _shape(text):
    (token,) = locate_numbers(text)
    return shape_of(token)


class TestEncode:
    def test_degenerate_window(self):
        window = ContextWindow(None, None, None, None)
        vec = _one_hot_dense(codes(window, NumberShape(ShapeKind.PlainInt, 1, (1,)), default_lexicon()))
        assert vec.shape == (FEATURE_DIM,)
        boundary = int(KeywordClass.Boundary)
        for pos in range(4):
            block = vec[pos * 11 : (pos + 1) * 11]
            assert block.sum() == 1.0
            assert block[boundary] == 1.0
        shape_block = vec[44:53]
        assert shape_block[int(ShapeKind.PlainInt)] == 1.0
        assert vec[53] == 1.0  # small bucket

    def test_court_window_classes(self):
        window = ContextWindow("mahkamah", "menetapkan", "januari", "ini")
        vec = _one_hot_dense(codes(window, NumberShape(ShapeKind.PlainInt, 2, (2,)), default_lexicon()))
        unknown, month = int(KeywordClass.Unknown), int(KeywordClass.Month)
        assert vec[0 * 11 + unknown] == 1.0
        assert vec[1 * 11 + unknown] == 1.0
        assert vec[2 * 11 + month] == 1.0
        assert vec[3 * 11 + unknown] == 1.0

    def test_vector_sums_to_six(self):
        # four position blocks + shape block + bucket block, each one-hot
        for text in ["RM 2.50", "12:47", "5", "21/01/2020"]:
            window = ContextWindow("a", None, "peratus", "jam")
            vec = _one_hot_dense(codes(window, _shape(text), default_lexicon()))
            assert vec.sum() == 6.0

    @pytest.mark.parametrize(
        "digits,bucket_offset", [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (9, 2)]
    )
    def test_digit_buckets(self, digits, bucket_offset):
        window = ContextWindow(None, None, None, None)
        vec = _one_hot_dense(codes(window, NumberShape(ShapeKind.PlainInt, digits, (digits,)), default_lexicon()))
        assert vec[53 + bucket_offset] == 1.0

    def test_codes_are_the_lookups_as_plain_ints(self):
        # each code must be the slot's class, written out here: Boundary past
        # the sentence edge, else the word's entry, or Unknown; and a plain
        # int, as memo keys and reports hold them
        lexicon = default_lexicon()

        def slot_class(word):
            if word is None:
                return KeywordClass.Boundary
            return lexicon.entries.get(word, KeywordClass.Unknown)

        base = ["mahkamah", None, "januari", "ini"]
        for slot, word in itertools.product(range(4), [*lexicon.entries, "xyzzy", None]):
            window = ContextWindow(*base[:slot], word, *base[slot + 1 :])
            for kind, (digits, bucket) in itertools.product(ShapeKind, [(2, 0), (4, 1), (5, 2)]):
                key = codes(window, NumberShape(kind, digits, (digits,)), lexicon)
                assert key == (*[int(slot_class(w)) for w in window], int(kind), bucket)
                assert all(type(code) is int for code in key)

    def test_locality(self):
        # words outside the 4-slot window cannot change the vector
        t1 = "Mahkamah menetapkan 21 Januari ini untuk sebutan semula kes"
        t2 = "Polis menetapkan 21 Januari ini akan diubah lagi nanti"
        lex = default_lexicon()
        v1 = encode_span(t1, (20, 22), lex)
        t2_span = next(t.span for t in locate_numbers(t2))
        v2 = encode_span(t2, t2_span, lex)
        # p2 differs (mahkamah vs polis) but both are Unknown: same classes
        assert np.array_equal(v1, v2)

    def test_lexicon_monotonicity(self):
        lex = default_lexicon()
        bigger = Lexicon(entries={**lex.entries, "zzyzx": KeywordClass.TimeWord})
        v1 = encode_span(COURT_SENTENCE, (20, 22), lex)
        v2 = encode_span(COURT_SENTENCE, (20, 22), bigger)
        assert np.array_equal(v1, v2)

    def test_token_at_rejects_non_number_span(self):
        with pytest.raises(ValueError):
            token_at(COURT_SENTENCE, (0, 8))


class TestLexiconFile:
    def test_default_lexicon_loads(self):
        lex = default_lexicon()
        assert len(lex.entries) > 100
        assert lex.entries["disember"] == KeywordClass.Month

    def test_load_rejects_bad_class(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("word\tNotAClass\n", encoding="utf-8")
        with pytest.raises(LexiconError):
            load_lexicon(path)

    def test_load_rejects_reserved_class(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("word\tBoundary\n", encoding="utf-8")
        with pytest.raises(LexiconError):
            load_lexicon(path)

    def test_load_rejects_duplicates(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("jam\tTimeWord\njam\tTimeWord\n", encoding="utf-8")
        with pytest.raises(LexiconError):
            load_lexicon(path)

    # whitespace, sentence punctuation, a hyphen that stays inside a word,
    # and letters whose lowercase differs
    @settings(max_examples=500, deadline=None)
    @given(st.text(st.sampled_from(list(".,;!?()\"'- \t\u00a0aZİẞΣ")), max_size=6) | st.text(max_size=6))
    @example("rm.")
    @example("(jam")
    def test_entry_rule_is_the_word_scan(self, word):
        # a word is accepted exactly when a window search finds it whole and
        # lowered, so every accepted word can match
        try:
            add_entry({}, word, "TimeWord")
            accepted = True
        except LexiconError:
            accepted = False
        assert accepted == (words_after(word, 0, 2) == [word])

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# comment\n\njam\tTimeWord  # trailing\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.entries["jam"] == KeywordClass.TimeWord

    def test_dimension_constant_across_lexicons(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("jam\tTimeWord\n", encoding="utf-8")
        small = load_lexicon(path)
        vec = encode_span(COURT_SENTENCE, (20, 22), small)
        assert vec.shape == (FEATURE_DIM,)
