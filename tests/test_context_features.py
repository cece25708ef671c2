import numpy as np
import pytest

from numctx.context_features import (
    FEATURE_DIM,
    ContextWindow,
    KeywordClass,
    Lexicon,
    LexiconError,
    classify_word,
    codes,
    default_lexicon,
    extract_window,
    load_lexicon,
    one_hot,
    token_at,
    window_for_token,
)
from numctx.locator import NumberShape, ShapeKind, locate_numbers, shape_of, tokenize
from numctx.pipeline import ContextFeatures

COURT_SENTENCE = "Mahkamah menetapkan 21 Januari ini untuk sebutan semula kes"


def encode_span(text, span, lexicon):
    """Encode the number at ``span`` as ``classify`` does."""
    tok = token_at(text, span)
    features = ContextFeatures(lexicon)
    return features.vector(features.key(window_for_token(tokenize(text), tok), tok))


class TestExtractWindow:
    def test_court_sentence(self):
        tokens = tokenize(COURT_SENTENCE)
        window = extract_window(tokens, 2)
        assert window == ContextWindow("mahkamah", "menetapkan", "januari", "ini")

    def test_first_token_has_boundaries(self):
        tokens = tokenize("21 Januari ini")
        window = extract_window(tokens, 0)
        assert window.preposition2 is None
        assert window.preposition1 is None
        assert window.postposition1 == "januari"

    def test_two_numbers_by_hand(self):
        text = "dari 5 hingga 10 peratus"
        tokens = tokenize(text)
        window = window_for_token(tokens, locate_numbers(text)[1])
        assert window == ContextWindow("5", "hingga", "peratus", None)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            extract_window(tokenize("satu dua"), 5)

    def test_absorbed_symbol_words_not_in_window(self):
        text = "harga barang RM 2.50 sahaja"
        tokens = tokenize(text)
        (number,) = locate_numbers(text)
        window = window_for_token(tokens, number)
        # 'RM' belongs to the number, so the window starts before it
        assert window == ContextWindow("harga", "barang", "sahaja", None)


class TestClassifyWord:
    def test_month(self):
        assert classify_word(default_lexicon(), "januari") == KeywordClass.Month

    def test_percent_word(self):
        assert classify_word(default_lexicon(), "peratus") == KeywordClass.PercentWord

    def test_unknown(self):
        assert classify_word(default_lexicon(), "xyzzy") == KeywordClass.Unknown

    def test_boundary(self):
        assert classify_word(default_lexicon(), None) == KeywordClass.Boundary

    def test_case_insensitive(self):
        assert classify_word(default_lexicon(), "Januari") == KeywordClass.Month

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
        assert classify_word(default_lexicon(), word) == cls


def _shape(text):
    (token,) = locate_numbers(text)
    return shape_of(token)


class TestEncode:
    def test_degenerate_window(self):
        window = ContextWindow(None, None, None, None)
        vec = one_hot(codes(window, NumberShape(ShapeKind.PlainInt, 1, (1,)), default_lexicon()))
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
        vec = one_hot(codes(window, NumberShape(ShapeKind.PlainInt, 2, (2,)), default_lexicon()))
        unknown, month = int(KeywordClass.Unknown), int(KeywordClass.Month)
        assert vec[0 * 11 + unknown] == 1.0
        assert vec[1 * 11 + unknown] == 1.0
        assert vec[2 * 11 + month] == 1.0
        assert vec[3 * 11 + unknown] == 1.0

    def test_vector_sums_to_six(self):
        # four position blocks + shape block + bucket block, each one-hot
        for text in ["RM 2.50", "12:47", "5", "21/01/2020"]:
            window = ContextWindow("a", None, "peratus", "jam")
            vec = one_hot(codes(window, _shape(text), default_lexicon()))
            assert vec.sum() == 6.0

    @pytest.mark.parametrize(
        "digits,bucket_offset", [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (9, 2)]
    )
    def test_digit_buckets(self, digits, bucket_offset):
        window = ContextWindow(None, None, None, None)
        vec = one_hot(codes(window, NumberShape(ShapeKind.PlainInt, digits, (digits,)), default_lexicon()))
        assert vec[53 + bucket_offset] == 1.0

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
        assert lex.lookup("disember") == KeywordClass.Month

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

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# comment\n\njam\tTimeWord  # trailing\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.lookup("jam") == KeywordClass.TimeWord

    def test_dimension_constant_across_lexicons(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("jam\tTimeWord\n", encoding="utf-8")
        small = load_lexicon(path)
        vec = encode_span(COURT_SENTENCE, (20, 22), small)
        assert vec.shape == (FEATURE_DIM,)
