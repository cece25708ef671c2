import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numctx.bow_features import BYTES, bow_encode, bow_row, build_vocab, gram_byte, unigrams


class TestUnigrams:
    def test_digits(self):
        assert unigrams("1500") == ["1", "5", "0", "0"]

    def test_empty(self):
        assert unigrams("") == []

    def test_symbols_included(self):
        assert unigrams("RM5") == ["R", "M", "5"]


class TestGramByte:
    def test_published_codes(self):
        # character-code table: '1'=49 '5'=53 '0'=48 'R'=82 'M'=77
        assert [gram_byte(c) for c in "150"] == [49, 53, 48]
        assert gram_byte("R") == 82
        assert gram_byte("M") == 77

    def test_nul_lower_bound(self):
        assert gram_byte("\x00") == 0

    def test_overflow_bucket(self):
        assert gram_byte("€") == 255

    def test_multichar_rejected(self):
        with pytest.raises(ValueError):
            gram_byte("ab")
        with pytest.raises(ValueError):
            gram_byte("")


class TestBuildVocab:
    def test_first_appearance_order(self):
        assert build_vocab(["1500"]) == [49, 53, 48]

    def test_empty(self):
        assert len(build_vocab([])) == 0

    def test_overflow_characters_share_one_byte(self):
        assert build_vocab(["€1", "漢", "2"]) == [255, 49, 50]

    @given(st.lists(st.text()))
    def test_matches_per_gram_loop(self, tokens):
        # the loop build_vocab ran before it deduplicated characters first
        columns: dict[int, int] = {}
        for token in tokens:
            for gram in unigrams(token):
                columns.setdefault(gram_byte(gram), len(columns))
        assert build_vocab(tokens) == list(columns)

    def test_insertion_order_is_column_order(self):
        # the pipeline file writes the bytes as they come, as the column order
        assert build_vocab(["RM 2.50", "1500"]) == [82, 77, 32, 50, 46, 53, 48, 49]


class TestBowEncode:
    def test_counts(self):
        vocab = build_vocab(["1500"])
        assert bow_encode("1500", vocab).tolist() == [1, 1, 2]

    def test_empty_token(self):
        vocab = build_vocab(["1500"])
        assert bow_encode("", vocab).tolist() == [0, 0, 0]

    def test_out_of_vocab_dropped(self):
        vocab = [49, 48]
        counts = bow_encode("1500", vocab)
        assert counts.sum() == 3  # the '5' gram is dropped

    def test_permutation_invariance(self):
        vocab = build_vocab(["0123456789RM%"])
        a = bow_encode("RM1500", vocab)
        b = bow_encode("051RM0", vocab)
        assert np.array_equal(a, b)

    def test_sum_rule(self):
        vocab = build_vocab(["1500", "RM 2.50"])
        for token in ["1500", "RM 2.50", "999", "abc"]:
            counts = bow_encode(token, vocab)
            assert counts.sum() <= len(token)
        assert bow_encode("1500", vocab).sum() == 4  # all grams in vocab

    def test_encoding_does_not_mutate_vocab(self):
        vocab = build_vocab(["1500"])
        bow_encode("zzz999%", vocab)
        assert vocab == [49, 53, 48]

    def test_vocab_picks_columns_of_every_byte(self):
        # cross-validation encodes with every byte once, then picks a fold's vocabulary
        vocab = build_vocab(["RM 2.50", "1500"])
        for token in ["1500", "RM 2.50", "999", "abc", "€5"]:
            assert np.array_equal(bow_encode(token, np.arange(BYTES))[vocab], bow_encode(token, vocab))


class TestBowRow:
    @settings(max_examples=300, deadline=None)
    @given(
        # characters above 255 count in the overflow bucket 255
        st.text(alphabet=st.characters(max_codepoint=0x3FF), max_size=12),
        st.lists(st.integers(0, BYTES - 1), unique=True, min_size=1, max_size=24),
    )
    def test_pairs_scatter_to_the_dense_row(self, text, columns):
        row = bow_row(text, {byte: column for column, byte in enumerate(columns)})
        assert list(row) == sorted(row) and 0.0 not in row.values()
        dense = np.zeros(len(columns))
        dense[list(row)] = list(row.values())
        assert np.array_equal(dense, bow_encode(text, columns))

    def test_overflow_and_dropped_bytes(self):
        # '€' and 'ω' count as 255, 'é' is 233 and has no column, nor has 'x'
        assert bow_row("€1é1ωx", {49: 0, 255: 1}) == {0: 2.0, 1: 2.0}
