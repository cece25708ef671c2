"""Pipeline.label against the path it memoises: the model's predict on the
encoded vector, with the context vector built by a frozen copy of the
one-hot encoder that came before the six codes and the bag-of-words vector
counted from the pipeline's stored vocabulary line."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from numctx import context_features
from numctx.classifiers import Algorithm, TrainConfig, predict
from numctx.context_features import (
    KEYWORD_CLASSES,
    ContextWindow,
    KeywordClass,
    codes,
    default_lexicon,
    line_windows,
    one_hot,
)
from numctx.corpus import bundled_corpus_path, load_corpus
from numctx.evaluation import cross_validate
from numctx.locator import SHAPE_KINDS, NumberShape, locate_numbers, shape_of
from numctx.pipeline import EXTRACTORS, MEMO_SIZE, ContextFeatures, Pipeline

# --- frozen one-hot encoder: the differential oracle -------------------------

_N_CLASSES = 11
_N_SHAPES = 9


def _oracle_bucket(digit_count):
    if digit_count <= 2:
        return 0
    if digit_count <= 4:
        return 1
    return 2


def _oracle_encode(window, shape, lexicon):
    """``context_features.encode`` as it was before the six codes."""
    vec = np.zeros(56, dtype=np.float64)
    # slots by name, so the oracle does not depend on the window's field order
    slots = (window.preposition2, window.preposition1, window.postposition1, window.postposition2)
    for pos, word in enumerate(slots):
        cls = lexicon.lookup(word)
        vec[pos * _N_CLASSES + int(cls)] = 1.0
    shape_base = 4 * _N_CLASSES
    vec[shape_base + int(shape.kind)] = 1.0
    vec[shape_base + _N_SHAPES + _oracle_bucket(shape.digit_count)] = 1.0
    return vec


def _oracle_vector(pipeline, window, number):
    if isinstance(pipeline.features, ContextFeatures):
        return _oracle_encode(window, shape_of(number), pipeline.lexicon)
    # each character's code, clamped to 255, counts in the column given by its
    # position on the pipeline's dumped 'vocab' line; other characters drop
    (line,) = pipeline.features.dump()
    by_column = [int(b) for b in line.split(" ")[1:]]
    vec = np.zeros(len(by_column), dtype=np.float64)
    for c in number.raw:
        code = min(ord(c), 255)
        if code in by_column:
            vec[by_column.index(code)] += 1.0
    return vec


LEXICON = default_lexicon()
CORPUS = load_corpus(bundled_corpus_path())
NUMBERS = [s.number for s in CORPUS]
WINDOWS = [line_windows(s.text, [n])[0] for s, n in zip(CORPUS, NUMBERS)]
SHAPES = [shape_of(n) for n in NUMBERS]
ROWS = list(zip(WINDOWS, NUMBERS, SHAPES))
ALGORITHMS = [a.value for a in Algorithm]

# words of every keyword class: one lexicon word per assignable class, an
# unknown word, and None for a sentence edge, plus mixed-case spellings
_CLASS_WORDS = {KeywordClass.Unknown: ["zzyzx", "Mahkamah"], KeywordClass.Boundary: [None]}
for _word, _cls in sorted(LEXICON.entries.items()):
    _CLASS_WORDS.setdefault(_cls, [_word, _word.upper()])
assert set(_CLASS_WORDS) == set(KEYWORD_CLASSES)
window_words = st.sampled_from(sorted(_CLASS_WORDS)).flatmap(lambda c: st.sampled_from(_CLASS_WORDS[c]))
windows = st.builds(ContextWindow, window_words, window_words, window_words, window_words)
shapes = st.builds(NumberShape, st.sampled_from(SHAPE_KINDS), st.integers(1, 30), st.just(()))


@pytest.fixture(scope="module")
def bundled_pipelines():
    """One pipeline per classifier and extractor, trained on the bundled corpus."""
    return {
        (a, e): Pipeline.fit(CORPUS, TrainConfig(algorithm=Algorithm(a)), e, LEXICON)
        for a in ALGORITHMS
        for e in EXTRACTORS
    }


class TestCodes:
    def test_one_hot_of_codes_is_the_frozen_encoding_on_every_corpus_row(self):
        features = ContextFeatures(LEXICON)
        for window, number, shape in ROWS:
            expected = _oracle_encode(window, shape, LEXICON)
            key = codes(window, shape, LEXICON)
            assert np.array_equal(one_hot(key), expected)
            assert np.array_equal(features.vector(features.key(window, number, shape)), expected)

    @settings(max_examples=300, deadline=None)
    @given(windows, shapes)
    def test_one_hot_of_codes_is_the_frozen_encoding(self, window, shape):
        key = codes(window, shape, LEXICON)
        assert all(type(code) is int for code in key)
        assert np.array_equal(one_hot(key), _oracle_encode(window, shape, LEXICON))

    def test_codes_name_classes_shape_and_bucket(self):
        window = ContextWindow("mahkamah", "menetapkan", "januari", None)
        shape = NumberShape(SHAPE_KINDS[0], 2, (2,))
        unknown, month, boundary = (int(c) for c in (KeywordClass.Unknown, KeywordClass.Month, KeywordClass.Boundary))
        assert codes(window, shape, LEXICON) == (unknown, unknown, month, boundary, int(SHAPE_KINDS[0]), 0)


class TestLabelMatchesPredict:
    @pytest.mark.parametrize("extractor", EXTRACTORS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_corpus_row_twice(self, bundled_pipelines, algorithm, extractor):
        pipeline = bundled_pipelines[(algorithm, extractor)]
        expected = [predict(pipeline.model, _oracle_vector(pipeline, w, n)) for w, n in zip(WINDOWS, NUMBERS)]
        pipeline.memo.cache_clear()
        first = [pipeline.label(*row) for row in ROWS]
        misses = pipeline.memo.cache_info().misses
        second = [pipeline.label(*row) for row in ROWS]
        assert first == expected
        assert second == expected
        distinct = {pipeline.features.key(*row) for row in ROWS}
        assert misses == len(distinct) < len(NUMBERS)  # the first pass already hits
        assert pipeline.memo.cache_info().misses == misses  # the second pass only hits

    @pytest.mark.parametrize("extractor", EXTRACTORS)
    def test_key_determines_the_vector_on_every_corpus_row(self, bundled_pipelines, extractor):
        pipeline = bundled_pipelines[("dt", extractor)]
        for window, number, shape in ROWS:
            vector = pipeline.features.vector(pipeline.features.key(window, number, shape))
            assert np.array_equal(vector, _oracle_vector(pipeline, window, number))

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="0123456789.,:-/%+RM x", max_size=30))
    def test_bow_key_determines_the_vector(self, bundled_pipelines, text):
        pipeline = bundled_pipelines[("dt", "bow")]
        for number in locate_numbers(text):
            vector = pipeline.features.vector(pipeline.features.key(None, number, None))
            assert np.array_equal(vector, _oracle_vector(pipeline, None, number))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=100, deadline=None)
    @given(window=windows, shape=shapes)
    def test_context_code_space(self, bundled_pipelines, algorithm, window, shape):
        pipeline = bundled_pipelines[(algorithm, "context")]
        expected = predict(pipeline.model, _oracle_encode(window, shape, LEXICON))
        assert pipeline.memo(codes(window, shape, LEXICON)) == expected


class TestMemo:
    def test_bow_memo_stays_within_its_size(self, bundled_pipelines):
        pipeline = bundled_pipelines[("dt", "bow")]
        pipeline.memo.cache_clear()
        numbers = [n for i in range(MEMO_SIZE + 200) for n in locate_numbers(str(i))]
        labels = [pipeline.label(None, n, None) for n in numbers]
        info = pipeline.memo.cache_info()
        assert info.maxsize == MEMO_SIZE
        assert info.currsize == MEMO_SIZE
        assert info.misses == len(numbers)
        for number, label in zip(numbers[:: MEMO_SIZE // 8], labels[:: MEMO_SIZE // 8]):
            assert label == predict(pipeline.model, _oracle_vector(pipeline, None, number))

    def test_each_pipeline_has_its_own_memo(self):
        a = Pipeline.fit(CORPUS, TrainConfig(algorithm=Algorithm.KNN), "context", LEXICON)
        b = Pipeline.fit(CORPUS, TrainConfig(algorithm=Algorithm.KNN), "context", LEXICON)
        a.label(*ROWS[0])
        assert a.memo.cache_info().currsize == 1
        assert b.memo.cache_info().currsize == 0

    def test_dropped_pipeline_is_freed_without_the_collector(self):
        # a memo that referred back to its pipeline would keep every dropped
        # pipeline, model included, alive until the next garbage collection
        pipeline = Pipeline.fit(CORPUS, TrainConfig(algorithm=Algorithm.KNN), "context", LEXICON)
        pipeline.label(*ROWS[0])
        gone = weakref.ref(pipeline)
        gc.disable()
        try:
            del pipeline
            assert gone() is None
        finally:
            gc.enable()


class TestSavedFileRoundTrip:
    @pytest.mark.parametrize(
        "algorithm, extractor, k", [(a, e, 1) for a in ALGORITHMS for e in EXTRACTORS] + [("knn", "context", 3)]
    )
    def test_save_load_save_is_byte_identical(self, algorithm, extractor, k, tmp_path):
        # a trained file relinks every tree node and keeps the vocabulary's column order
        pipeline = Pipeline.fit(CORPUS, TrainConfig(algorithm=Algorithm(algorithm), k=k), extractor, LEXICON)
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        pipeline.save(first)
        Pipeline.load(first).save(second)
        assert second.read_bytes() == first.read_bytes()


class TestEachRowLocatedOnce:
    def test_fit_and_cross_validate_locate_nothing_once_the_corpus_is_loaded(self, monkeypatch):
        calls = []
        locate = context_features.locate_numbers
        monkeypatch.setattr(context_features, "locate_numbers", lambda text: calls.append(text) or locate(text))
        corpus = load_corpus(bundled_corpus_path())
        assert len(calls) == len(corpus)
        calls.clear()
        for extractor in EXTRACTORS:
            Pipeline.fit(corpus, TrainConfig(algorithm=Algorithm.DecisionTree), extractor, LEXICON)
            cross_validate(
                corpus, extractor, TrainConfig(algorithm=Algorithm.DecisionTree), k=2, seed=42, lexicon=LEXICON
            )
        assert calls == []
