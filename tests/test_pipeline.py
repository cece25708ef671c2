"""A pipeline's memo label against the numpy batch predict on the encoded vector,
with the context vector built by a frozen copy of the one-hot encoder that
came before the six codes and the bag-of-words vector counted from the
pipeline's stored vocabulary line; the pairs an extractor gives scatter to
that vector. ``encode_rows`` against a frozen copy of the per-row encoder
that came before each distinct key's row was built once."""

import gc
import os
import re
import weakref

import numpy as np
import pytest
from conftest import cv_workload_corpus
from hypothesis import given, settings, strategies as st

from numctx import bow_features, classifiers, context_features, evaluation
from numctx.classifiers import Algorithm, TrainConfig, predict_batch
from numctx.context_features import (
    KEYWORD_CLASSES,
    ContextWindow,
    KeywordClass,
    bundled_corpus_path,
    codes,
    default_lexicon,
    line_numbers,
    number_window,
    one_hot_row,
)
from numctx.corpus import Corpus, LabeledSentence, load_corpus, stratified_folds
from numctx.evaluation import cross_validate
from numctx.labels import LABELS, FormatLabel
from numctx.locator import SHAPE_KINDS, NumberShape, locate_numbers, shape_of
from numctx.models import ModelFormatError, deserialize
from numctx.pipeline import EXTRACTORS, MEMO_SIZE, PARSED_FILES, ContextFeatures, Pipeline, encode_rows, make_features
from numctx.verbalizer import DEFAULT_STYLE, VerbalizationError

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
        cls = KeywordClass.Boundary if word is None else lexicon.entries.get(word, KeywordClass.Unknown)
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


def _reference(model, vector):
    """The label the numpy batch path gives one dense vector."""
    return FormatLabel(int(predict_batch(model, [vector])[0]))


def memo_label(pipeline, window, number, shape):
    """The label ``Pipeline.read_line`` gives ``number``, of shape ``shape``, in ``window``."""
    return pipeline.memo(pipeline.features.key(window, number, shape))


def _dense(row, width):
    """The vector a row's (column, value) pairs scatter to; columns ascend."""
    assert list(row) == sorted(row)
    vec = np.zeros(width)
    vec[list(row)] = list(row.values())
    return vec


LEXICON = default_lexicon()
CORPUS = load_corpus(bundled_corpus_path())
NUMBERS = [s.number for s in CORPUS]
WINDOWS = [number_window(s.text, n) for s, n in zip(CORPUS, NUMBERS)]
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
            assert np.array_equal(_dense(one_hot_row(key), 56), expected)
            assert np.array_equal(_dense(features.row(features.key(window, number, shape)), 56), expected)

    @settings(max_examples=300, deadline=None)
    @given(windows, shapes)
    def test_one_hot_of_codes_is_the_frozen_encoding(self, window, shape):
        key = codes(window, shape, LEXICON)
        assert all(type(code) is int for code in key)
        assert np.array_equal(_dense(one_hot_row(key), 56), _oracle_encode(window, shape, LEXICON))

    def test_codes_name_classes_shape_and_bucket(self):
        window = ContextWindow("mahkamah", "menetapkan", "januari", None)
        shape = NumberShape(SHAPE_KINDS[0], 2, (2,))
        unknown, month, boundary = (int(c) for c in (KeywordClass.Unknown, KeywordClass.Month, KeywordClass.Boundary))
        assert codes(window, shape, LEXICON) == (unknown, unknown, month, boundary, int(SHAPE_KINDS[0]), 0)


# --- frozen per-row encoder: the differential oracle of encode_rows -----------


def _oracle_encode_rows(features, corpus):
    """encode_rows as it was before each distinct key's row was built once:
    each corpus row's key and pairs, one row at a time, scattered into one
    matrix."""
    if features.windowed:
        windows = [number_window(s.text, s.number) for s in corpus]
        keys = [features.key(w, s.number, shape_of(s.number)) for w, s in zip(windows, corpus)]
    else:
        keys = [features.key(None, s.number, None) for s in corpus]
    cells = [(i, column, value) for i, key in enumerate(keys) for column, value in features.row(key).items()]
    X = np.zeros((len(corpus), len(features.columns)))
    if cells:
        rows, columns, values = zip(*cells)
        X[rows, columns] = values
    return X


def _assert_encoded_as_oracle(corpus, trainings):
    """encode_rows equals the oracle byte for byte, for each extractor
    unfitted and then fitted on each list of row indices in ``trainings``."""
    for extractor in EXTRACTORS:
        features = make_features(extractor, LEXICON)
        for training in [None, *trainings]:
            if training is not None:
                features.fit([corpus[i].number for i in training])
            X, expected = encode_rows(features, corpus), _oracle_encode_rows(features, corpus)
            assert X.shape == expected.shape and X.dtype == expected.dtype
            assert X.tobytes() == expected.tobytes(), (extractor, features.dump())


def _fold_trainings(corpus, seed):
    """Each of the 10 folds' training rows, as cross-validation fits them."""
    return [sorted(set(range(len(corpus))) - set(fold)) for fold in stratified_folds(corpus, 10, seed)]


# number raws of digits, separators, signs, RM and %, each in a line of its own
# between words of a few keyword classes; every number located in a line is a row
_RAW = st.lists(st.sampled_from([*"0123456789.,:/-+%", "RM"]), min_size=1, max_size=10).map("".join)
_WORD = st.sampled_from(["harga", "pukul", "pada", "Januari", "ringgit", "peratus", "km", "tahun", "zzyzx"])
_LINE = st.builds(lambda before, raw, after: f"{before} {raw} {after}", _WORD, _RAW, _WORD)


class TestEncodeRowsMatchesPerRowEncoder:
    def test_bundled_corpus(self):
        _assert_encoded_as_oracle(CORPUS, _fold_trainings(CORPUS, 42))

    def test_cv_workload_corpus(self):
        corpus = cv_workload_corpus()
        _assert_encoded_as_oracle(corpus, _fold_trainings(corpus, 29))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_LINE, max_size=30), st.randoms(use_true_random=False))
    def test_random_number_raws(self, lines, random):
        rows = [(line, number.span) for line in lines for number in locate_numbers(line)]
        corpus = Corpus(
            tuple(LabeledSentence(f"r{i}", line, span, random.choice(LABELS)) for i, (line, span) in enumerate(rows))
        )
        halves = [[i for i in range(len(corpus)) if random.random() < 0.5] for _ in range(2)]
        _assert_encoded_as_oracle(corpus, [training for training in halves if training])

    # a located number is ASCII, so bag-of-words keys of any text check the
    # overflow bucket: the rows of many keys at once are each key's pairs,
    # with every byte kept and with a vocabulary's
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.text(st.characters(max_codepoint=0x3FF), max_size=8), max_size=20),
        st.lists(st.integers(0, bow_features.BYTES - 1), unique=True, min_size=1, max_size=24),
    )
    def test_bow_rows_of_any_text(self, keys, vocabulary):
        features = make_features("bow", LEXICON)
        for columns in (features.columns, vocabulary):
            features._keep(columns)
            expected = np.zeros((len(keys), len(columns)))
            for i, key in enumerate(keys):
                row = features.row(key)
                expected[i, list(row)] = list(row.values())
            assert features.rows(keys).tobytes() == expected.tobytes()


class TestLabelMatchesPredict:
    @pytest.mark.parametrize("extractor", EXTRACTORS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_corpus_row_twice(self, bundled_pipelines, algorithm, extractor):
        pipeline = bundled_pipelines[(algorithm, extractor)]
        expected = [_reference(pipeline.model, _oracle_vector(pipeline, w, n)) for w, n in zip(WINDOWS, NUMBERS)]
        pipeline.memo.cache_clear()
        first = [memo_label(pipeline, *row) for row in ROWS]
        misses = pipeline.memo.cache_info().misses
        second = [memo_label(pipeline, *row) for row in ROWS]
        assert first == expected
        assert second == expected
        distinct = {pipeline.features.key(*row) for row in ROWS}
        assert misses == len(distinct) < len(NUMBERS)  # the first pass already hits
        assert pipeline.memo.cache_info().misses == misses  # the second pass only hits

    @pytest.mark.parametrize("extractor", EXTRACTORS)
    def test_key_determines_the_vector_on_every_corpus_row(self, bundled_pipelines, extractor):
        pipeline = bundled_pipelines[("dt", extractor)]
        for window, number, shape in ROWS:
            vector = _dense(pipeline.features.row(pipeline.features.key(window, number, shape)), pipeline.model.dim)
            assert np.array_equal(vector, _oracle_vector(pipeline, window, number))

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="0123456789.,:-/%+RM x", max_size=30))
    def test_bow_key_determines_the_vector(self, bundled_pipelines, text):
        pipeline = bundled_pipelines[("dt", "bow")]
        for number in locate_numbers(text):
            vector = _dense(pipeline.features.row(pipeline.features.key(None, number, None)), pipeline.model.dim)
            assert np.array_equal(vector, _oracle_vector(pipeline, None, number))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=100, deadline=None)
    @given(window=windows, shape=shapes)
    def test_context_code_space(self, bundled_pipelines, algorithm, window, shape):
        pipeline = bundled_pipelines[(algorithm, "context")]
        expected = _reference(pipeline.model, _oracle_encode(window, shape, LEXICON))
        assert pipeline.memo(codes(window, shape, LEXICON)) == expected


class TestReadLine:
    def test_an_unreadable_number_raises_after_the_numbers_before_it(self):
        # a one-leaf tree labels every number Phone: the digits read as one, RM 12.50 cannot
        text = "Hubungi 0123456789 atau RM 12.50"
        model = deserialize("numctx-model v2\nalgorithm dt\ndim 56\nnodes 1\nleaf 2\nend\n")
        readings = Pipeline(LEXICON, ContextFeatures(LEXICON), model).read_line(text, DEFAULT_STYLE)
        number, window, shape = next(line_numbers(text))
        words = "kosong satu dua tiga empat lima enam tujuh lapan sembilan"
        assert next(readings) == (number, window, shape, FormatLabel.Phone, words)
        with pytest.raises(VerbalizationError, match="'RM 12.50' with shape CurrencyPrefixed cannot be read as Phone"):
            next(readings)


class TestMemo:
    def test_bow_memo_stays_within_its_size(self, bundled_pipelines):
        pipeline = bundled_pipelines[("dt", "bow")]
        pipeline.memo.cache_clear()
        numbers = [n for i in range(MEMO_SIZE + 200) for n in locate_numbers(str(i))]
        labels = [memo_label(pipeline, None, n, None) for n in numbers]
        info = pipeline.memo.cache_info()
        assert info.maxsize == MEMO_SIZE
        assert info.currsize == MEMO_SIZE
        assert info.misses == len(numbers)
        for number, label in zip(numbers[:: MEMO_SIZE // 8], labels[:: MEMO_SIZE // 8]):
            assert label == _reference(pipeline.model, _oracle_vector(pipeline, None, number))

    def test_each_pipeline_has_its_own_memo(self):
        a = Pipeline.fit(CORPUS, TrainConfig(algorithm=Algorithm.KNN), "context", LEXICON)
        b = Pipeline.fit(CORPUS, TrainConfig(algorithm=Algorithm.KNN), "context", LEXICON)
        memo_label(a, *ROWS[0])
        assert a.memo.cache_info().currsize == 1
        assert b.memo.cache_info().currsize == 0

    def test_dropped_pipeline_is_freed_without_the_collector(self):
        # a memo that referred back to its pipeline would keep every dropped
        # pipeline, model included, alive until the next garbage collection
        pipeline = Pipeline.fit(CORPUS, TrainConfig(algorithm=Algorithm.KNN), "context", LEXICON)
        memo_label(pipeline, *ROWS[0])
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


class TestLoadParsesEachTextOnce:
    @pytest.fixture(scope="class")
    def dt_pipeline(self):
        return Pipeline.fit(CORPUS, TrainConfig(algorithm=Algorithm.DecisionTree), "context", LEXICON)

    def test_the_same_bytes_give_the_same_pipeline(self, dt_pipeline, tmp_path):
        path = tmp_path / "dt.txt"
        dt_pipeline.save(path)
        assert Pipeline.load(path) is Pipeline.load(path)

    def test_a_rewrite_of_the_same_size_and_mtime_is_parsed_again(self, dt_pipeline, tmp_path):
        # every leaf label L becomes 5 - L: new bytes, same size; the key is
        # the text, so neither the path nor the restored stat can hide them
        path = tmp_path / "dt.txt"
        dt_pipeline.save(path)
        old = Pipeline.load(path)
        before = [memo_label(old, *row) for row in ROWS]
        stat = path.stat()
        text = path.read_text(encoding="utf-8")
        rewritten = re.sub(r"^leaf (\d)$", lambda m: f"leaf {5 - int(m[1])}", text, flags=re.M)
        assert rewritten != text and len(rewritten) == len(text)
        path.write_text(rewritten, encoding="utf-8")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        new = Pipeline.load(path)
        assert new is not old
        assert [memo_label(new, *row) for row in ROWS] == [FormatLabel(5 - label) for label in before]

    def test_a_damaged_file_raises_on_every_load(self, dt_pipeline, tmp_path):
        # lru_cache keeps no exception, so the second load parses and refuses again
        path = tmp_path / "damaged.txt"
        dt_pipeline.save(path)
        path.write_text(path.read_text(encoding="utf-8").replace("nodes ", "nodez "), encoding="utf-8")
        for _ in range(2):
            with pytest.raises(ModelFormatError, match=re.escape(f"{path}: ")):
                Pipeline.load(path)

    def test_a_pipeline_past_the_bound_is_freed_without_the_collector(self, dt_pipeline, tmp_path):
        paths = [tmp_path / f"dt{i}.txt" for i in range(PARSED_FILES + 1)]
        for path in paths:
            dt_pipeline.save(path)
        gc.disable()
        try:
            first = Pipeline.load(paths[0])
            gone = weakref.ref(first)
            del first
            assert gone() is not None  # kept for the next load of its text
            for path in paths[1:]:
                Pipeline.load(path)
            assert gone() is None
        finally:
            gc.enable()


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


class TestEachKeyEncodedOncePerRun:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("extractor", EXTRACTORS)
    def test_rows_built_once_per_key_and_knn_points_never_searched(self, extractor, k, monkeypatch):
        corpus = cv_workload_corpus()

        def counted(module, name, calls):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda first, *rest: calls.append(first) or real(first, *rest))

        built, searched, predicted = [], [], []
        counted(context_features, "one_hot_row", built)
        counted(bow_features, "bow_row", built)
        counted(classifiers, "_distinct_rows", searched)
        counted(evaluation, "predict_batch", predicted)
        cross_validate(corpus, extractor, TrainConfig(algorithm=Algorithm.KNN, k=k), k=10, seed=29, lexicon=LEXICON)
        # a row per distinct key, or none at all where numpy counts the bytes
        assert len(built) == len(set(built))
        # the run's rows are searched, never a fold's 606 or 607 points
        assert searched and all(len(rows) == len(corpus) for rows in searched)
        assert len(predicted) == 10
