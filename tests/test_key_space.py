"""The per-row predict of a loaded model against the numpy batch predict of
the model it was trained as, over every context key there is and every
bag-of-words number the bundled corpus and perfbench's inputs hold.

``classify --model`` labels each number with ``models.predict`` on the
row's nonzero pairs, from a model file read into plain Python numbers;
cross-validation labels with ``classifiers.predict_batch`` on dense numpy
rows. The context key space is small enough to list whole
(``conftest.reachable_context_keys``), so the two are compared on all of it.

The same labels give, per context model, how many keys get a label that
``verbalizer._READINGS`` does not let the key's shape code (``key[4]``) take;
``classify`` exits 1 on such a number. These counts are pinned as found, so
that a change to them shows, until constrained decoding makes them 0. lda's
counts follow its weights, whose last bits depend on the BLAS kernel, as the
``train lda`` golden digests do.
"""

import numpy as np
import pytest
from conftest import LINE_ALPHABET, bow_encode, cv_workload_corpus, reachable_context_keys, stream_lines
from hypothesis import given, settings, strategies as st

from numctx.classifiers import Algorithm, TrainConfig, predict_batch
from numctx.context_features import (
    _N_BUCKETS,
    _N_CLASSES,
    _N_SHAPES,
    FEATURE_DIM,
    codes,
    default_lexicon,
    line_windows,
)
from numctx.corpus import bundled_corpus_path, load_corpus
from numctx.labels import LABELS
from numctx.locator import ShapeKind, locate_numbers, shape_of
from numctx.models import deserialize, predict, serialize
from numctx.pipeline import Pipeline
from numctx.verbalizer import _READINGS

LEXICON = default_lexicon()
CORPUS = load_corpus(bundled_corpus_path())
KEYS = reachable_context_keys()
KEY_SET = set(KEYS)
# each code's block in the dense row, written out apart from the program's own offsets
_BLOCKS = np.array([0, 1, 2, 3, 4, 4]) * _N_CLASSES + np.array([0, 0, 0, 0, 0, _N_SHAPES])
_CHUNK = 20_000  # rows of the dense reference matrix at a time: 9 MB


def _line_keys(lines):
    return {
        codes(window, shape_of(number), LEXICON)
        for line in lines
        for numbers in [locate_numbers(line)]
        for number, window in zip(numbers, line_windows(line, numbers))
    }


@pytest.fixture(scope="module")
def program_keys():
    """Every context key the bundled corpus and the seed-29 stream lines give."""
    return _line_keys(s.text for s in CORPUS), _line_keys(stream_lines())


def _fit(algorithm, extractor, k=1):
    """The pipeline trained on the bundled corpus, and its model after a model file round trip."""
    pipeline = Pipeline.fit(CORPUS, TrainConfig(algorithm=Algorithm(algorithm), k=k), extractor, LEXICON)
    return pipeline, deserialize(serialize(pipeline.model))


def _assert_rows_agree(fitted, keys, dense):
    """For each (pipeline, loaded model) of ``fitted``, ``predict`` of the
    loaded model on each key's pairs equals ``predict_batch`` of the trained
    model on the dense rows ``dense(keys)``. The pipelines share an
    extractor, so each key's pairs are built once. Returns each pipeline's
    labels of ``keys``."""
    features = fitted[0][0].features
    labels = [[] for _ in fitted]
    for start in range(0, len(keys), _CHUNK):
        chunk = keys[start : start + _CHUNK]
        X, rows = dense(chunk), [features.row(key) for key in chunk]
        for (pipeline, loaded), found in zip(fitted, labels):
            expected = predict_batch(pipeline.model, X).tolist()
            assert [predict(loaded, row) for row in rows] == expected, pipeline.model.algorithm
            found += expected
    return labels


def _shape_illegal(keys, labels):
    """How many of the context ``keys`` get a label their shape cannot be read as."""
    return sum(ShapeKind(key[4]) not in _READINGS[LABELS[label]][1] for key, label in zip(keys, labels))


def _one_hot(keys):
    X = np.zeros((len(keys), FEATURE_DIM))
    X[np.arange(len(keys))[:, None], np.array(keys) + _BLOCKS] = 1.0
    return X


class TestContextKeySpace:
    def test_size_is_the_formula(self):
        window_sides = _N_CLASSES**2 - (_N_CLASSES - 1)  # a Boundary next to the number only before a Boundary
        assert len(set(KEYS)) == len(KEYS) == window_sides**2 * _N_SHAPES * _N_BUCKETS == 332_667

    def test_every_key_the_program_builds_is_listed(self, program_keys):
        corpus_keys, stream_keys = program_keys
        assert corpus_keys and stream_keys
        assert corpus_keys | stream_keys <= KEY_SET

    @settings(max_examples=500, deadline=None)
    @given(st.lists(LINE_ALPHABET, max_size=40).map("".join))
    def test_every_key_of_a_random_line_is_listed(self, line):
        # a slot past the sentence edge is Boundary, and so is every slot beyond it
        assert _line_keys([line]) <= KEY_SET

    def test_dt_lda_svm_every_key(self):
        labels = _assert_rows_agree([_fit(algorithm, "context") for algorithm in ("dt", "lda", "svm")], KEYS, _one_hot)
        assert [_shape_illegal(KEYS, found) for found in labels] == [174_731, 155_722, 166_784]
        assert [_shape_illegal(KEYS[::16], found[::16]) for found in labels] == [10_893, 9_742, 10_411]

    def test_knn_every_16th_key_and_every_key_of_the_inputs(self, program_keys):
        sampled = KEYS[::16]
        keys = sampled + sorted(set().union(*program_keys))
        labels = _assert_rows_agree([_fit("knn", "context", k) for k in (1, 3)], keys, _one_hot)
        assert [_shape_illegal(sampled, found[: len(sampled)]) for found in labels] == [9_566, 9_849]  # k = 1, 3


class TestBowNumbers:
    @pytest.fixture(scope="class")
    def raw_numbers(self):
        """A number of each distinct row among those of the bundled corpus,
        the stream lines and the cv corpus: counts do not depend on the
        order of the characters, so one number per sorted spelling."""
        corpus_rows = [s.number.raw for s in (*CORPUS, *cv_workload_corpus())]
        stream = [number.raw for line in stream_lines() for number in locate_numbers(line)]
        return list({"".join(sorted(raw)): raw for raw in corpus_rows + stream}.values())

    def test_every_number(self, raw_numbers):
        fitted = [_fit(algorithm, "bow", k) for algorithm, k in [("dt", 1), ("knn", 1), ("knn", 3), ("lda", 1), ("svm", 1)]]
        columns = fitted[0][0].features.columns  # each fits the vocabulary on the same corpus
        _assert_rows_agree(fitted, raw_numbers, lambda raws: np.array([bow_encode(raw, columns) for raw in raws]))
