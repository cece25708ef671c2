import math
import random
import re
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from conftest import cv_workload_corpus
from hypothesis import given, settings, strategies as st

from numctx import classifiers
from numctx.classifiers import (
    _MIN_GAIN,
    Algorithm,
    KnnModel,
    LdaModel,
    SvmModel,
    TrainConfig,
    TreeModel,
    TreeNode,
    _distinct_rows,
    _grow_group,
    _svm_folds,
    predict_batch,
    train,
    train_folds,
)
from numctx.context_features import default_lexicon
from numctx.corpus import bundled_corpus_path, load_corpus, stratified_folds
from numctx.labels import FormatLabel
from numctx.models import ModelFormatError, deserialize, predict, serialize
from numctx.pipeline import EXTRACTORS, encode_rows, make_features

D, T, P, C, M, PC = FormatLabel
# how train refuses a linear model whose training overflows
OVERFLOW = "overflows training, and no model file holds a non-finite weight"


def dt_cfg(**kw):
    return TrainConfig(algorithm=Algorithm.DecisionTree, **kw)


def knn_cfg(k=1):
    return TrainConfig(algorithm=Algorithm.KNN, k=k)


# --- independent exhaustive nearest-neighbor oracle (pure python) ---------


def predict_one(model, x):
    """The per-row ``predict`` on the nonzero pairs of the dense row ``x``."""
    return predict(model, {column: value for column, value in enumerate(x) if value})


def knn_oracle(points, labels, query, k):
    distances = [
        math.sqrt(sum((a - b) ** 2 for a, b in zip(point, query))) for point in points
    ]
    order = sorted(range(len(points)), key=lambda i: (distances[i], i))[:k]
    votes, sums = {}, {}
    for i in order:
        votes[labels[i]] = votes.get(labels[i], 0) + 1
        sums[labels[i]] = sums.get(labels[i], 0.0) + distances[i]
    best = max(votes.values())
    tied = sorted((lab for lab, v in votes.items() if v == best), key=lambda lab: (sums[lab], lab))
    return tied[0]


class TestConfig:
    def test_knn_k_validated(self):
        with pytest.raises(ValueError):
            TrainConfig(algorithm=Algorithm.KNN, k=2)

    def test_bad_hyperparameters(self):
        for kw in [
            dict(max_depth=-1),
            dict(max_depth=None),
            dict(c_reg=0.0),
            dict(shrinkage=-1.0),
            dict(shrinkage=math.nan),
            dict(shrinkage=math.inf),
            dict(c_reg=math.nan),
            dict(c_reg=math.inf),
        ]:
            with pytest.raises(ValueError):
                TrainConfig(algorithm=Algorithm.DecisionTree, **kw)

    def test_unlimited_depth_allowed(self):
        assert TrainConfig(algorithm=Algorithm.DecisionTree, max_depth=0).max_depth == 0

    @pytest.mark.parametrize(
        "algorithm, field, value, message",
        [
            (Algorithm.KNN, "k", 2, "k must be 1 or 3, got 2"),
            (Algorithm.DecisionTree, "max_depth", -1, "max_depth must be >= 0 (0 = unlimited), got -1"),
            (Algorithm.LDA, "shrinkage", math.inf, "shrinkage must be finite and >= 0, got inf"),
            (Algorithm.LinearSVM, "c_reg", math.nan, "c_reg must be finite and > 0, got nan"),
        ],
    )
    def test_every_way_of_building_a_config_checks_it(self, algorithm, field, value, message):
        valid = TrainConfig(algorithm)
        assert TrainConfig._make(valid) == valid
        fields = [value if name == field else old for name, old in zip(TrainConfig._fields, valid)]
        for build in (
            lambda: TrainConfig(algorithm, **{field: value}),
            lambda: TrainConfig._make(fields),
            lambda: valid._replace(**{field: value}),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                build()


class TestTrainContract:
    def test_empty_input(self):
        with pytest.raises(ValueError):
            train([], [], dt_cfg())

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_no_feature_columns_rejected(self, algorithm):
        with pytest.raises(ValueError, match="no feature columns"):
            train(np.zeros((3, 0)), [D, T, D], TrainConfig(algorithm=algorithm))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            train([[0.0], [1.0]], [D], dt_cfg())

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    @pytest.mark.parametrize("label", [-1, 6, 2**53, 2**64])
    def test_label_not_a_format_label_refused(self, algorithm, label):
        # read_model refuses such a label, so train must not fit one
        message = f"^training label {label} is not a FormatLabel value$"
        with pytest.raises(ValueError, match=message):
            train([[0.0], [1.0]], [D, label], TrainConfig(algorithm=algorithm))
        if label < 2**63:  # as cross-validation passes labels; the first bad one is named
            with pytest.raises(ValueError, match=message):
                train([[0.0], [1.0], [2.0]], np.array([D, label, 7], dtype=np.int64), TrainConfig(algorithm=algorithm))

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_label_not_a_whole_number_refused(self, algorithm):
        # int() would truncate 3.7 to Currency
        message = "^training label 3.7 is not a FormatLabel value$"
        for labels in ([0, 3.7], np.array([0.0, 3.7])):
            with pytest.raises(ValueError, match=message):
                train([[0.0], [1.0]], labels, TrainConfig(algorithm=algorithm))
        # a whole-number real is its label
        model = train([[0.0], [1.0]], np.array([0.0, 3.0]), TrainConfig(algorithm=algorithm))
        assert predict_one(model, [1.0]) == FormatLabel.Currency

    def test_predict_dimension_mismatch(self):
        model = train([[0.0, 1.0], [1.0, 0.0]], [D, T], dt_cfg())
        with pytest.raises(ValueError):
            predict_batch(model, [[1.0, 2.0, 3.0]])

    def test_lda_single_class_rejected(self):
        with pytest.raises(ValueError):
            train([[0.0], [1.0]], [D, D], TrainConfig(algorithm=Algorithm.LDA))

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_rejected(self, algorithm, value):
        X = [[0.0, 1.0], [1.0, value]]
        with pytest.raises(ValueError, match="non-finite"):
            train(X, [D, T], TrainConfig(algorithm=algorithm))

    @pytest.mark.parametrize(
        "c_reg, X",
        [
            (1e-320, [[0.0, 1.0], [1.0, 0.0]]),  # the first step, 1/c_reg, is already infinite
            (1e-300, [[0.0, 1e10], [1e10, 0.0]]),  # a finite step overflows the weights
        ],
    )
    def test_svm_training_that_overflows_refused(self, c_reg, X):
        # RuntimeWarning is an error under this suite's settings, so none is warned either
        with pytest.raises(ValueError, match=rf"^c_reg {c_reg} {OVERFLOW}$"):
            train(X, [D, T], TrainConfig(algorithm=Algorithm.LinearSVM, c_reg=c_reg))
        # the same c_reg on unit-sized features trains
        model = train([[0.0, 1.0], [1.0, 0.0]], [D, T], TrainConfig(algorithm=Algorithm.LinearSVM, c_reg=1e-300))
        assert np.isfinite(model.weights).all()

    def test_svm_overflow_refuses_every_split(self):
        # two splits that train in one stack, then one of another row count
        X, y = np.eye(9), [D, T, P] * 3
        splits = [(np.arange(9) != i, np.arange(9)) for i in (0, 1)] + [(np.arange(9) < 7, np.arange(9))]
        cfg = TrainConfig(algorithm=Algorithm.LinearSVM, c_reg=1e-320)
        yielded = []
        with pytest.raises(ValueError, match=rf"^c_reg 1e-320 {OVERFLOW}$"):
            for model in train_folds(X, y, splits, cfg):
                yielded.append(model)
        assert yielded == []

    @pytest.mark.parametrize("scale", [1e200, 1e300])  # nan weights; finite weights from an overflowed scatter
    def test_lda_training_that_overflows_refused(self, scale):
        X = np.array([[1.0, 0.0], [2.0, 1.0], [-1.0, 0.0], [-2.0, 1.0]]) * [scale, 1.0]
        with pytest.raises(ValueError, match=rf"^shrinkage 0.0001 {OVERFLOW}$"):
            train(X, [D, D, T, T], TrainConfig(algorithm=Algorithm.LDA))

    def test_determinism(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 5))
        y = [FormatLabel(int(v)) for v in rng.integers(0, 6, size=40)]
        for algorithm in Algorithm:
            cfg = TrainConfig(algorithm=algorithm)
            a, b = train(X, y, cfg), train(X, y, cfg)
            assert serialize(a) == serialize(b)


class TestDecisionTree:
    def test_single_class_is_one_leaf(self):
        model = train([[0.0], [1.0], [2.0]], [T, T, T], dt_cfg())
        assert model.root.is_leaf
        assert model.root.label == int(T)

    def test_hand_gini_split(self):
        # parent impurity 0.5; split at midpoint 0.5 gives two pure leaves
        model = train([[0.0], [1.0]], [D, T], dt_cfg())
        assert not model.root.is_leaf
        assert model.root.feature == 0
        assert model.root.threshold == 0.5
        assert model.root.left.label == int(D)
        assert model.root.right.label == int(T)

    @pytest.mark.parametrize(
        "values",
        [[1.6e308, 1.7e308], [-1.7e308, -1.6e308], [1 + 2**-52, 1 + 2**-51], [-5e-324, -0.0], [-5e-324, 0.0]],
        ids=["overflow", "negative-overflow", "adjacent", "adjacent-below-negative-zero", "adjacent-below-zero"],
    )
    def test_threshold_is_lower_value_when_midpoint_is_not_below_upper(self, values):
        # the midpoint overflows to +-inf, or rounds up to the upper value (here -0.0, which is not below a zero)
        X = [[v] for v in values]
        model = train(X, [D, T], dt_cfg())
        assert model.root.threshold == values[0]
        assert predict_batch(model, X).tolist() == [int(D), int(T)]
        reloaded = deserialize(serialize(model))
        assert serialize(reloaded) == serialize(model)
        assert predict_batch(reloaded, X).tolist() == [int(D), int(T)]

    def test_training_set_consistency(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 4))
        y = [FormatLabel(int(v)) for v in rng.integers(0, 6, size=60)]
        model = train(X, y, dt_cfg(max_depth=0))
        assert predict_batch(model, X).tolist() == [int(v) for v in y]

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 3))
        y = [FormatLabel(int(v)) for v in rng.integers(0, 6, size=50)]
        model = train(X, y, dt_cfg(max_depth=1))

        def depth(node):
            return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))

        assert depth(model.root) <= 1

    def test_tie_break_lowest_feature(self):
        # both features separate equally well; feature 0 must win
        X = [[0.0, 0.0], [1.0, 1.0]]
        model = train(X, [D, T], dt_cfg())
        assert model.root.feature == 0

    def test_unlimited_depth_grows_a_1500_deep_chain(self):
        # each Gini split peels one row off the end, so the tree is 1,500 levels deep
        X = np.arange(1500, dtype=np.float64)[:, None]
        y = [i % 2 for i in range(1500)]
        model = train(X, y, dt_cfg(max_depth=0))
        reloaded = deserialize(serialize(model))
        assert serialize(reloaded) == serialize(model)
        assert predict_batch(reloaded, X).tolist() == y

    def test_level_histogram_bins_each_column_by_its_own_values(self):
        # on real-valued X a histogram binned by the whole matrix's distinct
        # values is the column count times larger
        rng = np.random.default_rng(3)
        X, y = rng.standard_normal((300, 10)), rng.integers(0, 6, size=300)
        bins = max(len(np.unique(column)) for column in X.T)
        with mock.patch.object(classifiers, "_best_cuts", wraps=classifiers._best_cuts) as best_cuts:
            train(X, y, dt_cfg(max_depth=0))
        assert best_cuts.call_count > 1
        for call in best_cuts.call_args_list:
            H, hist = call.args[:2]
            assert H.size <= len(hist) * X.shape[1] * bins * len(np.unique(y))


class TestKnn:
    def test_memorizes_training_data(self):
        X = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        model = train(X, [D, T, P], knn_cfg())
        assert np.array_equal(model.points, np.asarray(X))

    def test_exact_match_returns_label(self):
        model = train([[0.0, 1.0], [5.0, 5.0]], [C, M], knn_cfg())
        assert predict_one(model, [5.0, 5.0]) == M

    def test_k1_training_set_consistency(self):
        # duplicate-free training data: k=1 re-predicts itself perfectly
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 6))
        y = [FormatLabel(int(v)) for v in rng.integers(0, 6, size=80)]
        model = train(X, y, knn_cfg(1))
        assert predict_batch(model, X).tolist() == [int(v) for v in y]

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_oracle_random(self, k):
        rng = random.Random(99)
        for _ in range(25):
            n, dim = rng.randint(3, 30), rng.randint(1, 6)
            points = [[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(n)]
            labels = [rng.randrange(6) for _ in range(n)]
            model = train(points, [FormatLabel(v) for v in labels], knn_cfg(k))
            for _ in range(5):
                query = [rng.uniform(-2, 2) for _ in range(dim)]
                assert int(predict_one(model, query)) == knn_oracle(points, labels, query, k)

    def test_majority_beats_distance(self):
        # two Time votes outvote one closer Date vote
        model = train([[0.5], [-1.0], [1.2]], [D, T, T], knn_cfg(3))
        assert predict_one(model, [0.0]) == T

    def test_vote_tie_smaller_summed_distance(self):
        # three-way count tie; Date has the smallest summed distance
        model = train([[0.5], [1.0], [-2.0]], [D, T, P], knn_cfg(3))
        assert predict_one(model, [0.0]) == D

    def test_vote_and_distance_tie_label_order(self):
        # count tie and equal summed distances: lowest label value wins
        model = train([[1.0], [-1.0], [5.0]], [P, D, T], knn_cfg(3))
        assert predict_one(model, [0.0]) == D

    def test_duplicated_distances(self):
        # duplicate points at equal distance; must agree with the oracle
        points = [[1.0], [1.0], [-1.0], [-1.0]]
        labels = [int(D), int(P), int(T), int(T)]
        model = train(points, [FormatLabel(v) for v in labels], knn_cfg(3))
        assert int(predict_one(model, [0.0])) == knn_oracle(points, labels, [0.0], 3)


class TestLda:
    def test_symmetric_boundary(self):
        # two symmetric 1-D classes with means -1 and +1: boundary at 0
        X = [[-1.5], [-0.5], [0.5], [1.5]]
        y = [D, D, T, T]
        model = train(X, y, TrainConfig(algorithm=Algorithm.LDA))
        assert predict_one(model, [0.001]) == T
        assert predict_one(model, [-0.001]) == D

    def test_priors_shift_decision(self):
        # same means, unbalanced priors: the bigger class wins at the midpoint
        X = [[-1.0], [-1.0], [-1.0], [1.0]]
        y = [D, D, D, T]
        model = train(X, y, TrainConfig(algorithm=Algorithm.LDA))
        assert predict_one(model, [0.0]) == D

    def test_degenerate_directions_survive_shrinkage(self):
        # second coordinate is constant: singular without regularization
        X = [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]
        y = [D, D, T, T]
        model = train(X, y, TrainConfig(algorithm=Algorithm.LDA, shrinkage=1e-4))
        assert predict_one(model, [0.2, 1.0]) == D

    def test_zero_shrinkage_singular_raises(self):
        X = [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]
        y = [D, D, T, T]
        with pytest.raises(ValueError):
            train(X, y, TrainConfig(algorithm=Algorithm.LDA, shrinkage=0.0))


class TestLinearSvm:
    def test_separable_two_class(self):
        rng = np.random.default_rng(5)
        a = rng.normal(loc=-2.0, size=(20, 3))
        b = rng.normal(loc=2.0, size=(20, 3))
        X = np.vstack([a, b])
        y = [D] * 20 + [T] * 20
        model = train(X, y, TrainConfig(algorithm=Algorithm.LinearSVM))
        assert predict_batch(model, X).tolist() == [int(v) for v in y]

    def test_always_emits_a_label(self):
        model = _svm_alone(np.array([[0.0], [1.0]]), np.array([D, T]), 1.0, 1)
        assert predict_one(model, [100.0]) in list(FormatLabel)

    def test_multiclass_one_vs_rest(self):
        # class centers on a simplex: each class linearly separable from the rest
        rng = np.random.default_rng(6)
        centers = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)]
        X = np.vstack([rng.normal(loc=center, scale=0.5, size=(15, 2)) for center in centers])
        y = [D] * 15 + [T] * 15 + [P] * 15
        model = train(X, y, TrainConfig(algorithm=Algorithm.LinearSVM))
        accuracy = (predict_batch(model, X) == np.array([int(v) for v in y])).mean()
        assert accuracy >= 0.95


class TestLinearScore:
    """The linear rule that ``predict`` and ``predict_batch`` share, on
    hand-built weights: comparing the two evaluators cannot catch a fault in
    it."""

    @staticmethod
    def _labels(model, queries):
        """The labels of ``predict_batch``, of ``predict`` and of ``predict`` on the model read back."""
        per_row = [[int(predict_one(m, q)) for q in queries] for m in (model, deserialize(serialize(model)))]
        return [predict_batch(model, queries).tolist(), *per_row]

    def test_adds_in_column_order_then_the_bias(self):
        # in column order 2**53 + 1 rounds back to 2**53, so D scores 0.0 on
        # the first query and loses to T's 0.5; from the last column it would score 1.0
        big = 2.0**53
        model = LdaModel(dim=3, class_ids=[D, T], weights=[[big, 1.0, -big], [0.0, 0.0, 0.0]], biases=[0.0, 0.5])
        queries = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        assert self._labels(model, queries) == [[T, D]] * 3

    def test_a_tie_goes_to_the_first_maximum(self):
        # class_ids ascend, so the first maximum is the lowest tied label
        model = SvmModel(dim=2, class_ids=[T, C, M], weights=[[0.0, 0.0], [1.0, 2.0], [1.0, 2.0]], biases=[0.5] * 3)
        queries = np.array([[0.0, 0.0], [1.0, 3.0]])
        assert self._labels(model, queries) == [[T, C]] * 3


def _duplicate_heavy(data):
    """(X, labels): up to 40 rows drawn from at most 6 distinct ones over
    {0.0, -0.0, 1.0, 2.0}, so rows repeat, often with conflicting labels."""
    dim = data.draw(st.integers(1, 4), label="dim")
    size = data.draw(st.integers(1, 6), label="pool size")
    elements = st.sampled_from([0.0, -0.0, 1.0, 2.0])
    pool = data.draw(hnp.arrays(np.float64, (size, dim), elements=elements), label="pool")
    n = data.draw(st.integers(1, 40), label="rows")
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n), label="picks")
    labels = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n), label="labels")
    return pool[picks], labels


class TestPerRowPredictMatchesBatch:
    """``predict`` on a row's nonzero pairs, of the trained model and of it
    read back from its file, against the trained model's ``predict_batch``."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_tie_heavy_training_sets(self, data):
        X, labels = _duplicate_heavy(data)
        if data.draw(st.booleans(), label="single class"):
            labels = [labels[0]] * len(labels)
        elements = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0])
        queries = np.vstack([X, data.draw(hnp.arrays(np.float64, (4, X.shape[1]), elements=elements), label="queries")])
        for cfg in [dt_cfg(), knn_cfg(1), knn_cfg(3), TrainConfig(Algorithm.LDA), TrainConfig(Algorithm.LinearSVM)]:
            if cfg.algorithm == Algorithm.LDA and len(set(labels)) == 1:
                with pytest.raises(ValueError, match="at least 2 classes"):
                    train(X, labels, cfg)
                continue
            model = train(X, labels, cfg)
            expected = predict_batch(model, queries).tolist()
            for predictor in (model, deserialize(serialize(model))):
                assert [int(predict_one(predictor, q)) for q in queries] == expected, cfg.algorithm

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_knn_on_real_valued_rows(self, data):
        # fractional squares round, so distances that tie in exact arithmetic
        # come out a bit apart, and which way depends on the order of the sum:
        # a point and its columns permuted are equally far from a constant
        # query, whose columns interleave with the point's nonzero ones
        dim = data.draw(st.integers(1, 64), label="dim")
        fractions = st.sampled_from([0.0, -0.0, 0.1, -0.1, 0.2, 0.3, 1 / 3, -2 / 3, 0.7, 1.1])
        elements = st.one_of(fractions, st.floats(-3, 3, allow_subnormal=False))
        size = data.draw(st.integers(1, 6), label="pool size")
        pool = data.draw(hnp.arrays(np.float64, (size, dim), elements=elements), label="pool")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="shuffle seed"))
        # each pool row, its columns permuted, and its values negated
        variants = np.vstack([pool, rng.permuted(pool, axis=1), -pool])
        n = data.draw(st.integers(1, 30), label="rows")
        X = variants[data.draw(st.lists(st.integers(0, len(variants) - 1), min_size=n, max_size=n), label="picks")]
        labels = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n), label="labels")
        constant = np.outer([0.0, 0.1, 1 / 3, -0.7], np.ones(dim))
        queries = np.vstack([constant, variants, rng.permuted(variants, axis=1)])
        k = data.draw(st.sampled_from([1, 3]), label="k")
        model = train(X, labels, knn_cfg(k))
        expected = predict_batch(model, queries).tolist()
        for predictor in (model, deserialize(serialize(model))):
            assert [int(predict_one(predictor, q)) for q in queries] == expected

    def test_lda_near_tie(self):
        # LDA's scores for the query [2, 3, 3] nearly tie: summed in another
        # order than the per-row one (as a BLAS product sums them), they once
        # gave 5 in the batch and 2 per row
        pool = np.array([[1.0, 1, 1], [0, 1, 0], [1, 1, 1], [0, 1, 2]])
        X = pool[[0] * 10 + [3, 1] + [0] * 4 + [1, 1, 3, 3]]
        labels = [0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 1, 2, 4, 5, 5, 1, 4, 2, 5]
        queries = np.vstack([X, [[2.0, 3, 3]] + [[3.0, 3, 3]] * 3])
        for cfg in [dt_cfg(), knn_cfg(1), knn_cfg(3), TrainConfig(Algorithm.LDA), TrainConfig(Algorithm.LinearSVM)]:
            model = train(X, labels, cfg)
            expected = predict_batch(model, queries).tolist()
            for predictor in (model, deserialize(serialize(model))):
                assert [int(predict_one(predictor, q)) for q in queries] == expected, cfg.algorithm


class TestDistinctRows:
    def test_first_appearance_order(self):
        M = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [3.0, 0.0], [0.0, 0.0]])
        distinct, first, inverse = _distinct_rows(M)
        assert distinct.tolist() == [[1.0, 2.0], [0.0, 0.0], [3.0, 0.0]]
        assert first.tolist() == [0, 1, 3]
        assert inverse.tolist() == [0, 1, 0, 2, 1]
        assert (distinct[inverse] == M).all()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_counts_sum_to_rows(self, data):
        X, _ = _duplicate_heavy(data)
        distinct, first, inverse = _distinct_rows(X)
        assert np.bincount(inverse).sum() == len(X)
        assert (first == [list(inverse).index(i) for i in range(len(distinct))]).all()

    def test_zero_and_negative_zero_kept_apart(self):
        distinct, _, inverse = _distinct_rows(np.array([[0.0], [-0.0], [0.0]]))
        assert len(distinct) == 2
        assert inverse.tolist() == [0, 1, 0]

    def test_equal_row_with_other_label_kept_apart(self):
        M, labels = np.array([[1.0], [1.0], [1.0]]), np.array([2, 3, 2])
        _, first, inverse = _distinct_rows(np.column_stack([M, labels]))
        assert first.tolist() == [0, 1]
        assert np.bincount(inverse).tolist() == [2, 1]


# --- frozen every-point KNN scan: the differential oracle -------------------


def _oracle_knn_predict_one(model, x):
    """KNN predict as it was before distinct points were measured once: every
    training point's distance, then a stable sort of all of them."""
    d = np.sqrt(((model.points - x) ** 2).sum(axis=1))
    k = min(model.k, len(d))
    # stable sort: equal distances resolve to the lower training index
    nearest = np.argsort(d, kind="stable")[:k]
    votes: dict[int, int] = {}
    summed: dict[int, float] = {}
    for i in nearest:
        lab = int(model.labels[i])
        votes[lab] = votes.get(lab, 0) + 1
        summed[lab] = summed.get(lab, 0.0) + float(d[i])
    best_count = max(votes.values())
    tied = [lab for lab, n in votes.items() if n == best_count]
    tied.sort(key=lambda lab: (summed[lab], lab))
    return tied[0]


def _assert_knn_matches_oracle(X, labels, queries, k):
    model = train(X, labels, knn_cfg(k))
    expected = [_oracle_knn_predict_one(model, q) for q in queries]
    assert predict_batch(model, queries).tolist() == expected


# --- frozen per-class SVM trainer: the differential oracle ------------------


def _oracle_train_svm(M, labels, c_reg, epochs):
    """The SVM trainer as it was before the classes stepped together: one
    class at a time, the violating rows copied out and summed."""
    class_ids = np.unique(labels)
    n, dim = M.shape
    weights = np.zeros((len(class_ids), dim))
    biases = np.zeros(len(class_ids))
    for row, c in enumerate(class_ids):
        t_vec = np.where(labels == c, 1.0, -1.0)
        w = np.zeros(dim)
        b = 0.0
        for t in range(1, epochs + 1):
            eta = 1.0 / (c_reg * t)
            margins = t_vec * (M @ w + b)
            violating = margins < 1.0
            grad_w = c_reg * w - (t_vec[violating, None] * M[violating]).sum(axis=0) / n
            grad_b = -t_vec[violating].sum() / n
            w = w - eta * grad_w
            b = b - eta * grad_b
        weights[row] = w
        biases[row] = b
    return SvmModel(dim=dim, class_ids=class_ids.astype(np.int64), weights=weights, biases=biases)


def _svm_alone(X, labels, c_reg, epochs):
    """The SVM of one split holding every row and column, after ``epochs`` epochs."""
    [model] = _svm_folds(X, labels, [(np.ones(len(X), dtype=bool), np.arange(X.shape[1]))], c_reg, epochs)
    return model


def _assert_svm_matches_oracle(X, labels, c_reg=1.0, epochs=200):
    X, labels = np.asarray(X, dtype=np.float64), np.asarray(labels, dtype=np.int64)
    expected = _oracle_train_svm(X, labels, c_reg, epochs)
    assert serialize(_svm_alone(X, labels, c_reg, epochs)) == serialize(expected)


def _fold_splits(corpus):
    """(name, training rows) of every training split of 10-fold CV at seed 42."""
    every_row, folds = set(range(len(corpus))), stratified_folds(corpus, 10, 42)
    return [(f"fold{i}", tuple(sorted(every_row - set(fold)))) for i, fold in enumerate(folds)]


def _split_params(splits):
    """One (extractor, training rows) parameter per extractor and split."""
    return [pytest.param(e, rows, id=f"{e}-{name}") for e in EXTRACTORS for name, rows in splits]


def _bundled_training_splits():
    """(extractor, training rows): the full bundled corpus, then every training
    split of 10-fold CV at seed 42, each with its features fitted the way
    ``cross_validate`` fits them."""
    corpus = load_corpus(bundled_corpus_path())
    return _split_params([("full", tuple(range(len(corpus))))] + _fold_splits(corpus))


def _cv_workload_training_splits():
    """(extractor, training rows) of every training split ``compare`` makes
    of the cv workload's corpus."""
    return _split_params(_fold_splits(cv_workload_corpus()))


def _encoder(corpus):
    numbers = [s.number for s in corpus]
    labels = np.array([int(s.label) for s in corpus], dtype=np.int64)
    lexicon = default_lexicon()

    def encode(extractor, rows):
        """The training rows' vectors and labels, then every corpus row's
        vector, all under features fitted on the training rows."""
        features = make_features(extractor, lexicon)
        features.fit([numbers[i] for i in rows])
        every_row = encode_rows(features, corpus)
        return every_row[list(rows)], labels[list(rows)], every_row

    return encode


@pytest.fixture(scope="module")
def bundled_encoding():
    return _encoder(load_corpus(bundled_corpus_path()))


@pytest.fixture(scope="module")
def cv_workload_encoding():
    return _encoder(cv_workload_corpus())


class TestKnnMatchesEveryPointScan:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("extractor, rows", _bundled_training_splits())
    def test_bundled_corpus_predictions(self, bundled_encoding, extractor, rows, k):
        X, labels, every_row = bundled_encoding(extractor, rows)
        _assert_knn_matches_oracle(X, labels, every_row, k)

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("extractor, rows", _cv_workload_training_splits())
    def test_cv_workload_predictions(self, cv_workload_encoding, extractor, rows, k):
        # the shapes the benchmark predicts: 34 or 35 distinct context points
        # of 56 columns, about 410 distinct BoW points of 19
        X, labels, every_row = cv_workload_encoding(extractor, rows)
        _assert_knn_matches_oracle(X, labels, every_row, k)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_whole_number_matrices_of_8_to_64_columns(self, data):
        # from 8 columns on, numpy's pairwise sum no longer adds in column
        # order; on whole numbers every partial sum is exact in either order.
        # A small cell bound splits the queries into blocks of a few rows
        dim = data.draw(st.integers(8, 64), label="dim")
        elements = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0])
        size = data.draw(st.integers(1, 8), label="pool size")
        pool = data.draw(hnp.arrays(np.float64, (size, dim), elements=elements), label="pool")
        n = data.draw(st.integers(1, 30), label="rows")
        X = pool[data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n), label="picks")]
        labels = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n), label="labels")
        fresh = data.draw(hnp.arrays(np.float64, (6, dim), elements=elements), label="queries")
        queries = np.vstack([fresh, pool, fresh[:2]])
        k = data.draw(st.sampled_from([1, 3]), label="k")
        cells = data.draw(st.sampled_from([1, 50, classifiers._KNN_CELLS]), label="cells")
        with mock.patch.object(classifiers, "_KNN_CELLS", cells):
            _assert_knn_matches_oracle(X, labels, queries, k)

    @pytest.mark.parametrize("k", [1, 3])
    def test_queries_beyond_one_block(self, k):
        # 600 distinct training points: a block holds 25 queries, and 300
        # distinct queries take 12 blocks
        rng = np.random.default_rng(34)
        X = rng.integers(0, 4, size=(600, 12)).astype(np.float64)
        labels = rng.integers(0, 6, size=600).tolist()
        queries = rng.integers(0, 4, size=(300, 12)).astype(np.float64)
        assert len(_distinct_rows(X)[0]) == 600 and len(_distinct_rows(queries)[0]) == 300
        _assert_knn_matches_oracle(X, labels, queries, k)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_duplicate_heavy_matrices(self, data):
        # few values, -0.0 among them: many duplicate points, equal points
        # with different labels, and ties in distance
        elements = st.sampled_from([0.0, -0.0, 1.0, 2.0])
        n = data.draw(st.integers(1, 30), label="rows")
        dim = data.draw(st.integers(1, 4), label="dim")
        X = data.draw(hnp.arrays(np.float64, (n, dim), elements=elements), label="X")
        labels = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n), label="labels")
        queries = data.draw(hnp.arrays(np.float64, (8, dim), elements=elements), label="queries")
        k = data.draw(st.sampled_from([1, 3]), label="k")
        _assert_knn_matches_oracle(X, labels, queries, k)


# --- frozen column-at-a-time KNN distance table: the differential oracle ----


def _oracle_distance_table(distinct, queries):
    """The (queries × distinct points) squared distance table as it was built
    before value rows: each column some point or query holds, in ascending
    order, its difference for every (query, point) pair squared and added."""
    used = np.flatnonzero(distinct.any(axis=0) | queries.any(axis=0))
    squared = 0.0
    for j in used:
        d = distinct[:, j] - queries[:, j, None]
        squared += d * d
    return np.broadcast_to(squared, (len(queries), len(distinct)))


def _real_rows(data, dim, name):
    """1-30 rows of ``dim`` columns, each value drawn from a pool of 1-6, so
    values repeat down a column and across columns."""
    values = st.one_of(
        # rounded squares, whose sum depends on its order; squares that overflow
        st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, -0.1, 1 / 3, 1e200, -1e200, 1.7e308, -1.7e308]),
        st.floats(-1e3, 1e3, allow_subnormal=False),
    )
    pool = data.draw(st.lists(values, min_size=1, max_size=6), label=f"{name} pool")
    n = data.draw(st.integers(1, 30), label=f"{name} rows")
    return data.draw(hnp.arrays(np.float64, (n, dim), elements=st.sampled_from(pool)), label=name)


class TestDistanceTableMatchesColumnAtATime:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_real_valued_tables_bit_equal(self, data):
        dim = data.draw(st.integers(1, 64), label="dim")
        distinct = _distinct_rows(_real_rows(data, dim, "points"))[0]
        queries = _distinct_rows(np.vstack([_real_rows(data, dim, "queries"), distinct[:3]]))[0]
        cells = data.draw(st.sampled_from([1, 50, classifiers._KNN_CELLS]), label="cells")
        with mock.patch.object(classifiers, "_KNN_CELLS", cells), np.errstate(over="ignore"):
            blocks = list(classifiers._distance_blocks(distinct, queries, len(distinct)))
            expected = np.ascontiguousarray(_oracle_distance_table(distinct, queries))
        step = max(1, cells // len(distinct))
        assert [(rows.start, len(table)) for rows, table in blocks] == [
            (start, min(step, len(queries) - start)) for start in range(0, len(queries), step)
        ]
        table = np.vstack([table for _, table in blocks])
        assert (table.view(np.int64) == expected.view(np.int64)).all()

    def test_no_column_held(self):
        [(rows, table)] = classifiers._distance_blocks(np.zeros((3, 2)), np.array([[0.0, -0.0]]), 3)
        assert rows == slice(0, classifiers._KNN_CELLS // 3)
        assert table.tolist() == [[0.0, 0.0, 0.0]]

    @pytest.mark.parametrize("k", [1, 3])
    def test_overflowing_distances_tie_by_training_index(self, k):
        # most points are infinitely far from every query, so a query's k
        # nearest include points at distance inf, which tie and must come in
        # training order
        X = np.array([[1e200, 0.0], [-1e200, 1.0], [3.0, 0.0], [1e200, 1.0], [-1e200, 0.0], [3.0, 0.0]])
        labels = [1, 2, 3, 4, 5, 0]
        queries = np.array([[-1e200, 0.0], [1e200, 5.0], [0.0, 0.0], [1.7e308, 0.0], [-1.7e308, 2.0]])
        with np.errstate(over="ignore"):
            _assert_knn_matches_oracle(X, labels, queries, k)

    @pytest.mark.parametrize("k, expected", [(1, 4), (3, 4)])
    def test_nan_query_takes_the_first_training_rows(self, k, expected):
        # a nan query is nan from every point; like a stable sort, the search
        # takes the first k training rows, here labelled 4, 1 and 4
        model = train([[1.0, 0.0], [2.0, 0.0], [3.0, 1.0], [4.0, 1.0]], [4, 1, 4, 0], knn_cfg(k))
        assert predict_batch(model, [[np.nan, 0.0], [1.0, 0.0]]).tolist() == [expected, 4]


class TestSvmMatchesPerClassTrainer:
    @pytest.mark.parametrize("extractor, rows", _bundled_training_splits())
    def test_bundled_corpus_bytes(self, bundled_encoding, extractor, rows):
        X, labels, _ = bundled_encoding(extractor, rows)
        _assert_svm_matches_oracle(X, labels)

    @pytest.mark.parametrize("extractor, rows", _cv_workload_training_splits())
    def test_cv_workload_bytes(self, cv_workload_encoding, extractor, rows):
        # the shapes the benchmark trains on: about 36 distinct context rows
        # of 56 columns, about 480 distinct BoW rows of 19
        X, labels, _ = cv_workload_encoding(extractor, rows)
        _assert_svm_matches_oracle(X, labels)

    @pytest.mark.parametrize("extractor, rows", [p for p in _bundled_training_splits() if p.id.endswith("-full")])
    def test_bundled_corpus_bytes_at_c_reg_0_1(self, bundled_encoding, extractor, rows):
        # ten times the default step at every epoch
        X, labels, _ = bundled_encoding(extractor, rows)
        _assert_svm_matches_oracle(X, labels, c_reg=0.1)

    @pytest.mark.parametrize(
        "X, labels",
        [
            # one distinct training row: the margins are a 1-row product
            pytest.param([[1.0, 2.0, 0.0]] * 3, [P, P, P], id="one-distinct-row"),
            pytest.param([[3.0, 1.0]], [C], id="one-row"),
            # one column: the margins are a 1-column product
            pytest.param([[0.0], [1.0], [2.0], [3.0], [1.0], [4.0]], [D, T, T, P, D, P], id="one-column"),
            pytest.param([[0.0, 1.0], [2.0, 0.0], [1.0, 1.0], [3.0, 4.0]], [M] * 4, id="one-class"),
        ],
    )
    def test_edge_shapes_bytes(self, X, labels):
        _assert_svm_matches_oracle(np.array(X), labels)

    def test_margin_on_the_hinge_bytes(self):
        # at epoch 2 the all-ones rows' class-0 margins are exactly 1, so a
        # margin's last bit decides whether its row violates; the 28 rows have
        # no gemv tail, but their 5 distinct (row, label) pairs would have one
        X = np.array([[2.0, 4.0, 1.0, 1.0]] + [[1.0] * 4] * 27)
        _assert_svm_matches_oracle(X, [0, 1, 2, 3] + [0] * 14 + [1] * 10, c_reg=0.5, epochs=2)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_integer_matrices_bytes(self, data):
        n_classes = data.draw(st.integers(2, 6), label="classes")
        n = data.draw(st.integers(n_classes, 30), label="rows")
        dim = data.draw(st.integers(1, 8), label="dim")
        X = data.draw(hnp.arrays(np.int64, (n, dim), elements=st.integers(0, 4)), label="X")
        # every class at least once, the remaining rows drawn freely
        rest = st.lists(st.integers(0, n_classes - 1), min_size=n - n_classes, max_size=n - n_classes)
        labels = data.draw(rest.flatmap(lambda r: st.permutations(list(range(n_classes)) + r)), label="labels")
        epochs = data.draw(st.integers(1, 20), label="epochs")
        c_reg = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="c_reg")
        _assert_svm_matches_oracle(X.astype(np.float64), labels, c_reg, epochs)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_duplicate_heavy_matrices(self, data):
        X, labels = _duplicate_heavy(data)
        epochs = data.draw(st.integers(1, 20), label="epochs")
        c_reg = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="c_reg")
        _assert_svm_matches_oracle(X, labels, c_reg, epochs)


def _svm_stack_splits(data, labels, width):
    """(training-row mask, columns) splits in 1-3 runs of 1-3 splits. A
    run's splits share a column count and a training-row count mod 4, so
    they train in one stack; runs differ in either when drawn so. A split
    may lack a drawn label, and may hold a single row."""
    every_row = range(len(labels))
    splits = []
    for run in range(data.draw(st.integers(1, 3), label="runs")):
        n_columns = data.draw(st.integers(1, width), label=f"run {run} columns")
        remainder = data.draw(st.integers(0, 3), label=f"run {run} rows mod 4")
        for i in range(data.draw(st.integers(1, 3), label=f"run {run} splits")):
            lacking = data.draw(st.none() | st.sampled_from(labels.tolist()), label=f"split {run}.{i} lacks")
            eligible = [r for r in every_row if labels[r] != lacking] or list(every_row)
            sizes = [n for n in range(1, len(eligible) + 1) if n % 4 == remainder] or [len(eligible)]
            size = data.draw(st.sampled_from(sizes), label=f"split {run}.{i} rows")
            mask = np.zeros(len(labels), dtype=bool)
            mask[data.draw(st.permutations(eligible), label=f"split {run}.{i} order")[:size]] = True
            columns = data.draw(st.permutations(range(width)), label=f"split {run}.{i} columns")[:n_columns]
            splits.append((mask, columns))
    return splits


def _whole_number_rows(data):
    """(X, labels): up to 40 rows drawn from at most 6 distinct ones of up to
    12 columns over {0.0, 1.0, 2.0}. Some kernels sum a narrow matrix's last
    (rows mod 4) rows as they sum the rows before them, so narrow rows alone
    would not test the stack's layout."""
    width = data.draw(st.integers(1, 12), label="width")
    size = data.draw(st.integers(1, 6), label="pool size")
    pool = data.draw(hnp.arrays(np.float64, (size, width), elements=st.sampled_from([0.0, 1.0, 2.0])), label="pool")
    n = data.draw(st.integers(1, 40), label="rows")
    picks = data.draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n), label="picks")
    labels = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n), label="labels")
    return pool[picks], np.array(labels)


class TestStackedSvmFolds:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_train_folds_equals_train_on_each_split(self, data):
        X, labels = _whole_number_rows(data)
        splits = _svm_stack_splits(data, labels, X.shape[1])
        cfg = TrainConfig(algorithm=Algorithm.LinearSVM, c_reg=data.draw(st.sampled_from([1.0, 0.1]), label="c_reg"))
        models = list(train_folds(X, labels, splits, cfg))
        assert len(models) == len(splits)
        for (mask, columns), model in zip(splits, models):
            assert serialize(model) == serialize(train(X[np.ix_(mask, columns)], labels[mask], cfg))
        at = data.draw(st.integers(0, len(splits) - 1), label="split against the oracle")
        mask, columns = splits[at]
        expected = _oracle_train_svm(X[np.ix_(mask, columns)], labels[mask], cfg.c_reg, 200)
        assert serialize(models[at]) == serialize(expected)

    def test_tail_rows_keep_their_place_on_the_hinge(self):
        # the second split's 2 rows are all tail: in the stack they follow 4
        # rows that pad to the first split's body. Found by a random search
        # under the SkylakeX kernel: were they summed as body rows, or the
        # body not padded to a multiple of 4, a margin would cross the hinge
        pool = np.array(
            [[1, 0, 1, 0, 0, 1, 1, 1, 1, 0], [0, 1, 0, 1, 0, 0, 1, 1, 1, 1],
             [0, 0, 1, 0, 1, 1, 1, 1, 0, 0], [0, 1, 1, 1, 0, 1, 0, 1, 1, 1]],
            dtype=np.float64,
        )
        X, labels = pool[[0, 3, 2, 2, 3, 2]], np.array([1, 0, 1, 1, 0, 0])
        splits = [(np.ones(6, dtype=bool), np.arange(10)), (np.arange(6) < 2, np.arange(10))]
        models = list(_svm_folds(X, labels, splits, 1.0, 9))
        for (mask, _), model in zip(splits, models):
            assert serialize(model) == serialize(_oracle_train_svm(X[mask], labels[mask], 1.0, 9))

    def test_one_row_split_keeps_its_dot(self):
        # numpy takes a one-row margin product as a dot, which sums in another
        # order than the gemv of a taller stack; found by a random search under
        # the SkylakeX kernel: stacked with the 5-row split, the one row's
        # margin would cross the hinge
        X = np.vstack([[3.0, 1.0, 1.0, 1.0, 1.0, 0.0], np.eye(6)[:4]])
        labels = np.array([0, 1, 0, 1, 1])
        splits = [(np.arange(5) == 0, np.arange(6)), (np.ones(5, dtype=bool), np.arange(6))]
        models = list(_svm_folds(X, labels, splits, 2.0, 20))
        for (mask, _), model in zip(splits, models):
            assert serialize(model) == serialize(_oracle_train_svm(X[mask], labels[mask], 2.0, 20))


# --- frozen unweighted tree: the differential oracle ------------------------


def _gini(counts, total):
    return 1.0 - float(((counts / total) ** 2).sum())


def _oracle_majority(labels):
    values, counts = np.unique(labels, return_counts=True)
    return int(values[np.argmax(counts)])


def _oracle_grow_tree(M, labels, depth, max_depth, min_leaf, best_split):
    """The tree grown as it was before rows were weighted: every training row
    its own, duplicates included, split by ``best_split(M, labels, min_leaf)``."""
    if len(np.unique(labels)) == 1:
        return TreeNode(label=int(labels[0]))
    if max_depth is not None and depth >= max_depth:
        return TreeNode(label=_oracle_majority(labels))
    feature, threshold, gain = best_split(M, labels, min_leaf)
    if feature is None or gain <= _MIN_GAIN:
        return TreeNode(label=_oracle_majority(labels))
    mask = M[:, feature] <= threshold
    left = _oracle_grow_tree(M[mask], labels[mask], depth + 1, max_depth, min_leaf, best_split)
    right = _oracle_grow_tree(M[~mask], labels[~mask], depth + 1, max_depth, min_leaf, best_split)
    return TreeNode(feature=feature, threshold=threshold, left=left, right=right)


def _oracle_rank_split(M, labels, min_leaf):
    """The split search as it was before rows were weighted: one class-count
    histogram over per-column value ranks, every row counted once."""
    n, d = M.shape
    classes, y = np.unique(labels, return_inverse=True)
    n_classes = len(classes)
    parent = _gini(np.bincount(y, minlength=n_classes), n)

    order = np.argsort(M, axis=0, kind="stable")
    sorted_vals = np.take_along_axis(M, order, axis=0)
    ranks = np.zeros((n, d), dtype=np.int64)
    np.cumsum(sorted_vals[1:] != sorted_vals[:-1], axis=0, out=ranks[1:])
    n_ranks = int(ranks[-1].max(initial=0)) + 1
    if n_ranks == 1:
        return None, None, 0.0
    cells = (ranks * d + np.arange(d)) * n_classes + y[order]
    hist = np.bincount(cells.ravel(), minlength=n_ranks * d * n_classes)
    cum = np.cumsum(hist.reshape(n_ranks, d, n_classes), axis=0, dtype=np.float64)

    left_counts = cum[:-1]
    right_counts = cum[-1] - left_counts
    n_left = left_counts.sum(axis=2)
    n_right = n - n_left
    valid = (n_left >= min_leaf) & (n_right >= min_leaf)
    with np.errstate(invalid="ignore"):
        gini_left = 1.0 - ((left_counts / n_left[..., None]) ** 2).sum(axis=2)
        gini_right = 1.0 - ((right_counts / n_right[..., None]) ** 2).sum(axis=2)
    child = (n_left * gini_left + n_right * gini_right) / n
    gains = np.where(valid, parent - child, -np.inf)

    cut = np.argmax(gains, axis=0)
    feature_gains = gains[cut, np.arange(d)]
    feature = int(np.argmax(feature_gains))
    gain = float(feature_gains[feature])
    if not gain > 0.0:
        return None, None, 0.0
    i = int(n_left[cut[feature], feature]) - 1  # last row left of the cut
    a, b = float(sorted_vals[i, feature]), float(sorted_vals[i + 1, feature])
    threshold = (a + b) / 2.0
    if not a <= threshold < b:
        threshold = a
    return feature, threshold, gain


def _assert_tree_matches_oracle(X, labels, max_depth=16, best_split=_oracle_rank_split):
    """The tree ``train`` grows equals the oracle's; the oracle spells no
    depth limit None and takes the least leaf size, always 1 here."""
    X, labels = np.asarray(X, dtype=np.float64), np.asarray(labels, dtype=np.int64)
    expected = TreeModel(dim=X.shape[1], root=_oracle_grow_tree(X, labels, 0, max_depth or None, 1, best_split))
    assert serialize(train(X, labels, dt_cfg(max_depth=max_depth))) == serialize(expected)


class TestTreeMatchesUnweightedTree:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_duplicate_heavy_matrices(self, data):
        X, labels = _duplicate_heavy(data)
        max_depth = data.draw(st.sampled_from([0, 2, 16]), label="max_depth")
        _assert_tree_matches_oracle(X, labels, max_depth)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_bow_like_matrices(self, data):
        # counts 0-4 over many rows: deep trees whose levels hold many nodes at once
        n = data.draw(st.integers(50, 300), label="rows")
        dim = data.draw(st.integers(1, 20), label="dim")
        X = data.draw(hnp.arrays(np.float64, (n, dim), elements=st.integers(0, 4).map(float)), label="X")
        labels = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n), label="labels")
        max_depth = data.draw(st.sampled_from([0, 16]), label="max_depth")
        _assert_tree_matches_oracle(X, labels, max_depth)


# --- frozen per-feature split search: the differential oracle ---------------


def _oracle_best_split(M, labels, min_leaf):
    """The split search as it was before every feature was scored at once:
    one sort, one cumulated one-hot table and one Gini pass per feature."""
    n = len(labels)
    classes, y = np.unique(labels, return_inverse=True)
    n_classes = len(classes)
    parent = _gini(np.bincount(y, minlength=n_classes), n)

    best_gain = 0.0
    best_feature = None
    best_threshold = None
    for feature in range(M.shape[1]):
        col = M[:, feature]
        order = np.argsort(col, kind="stable")
        sorted_vals = col[order]
        sorted_y = y[order]

        change = np.nonzero(sorted_vals[:-1] != sorted_vals[1:])[0]
        if len(change) == 0:
            continue
        one_hot = np.zeros((n, n_classes), dtype=np.float64)
        one_hot[np.arange(n), sorted_y] = 1.0
        cum = np.cumsum(one_hot, axis=0)

        left_counts = cum[change]
        total_counts = cum[-1]
        right_counts = total_counts - left_counts
        n_left = (change + 1).astype(np.float64)
        n_right = n - n_left

        valid = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not valid.any():
            continue
        gini_left = 1.0 - ((left_counts / n_left[:, None]) ** 2).sum(axis=1)
        gini_right = 1.0 - ((right_counts / n_right[:, None]) ** 2).sum(axis=1)
        child = (n_left * gini_left + n_right * gini_right) / n
        gains = np.where(valid, parent - child, -np.inf)

        pos = int(np.argmax(gains))  # first max = lowest threshold
        gain = float(gains[pos])
        # strict > keeps the lowest feature index on exact gain ties
        if gain > best_gain:
            best_gain = gain
            best_feature = feature
            a, b = float(sorted_vals[change[pos]]), float(sorted_vals[change[pos] + 1])
            best_threshold = (a + b) / 2.0
            if not a <= best_threshold < b:  # the sum overflowed, or a and b are adjacent floats
                best_threshold = a
    return best_feature, best_threshold, best_gain


def _tree_matrices(data, elements):
    """(X, labels, max_depth) drawn for the tree oracle."""
    n = data.draw(st.integers(1, 40), label="rows")
    dim = data.draw(st.integers(1, 8), label="dim")
    X = data.draw(hnp.arrays(np.float64, (n, dim), elements=elements), label="X")
    labels = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n), label="labels")
    max_depth = data.draw(st.sampled_from([0, 2, 16]), label="max_depth")
    return X, labels, max_depth


class TestTreeMatchesPerFeatureSearch:
    @pytest.mark.parametrize("extractor, rows", _bundled_training_splits())
    def test_bundled_corpus_bytes(self, bundled_encoding, extractor, rows):
        X, labels, _ = bundled_encoding(extractor, rows)
        _assert_tree_matches_oracle(X, labels, best_split=_oracle_best_split)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_integer_matrices_bytes(self, data):
        _assert_tree_matches_oracle(*_tree_matrices(data, st.integers(0, 4).map(float)), best_split=_oracle_best_split)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_real_matrices_bytes(self, data):
        reals = st.floats(-10, 10, allow_nan=False).map(lambda v: round(v, 2))
        _assert_tree_matches_oracle(*_tree_matrices(data, reals), best_split=_oracle_best_split)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_unrounded_reals_drawn_per_column_bytes(self, data):
        # each column draws from its own pool, so a threshold read from another
        # column's values is wrong. A pool value's next float up makes a pair
        # whose midpoint rounds up to the upper value or, near 1.6e308, overflows
        n = data.draw(st.integers(1, 40), label="rows")
        extremes = st.sampled_from([0.0, -0.0, 5e-324, 1.6e308, -1.6e308])
        reals = st.floats(allow_nan=False, allow_infinity=False) | extremes
        columns = []
        for j in range(data.draw(st.integers(1, 8), label="dim")):
            pool = data.draw(st.lists(reals, min_size=1, max_size=6), label=f"pool {j}")
            stepped = data.draw(st.lists(st.sampled_from(pool), max_size=3), label=f"stepped up {j}")
            pool += [up for up in (math.nextafter(v, math.inf) for v in stepped) if math.isfinite(up)]
            columns.append(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n), label=f"column {j}"))
        labels = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n), label="labels")
        max_depth = data.draw(st.sampled_from([0, 2, 16]), label="max_depth")
        _assert_tree_matches_oracle(np.array(columns).T, labels, max_depth, best_split=_oracle_best_split)


# --- folds grown in one stack: the invariants stacking relies on -------------


def _stack_rows(data):
    """(distinct, labels): up to 12 rows over {0.0, -0.0, 1.0, 2.0} in up to
    5 columns, so equal rows recur, with or without equal labels."""
    n = data.draw(st.integers(1, 12), label="rows")
    width = data.draw(st.integers(1, 5), label="width")
    elements = st.sampled_from([0.0, -0.0, 1.0, 2.0])
    distinct = data.draw(hnp.arrays(np.float64, (n, width), elements=elements), label="distinct")
    labels = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n), label="labels"))
    return distinct, labels


def _stack_split(data, labels, width, name, lacking=None):
    """(counts, columns) of a split: counts 0-5, at least one nonzero and
    none for the rows labelled ``lacking`` while another row can be kept;
    columns distinct, in drawn order, as many as drawn."""
    n = len(labels)
    counts = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n), label=f"{name} counts"))
    if lacking is not None:
        counts[labels == lacking] = 0
    if not counts.any():
        counts[(np.flatnonzero(labels != lacking).tolist() or [0])[0]] = 1
    columns = data.draw(st.lists(st.integers(0, width - 1), min_size=1, unique=True), label=f"{name} columns")
    return counts, np.array(columns)


def _grown_alone(distinct, labels, split, max_depth):
    return serialize(_grow_group(distinct, labels, [split], max_depth)[0])


class TestStackedFolds:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_split_grown_in_a_stack_equals_it_grown_alone(self, data):
        distinct, labels = _stack_rows(data)
        width = distinct.shape[1]
        target = _stack_split(data, labels, width, "target")
        others = [
            _stack_split(data, labels, width, f"other {i}", lacking=data.draw(st.sampled_from(labels.tolist())))
            for i in range(data.draw(st.integers(1, 3), label="others"))
        ]
        at = data.draw(st.integers(0, len(others)), label="target's place")
        max_depth = data.draw(st.sampled_from([0, 1, 2, 16]), label="max_depth")
        stacked = _grow_group(distinct, labels, others[:at] + [target] + others[at:], max_depth)[at]
        alone = _grown_alone(distinct, labels, target, max_depth)
        assert serialize(stacked) == alone
        # grown alone, the split is the tree of its every training row
        counts, columns = target
        X, y = np.repeat(distinct[:, columns], counts, axis=0), np.repeat(labels, counts)
        expected = TreeModel(dim=len(columns), root=_oracle_grow_tree(X, y, 0, max_depth or None, 1, _oracle_rank_split))
        assert alone == serialize(expected)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rows_permuted_or_a_count_divided(self, data):
        distinct, labels = _stack_rows(data)
        counts, columns = split = _stack_split(data, labels, distinct.shape[1], "split")
        max_depth = data.draw(st.sampled_from([0, 1, 2, 16]), label="max_depth")
        tree = _grown_alone(distinct, labels, split, max_depth)

        permuted = np.array(data.draw(st.permutations(range(len(labels))), label="permutation"))
        assert _grown_alone(distinct[permuted], labels[permuted], (counts[permuted], columns), max_depth) == tree

        # row i's count c becomes a + b = c, the a on a copy of the row placed anywhere
        i = data.draw(st.sampled_from(np.flatnonzero(counts).tolist()), label="divided row")
        a = data.draw(st.integers(0, int(counts[i])), label="copy's count")
        where = data.draw(st.integers(0, len(labels)), label="copy's place")
        divided = np.insert(counts, where, a)
        divided[i + (where <= i)] -= a
        copied = np.insert(distinct, where, distinct[i], axis=0), np.insert(labels, where, labels[i])
        assert _grown_alone(*copied, (divided, columns), max_depth) == tree

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_train_folds_equals_train_on_each_split(self, data):
        # unused (all-zero) columns included: a split reads them from X like any other
        X, labels = _duplicate_heavy(data)
        X = np.column_stack([X, np.zeros(len(X))])
        labels = np.array(labels)
        splits = []
        for i in range(data.draw(st.integers(1, 4), label="splits")):
            mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(X), max_size=len(X)), label=f"mask {i}"))
            mask[data.draw(st.integers(0, len(X) - 1), label=f"kept row {i}")] = True
            columns = data.draw(st.lists(st.integers(0, X.shape[1] - 1), min_size=1, unique=True), label=f"columns {i}")
            splits.append((mask, columns))
        cfg = dt_cfg(max_depth=data.draw(st.sampled_from([0, 1, 16]), label="max_depth"))
        models = list(train_folds(X, labels, splits, cfg))
        assert len(models) == len(splits)
        for (mask, columns), model in zip(splits, models):
            assert serialize(model) == serialize(train(X[np.ix_(mask, columns)], labels[mask], cfg))

    def test_train_folds_groups_splits_and_reads_the_columns_of_x(self):
        # column 2 is all zeros; rows 0 and 5 are one (row, label) pair but
        # for the sign of that zero, so a split holding row 5 but not row 0
        # counts it on row 0
        X = np.array(
            [[0, 1, -0.0, 3], [1, 0, 0, 2], [2, 2, 0, 0], [0, 3, 0, 1], [3, 1, 0, 3], [0, 1, 0, 3], [1, 2, 0, 0],
             [2, 0, 0, 1]]
        )
        labels = np.array([0, 1, 2, 0, 1, 0, 2, 1])
        layout = [(range(8), [3, 2, 1, 0]), ((1, 3, 5, 6), [0, 1]), ((0, 2, 5, 7), [1, 3])]
        splits = [(np.isin(np.arange(len(X)), rows), columns) for rows, columns in layout]
        with mock.patch.object(classifiers, "_grow_group", wraps=classifiers._grow_group) as grow_group:
            models = list(train_folds(X, labels, splits, dt_cfg()))
        # each group's kept rows per split
        groups = [[np.count_nonzero(counts) for counts, _ in call.args[2]] for call in grow_group.call_args_list]
        assert len(groups) >= 2 and max(map(len, groups)) >= 2
        assert sum(map(sum, groups)) > len(X)
        assert models[0].root.feature is not None  # the descending split's tree cuts
        for (mask, columns), model in zip(splits, models):
            assert serialize(model) == serialize(train(X[np.ix_(mask, columns)], labels[mask], dt_cfg()))


class TestSerialization:
    def _random_data(self, seed, n=30, dim=4):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, dim))
        y = [FormatLabel(int(v)) for v in rng.integers(0, 6, size=n)]
        return X, y

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_round_trip_predictions(self, algorithm):
        X, y = self._random_data(7)
        model = train(X, y, TrainConfig(algorithm=algorithm))
        clone = deserialize(serialize(model))
        probes = np.random.default_rng(8).normal(size=(100, 4))
        assert predict_batch(model, probes).tolist() == predict_batch(clone, probes).tolist()

    def test_round_trip_tree_structure(self):
        X, y = self._random_data(9)
        model = train(X, y, dt_cfg())
        clone = deserialize(serialize(model))
        assert isinstance(clone, TreeModel)
        assert serialize(clone) == serialize(model)

    def test_round_trip_knn_stores_vectors(self):
        model = train([[0.25, 1.5], [2.0, 3.0], [4.0, 5.5]], [D, T, P], knn_cfg(3))
        clone = deserialize(serialize(model))
        assert isinstance(clone, KnnModel)
        assert np.array_equal(clone.points, model.points)
        assert np.array_equal(clone.labels, model.labels)

    def test_round_trip_exact_parameters(self):
        X, y = self._random_data(10)
        labels = np.array([int(v) for v in y])
        # LDA is stored as coef = means @ inv_covariance and
        # intercept = -0.5 * rowdot(coef, means) + log_priors
        classes = np.unique(labels)
        means = np.vstack([X[labels == c].mean(axis=0) for c in classes])
        centered = X - means[np.searchsorted(classes, labels)]
        pooled = centered.T @ centered / (len(X) - len(classes))
        dim = X.shape[1]
        covariance = pooled + 1e-4 * (float(np.trace(pooled)) / dim) * np.eye(dim)
        coef = means @ np.linalg.inv(covariance)
        log_priors = np.log(np.array([(labels == c).sum() for c in classes], dtype=np.float64) / len(X))
        intercept = -0.5 * np.einsum("ij,ij->i", coef, means) + log_priors
        for algorithm in (Algorithm.LDA, Algorithm.LinearSVM):
            model = train(X, y, TrainConfig(algorithm=algorithm))
            clone = deserialize(serialize(model))
            assert type(clone) is type(model)
            assert np.array_equal(clone.class_ids, classes)
            assert np.array_equal(clone.weights, model.weights)
            assert np.array_equal(clone.biases, model.biases)
            if isinstance(model, LdaModel):
                assert np.array_equal(clone.weights, coef)
                assert np.array_equal(clone.biases, intercept)
            else:
                assert isinstance(clone, SvmModel)

    def test_truncated_blob_rejected(self):
        X, y = self._random_data(11)
        blob = serialize(train(X, y, dt_cfg()))
        lines = blob.splitlines()
        truncated = "\n".join(lines[: len(lines) // 2]) + "\n"
        with pytest.raises(ModelFormatError):
            deserialize(truncated)

    def test_bad_magic_rejected(self):
        with pytest.raises(ModelFormatError):
            deserialize("something else\n")

    def test_deep_chain_loads_without_recursion(self):
        # a left-leaning chain of 3,000 splits, then its 3,001 leaves in preorder
        depth = 3000
        splits = [f"split 0 {depth - i}.5" for i in range(depth)]
        leaves = ["leaf 1"] + ["leaf 0"] * depth
        lines = ["numctx-model v2", "algorithm dt", "dim 1", f"nodes {2 * depth + 1}", *splits, *leaves, "end"]
        blob = "\n".join(lines) + "\n"
        model = deserialize(blob)
        assert isinstance(model, TreeModel)
        assert serialize(model) == blob
        assert predict_batch(model, [[0.0], [2.0], [depth + 1.0]]).tolist() == [1, 0, 0]
        node, seen = model.root, 0
        while not node.is_leaf:
            assert node.right.is_leaf
            node, seen = node.left, seen + 1
        assert seen == depth

    def test_deep_chain_cut_short_rejected(self):
        lines = ["numctx-model v2", "algorithm dt", "dim 1", "nodes 6001", *["split 0 0.5"] * 3000, "end"]
        with pytest.raises(ModelFormatError, match="expected 'split' line, got 'end'"):
            deserialize("\n".join(lines) + "\n")

    def test_node_count_mismatch_rejected(self):
        model = train([[0.0], [1.0]], [D, T], dt_cfg())
        blob = serialize(model).replace("nodes 3", "nodes 2")
        with pytest.raises(ModelFormatError):
            deserialize(blob)

    def test_corrupt_float_rejected(self):
        X, y = self._random_data(12)
        blob = serialize(train(X, y, TrainConfig(algorithm=Algorithm.LinearSVM)))
        with pytest.raises(ModelFormatError):
            deserialize(blob.replace("bias", "bias?", 1))

    def test_trailing_content_rejected(self):
        X, y = self._random_data(12)
        blob = serialize(train(X, y, TrainConfig(algorithm=Algorithm.LinearSVM)))
        with pytest.raises(ModelFormatError, match="after the end"):
            deserialize(blob + "junk\nmore junk\n")

    @pytest.mark.parametrize(
        "algorithm, pattern, replacement, message",
        [
            (Algorithm.KNN, r"^point \d+", "point 6", "point label 6 is not a FormatLabel"),
            (Algorithm.KNN, r"^point \d+", "point -1", "point label -1 is not a FormatLabel"),
            (Algorithm.DecisionTree, r"^leaf \d+", "leaf 9", "leaf label 9 is not a FormatLabel"),
            (Algorithm.DecisionTree, r"^split \d+", "split 4", "split feature 4 outside 0..3"),
            (Algorithm.DecisionTree, r"^split \d+", "split -1", "split feature -1 outside 0..3"),
            (Algorithm.LinearSVM, r"^classes \d+", "classes 7", "class label 7 is not a FormatLabel"),
            (Algorithm.LDA, r"^classes 0 1", "classes 1 0", "not strictly ascending"),
            (Algorithm.LDA, r"^classes 0 1", "classes 1 1", "not strictly ascending"),
            (Algorithm.KNN, r"^(point \d+) \S+", r"\1 nan", "point line holds a non-finite value"),
            (Algorithm.DecisionTree, r"^(split \d+) \S+", r"\1 inf", "split line holds a non-finite value"),
            (Algorithm.LDA, r"^(weights \d+) \S+", r"\1 -inf", "weights line holds a non-finite value"),
            (Algorithm.LinearSVM, r"^(bias \d+) \S+", r"\1 NaN", "bias line holds a non-finite value"),
            (Algorithm.LDA, r"^weights 0", "weights 1", "weights line for class 1 out of order"),
            (Algorithm.LinearSVM, r"^bias 0", "bias 1", "bias line for class 1 out of order"),
        ],
    )
    def test_values_serialize_never_writes_rejected(self, algorithm, pattern, replacement, message):
        X, y = self._random_data(12)
        blob = serialize(train(X, y, TrainConfig(algorithm=algorithm)))
        damaged = re.sub(pattern, replacement, blob, count=1, flags=re.M)
        assert damaged != blob
        # the error names the damaged line itself, not a later one of its section
        lineno = next(i for i, (a, b) in enumerate(zip(blob.splitlines(), damaged.splitlines()), 1) if a != b)
        with pytest.raises(ModelFormatError, match=rf"^line {lineno}: .*{message}"):
            deserialize(damaged)

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("algorithm", lambda line: line + " svm"),
            ("weights", lambda line: line.rsplit(" ", 1)[0]),  # one weight short
            ("bias", lambda line: line + " 0.5"),
            ("end", lambda line: line + " now"),
        ],
    )
    def test_wrong_field_count_rejected(self, key, edit):
        X, y = self._random_data(12)
        lines = serialize(train(X, y, TrainConfig(algorithm=Algorithm.LinearSVM))).splitlines()
        i = next(i for i, line in enumerate(lines) if line.split(" ")[0] == key)
        lines[i] = edit(lines[i])
        with pytest.raises(ModelFormatError, match="fields"):
            deserialize("\n".join(lines) + "\n")
