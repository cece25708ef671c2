import json

import numpy as np
import pytest

from conftest import cv_workload_corpus, separable_corpus
from numctx import classifiers, evaluation
from numctx.classifiers import Algorithm, TrainConfig, predict_batch, train
from numctx.context_features import default_lexicon
from numctx.corpus import load_bundled_corpus, stratified_folds
from numctx.evaluation import (
    accuracy,
    comparison_report,
    cross_validate,
    evaluation_report,
    f_measure,
    precision,
    recall,
    render_tsv,
    summarize,
)
from numctx.labels import LABELS, FormatLabel
from numctx.models import serialize
from numctx.pipeline import EXTRACTORS, encode_rows, make_features

D, T, P, C, M, PC = FormatLabel


class TestMetrics:
    def test_precision_date_column(self, reference_cm):
        # 69 correct, 1 false positive from Currency -> 69/70
        assert precision(reference_cm, D) == pytest.approx(69 / 70)
        assert round(100 * precision(reference_cm, D), 2) == 98.57

    def test_precision_measurement_column(self, reference_cm):
        # column 15 + 68 + 3 -> 68/86
        assert precision(reference_cm, M) == pytest.approx(68 / 86)
        assert round(100 * precision(reference_cm, M), 2) == 79.07

    def test_precision_currency_column(self, reference_cm):
        # column 76 + 2 + 1 -> 76/79; the reference's 96.10 is unreachable
        assert precision(reference_cm, C) == pytest.approx(76 / 79)
        assert round(100 * precision(reference_cm, C), 2) == 96.20

    def test_precision_diagonal_only(self):
        counts = np.diag([5, 6, 7, 8, 9, 10])
        for label in LABELS:
            assert precision(counts, label) == 1.0

    def test_precision_empty_column_convention(self):
        counts = np.zeros((6, 6), dtype=np.int64)
        counts[D, T] = 3
        assert precision(counts, P) == 1.0

    def test_recall_date_row(self, reference_cm):
        assert recall(reference_cm, D) == pytest.approx(69 / 84)
        assert round(100 * recall(reference_cm, D), 2) == 82.14

    def test_recall_time_row(self, reference_cm):
        assert recall(reference_cm, T) == 1.0

    def test_recall_currency_row_rounding(self, reference_cm):
        # 76/77 rounds to 98.70; the reference target 98.71 is off by rounding
        assert recall(reference_cm, C) == pytest.approx(76 / 77)
        assert abs(100 * recall(reference_cm, C) - 98.71) < 0.02

    def test_f_measure_identity(self):
        assert f_measure(1.0, 1.0) == 1.0

    def test_f_measure_degenerate(self):
        assert f_measure(0.0, 0.0) == 0.0

    def test_f_measure_date_hand_value(self):
        assert round(f_measure(0.9857, 0.8214), 4) == 0.8961

    def test_accuracy_diagonal(self):
        assert accuracy(np.diag([1, 2, 3, 4, 5, 6])) == 1.0

    def test_accuracy_off_diagonal(self):
        counts = np.zeros((6, 6), dtype=int)
        counts[0, 1] = 4
        assert accuracy(counts) == 0.0

    def test_accuracy_reference_pooled(self, reference_cm):
        # trace 392 over total 415, summed by hand
        assert np.trace(reference_cm) == 392
        assert reference_cm.sum() == 415
        assert accuracy(reference_cm) == pytest.approx(392 / 415)
        assert round(100 * accuracy(reference_cm), 2) == 94.46

    def test_accuracy_empty_errors(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((6, 6), dtype=np.int64))

    def test_class_metrics_in_range(self, reference_cm):
        for label in LABELS:
            p, r = precision(reference_cm, label), recall(reference_cm, label)
            assert 0.0 <= p <= 1.0
            assert 0.0 <= r <= 1.0
            assert 0.0 <= f_measure(p, r) <= 1.0


class TestSummarize:
    def test_all_ones(self):
        assert summarize([1.0] * 10) == (1.0, 1.0, 0.0)

    def test_hand_arithmetic(self):
        highest, mean, std = summarize([0.9, 1.0])
        assert highest == 1.0
        assert mean == pytest.approx(0.95)
        assert std == pytest.approx(0.0707, abs=5e-5)

    def test_single_fold_errors(self):
        with pytest.raises(ValueError):
            summarize([1.0])


def _dt():
    return TrainConfig(algorithm=Algorithm.DecisionTree)


class TestCrossValidate:
    def test_separable_corpus_perfect(self):
        summary = cross_validate(separable_corpus(), "context", _dt(), k=10, seed=42)
        assert summary.mean == 1.0
        assert summary.std == 0.0
        assert summary.highest == 1.0

    def test_determinism(self):
        corpus = separable_corpus()
        a = cross_validate(corpus, "bow", _dt(), k=5, seed=9)
        b = cross_validate(corpus, "bow", _dt(), k=5, seed=9)
        assert a.fold_accuracies == b.fold_accuracies
        assert np.array_equal(a.pooled, b.pooled)
        assert a.fold_states == b.fold_states

    def test_pooled_total_is_corpus_size(self):
        corpus = load_bundled_corpus()
        summary = cross_validate(corpus, "context", _dt(), k=10, seed=42)
        assert summary.pooled.sum() == len(corpus)

    def test_micro_consistency(self):
        # pooled-matrix accuracy equals the fold-size-weighted mean accuracy
        corpus = load_bundled_corpus()
        summary = cross_validate(corpus, "context", _dt(), k=10, seed=42)
        folds = stratified_folds(corpus, 10, 42)
        weighted = sum(a * len(f) for a, f in zip(summary.fold_accuracies, folds))
        assert accuracy(summary.pooled) == pytest.approx(weighted / len(corpus))

    def test_bow_vocab_rebuilt_per_fold(self):
        # each fold's state must be the vocabulary built from its training split alone
        from numctx.bow_features import build_vocab
        from numctx.locator import locate_numbers

        corpus = load_bundled_corpus()
        summary = cross_validate(corpus, "bow", _dt(), k=10, seed=42)
        raws = []
        for sentence in corpus:
            token = next(t for t in locate_numbers(sentence.text) if t.span == sentence.span)
            raws.append(token.raw)
        folds = stratified_folds(corpus, 10, 42)
        for fold, (state,) in zip(folds, summary.fold_states):
            train_raws = [raws[i] for i in range(len(corpus)) if i not in set(fold)]
            _, *by_column = state.split(" ")
            assert [int(b) for b in by_column] == build_vocab(train_raws)

    def test_unknown_extractor(self):
        with pytest.raises(ValueError):
            cross_validate(separable_corpus(), "tfidf", _dt(), k=10, seed=42)

    def test_fold_count_respected(self):
        summary = cross_validate(separable_corpus(), "context", _dt(), k=5, seed=1)
        assert len(summary.fold_accuracies) == 5


# --- frozen per-state encoding: the differential oracle ----------------------


def _oracle_cross_validate(corpus, extractor, cfg, k, seed):
    """cross_validate as it was before the corpus was encoded once: one
    encode_rows per distinct fitted state, training indices from a set
    difference, and one confusion add per test row."""
    features = make_features(extractor, default_lexicon())
    y = np.array([int(s.label) for s in corpus], dtype=np.int64)
    encoded = {}
    accuracies, states = [], []
    counts = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    for fold in stratified_folds(corpus, k, seed):
        test_idx = np.array(fold, dtype=np.int64)
        train_idx = np.array(sorted(set(range(len(corpus))) - set(fold)), dtype=np.int64)
        features.fit([corpus[i].number for i in train_idx])
        state = tuple(features.dump())
        if state not in encoded:
            encoded[state] = encode_rows(features, corpus)
        X = encoded[state]
        states.append(state)
        model = train(X[train_idx], y[train_idx], cfg)
        predicted = predict_batch(model, X[test_idx])
        accuracies.append(int((predicted == y[test_idx]).sum()) / len(test_idx))
        for true_value, pred_value in zip(y[test_idx], predicted):
            counts[true_value, pred_value] += 1
    return tuple(accuracies), counts, tuple(states)


@pytest.fixture(scope="module")
def bundled():
    return load_bundled_corpus()


class TestMatchesPerStateEncoding:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("k", [2, 5, 10])
    @pytest.mark.parametrize("algorithm", [Algorithm.DecisionTree, Algorithm.KNN, Algorithm.LDA])
    @pytest.mark.parametrize("extractor", EXTRACTORS)
    def test_equal_to_oracle(self, bundled, extractor, algorithm, k, seed):
        self._check(bundled, extractor, TrainConfig(algorithm=algorithm), k, seed)

    def test_svm_equal_to_oracle(self, bundled):
        self._check(bundled, "bow", TrainConfig(algorithm=Algorithm.LinearSVM), 5, 7)

    @staticmethod
    def _check(corpus, extractor, cfg, k, seed):
        summary = cross_validate(corpus, extractor, cfg, k=k, seed=seed)
        accuracies, counts, states = _oracle_cross_validate(corpus, extractor, cfg, k, seed)
        assert summary.fold_accuracies == accuracies
        assert np.array_equal(summary.pooled, counts)
        assert summary.fold_states == states

    @pytest.mark.parametrize("extractor", EXTRACTORS)
    def test_corpus_encoded_once(self, bundled, extractor, monkeypatch):
        calls = []

        def counted(features, corpus):
            calls.append(features.name)
            return encode_rows(features, corpus)

        monkeypatch.setattr(evaluation, "encode_rows", counted)
        cross_validate(bundled, extractor, _dt(), k=10, seed=42)
        assert calls == [extractor]


# --- the models train_folds yields: each equal to train on its fold ------------


def _record_train_folds(monkeypatch):
    """Each call cross_validate makes to train_folds, as [(X, y, splits,
    cfg), models yielded], the models appended as they are yielded."""
    calls = []

    def recorded(X, y, splits, cfg):
        models = []
        calls.append(((X, y, splits, cfg), models))
        for model in classifiers.train_folds(X, y, splits, cfg):
            models.append(model)
            yield model

    monkeypatch.setattr(evaluation, "train_folds", recorded)
    return calls


_FOLD_CONFIGS = [
    pytest.param(TrainConfig(algorithm=Algorithm.DecisionTree), id="dt"),
    pytest.param(TrainConfig(algorithm=Algorithm.DecisionTree, max_depth=0), id="dt-unlimited"),
    pytest.param(TrainConfig(algorithm=Algorithm.DecisionTree, max_depth=1), id="dt-stump"),
    pytest.param(TrainConfig(algorithm=Algorithm.KNN), id="knn"),
    pytest.param(TrainConfig(algorithm=Algorithm.LDA), id="lda"),
    pytest.param(TrainConfig(algorithm=Algorithm.LinearSVM), id="svm"),
]


@pytest.fixture(scope="module")
def fold_corpora(bundled):
    # the cv workload's corpus: two generated corpora end to end, 674 rows
    return {"bundled": bundled, "generated": cv_workload_corpus()}


class TestTrainFolds:
    @pytest.mark.parametrize("cfg", _FOLD_CONFIGS)
    @pytest.mark.parametrize("seed", [42, 29])
    @pytest.mark.parametrize("extractor", EXTRACTORS)
    @pytest.mark.parametrize("corpus_name", ["bundled", "generated"])
    def test_each_fold_model_equals_train(self, fold_corpora, corpus_name, extractor, seed, cfg, monkeypatch):
        calls = _record_train_folds(monkeypatch)
        cross_validate(fold_corpora[corpus_name], extractor, cfg, k=10, seed=seed)
        [((X, y, splits, _), models)] = calls
        assert len(models) == len(splits) == 10
        for (mask, columns), model in zip(splits, models):
            assert serialize(model) == serialize(train(X[np.ix_(mask, columns)], y[mask], cfg))

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    @pytest.mark.parametrize("extractor", EXTRACTORS)
    def test_trained_once_per_run_and_each_fold_predicted_first(self, fold_corpora, extractor, algorithm, monkeypatch):
        corpus = fold_corpora["generated"]
        calls = _record_train_folds(monkeypatch)
        # ("train", rows, models yielded by then) for each tree group, split or
        # SVM stack trained (rows: the group's distinct rows, the split's rows,
        # or all of X, which a stack gathers from); ("predict", models yielded
        # by then) for each fold
        events = []

        def traced(name):
            real = getattr(classifiers, name)

            def trained(M, *args):
                events.append(("train", len(M), len(calls[0][1])))
                return real(M, *args)

            monkeypatch.setattr(classifiers, name, trained)

        traced("_train_trees")
        traced("_train_split")
        traced("_train_svms")

        def predicted(model, X):
            events.append(("predict", len(calls[0][1])))
            return predict_batch(model, X)

        monkeypatch.setattr(evaluation, "predict_batch", predicted)
        cross_validate(corpus, extractor, TrainConfig(algorithm=algorithm), k=10, seed=29)
        assert len(calls) == 1
        done, before = 0, -1  # folds predicted so far; models yielded when the last group trained
        for kind, *seen in events:
            if kind == "predict":
                done += 1
                assert seen == [done]  # fold i is predicted as soon as its model is yielded
            else:
                rows, yielded = seen
                assert rows <= len(corpus)  # a tree group's distinct rows never outnumber the corpus
                # the last group's models are yielded and predicted before the next trains
                assert yielded == done > before
                before = yielded
        assert done == 10
        trainings = sum(kind == "train" for kind, *_ in events)
        [((_, _, splits, _), _)] = calls
        assert [int(mask.sum()) for mask, _ in splits] == [606] * 4 + [607] * 6
        # dt: every context fold grows in one group, each BoW fold alone; svm:
        # the two runs of training sizes (rows mod 4: 2, then 3) train as two stacks
        expected = {Algorithm.DecisionTree: 1 if extractor == "context" else 10, Algorithm.LinearSVM: 2}
        assert trainings == expected.get(algorithm, 10)


class TestReports:
    def test_evaluation_report_fields(self):
        summary = cross_validate(separable_corpus(), "context", _dt(), k=5, seed=1)
        report = evaluation_report(summary)
        assert report["kind"] == "evaluation"
        assert report["summary"]["mean_pct"] == 100.0
        assert len(report["per_class"]) == 6
        assert report["confusion"]["labels"][0] == "Date"
        json.dumps(report)  # must be json-serializable

    def test_comparison_report_delta(self):
        corpus = separable_corpus()
        ctx = cross_validate(corpus, "context", _dt(), k=5, seed=1)
        bow = cross_validate(corpus, "bow", _dt(), k=5, seed=1)
        report = comparison_report(ctx, bow)
        expected = round(report["rows"][0]["mean_pct"] - report["rows"][1]["mean_pct"], 2)
        assert report["delta_mean_pct"] == expected

    def test_comparison_requires_same_folds(self):
        corpus = separable_corpus()
        ctx = cross_validate(corpus, "context", _dt(), k=5, seed=1)
        bow = cross_validate(corpus, "bow", _dt(), k=5, seed=2)
        with pytest.raises(ValueError):
            comparison_report(ctx, bow)

    def test_tsv_render_deterministic(self):
        summary = cross_validate(separable_corpus(), "context", _dt(), k=5, seed=1)
        report = evaluation_report(summary)
        assert render_tsv(report) == render_tsv(report)
        assert "true\\pred\tDate\tTime\tPhone\tCurrency\tMeasurement\tPercentage" in render_tsv(report)
