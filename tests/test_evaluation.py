import json

import numpy as np
import pytest

from conftest import separable_corpus
from numctx.classifiers import Algorithm, TrainConfig
from numctx.corpus import load_bundled_corpus
from numctx.evaluation import (
    ConfusionMatrix,
    accuracy,
    class_metrics,
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
        cm = ConfusionMatrix.from_counts(np.diag([5, 6, 7, 8, 9, 10]))
        for label in LABELS:
            assert precision(cm, label) == 1.0

    def test_precision_empty_column_convention(self):
        cm = ConfusionMatrix.empty()
        cm.add(D, T, 3)
        assert precision(cm, P) == 1.0

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
        cm = ConfusionMatrix.from_counts(np.diag([1, 2, 3, 4, 5, 6]))
        assert accuracy(cm) == 1.0

    def test_accuracy_off_diagonal(self):
        counts = np.zeros((6, 6), dtype=int)
        counts[0, 1] = 4
        assert accuracy(ConfusionMatrix.from_counts(counts)) == 0.0

    def test_accuracy_reference_pooled(self, reference_cm):
        # trace 392 over total 415, summed by hand
        assert reference_cm.trace() == 392
        assert reference_cm.total() == 415
        assert accuracy(reference_cm) == pytest.approx(392 / 415)
        assert round(100 * accuracy(reference_cm), 2) == 94.46

    def test_accuracy_empty_errors(self):
        with pytest.raises(ValueError):
            accuracy(ConfusionMatrix.empty())

    def test_class_metrics_in_range(self, reference_cm):
        for metrics in class_metrics(reference_cm).values():
            assert 0.0 <= metrics.precision <= 1.0
            assert 0.0 <= metrics.recall <= 1.0
            assert 0.0 <= metrics.f_measure <= 1.0


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
        assert np.array_equal(a.pooled.counts, b.pooled.counts)
        assert a.fold_states == b.fold_states

    def test_pooled_total_is_corpus_size(self):
        corpus = load_bundled_corpus()
        summary = cross_validate(corpus, "context", _dt(), k=10, seed=42)
        assert summary.pooled.total() == len(corpus)

    def test_micro_consistency(self):
        # pooled-matrix accuracy equals the fold-size-weighted mean accuracy
        from numctx.corpus import stratified_folds

        corpus = load_bundled_corpus()
        summary = cross_validate(corpus, "context", _dt(), k=10, seed=42)
        folds = stratified_folds(corpus, 10, 42)
        weighted = sum(a * len(f) for a, f in zip(summary.fold_accuracies, folds))
        assert accuracy(summary.pooled) == pytest.approx(weighted / len(corpus))

    def test_bow_vocab_rebuilt_per_fold(self):
        # each fold's state must be the vocabulary built from its training split alone
        from numctx.bow_features import build_vocab
        from numctx.corpus import stratified_folds
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
            assert {int(b): column for column, b in enumerate(by_column)} == build_vocab(train_raws)

    def test_unknown_extractor(self):
        with pytest.raises(ValueError):
            cross_validate(separable_corpus(), "tfidf", _dt())

    def test_fold_count_respected(self):
        summary = cross_validate(separable_corpus(), "context", _dt(), k=5, seed=1)
        assert len(summary.fold_accuracies) == 5


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
