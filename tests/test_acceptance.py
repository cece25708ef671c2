"""Acceptance suite: one pass/fail line per criterion (run with ``pytest -s``).

Criterion 1: the reference states 96.10 for Currency precision, but that
value cannot be reached from the fixture. Its Currency column holds 76 true
positives, so precision is 76/(76 + FP): 96.20 for FP = 3, and no whole
number of false positives lands within 0.02 of 96.10. Counts meeting both
Currency targets (recall 98.71, precision 96.10) need at least 466 true
positives, six times the fixture's 77 Currency rows. The suite therefore
asserts 76/79 = 96.20.
"""

import io
import math
import random
import time

import numpy as np
import pytest

from conftest import REFERENCE_CM_COUNTS
from numctx.bow_features import gram_byte, unigrams
from numctx.classifiers import (
    Algorithm,
    TrainConfig,
    deserialize,
    predict,
    predict_batch,
    serialize,
    train,
)
from numctx.cli import main
from numctx.context_features import line_windows
from numctx.corpus import Corpus, LabeledSentence, load_bundled_corpus, stratified_folds
from numctx.evaluation import ConfusionMatrix, cross_validate, precision, recall
from numctx.labels import LABELS, FormatLabel
from numctx.locator import locate_numbers
from numctx.verbalizer import VerbalizationStyle, YearMode, cardinal, verbalize, year_words

COURT_SENTENCE = "Mahkamah menetapkan 21 Januari ini untuk sebutan semula kes"


def _line(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}")


class _report:
    """Prints the criterion's pass/fail line even when the assert raises."""

    def __init__(self, criterion: str):
        self.criterion = criterion

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _line(self.criterion, exc_type is None)
        return False


# --- criterion 1: metric oracle --------------------------------------------

_RECALL_TARGETS = {
    FormatLabel.Date: 82.14,
    FormatLabel.Time: 100.00,
    FormatLabel.Phone: 90.00,
    FormatLabel.Currency: 98.71,
    FormatLabel.Measurement: 97.14,
    FormatLabel.Percentage: 95.29,
}
_PRECISION_TARGETS = {
    FormatLabel.Date: 98.57,
    FormatLabel.Time: 98.88,
    FormatLabel.Phone: 100.00,
    FormatLabel.Currency: 96.20,  # reference states 96.10: no whole FP gives 76/(76+FP) = 96.10
    FormatLabel.Measurement: 79.07,
    FormatLabel.Percentage: 100.00,
}
_TOLERANCE = 0.02 + 1e-9


@pytest.mark.parametrize("label", LABELS, ids=lambda l: l.name)
def test_1_metric_oracle_recall(label):
    with _report(f"1 metric oracle: recall {label.name}"):
        cm = ConfusionMatrix.from_counts(REFERENCE_CM_COUNTS)
        computed = 100.0 * recall(cm, label)
        target = _RECALL_TARGETS[label]
        assert abs(computed - target) <= _TOLERANCE, f"recall {computed:.4f} vs target {target}"


@pytest.mark.parametrize("label", LABELS, ids=lambda l: l.name)
def test_1_metric_oracle_precision(label):
    with _report(f"1 metric oracle: precision {label.name}"):
        cm = ConfusionMatrix.from_counts(REFERENCE_CM_COUNTS)
        computed = 100.0 * precision(cm, label)
        target = _PRECISION_TARGETS[label]
        assert abs(computed - target) <= _TOLERANCE, (
            f"precision {computed:.4f} vs target {target}"
        )


# --- criterion 2: bag-of-words byte encoding --------------------------------


def test_2_bow_byte_encoding():
    with _report("2 bag-of-words byte encoding of '1500'"):
        grams = unigrams("1500")
        assert grams == ["1", "5", "0", "0"]
        assert [gram_byte(g) for g in grams] == [49, 53, 48, 48]


# --- criterion 3: context window --------------------------------------------


def test_3_context_window():
    with _report("3 context window of the reference sentence"):
        (number,) = locate_numbers(COURT_SENTENCE)
        (window,) = line_windows(COURT_SENTENCE, [number])
        assert tuple(window) == ("mahkamah", "menetapkan", "januari", "ini")


# --- criterion 4: verbalizer fixtures ---------------------------------------


def test_4_verbalizer_fixtures():
    with _report("4 verbalizer fixtures"):
        assert cardinal(1924) == "seribu sembilan ratus dua puluh empat"
        assert year_words(1924, YearMode.Paired) == "sembilan belas dua puluh empat"

        (pct,) = locate_numbers("5%")
        assert verbalize(pct, FormatLabel.Percentage) == "lima peratus"

        text = "harga RM 2.50 sahaja"
        (rm,) = locate_numbers(text)
        assert verbalize(rm, FormatLabel.Currency) == "dua ringgit lima puluh sen"

        text = "2.00 PM"
        (two_pm,) = locate_numbers(text)
        (window,) = line_windows(text, [two_pm])
        assert verbalize(two_pm, FormatLabel.Time, context=window) == "dua petang"

        (year,) = locate_numbers("1924")
        assert verbalize(year, FormatLabel.Date) == "seribu sembilan ratus dua puluh empat"
        paired = VerbalizationStyle(year_mode=YearMode.Paired)
        assert verbalize(year, FormatLabel.Date, paired) == "sembilan belas dua puluh empat"


# --- criterion 5: headline comparison ----------------------------------------


def test_5_headline_comparison():
    with _report("5 headline comparison on the bundled corpus"):
        started = time.monotonic()
        corpus = load_bundled_corpus()
        assert len(corpus) >= 300
        counts = corpus.class_counts()
        for label in LABELS:
            assert counts[label] >= 40, f"{label.name} has {counts[label]} rows"

        configs = {
            "dt": TrainConfig(algorithm=Algorithm.DecisionTree),
            "knn1": TrainConfig(algorithm=Algorithm.KNN, k=1),
            "lda": TrainConfig(algorithm=Algorithm.LDA),
            "svm": TrainConfig(algorithm=Algorithm.LinearSVM),
        }
        context_means = {}
        for name, cfg in configs.items():
            context_summary = cross_validate(corpus, "context", cfg, k=10, seed=42)
            bow_summary = cross_validate(corpus, "bow", cfg, k=10, seed=42)
            context_means[name] = context_summary.mean
            gap = 100.0 * (context_summary.mean - bow_summary.mean)
            assert gap >= 20.0, f"{name}: gap {gap:.2f} points"

        assert 100.0 * context_means["dt"] >= 85.0
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


# --- criterion 6: cross-validation partition properties ----------------------


def test_6_partition_properties():
    with _report("6 stratified-fold partition properties (100 random triples)"):
        rng = random.Random(12345)
        for _ in range(100):
            k = rng.randint(2, 10)
            rows = []
            for label in LABELS:
                if rng.random() < 0.3:
                    continue  # class absent
                size = rng.randint(k, k + 40)
                for i in range(size):
                    value = str(rng.randint(1, 999))
                    text = f"ayat nombor {value} sahaja"
                    start = text.index(value)
                    rows.append(
                        LabeledSentence(
                            id=f"{label.name}{i}",
                            text=text,
                            span=(start, start + len(value)),
                            label=label,
                        )
                    )
            if not rows:
                continue
            corpus = Corpus(sentences=tuple(rows))
            seed = rng.randrange(2**32)
            folds = stratified_folds(corpus, k, seed)

            flat = sorted(i for fold in folds for i in fold)
            assert flat == list(range(len(corpus)))  # disjoint + exhaustive
            for label in LABELS:
                per_fold = [
                    sum(1 for i in fold if corpus[i].label == label) for fold in folds
                ]
                assert max(per_fold) - min(per_fold) <= 1
            assert repr(folds) == repr(stratified_folds(corpus, k, seed))


# --- criterion 7: KNN equals a brute-force oracle ----------------------------


def _oracle_knn(points, labels, query, k):
    distances = [
        math.sqrt(sum((a - b) ** 2 for a, b in zip(point, query))) for point in points
    ]
    order = sorted(range(len(points)), key=lambda i: (distances[i], i))[:k]
    votes, sums = {}, {}
    for i in order:
        votes[labels[i]] = votes.get(labels[i], 0) + 1
        sums[labels[i]] = sums.get(labels[i], 0.0) + distances[i]
    best = max(votes.values())
    tied = sorted(
        (lab for lab, count in votes.items() if count == best),
        key=lambda lab: (sums[lab], lab),
    )
    return tied[0]


def test_7_knn_brute_force_equivalence():
    with _report("7 knn matches the exhaustive oracle (50 sets, k in {1,3})"):
        rng = random.Random(777)
        for trial in range(50):
            n = rng.randint(4, 200)
            dim = rng.randint(1, 56)
            points = [[rng.uniform(-3, 3) for _ in range(dim)] for _ in range(n)]
            labels = [rng.randrange(6) for _ in range(n)]
            # inject duplicated distances: copy some points verbatim
            for _ in range(rng.randint(0, n // 3)):
                src, dst = rng.randrange(n), rng.randrange(n)
                points[dst] = list(points[src])
            for k in (1, 3):
                model = train(points, [FormatLabel(v) for v in labels], TrainConfig(algorithm=Algorithm.KNN, k=k))
                for _ in range(4):
                    if rng.random() < 0.5:
                        query = [rng.uniform(-3, 3) for _ in range(dim)]
                    else:
                        query = list(points[rng.randrange(n)])  # exact-tie query
                    assert int(predict(model, query)) == _oracle_knn(points, labels, query, k)


# --- criterion 8: decision-tree purity invariant -----------------------------


def _gini_py(labels):
    total = len(labels)
    counts = {}
    for value in labels:
        counts[value] = counts.get(value, 0) + 1
    return 1.0 - sum((c / total) ** 2 for c in counts.values())


def _check_purity(node, X, y, indices):
    if node.is_leaf:
        return
    parent = _gini_py([y[i] for i in indices])
    left = [i for i in indices if X[i][node.feature] <= node.threshold]
    right = [i for i in indices if X[i][node.feature] > node.threshold]
    assert left and right
    weighted = (
        len(left) * _gini_py([y[i] for i in left])
        + len(right) * _gini_py([y[i] for i in right])
    ) / len(indices)
    assert weighted < parent, f"split does not reduce impurity: {weighted} vs {parent}"
    _check_purity(node.left, X, y, left)
    _check_purity(node.right, X, y, right)


def test_8_decision_tree_purity():
    with _report("8 decision-tree purity invariant (100 random datasets)"):
        rng = random.Random(4242)
        for trial in range(100):
            n = rng.randint(10, 60)
            dim = rng.randint(2, 6)
            X = [[rng.uniform(-5, 5) for _ in range(dim)] for _ in range(n)]
            y = [rng.randrange(6) for _ in range(n)]
            model = train(
                X,
                [FormatLabel(v) for v in y],
                TrainConfig(algorithm=Algorithm.DecisionTree, max_depth=None, min_leaf=1),
            )
            _check_purity(model.root, X, y, list(range(n)))
            # continuous features: vectors are duplicate-free almost surely
            assert predict_batch(model, X).tolist() == y


# --- criterion 9: serialization round-trip -----------------------------------


def test_9_serialization_round_trip():
    with _report("9 serialization round-trip, 1000 probes per classifier"):
        rng = np.random.default_rng(31337)
        X = rng.normal(size=(80, 10))
        y = [FormatLabel(int(v)) for v in rng.integers(0, 6, size=80)]
        probes = rng.normal(size=(1000, 10))
        for algorithm in Algorithm:
            model = train(X, y, TrainConfig(algorithm=algorithm))
            clone = deserialize(serialize(model))
            original = predict_batch(model, probes)
            restored = predict_batch(clone, probes)
            assert original.tolist() == restored.tolist(), algorithm


# --- criterion 10: end-to-end classify ---------------------------------------


def test_10_end_to_end_classify(monkeypatch, capsys):
    with _report("10 end-to-end classify of the reference sentence"):
        monkeypatch.setattr("sys.stdin", io.StringIO(COURT_SENTENCE + "\n"))
        code = main(["classify"])
        out = capsys.readouterr().out
        assert code == 0
        fields = out.strip().split("\t")
        assert fields[0] == "20-22"
        assert fields[1] == "Date"
