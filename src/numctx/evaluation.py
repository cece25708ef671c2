"""K-fold evaluation harness, confusion-matrix metrics, and reports.

The confusion matrix is oriented with true labels along rows and predicted
labels along columns, so recall reads along a row and precision down a
column. Cross-validation pools the per-fold matrices by summation; any
feature state learned from data (the bag-of-words vocabulary) is rebuilt
from each fold's training split, and each fold's state, the extractor's
``dump()`` lines, is kept so leakage is checkable; the corpus is encoded
once per distinct state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import context_features
from .classifiers import TrainConfig, predict_batch, train
from .corpus import Corpus, stratified_folds
from .labels import LABELS, FormatLabel
from .pipeline import encode_rows, make_features


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (6, 6) int64, rows true / columns predicted

    @classmethod
    def empty(cls) -> "ConfusionMatrix":
        return cls(counts=np.zeros((len(LABELS), len(LABELS)), dtype=np.int64))

    @classmethod
    def from_counts(cls, rows) -> "ConfusionMatrix":
        counts = np.asarray(rows, dtype=np.int64)
        if counts.shape != (len(LABELS), len(LABELS)):
            raise ValueError(f"expected a {len(LABELS)}x{len(LABELS)} matrix, got {counts.shape}")
        if (counts < 0).any():
            raise ValueError("confusion counts must be non-negative")
        return cls(counts=counts)

    def add(self, true_label: FormatLabel, predicted: FormatLabel, amount: int = 1) -> None:
        self.counts[int(true_label), int(predicted)] += amount

    def total(self) -> int:
        return int(self.counts.sum())

    def trace(self) -> int:
        return int(np.trace(self.counts))


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f_measure: float


def precision(cm: ConfusionMatrix, label: FormatLabel) -> float:
    """True positives over everything predicted as ``label``.

    When nothing was predicted as ``label`` there are no false positives,
    and the convention here is to return 1.0.
    """
    column = cm.counts[:, int(label)]
    denom = int(column.sum())
    if denom == 0:
        return 1.0
    return float(cm.counts[int(label), int(label)]) / denom


def recall(cm: ConfusionMatrix, label: FormatLabel) -> float:
    """True positives over everything truly ``label``; 1.0 on an empty row."""
    row = cm.counts[int(label), :]
    denom = int(row.sum())
    if denom == 0:
        return 1.0
    return float(cm.counts[int(label), int(label)]) / denom


def f_measure(p: float, r: float) -> float:
    if p + r == 0:
        return 0.0
    return 2.0 * p * r / (p + r)


def accuracy(cm: ConfusionMatrix) -> float:
    total = cm.total()
    if total == 0:
        raise ValueError("cannot compute accuracy of an empty confusion matrix")
    return cm.trace() / total


def class_metrics(cm: ConfusionMatrix) -> dict[FormatLabel, ClassMetrics]:
    out = {}
    for label in LABELS:
        p, r = precision(cm, label), recall(cm, label)
        out[label] = ClassMetrics(precision=p, recall=r, f_measure=f_measure(p, r))
    return out


def summarize(accuracies) -> tuple[float, float, float]:
    """(highest, mean, sample std) of per-fold accuracies; needs n >= 2."""
    values = [float(a) for a in accuracies]
    if len(values) < 2:
        raise ValueError(f"need at least 2 fold accuracies, got {len(values)}")
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return max(values), mean, math.sqrt(var)


@dataclass(frozen=True)
class RunSummary:
    extractor: str
    algorithm: str
    k: int
    seed: int
    fold_accuracies: tuple[float, ...]
    highest: float
    mean: float
    std: float
    pooled: ConfusionMatrix
    fold_states: tuple[tuple[str, ...], ...]


def cross_validate(
    corpus: Corpus,
    extractor: str,
    cfg: TrainConfig,
    k: int = 10,
    seed: int = 42,
    *,
    lexicon: context_features.Lexicon | None = None,
) -> RunSummary:
    """Stratified k-fold evaluation of one extractor/classifier pairing."""
    lex = lexicon if lexicon is not None else context_features.default_lexicon()
    features = make_features(extractor, lex)
    folds = stratified_folds(corpus, k, seed)
    y = np.array([int(s.label) for s in corpus], dtype=np.int64)
    encoded: dict[tuple[str, ...], np.ndarray] = {}  # fitted state -> all rows

    fold_accuracies: list[float] = []
    states: list[tuple[str, ...]] = []
    pooled = ConfusionMatrix.empty()
    for fold in folds:
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
        correct = int((predicted == y[test_idx]).sum())
        fold_accuracies.append(correct / len(test_idx))
        for true_value, pred_value in zip(y[test_idx], predicted):
            pooled.add(FormatLabel(int(true_value)), FormatLabel(int(pred_value)))

    highest, mean, std = summarize(fold_accuracies)
    return RunSummary(
        extractor=extractor,
        algorithm=cfg.algorithm.value,
        k=k,
        seed=seed,
        fold_accuracies=tuple(fold_accuracies),
        highest=highest,
        mean=mean,
        std=std,
        pooled=pooled,
        fold_states=tuple(states),
    )


# --- reports ---------------------------------------------------------------


def _pct(x: float) -> float:
    return round(100.0 * x, 2)


def evaluation_report(summary: RunSummary) -> dict:
    """Report dict: run summary plus pooled per-class metrics."""
    metrics = class_metrics(summary.pooled)
    return {
        "kind": "evaluation",
        "extractor": summary.extractor,
        "classifier": summary.algorithm,
        "folds": summary.k,
        "seed": summary.seed,
        "aggregation": "confusion matrix pooled over all folds",
        "summary": {
            "highest_pct": _pct(summary.highest),
            "mean_pct": _pct(summary.mean),
            "std_pct": _pct(summary.std),
        },
        "per_fold_accuracy_pct": [_pct(a) for a in summary.fold_accuracies],
        "confusion": {
            "labels": [label.name for label in LABELS],
            "rows": summary.pooled.counts.tolist(),
        },
        "per_class": [
            {
                "label": label.name,
                "precision_pct": _pct(metrics[label].precision),
                "recall_pct": _pct(metrics[label].recall),
                "f_measure_pct": _pct(metrics[label].f_measure),
            }
            for label in LABELS
        ],
    }


def comparison_report(context_summary: RunSummary, bow_summary: RunSummary) -> dict:
    """Two-row extractor comparison with a mean-accuracy delta."""
    if (context_summary.k, context_summary.seed) != (bow_summary.k, bow_summary.seed):
        raise ValueError("comparison requires identical folds and seed for both extractors")
    return {
        "kind": "comparison",
        "classifier": context_summary.algorithm,
        "folds": context_summary.k,
        "seed": context_summary.seed,
        "rows": [
            {
                "extractor": s.extractor,
                "highest_pct": _pct(s.highest),
                "mean_pct": _pct(s.mean),
                "std_pct": _pct(s.std),
            }
            for s in (context_summary, bow_summary)
        ],
        "delta_mean_pct": round(_pct(context_summary.mean) - _pct(bow_summary.mean), 2),
    }


def render_tsv(report: dict) -> str:
    """Flatten a report dict into deterministic tab-separated text."""
    lines: list[str] = []
    meta_keys = ("kind", "extractor", "classifier", "folds", "seed", "aggregation")
    for key in meta_keys:
        if key in report:
            lines.append(f"# {key}\t{report[key]}")

    if report["kind"] == "evaluation":
        lines.append("section\tsummary")
        lines.append("highest_pct\tmean_pct\tstd_pct")
        s = report["summary"]
        lines.append(f"{s['highest_pct']:.2f}\t{s['mean_pct']:.2f}\t{s['std_pct']:.2f}")
        lines.append("section\tfold_accuracies")
        lines.append("\t".join(f"{a:.2f}" for a in report["per_fold_accuracy_pct"]))
        lines.append("section\tconfusion")
        labels = report["confusion"]["labels"]
        lines.append("true\\pred\t" + "\t".join(labels))
        for label, row in zip(labels, report["confusion"]["rows"]):
            lines.append(label + "\t" + "\t".join(str(v) for v in row))
        lines.append("section\tper_class")
        lines.append("label\tprecision_pct\trecall_pct\tf_measure_pct")
        for entry in report["per_class"]:
            lines.append(
                f"{entry['label']}\t{entry['precision_pct']:.2f}"
                f"\t{entry['recall_pct']:.2f}\t{entry['f_measure_pct']:.2f}"
            )
    elif report["kind"] == "comparison":
        lines.append("section\tcomparison")
        lines.append("extractor\thighest_pct\tmean_pct\tstd_pct")
        for row in report["rows"]:
            lines.append(
                f"{row['extractor']}\t{row['highest_pct']:.2f}"
                f"\t{row['mean_pct']:.2f}\t{row['std_pct']:.2f}"
            )
        lines.append(f"delta_mean_pct\t{report['delta_mean_pct']:.2f}")
    else:
        raise ValueError(f"unknown report kind {report.get('kind')!r}")
    return "\n".join(lines) + "\n"
