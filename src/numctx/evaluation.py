"""K-fold evaluation harness, confusion-matrix metrics, and reports.

A confusion matrix is a (6, 6) int64 counts array with true labels along
rows and predicted labels along columns, so recall reads along a row and
precision down a column. Cross-validation pools the per-fold matrices by
summation. It encodes each distinct key of the corpus once and finds its
distinct rows once; any feature state learned from data (the bag-of-words
vocabulary) is rebuilt from each fold's training split and picks that
fold's columns of the encoding, and each fold's state, the extractor's
``dump()`` lines, is kept so leakage is checkable. A fold predicts each of
its distinct rows once. Every
fold's model comes from one ``classifiers.train_folds`` call, which says
how it groups folds to train them together; each fold is predicted as its
model arrives, so at most one group's models are alive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import context_features
from .classifiers import TrainConfig, predict_batch, row_ids, train_folds
from .corpus import Corpus, stratified_folds
from .labels import LABELS, FormatLabel
from .pipeline import encode_rows, make_features


def _share(counts: np.ndarray, label: FormatLabel, line: np.ndarray) -> float:
    """``label``'s true positives over the sum of ``line``, a row or column of ``counts``; 1.0 on a 0 sum."""
    denom = int(line.sum())
    return float(counts[int(label), int(label)]) / denom if denom else 1.0


def precision(counts: np.ndarray, label: FormatLabel) -> float:
    """True positives over everything predicted as ``label``.

    When nothing was predicted as ``label`` there are no false positives,
    and the convention here is to return 1.0.
    """
    return _share(counts, label, counts[:, int(label)])


def recall(counts: np.ndarray, label: FormatLabel) -> float:
    """True positives over everything truly ``label``; 1.0 on an empty row."""
    return _share(counts, label, counts[int(label), :])


def f_measure(p: float, r: float) -> float:
    if p + r == 0:
        return 0.0
    return 2.0 * p * r / (p + r)


def accuracy(counts: np.ndarray) -> float:
    total = int(counts.sum())
    if total == 0:
        raise ValueError("cannot compute accuracy of an empty confusion matrix")
    return int(np.trace(counts)) / total


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
    pooled: np.ndarray  # the confusion matrix summed over folds
    fold_states: tuple[tuple[str, ...], ...]


def cross_validate(
    corpus: Corpus,
    extractor: str,
    cfg: TrainConfig,
    k: int,
    seed: int,
    *,
    lexicon: context_features.Lexicon | None = None,
) -> RunSummary:
    """Stratified k-fold evaluation of one extractor/classifier pairing."""
    lex = lexicon if lexicon is not None else context_features.default_lexicon()
    features = make_features(extractor, lex)
    folds = stratified_folds(corpus, k, seed)
    y = np.array([int(s.label) for s in corpus], dtype=np.int64)
    every_column = encode_rows(features, corpus)  # unfitted, it keeps every column
    ids = row_ids(every_column)  # a fold predicts each of its distinct rows once

    splits: list[tuple[np.ndarray, list[int]]] = []  # each fold's (training rows, columns)
    states: list[tuple[str, ...]] = []
    for fold in folds:
        trains = np.ones(len(corpus), dtype=bool)
        trains[list(fold)] = False
        features.fit([s.number for s, in_training in zip(corpus, trains) if in_training])
        states.append(tuple(features.dump()))
        splits.append((trains, list(features.columns)))

    fold_accuracies: list[float] = []
    predicted = np.empty_like(y)  # each row's label from the one fold that tests it
    # each fold is predicted as its model arrives, before the next group of trees grows
    for fold, (trains, columns), model in zip(folds, splits, train_folds(every_column, y, splits, cfg)):
        test = np.flatnonzero(~trains)
        _, first, back = np.unique(ids[test], return_index=True, return_inverse=True)
        predicted[test] = predict_batch(model, every_column[np.ix_(test[first], columns)])[back]
        fold_accuracies.append(int((predicted[test] == y[test]).sum()) / len(fold))
    pooled = np.bincount(y * len(LABELS) + predicted, minlength=len(LABELS) ** 2).reshape(len(LABELS), len(LABELS))

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


_FIGURES = ("highest_pct", "mean_pct", "std_pct")


def _figures(summary: RunSummary) -> dict:
    """A run's highest, mean and std fold accuracy, in percent."""
    return dict(zip(_FIGURES, map(_pct, (summary.highest, summary.mean, summary.std))))


def _figures_tsv(figures: dict) -> str:
    return "\t".join(f"{figures[name]:.2f}" for name in _FIGURES)


def evaluation_report(summary: RunSummary) -> dict:
    """Report dict: run summary plus pooled per-class metrics."""
    per_class = []
    for label in LABELS:
        p, r = precision(summary.pooled, label), recall(summary.pooled, label)
        figures = {"precision_pct": _pct(p), "recall_pct": _pct(r), "f_measure_pct": _pct(f_measure(p, r))}
        per_class.append({"label": label.name, **figures})
    return {
        "kind": "evaluation",
        "extractor": summary.extractor,
        "classifier": summary.algorithm,
        "folds": summary.k,
        "seed": summary.seed,
        "aggregation": "confusion matrix pooled over all folds",
        "summary": _figures(summary),
        "per_fold_accuracy_pct": [_pct(a) for a in summary.fold_accuracies],
        "confusion": {
            "labels": [label.name for label in LABELS],
            "rows": summary.pooled.tolist(),
        },
        "per_class": per_class,
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
        "rows": [{"extractor": s.extractor, **_figures(s)} for s in (context_summary, bow_summary)],
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
        lines.append("\t".join(_FIGURES))
        lines.append(_figures_tsv(report["summary"]))
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
        lines.append("\t".join(["extractor", *_FIGURES]))
        for row in report["rows"]:
            lines.append(f"{row['extractor']}\t{_figures_tsv(row)}")
        lines.append(f"delta_mean_pct\t{report['delta_mean_pct']:.2f}")
    else:
        raise ValueError(f"unknown report kind {report.get('kind')!r}")
    return "\n".join(lines) + "\n"
