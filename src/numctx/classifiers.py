"""From-scratch classifiers behind one train/predict contract.

All four learners are deterministic functions of (X, y, config) and refuse
an X that is empty, has no columns or holds a non-finite value. KNN stores
the training data verbatim and measures each distinct training point once
per query, keeping the every-point order on ties (equal distances: lowest
training index; k=3 votes: summed distance, then label value). The decision
tree and the SVM train on each distinct (row, label) pair once, weighted by
the number of training rows it stands for, as CART case weights do; both
kinds of distinct row come from ``_distinct_rows``. The tree grows
CART-style on Gini gain with midpoint thresholds, level by level from one
stable presort per column, every open node of a level scored at once; it
does not recurse, so any depth trains (ties: lowest feature, then lowest
threshold; a majority leaf takes the lowest label). Its counts are whole
numbers, so the tree is bit-identical to one grown on every row. LDA uses
class means, a shrinkage-regularized pooled covariance, and class priors;
the linear SVM trains one-vs-rest hinge-loss separators by full-batch
subgradient descent with step ``1/(c_reg * t)`` at epoch ``t``, all
separators taking each step together, with one stacked gemv per epoch for
every class's margins. On integer-valued features, the only kind the
program builds, its weights are those of training on every row, one class
at a time, under every BLAS kernel; ``_svm_rows`` and the README say how
its rows are laid out for that. On other real X the subgradient may differ
in the last bits. LDA and the SVM keep one linear form, per-class
weights and bias, for scoring and storage; ``train`` refuses one whose
training overflows or whose weights or biases are not finite. Models
serialize to a versioned line-oriented text format with reals rendered to
17 significant digits, so a round-trip is prediction-exact; a stored real
that is nan or infinite, or a ``dim`` below 1, is refused on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .labels import FormatLabel

_MAGIC = "numctx-model v2"
# splits with float-noise-level gain are treated as no gain at all
_MIN_GAIN = 1e-12


class Algorithm(str, Enum):
    KNN = "knn"
    DecisionTree = "dt"
    LDA = "lda"
    LinearSVM = "svm"


class ModelFormatError(ValueError):
    """Raised when a serialized model blob cannot be parsed."""


@dataclass(frozen=True)
class TrainConfig:
    algorithm: Algorithm
    k: int = 1
    max_depth: int | None = 16
    min_leaf: int = 1
    shrinkage: float = 1e-4
    c_reg: float = 1.0
    epochs: int = 200

    def __post_init__(self) -> None:
        if self.algorithm == Algorithm.KNN and self.k not in (1, 3):
            raise ValueError(f"k must be 1 or 3, got {self.k}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.min_leaf < 1:
            raise ValueError(f"min_leaf must be >= 1, got {self.min_leaf}")
        # negated range tests, so nan fails them too. A finite value can still
        # overflow training (c_reg 1e-320 makes the SVM's step infinite),
        # which train refuses
        if not 0 <= self.shrinkage < math.inf:
            raise ValueError(f"shrinkage must be finite and >= 0, got {self.shrinkage}")
        if not 0 < self.c_reg < math.inf:
            raise ValueError(f"c_reg must be finite and > 0, got {self.c_reg}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class KnnModel:
    """The training points verbatim, plus their distinct rows derived once.

    ``distinct`` holds each distinct point in order of first appearance,
    ``first`` the training index where each first appears, and ``inverse``
    each training point's row in ``distinct``.
    """

    dim: int
    k: int
    points: np.ndarray
    labels: np.ndarray
    algorithm: Algorithm = field(default=Algorithm.KNN, init=False)
    distinct: np.ndarray = field(init=False, repr=False)
    first: np.ndarray = field(init=False, repr=False)
    inverse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.distinct, self.first, self.inverse = _distinct_rows(self.points)


@dataclass(slots=True, eq=False, repr=False)  # a generated repr would recurse once per level
class TreeNode:
    """Internal split (feature, threshold, children) or leaf (label)."""

    feature: int | None = None
    threshold: float | None = None
    left: TreeNode | None = None
    right: TreeNode | None = None
    label: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.label is not None


@dataclass
class TreeModel:
    dim: int
    root: TreeNode
    algorithm: Algorithm = field(default=Algorithm.DecisionTree, init=False)


@dataclass
class LinearModel:
    """Per-class linear scores; the highest score wins."""

    dim: int
    class_ids: np.ndarray  # ascending label values present in training
    weights: np.ndarray  # (n_classes, dim)
    biases: np.ndarray  # (n_classes,)

    def scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights.T + self.biases


@dataclass
class LdaModel(LinearModel):
    algorithm: Algorithm = field(default=Algorithm.LDA, init=False)


@dataclass
class SvmModel(LinearModel):
    algorithm: Algorithm = field(default=Algorithm.LinearSVM, init=False)


TrainedModel = KnnModel | TreeModel | LdaModel | SvmModel


def _as_matrix(X) -> np.ndarray:
    M = np.asarray(X, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"X must be a 2-D array of feature vectors, got ndim={M.ndim}")
    return M


def _distinct_rows(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct row of ``M`` in order of first appearance, the index
    where each first appears, and each row's index into the distinct rows.

    Rows are keyed on their bytes, so 0.0 and -0.0 stay apart; one void
    view of the whole matrix gives every row's bytes in one ``tolist``.
    np.unique (axis=0) sorts whole rows and costs 5-20x as much on a
    cross-validation fold.
    """
    C = np.ascontiguousarray(M)
    keys = C.view(np.dtype((np.void, C.itemsize * C.shape[1]))).ravel().tolist()
    slots: dict[bytes, int] = {}
    inverse = np.array([slots.setdefault(key, len(slots)) for key in keys], dtype=np.intp)
    first = np.unique(inverse, return_index=True)[1]
    return M[first], first, inverse


def _training_labels(y) -> np.ndarray:
    """``y`` as int64 labels; the first one outside the FormatLabel values
    raises ``_label``'s error. A 1-d integer array, as cross-validation
    passes, is checked with one range test."""
    if isinstance(y, np.ndarray) and y.ndim == 1 and y.dtype.kind in "iu":
        bad = (y < 0) | (y >= len(FormatLabel))
        if bad.any():
            _label(y[bad.argmax()], "training")  # raises
        return y.astype(np.int64)
    return np.asarray([_label(v, "training") for v in y], dtype=np.int64)


def train(X, y, cfg: TrainConfig) -> TrainedModel:
    """Fit the configured algorithm on (X, y); deterministic given cfg."""
    M = _as_matrix(X)
    labels = _training_labels(y)
    if len(M) == 0:
        raise ValueError("training set is empty")
    if M.shape[1] == 0:
        raise ValueError("X has no feature columns")
    if len(M) != len(labels):
        raise ValueError(f"got {len(M)} vectors but {len(labels)} labels")
    if not np.isfinite(M).all():
        raise ValueError("X holds a non-finite value")

    if cfg.algorithm == Algorithm.KNN:
        return KnnModel(dim=M.shape[1], k=cfg.k, points=M.copy(), labels=labels.copy())
    if cfg.algorithm == Algorithm.LDA:
        return _fit_linear(lambda: _train_lda(M, labels, cfg.shrinkage), f"shrinkage {cfg.shrinkage}")
    if cfg.algorithm == Algorithm.DecisionTree:
        # the tree sees each distinct (row, label) pair once, weighted by its count
        _, first, inverse = _distinct_rows(np.column_stack([M, labels]))
        return _train_tree(M[first], labels[first], np.bincount(inverse), cfg.max_depth, cfg.min_leaf)
    if cfg.algorithm == Algorithm.LinearSVM:
        return _fit_linear(lambda: _train_svm(*_svm_rows(M, labels), cfg.c_reg, cfg.epochs), f"c_reg {cfg.c_reg}")
    raise ValueError(f"unknown algorithm {cfg.algorithm!r}")


def _fit_linear(fit, setting: str) -> LinearModel:
    """The model ``fit()`` trains, refused with a ValueError naming
    ``setting`` when training overflows or leaves a weight or bias that is
    not finite, since no model file holds one. No bound on a setting alone
    prevents that: ``c_reg`` 1e-320 makes the SVM's first step 1/c_reg
    infinite."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            model = fit()
    except FloatingPointError:
        model = None
    if model is None or not (np.isfinite(model.weights).all() and np.isfinite(model.biases).all()):
        raise ValueError(f"{setting} overflows training, and no model file holds a non-finite weight")
    return model


def predict(model: TrainedModel, x) -> FormatLabel:
    """Classify a single feature vector."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"x must be a 1-D vector, got ndim={v.ndim}")
    return FormatLabel(int(predict_batch(model, v.reshape(1, -1))[0]))


def predict_batch(model: TrainedModel, X) -> np.ndarray:
    """Classify many vectors at once; returns an int64 array of label values."""
    M = _as_matrix(X)
    if M.shape[1] != model.dim:
        raise ValueError(f"feature dimension {M.shape[1]} does not match model dimension {model.dim}")
    if isinstance(model, KnnModel):
        return np.array([_knn_predict_one(model, row) for row in M], dtype=np.int64)
    if isinstance(model, TreeModel):
        return np.array([_tree_descend(model.root, row) for row in M], dtype=np.int64)
    scores = model.scores(M)
    # argmax takes the first maximum; class_ids ascend, so ties resolve to
    # the lowest label value
    return model.class_ids[np.argmax(scores, axis=1)]


# --- KNN ---------------------------------------------------------------


def _knn_predict_one(model: KnnModel, x: np.ndarray) -> int:
    # each distinct point is measured once, by the per-row expression a scan
    # over every point uses, so each distance is bit-equal to that scan's
    d_distinct = np.sqrt(((model.distinct - x) ** 2).sum(axis=1))
    if model.k == 1:
        # distinct points are in first-appearance order, so the first
        # minimum is the lowest training index the stable sort would pick
        return int(model.labels[model.first[np.argmin(d_distinct)]])
    d = d_distinct[model.inverse]
    k = min(model.k, len(d))
    # stable sort: equal distances resolve to the lower training index
    nearest = np.argsort(d, kind="stable")[:k]
    labels = model.labels[nearest]
    votes = np.bincount(labels, minlength=len(FormatLabel))
    # a weighted bincount adds in neighbour order, as a running sum would
    summed = np.bincount(labels, d[nearest], minlength=len(FormatLabel))
    # most votes, then least summed distance; the stable sort leaves the lowest label first
    return int(np.lexsort((summed, -votes))[0])


# --- decision tree -------------------------------------------------------


def _best_cuts(
    M: np.ndarray, order: np.ndarray, nid: np.ndarray, hist: np.ndarray, is_open: np.ndarray, y: np.ndarray,
    counts: np.ndarray, min_leaf: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(node, feature, lower value, upper value) of the best cut of each open
    node whose gain is above ``_MIN_GAIN``.

    ``order[f]`` holds column ``f``'s active rows grouped by node, each
    node's in value order; ``nid`` is the node at each position, ``hist``
    each node's class counts. A cut is a candidate where the next row is in
    the same node and holds another value. Gini sums run over the training
    set's classes in ascending order (an absent class adds an exact 0.0). A
    node takes the first maximum gain in (feature, position) order: the
    lowest feature, then the lowest threshold.
    """
    n_classes = hist.shape[1]
    vals = M[order, np.arange(len(order))[:, None]]
    changes, same_node = vals[:, 1:] != vals[:, :-1], nid[1:] == nid[:-1]
    feat, pos = np.nonzero(changes & same_node & is_open[nid[1:]])
    node = nid[pos]
    # a run: one column's rows of one value in one node, numbered from 1; row r of cum sums runs 1..r
    run = np.cumsum(np.concatenate([np.ones((len(vals), 1), dtype=bool), changes | ~same_node], axis=1))
    cells = run * n_classes + y[order].ravel()
    cum = np.cumsum(np.bincount(cells, counts[order].ravel(), (run[-1] + 1) * n_classes).reshape(-1, n_classes), 0)
    at = feat * len(nid)
    left = cum[run[at + pos]] - cum[run[at + np.searchsorted(nid, node)] - 1]  # (candidates, n_classes)
    total = hist.sum(axis=1)
    n, n_left = total[node], left.sum(axis=1)
    n_right = n - n_left
    parent = 1.0 - ((hist / total[:, None]) ** 2).sum(axis=1)
    gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - (((hist[node] - left) / n_right[:, None]) ** 2).sum(axis=1)
    child = (n_left * gini_left + n_right * gini_right) / n
    gain = np.where((n_left >= min_leaf) & (n_right >= min_leaf), parent[node] - child, -np.inf)
    ranked = np.lexsort((-gain, node))  # stable: by node, then falling gain, then (feature, position)
    ranked_node = node[ranked]
    best = ranked[np.searchsorted(ranked_node, ranked_node) == np.arange(len(ranked))]  # each node's first
    best = best[gain[best] > _MIN_GAIN]
    return node[best], feat[best], vals[feat[best], pos[best]], vals[feat[best], pos[best] + 1]


def _train_tree(
    M: np.ndarray, labels: np.ndarray, counts: np.ndarray, max_depth: int | None, min_leaf: int
) -> TreeModel:
    """The tree grown breadth-first, row ``i`` standing for ``counts[i]``
    equal rows: each column is argsorted once, stably, and at each level its
    active rows are stably sorted by node, so ``_best_cuts`` scores every
    node of the level at once. A node with one class, at ``max_depth`` or
    without a cut is a leaf. Training does not recurse.
    """
    classes, y = np.unique(labels, return_inverse=True)
    n_classes = len(classes)
    order = np.argsort(M, axis=0, kind="stable").T  # (d, active rows), grouped by node
    node_of = np.zeros(len(M), dtype=np.intp)  # each row's node in the level, -1 once in a leaf
    root = TreeNode()
    level, depth = [root], 0
    while level:
        rows = order[0]
        nid = node_of[rows]  # the node at each position, ascending
        hist = np.bincount(nid * n_classes + y[rows], counts[rows], len(level) * n_classes).reshape(-1, n_classes)
        is_open = (np.count_nonzero(hist, axis=1) > 1) & (max_depth is None or depth < max_depth)
        split, feature, lower, upper = _best_cuts(M, order, nid, hist, is_open, y, counts, min_leaf)

        split_of = np.full(len(level), -1)  # each split node's left child in the next level
        feature_of, threshold_of = np.zeros(len(level), dtype=np.intp), np.zeros(len(level))
        next_level: list[TreeNode] = []
        for k, f, a, b in zip(split.tolist(), feature.tolist(), lower.tolist(), upper.tolist()):
            threshold = (a + b) / 2.0
            if not a <= threshold < b:  # the sum overflowed, or a and b are adjacent floats
                threshold = a
            split_of[k], feature_of[k], threshold_of[k] = len(next_level), f, threshold
            level[k].feature, level[k].threshold, level[k].left, level[k].right = f, threshold, TreeNode(), TreeNode()
            next_level += [level[k].left, level[k].right]
        # argmax takes the first maximum, so a majority tie goes to the lowest label
        for tree_node, label in zip(level, classes[np.argmax(hist, axis=1)].tolist()):
            if tree_node.feature is None:
                tree_node.label = label

        goes_right = M[rows, feature_of[nid]] > threshold_of[nid]
        node_of[rows] = np.where(split_of[nid] < 0, -1, split_of[nid] + goes_right)
        key = node_of[order]
        # a stable sort puts the rows now in leaves (-1) first; drop them
        order = order[np.arange(len(order))[:, None], np.argsort(key, axis=1, kind="stable")]
        order = order[:, np.count_nonzero(key[0] < 0) :]
        level, depth = next_level, depth + 1
    return TreeModel(dim=M.shape[1], root=root)


def _tree_descend(node: TreeNode, x: np.ndarray) -> int:
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.label


# --- LDA -----------------------------------------------------------------


def _train_lda(M: np.ndarray, labels: np.ndarray, shrinkage: float) -> LdaModel:
    # a return flag keeps np.unique (numpy 2) from importing numpy.ma
    class_ids, y = np.unique(labels, return_inverse=True)
    if len(class_ids) < 2:
        raise ValueError("LDA requires at least 2 classes in the training data")
    n, dim = M.shape
    means = np.vstack([M[labels == c].mean(axis=0) for c in class_ids])
    centered = M - means[y]
    scatter = centered.T @ centered
    denom = n - len(class_ids)
    pooled = scatter / denom if denom > 0 else np.zeros((dim, dim))
    trace = float(np.trace(pooled))
    # shrink toward a scaled identity; a zero covariance falls back to the
    # plain identity so the regularizer never vanishes with it
    scale = trace / dim if trace > 0 else 1.0
    covariance = pooled + shrinkage * scale * np.eye(dim)
    try:
        np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError:
        raise ValueError(
            "pooled covariance is singular even after shrinkage; increase the shrinkage value"
        ) from None
    inv_covariance = np.linalg.inv(covariance)
    log_priors = np.log(np.bincount(y) / n)
    # the discriminant is linear in x: keep only its weights and bias
    coef = means @ inv_covariance  # (n_classes, dim)
    intercept = -0.5 * np.einsum("ij,ij->i", coef, means) + log_priors
    return LdaModel(dim=dim, class_ids=class_ids.astype(np.int64), weights=coef, biases=intercept)


# --- linear SVM ----------------------------------------------------------


def _svm_rows(M: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows, labels and counts the SVM trains on, laid out so that gemv
    sums each row's margin as it sums that of the rows of ``M`` it stands for.

    gemv sums a matrix's last (rows mod 4) rows in another order than the
    rows before them, so only the rows before them are merged into distinct
    (row, label) pairs. Zero rows of count 0 pad those pairs to a multiple
    of 4, and ``M``'s last rows follow, each on its own, in their place.
    """
    body = len(M) - len(M) % 4
    _, first, inverse = _distinct_rows(np.column_stack([M[:body], labels[:body]]))
    pad = -len(first) % 4
    rows = np.concatenate([M[first], np.zeros((pad, M.shape[1])), M[body:]])
    # a padding row takes a label the classes already hold, and pulls nothing
    row_labels = np.concatenate([labels[first], np.full(pad, labels[0]), labels[body:]])
    counts = np.concatenate([np.bincount(inverse), np.zeros(pad, np.int64), np.ones(len(M) - body, np.int64)])
    return rows, row_labels, counts


def _train_svm(M: np.ndarray, labels: np.ndarray, counts: np.ndarray, c_reg: float, epochs: int) -> SvmModel:
    """One-vs-rest separators, row ``i`` standing for ``counts[i]`` equal rows.

    Each class's weights and bias are one row of ``wb``. One stacked
    matrix-vector product gives every class's margins: numpy's matmul makes,
    per class, the gemv call ``np.dot(M, w)`` makes, so each margin keeps
    that call's bits, where a gemm would sum it in its kernel's blocking
    order. One product with ``[M | 1]`` gives the subgradient and the bias
    sum, exact on integer-valued features. Each element takes the per-class
    update's operations in their order, ``wb - eta * (decay * wb - grad / n)``:
    the decay row's 0 leaves the bias unregularized, and as a bias is never
    -0.0, its ``0 * b - s / n`` is the per-class ``-s / n``.
    """
    class_ids = np.unique(labels, return_inverse=True)[0]  # the flag: see _train_lda
    rows, dim = M.shape
    k, n = len(class_ids), int(counts.sum())
    targets = np.where(labels == class_ids[:, None], 1.0, -1.0)  # (k, rows)
    # a violating row pulls its class's separator toward its own side, once
    # for each training row it stands for
    pulls = targets * counts
    with_ones = np.column_stack([M, np.ones(rows)])
    decay = np.append(np.full(dim, c_reg), 0.0)
    wb = np.zeros((k, dim + 1))
    weights, biases = wb[:, :dim, None], wb[:, dim:]  # views, updated with wb
    outputs = np.empty((k, rows, 1))
    margins, violating = outputs[:, :, 0], np.empty((k, rows), dtype=bool)
    pull, step, grad = np.empty((k, rows)), np.empty((k, dim + 1)), np.empty((k, dim + 1))
    for t in range(1, epochs + 1):
        eta = 1.0 / (c_reg * t)
        np.matmul(M, weights, out=outputs)
        np.add(margins, biases, out=margins)
        np.multiply(targets, margins, out=margins)
        np.less(margins, 1.0, out=violating)
        # a row that does not violate pulls by a signed zero; a zero's sign never reaches wb
        np.multiply(pulls, violating, out=pull)
        np.matmul(pull, with_ones, out=grad)
        np.divide(grad, n, out=grad)
        np.multiply(decay, wb, out=step)
        np.subtract(step, grad, out=step)
        np.multiply(step, eta, out=step)
        np.subtract(wb, step, out=wb)
    return SvmModel(dim=dim, class_ids=class_ids.astype(np.int64), weights=wb[:, :dim].copy(), biases=wb[:, dim].copy())


# --- serialization -------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vec(v: np.ndarray) -> str:
    return " ".join(_fmt(x) for x in v)


def serialize(model: TrainedModel) -> str:
    """Render a model as a versioned text blob. Its bytes are equal under the
    same BLAS kernel; LDA weights, and SVM weights of some training sets,
    can differ in their last digits across kernels."""
    lines = [_MAGIC, f"algorithm {model.algorithm.value}", f"dim {model.dim}"]
    if isinstance(model, KnnModel):
        lines.append(f"k {model.k}")
        lines.append(f"n {len(model.labels)}")
        for lab, row in zip(model.labels, model.points):
            lines.append(f"point {int(lab)} {_fmt_vec(row)}")
    elif isinstance(model, TreeModel):
        node_lines: list[str] = []
        # preorder with an explicit stack, so a deep tree cannot exhaust
        # Python's recursion limit
        stack = [model.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                node_lines.append(f"leaf {node.label}")
            else:
                node_lines.append(f"split {node.feature} {_fmt(node.threshold)}")
                stack += (node.right, node.left)
        lines.append(f"nodes {len(node_lines)}")
        lines.extend(node_lines)
    elif isinstance(model, LinearModel):
        lines.append(f"classes {' '.join(str(int(c)) for c in model.class_ids)}")
        for c, w, b in zip(model.class_ids, model.weights, model.biases):
            lines.append(f"weights {int(c)} {_fmt_vec(w)}")
            lines.append(f"bias {int(c)} {_fmt(b)}")
    else:
        raise ValueError(f"cannot serialize {type(model).__name__}")
    lines.append("end")
    return "\n".join(lines) + "\n"


class LineReader:
    """Cursor over text whose lines read ``key field ...``; every line's key
    and, where fixed, field count is checked, so damage never reads quietly."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def peek(self) -> str | None:
        """Key of the next line; None at the end."""
        return self.lines[self.pos].split(" ", 1)[0] if self.pos < len(self.lines) else None

    def take(self, key: str, count: int | None = None) -> list[str]:
        """The fields after ``key`` on the next line, exactly ``count`` of them when given."""
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"unexpected end of file, expected {key!r} line")
        line = self.lines[self.pos]
        self.pos += 1
        found, *fields = line.split(" ")
        if found != key:
            raise ModelFormatError(f"expected {key!r} line, got {line!r}")
        if count is not None and len(fields) != count:
            raise ModelFormatError(f"{key!r} line holds {len(fields)} fields, expected {count}")
        return fields

    def magic(self, expected: str) -> None:
        """Read the format line ``name version``; another version asks for a retrain."""
        name, version = expected.split(" ")
        (found,) = self.take(name, 1)
        if found != version:
            raise ModelFormatError(f"'{name} {found}' files are no longer read; retrain to write {expected!r}")

    def parse(self, read, source: str = ""):
        """``read(self)``, which must consume every line; any ValueError or
        OverflowError (a number too large for int64) it raises becomes a
        ModelFormatError naming ``source`` and the line."""
        try:
            result = read(self)
            if self.pos < len(self.lines):
                raise ModelFormatError(f"unexpected content after the end: {self.lines[self.pos]!r}")
        except (ValueError, OverflowError) as exc:
            raise ModelFormatError(f"{source}line {self.pos}: {exc}") from None
        return result


def _label(field, key: str) -> int:
    """``field`` as a label; one outside the FormatLabel values raises a
    ValueError naming ``key``, so ``train`` never fits a label that
    ``read_model`` would refuse on the line that holds it. A real that is
    not a whole number is refused too, as ``int`` would truncate it."""
    label = int(field)
    if not 0 <= label < len(FormatLabel) or label != float(field):
        raise ValueError(f"{key} label {field} is not a FormatLabel value")
    return label


def _finite(key: str, fields: list[str]) -> list[float]:
    """The reals on a ``key`` line; nan and inf are refused, as ``train`` never stores them."""
    values = [float(x) for x in fields]
    if not all(map(math.isfinite, values)):
        raise ModelFormatError(f"{key} line holds a non-finite value")
    return values


def deserialize(blob: str) -> TrainedModel:
    """Parse a serialized model; raises ModelFormatError on any damage."""
    return LineReader(blob).parse(read_model)


def read_model(reader: LineReader) -> TrainedModel:
    """Read one model, magic line through ``end``; damage raises ValueError."""
    reader.magic(_MAGIC)
    (algo_name,) = reader.take("algorithm", 1)
    algorithm = Algorithm(algo_name)
    (dim_s,) = reader.take("dim", 1)
    dim = int(dim_s)
    if dim < 1:  # with no feature, every number would get the same label
        raise ModelFormatError(f"dim must be at least 1, got {dim}")

    if algorithm == Algorithm.KNN:
        (k_s,) = reader.take("k", 1)
        k = TrainConfig(algorithm, k=int(k_s)).k
        (n_s,) = reader.take("n", 1)
        n = int(n_s)
        if n < 1:
            raise ModelFormatError(f"a knn model needs at least 1 point, got n {n}")
        # the arrays are built from the lines read, so a declared n or dim allocates nothing
        point_labels, points = [], []
        for _ in range(n):
            label, *vector = reader.take("point", 1 + dim)
            point_labels.append(_label(label, "point"))
            points.append(_finite("point", vector))
        labels = np.array(point_labels, dtype=np.int64)
        model: TrainedModel = KnnModel(dim=dim, k=k, points=np.array(points), labels=labels)
    elif algorithm == Algorithm.DecisionTree:
        (count_s,) = reader.take("nodes", 1)
        count, first = int(count_s), reader.pos
        # preorder: each node is the next child of the deepest split still
        # missing one; the explicit stack of those splits means a deep tree
        # cannot exhaust Python's recursion limit
        root: TreeNode | None = None
        open_splits: list[TreeNode] = []
        while root is None or open_splits:
            if reader.peek() == "leaf":
                (label,) = reader.take("leaf", 1)
                node = TreeNode(label=_label(label, "leaf"))
            else:
                feature, threshold = reader.take("split", 2)
                node = TreeNode(feature=int(feature), threshold=_finite("split", [threshold])[0])
                if not 0 <= node.feature < dim:
                    raise ModelFormatError(f"split feature {feature} outside 0..{dim - 1}")
            if root is None:
                root = node
            elif open_splits[-1].left is None:
                open_splits[-1].left = node
            else:
                open_splits.pop().right = node
            if not node.is_leaf:
                open_splits.append(node)
        if reader.pos - first != count:
            raise ModelFormatError(f"tree section declares {count} nodes but holds {reader.pos - first}")
        model = TreeModel(dim=dim, root=root)
    else:
        class_ids = np.array([_label(c, "class") for c in reader.take("classes")], dtype=np.int64)
        if class_ids.size == 0:
            raise ModelFormatError("classes line names no class")
        if np.any(np.diff(class_ids) <= 0):
            raise ModelFormatError("classes line is not strictly ascending")
        weights, biases = [], []
        for c in class_ids:
            weight_class, *vector = reader.take("weights", 1 + dim)
            if int(weight_class) != c:
                raise ModelFormatError(f"weights line for class {weight_class} out of order with the classes line")
            weights.append(_finite("weights", vector))
            bias_class, bias = reader.take("bias", 2)
            if int(bias_class) != c:
                raise ModelFormatError(f"bias line for class {bias_class} out of order with the classes line")
            biases += _finite("bias", [bias])
        linear = LdaModel if algorithm == Algorithm.LDA else SvmModel
        model = linear(dim=dim, class_ids=class_ids, weights=np.array(weights), biases=np.array(biases))

    reader.take("end", 0)
    return model
