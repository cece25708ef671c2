"""From-scratch classifiers: numpy training and the batch predict.

The model records, their file format, the per-row ``predict`` and each
model's prediction rule live in ``models``, which imports no numpy.
``predict_batch`` is the numpy path cross-validation takes: it calls those
rules and does not restate them, so ``models.predict`` gives its label. All
four learners are deterministic functions of (X, y, config) and refuse an X
that is empty, has no columns or holds a non-finite value. KNN stores the
training data verbatim and ``predict_batch`` measures each distinct training
point once per query, keeping the every-point order on equal distances
(lowest training index first). The decision
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
subgradient descent with step ``1/(c_reg * t)`` at epoch ``t`` of 200, all
separators taking each step together, with one stacked gemv per epoch for
every class's margins. On integer-valued features, the only kind the
program builds, its weights are those of training on every row, one class
at a time, under every BLAS kernel; ``_svm_rows`` and the README say how
its rows are laid out for that. On other real X the subgradient may differ
in the last bits. LDA and the SVM keep one linear form, per-class
weights and bias, for scoring and storage; ``train`` refuses one whose
training overflows or whose weights or biases are not finite.
"""

from __future__ import annotations

import numpy as np

from .labels import FormatLabel
from .models import (
    Algorithm, KnnModel, LdaModel, LinearModel, SvmModel, TrainConfig, TrainedModel, TreeModel, TreeNode,
    _descend, _label, _linear_score, _vote,
)

# splits with float-noise-level gain are treated as no gain at all
_MIN_GAIN = 1e-12


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
        return _train_tree(M[first], labels[first], np.bincount(inverse), cfg.max_depth)
    if cfg.algorithm == Algorithm.LinearSVM:
        return _fit_linear(lambda: _train_svm(*_svm_rows(M, labels), cfg.c_reg), f"c_reg {cfg.c_reg}")
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


def predict_batch(model: TrainedModel, X) -> np.ndarray:
    """Classify many vectors at once; returns an int64 array of label values."""
    M = _as_matrix(X)
    if M.shape[1] != model.dim:
        raise ValueError(f"feature dimension {M.shape[1]} does not match model dimension {model.dim}")
    if isinstance(model, KnnModel):
        return _knn_predict_batch(model, M)
    if isinstance(model, TreeModel):
        return np.array([_descend(model.root, row.__getitem__) for row in M.tolist()], dtype=np.int64)
    # a column no row uses adds only zeros; with none, every row scores as the biases
    used = np.flatnonzero(M.any(axis=0)).tolist()
    scores = _linear_score(np.asarray(model.weights).T, np.asarray(model.biases), [(j, M[:, j, None]) for j in used])
    scores = np.broadcast_to(scores, (len(M), len(model.class_ids)))
    # argmax takes the first maximum; class_ids ascend, so ties resolve to
    # the lowest label value
    return np.asarray(model.class_ids, dtype=np.int64)[np.argmax(scores, axis=1)]


# --- KNN ---------------------------------------------------------------


def _knn_predict_batch(model: KnnModel, M: np.ndarray) -> np.ndarray:
    distinct, first, inverse = _distinct_rows(_as_matrix(model.points))
    labels = np.asarray(model.labels, dtype=np.int64)
    predicted = np.empty(len(M), dtype=np.int64)
    for i, x in enumerate(M):
        # each distinct point is measured once, by the per-row expression a
        # scan over every point uses, so each distance is bit-equal to that scan's
        d_distinct = np.sqrt(((distinct - x) ** 2).sum(axis=1))
        if model.k == 1:
            # distinct points are in first-appearance order, so the first
            # minimum is the lowest training index the stable sort would pick
            predicted[i] = labels[first[np.argmin(d_distinct)]]
            continue
        d = d_distinct[inverse]
        # stable sort: equal distances resolve to the lower training index
        nearest = np.argsort(d, kind="stable")[: model.k]
        predicted[i] = _vote(zip(d[nearest].tolist(), labels[nearest].tolist()))
    return predicted


# --- decision tree -------------------------------------------------------


def _best_cuts(
    M: np.ndarray, order: np.ndarray, nid: np.ndarray, hist: np.ndarray, is_open: np.ndarray, y: np.ndarray,
    counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(node, feature, lower value, upper value) of the best cut of each open
    node whose gain is above ``_MIN_GAIN``.

    ``order[f]`` holds column ``f``'s active rows grouped by node, each
    node's in value order; ``nid`` is the node at each position, ``hist``
    each node's class counts. A cut is a candidate where the next row is in
    the same node and holds another value, so each side keeps a row. Gini
    sums run over the training set's classes in ascending order (an absent
    class adds an exact 0.0). A node takes the first maximum gain in
    (feature, position) order: the lowest feature, then the lowest threshold.
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
    gain = parent[node] - child
    ranked = np.lexsort((-gain, node))  # stable: by node, then falling gain, then (feature, position)
    ranked_node = node[ranked]
    best = ranked[np.searchsorted(ranked_node, ranked_node) == np.arange(len(ranked))]  # each node's first
    best = best[gain[best] > _MIN_GAIN]
    return node[best], feat[best], vals[feat[best], pos[best]], vals[feat[best], pos[best] + 1]


def _train_tree(M: np.ndarray, labels: np.ndarray, counts: np.ndarray, max_depth: int) -> TreeModel:
    """The tree grown breadth-first, row ``i`` standing for ``counts[i]``
    equal rows: each column is argsorted once, stably, and at each level its
    active rows are stably sorted by node, so ``_best_cuts`` scores every
    node of the level at once. A node with one class, at ``max_depth`` (0
    sets no limit) or without a cut is a leaf. Training does not recurse.
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
        is_open = (np.count_nonzero(hist, axis=1) > 1) & (max_depth == 0 or depth < max_depth)
        split, feature, lower, upper = _best_cuts(M, order, nid, hist, is_open, y, counts)

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


def _train_svm(M: np.ndarray, labels: np.ndarray, counts: np.ndarray, c_reg: float, epochs: int = 200) -> SvmModel:
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
