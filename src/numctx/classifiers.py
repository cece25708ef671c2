"""From-scratch classifiers: numpy training and the batch predict.

The model records, their file format, the per-row ``predict`` and each
model's prediction rule live in ``models``, which imports no numpy.
``predict_batch`` is the numpy path cross-validation takes: it calls those
rules and does not restate them, so ``models.predict`` gives its label. All
four learners are deterministic functions of (X, y, config) and refuse an X
that is empty, has no columns or holds a non-finite value. KNN stores the
training data verbatim, with each point's id among the distinct rows of the
X it came from (``row_ids``). The batch predict measures each query against
the points of each id once, in one distance table per block of queries (at
most ``_KNN_CELLS`` cells; a cross-validation fold takes one to three). In a
block, each column squares its difference to every point once per value the
block's queries hold there, and ``models._squared_distance`` adds each row
to the queries that hold its value, column by column. Equal distances keep
the every-point order (lowest training index first); k=3 finds that order's
first three by a partition, not a sort. The decision tree and the SVM train
on each distinct (row, label) pair once, weighted by the number of training
rows it stands for, as CART case weights do; all these kinds of distinct row
come from ``_distinct_rows``. The tree
grows CART-style on Gini gain with midpoint thresholds, level by level,
every open node of a level scored at once from per-level class histograms
laid out bin-first over each column's own distinct values; it does not
recurse, so any depth trains (ties: lowest feature, then lowest threshold;
a majority leaf takes the lowest label). Its counts are whole numbers, so
its sums are exact and the tree is bit-identical to one grown on every row.
``train_folds`` trains one model per (training-row mask, columns) split,
and ``train`` is it with one split. For KNN it finds X's row ids once, and
each split's points keep theirs. For trees it finds the distinct (row,
label) pairs once, on the columns some row uses, and a split weights
each pair's first row of X by its rows the pair stands for; the splits'
trees grow in one level loop, one root each, in groups whose weighted rows,
summed, stay at or below the rows of X. Each split reads X in its own
columns' order, padded with zero columns to the group's width. A tree's bytes
do not depend on its group: counts are whole numbers, so every sum is exact
whatever the level holds and in any row order; a split's rows of count 0
are dropped, as they would leave a cut side empty; a padded column is
constant and offers no cut; and a class only other splits hold adds an
exact 0.0 to every Gini sum. LDA uses class means, a shrinkage-regularized
pooled covariance, and class priors; the linear SVM trains one-vs-rest
hinge-loss separators by full-batch subgradient descent with step
``1/(c_reg * t)`` at epoch ``t`` of 200.
``train_folds`` stacks consecutive splits that share a column count and a
training-row count mod 4, and every separator of the stack takes each step
together, with one gemv per (split, class) for the margins; a class a split
lacks trains in the stack and is dropped from that split's model. On
integer-valued features, the only kind the program builds, each split's
weights are those of training on its every row, one class at a time, under
every BLAS kernel; ``_svm_rows`` and the README say how the stack's rows
are laid out for that. On other real X the subgradient may differ in the
last bits. LDA and the SVM keep one linear form, per-class weights and
bias, for scoring and storage; ``train_folds`` refuses one whose training
overflows or whose weights or biases are not finite, and with it the rest
of its stack.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import groupby

import numpy as np

from .labels import FormatLabel
from .models import (
    Algorithm, KnnModel, LdaModel, LinearModel, SvmModel, TrainConfig, TrainedModel, TreeModel, TreeNode,
    _descend, _label, _linear_score, _squared_distance, _vote,
)

# splits with float-noise-level gain are treated as no gain at all
_MIN_GAIN = 1e-12
# float64 cells of one KNN distance table, which bound the queries a block
# holds: 120 KiB, under glibc's default 128 KiB mmap threshold, so a table
# comes from the heap. Above it, a process that keeps that threshold maps
# and faults in every table afresh: with 512 KiB tables, cv knn then ran 25%
# slower than the per-query loop it replaces
_KNN_CELLS = 15 * 2**10


def _as_matrix(X) -> np.ndarray:
    M = np.asarray(X, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"X must be a 2-D array of feature vectors, got ndim={M.ndim}")
    return M


def _distinct_rows(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct row of ``M`` in order of first appearance, the index
    where each first appears, and each row's index into the distinct rows.

    Rows are keyed on their bytes, so 0.0 and -0.0 stay apart; one void
    view of the whole matrix gives every row's bytes in one ``tolist``, and
    one ``dict.setdefault`` per row, mapped in C, each row's first equal
    row. np.unique (axis=0) sorts whole rows and costs 5-20x as much on a
    cross-validation fold.
    """
    C = np.ascontiguousarray(M)
    keys = C.view(np.dtype((np.void, C.itemsize * C.shape[1]))).ravel().tolist()
    first_of = np.fromiter(map({}.setdefault, keys, range(len(keys))), dtype=np.intp, count=len(keys))
    is_first = first_of == np.arange(len(keys))
    first = np.flatnonzero(is_first)
    inverse = np.cumsum(is_first, dtype=np.intp)[first_of] - 1
    return M[first], first, inverse


def row_ids(X: np.ndarray) -> np.ndarray:
    """Each row's index into the distinct rows of ``X`` in order of first
    appearance, compared on the columns some row uses: rows that differ only
    in the sign of a zero share an id."""
    used = X[:, X.any(axis=0)]
    return _distinct_rows(used)[2] if used.shape[1] else np.zeros(len(X), dtype=np.intp)


def _column_ranks(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cell's dense rank among its column's values, the (ranks ×
    columns) table of each column's values by rank, and the number of
    values each column holds. -0.0 and 0.0 share a rank, as they compare
    equal; a column's unheld top ranks read 0 in the table."""
    order, columns = np.argsort(M, axis=0, kind="stable"), np.arange(M.shape[1])
    ranked = M[order, columns]
    rank = np.zeros(M.shape, dtype=np.intp)
    np.cumsum(ranked[1:] != ranked[:-1], axis=0, out=rank[1:])
    ranks = np.empty_like(rank)
    ranks[order, columns] = rank
    values = np.zeros((int(rank[-1].max(initial=0)) + 1, M.shape[1]))
    values[rank, columns] = ranked
    return ranks, values, rank[-1] + 1


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
    return next(train_folds(M, y, [(np.ones(len(M), dtype=bool), np.arange(M.shape[1]))], cfg))


def train_folds(X, y, splits, cfg: TrainConfig) -> Iterator[TrainedModel]:
    """One model per split, in split order: for a split's (training-row mask,
    columns), the model ``train`` fits on ``X[mask][:, columns]`` and
    ``y[mask]``. Models are trained as they are asked for, a group of
    decision trees or a stack of SVMs at once and every other model on its
    own, so a caller that uses each model before asking for the next holds
    at most one group's. X as a whole must be finite.
    """
    M = _as_matrix(X)
    labels = _training_labels(y)
    splits = [(np.asarray(mask, dtype=bool), np.asarray(columns, dtype=np.intp)) for mask, columns in splits]
    for mask, columns in splits:
        if not mask.any():
            raise ValueError("training set is empty")
        if len(columns) == 0:
            raise ValueError("X has no feature columns")
    if len(M) != len(labels):
        raise ValueError(f"got {len(M)} vectors but {len(labels)} labels")
    if not np.isfinite(M).all():
        raise ValueError("X holds a non-finite value")

    if cfg.algorithm == Algorithm.DecisionTree:
        yield from _tree_folds(M, labels, splits, cfg.max_depth)
        return
    if cfg.algorithm == Algorithm.LinearSVM:
        yield from _svm_folds(M, labels, splits, cfg.c_reg)
        return
    ids = row_ids(M) if cfg.algorithm == Algorithm.KNN else None  # the KNN points' ids, found once for all splits
    for mask, columns in splits:
        yield _train_split(M[np.ix_(mask, columns)], labels[mask], cfg, None if ids is None else ids[mask])


def _train_split(M: np.ndarray, labels: np.ndarray, cfg: TrainConfig, ids: np.ndarray | None) -> TrainedModel:
    """The KNN or LDA model of one split's own matrix and labels; a KNN
    model keeps its points' ``row_ids``."""
    if cfg.algorithm == Algorithm.KNN:
        return KnnModel(dim=M.shape[1], k=cfg.k, points=M, labels=labels, point_ids=ids)
    if cfg.algorithm == Algorithm.LDA:
        [model] = _fit_linear(lambda: [_train_lda(M, labels, cfg.shrinkage)], f"shrinkage {cfg.shrinkage}")
        return model
    raise ValueError(f"unknown algorithm {cfg.algorithm!r}")


def _fit_linear(fit, setting: str) -> list[LinearModel]:
    """The models ``fit()`` trains, refused together with a ValueError naming
    ``setting`` when training overflows or leaves a weight or bias that is
    not finite, since no model file holds one. No bound on a setting alone
    prevents that: ``c_reg`` 1e-320 makes the SVM's first step 1/c_reg
    infinite."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            models = fit()
    except FloatingPointError:
        models = None
    if models is None or not all(np.isfinite(m.weights).all() and np.isfinite(m.biases).all() for m in models):
        raise ValueError(f"{setting} overflows training, and no model file holds a non-finite weight")
    return models


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
    """Each query's label, from the distance tables of ``_distance_blocks`` to
    the points of each id once, so each distance is bit-equal to ``predict``'s."""
    points = _as_matrix(model.points)
    ids = row_ids(points) if model.point_ids is None else model.point_ids
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    # each id's first point, in training order: so among equal distances the
    # first minimum is the lowest training index a stable sort would pick
    order = np.argsort(first)
    first, inverse = first[order], np.argsort(order)[inverse]
    distinct = points[first]
    labels = np.asarray(model.labels, dtype=np.int64)
    predicted = np.empty(len(M), dtype=np.int64)
    if model.k == 1:
        for rows, squared in _distance_blocks(distinct, M, len(distinct)):
            predicted[rows] = labels[first[np.argmin(np.sqrt(squared), axis=1)]]
        return predicted
    # the training rows a k-nearest search can take: each distinct point's
    # first k, in training order
    order = np.argsort(inverse, kind="stable")
    grouped = inverse[order]
    occurrence = np.empty_like(order)
    occurrence[order] = np.arange(len(order)) - np.searchsorted(grouped, grouped)
    taken = np.flatnonzero(occurrence < model.k)
    for rows, squared in _distance_blocks(distinct, M, len(taken)):
        predicted[rows] = _knn_vote(np.sqrt(squared)[:, inverse[taken]], labels[taken], model.k)
    return predicted


def _distance_blocks(distinct: np.ndarray, queries: np.ndarray, width: int) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, table) for each block of queries: the block's slice of
    ``queries`` and the squared distance of each of its queries to each
    distinct point, a (queries × points) table. A block holds the most
    queries whose tables of ``width`` columns stay within ``_KNN_CELLS``
    cells. Each column of a block squares its difference to every point
    once per value the block's queries hold there (point minus query), and
    ``_squared_distance`` adds that row to each query that holds the value.
    """
    # a column that no point and no query holds adds only +0.0
    used = np.flatnonzero(distinct.any(axis=0) | queries.any(axis=0))
    point_columns = distinct.T[used]  # (used columns, distinct points)
    step = max(1, _KNN_CELLS // width)
    for start in range(0, len(queries), step):
        block = queries[start : start + step, used]
        ranks, values, held = _column_ranks(block)
        columns = zip(point_columns, values.T[:, :, None], held.tolist(), ranks.T)
        squares = (np.square(points - value[:n]).take(rank, axis=0) for points, value, n, rank in columns)
        yield slice(start, start + step), np.broadcast_to(_squared_distance(squares), (len(block), len(distinct)))


def _knn_vote(d: np.ndarray, labels: np.ndarray, k: int) -> list[int]:
    """Each row's vote of its ``k`` nearest columns in (distance, column)
    order, the columns being training rows in training order, as a stable
    sort of each row would take them: every distance below the row's k-th
    least, then the first columns at that distance. No entry is masked, so
    none can tie with a real infinite distance."""
    k = min(k, d.shape[1])
    kth = np.partition(d, k - 1, axis=1)[:, k - 1, None]
    below = d < kth
    # a nan query is nan from every point, and takes its first k columns
    at = (d == kth) | (kth != kth)
    chosen = below | (at & (np.cumsum(at, axis=1) <= k - np.count_nonzero(below, axis=1)[:, None]))
    columns = np.nonzero(chosen)[1].reshape(len(d), k)
    nearest = np.take_along_axis(d, columns, axis=1)
    ranked = np.argsort(nearest, axis=1, kind="stable")  # columns ascend, so equal distances keep column order
    columns = np.take_along_axis(columns, ranked, axis=1)
    near = zip(np.take_along_axis(nearest, ranked, axis=1).tolist(), labels[columns].tolist())
    return [_vote(zip(distances, near_labels)) for distances, near_labels in near]


# --- decision tree -------------------------------------------------------


def _best_cuts(
    H: np.ndarray, hist: np.ndarray, is_open: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(node, feature, lower value, upper value) of the best cut of each open
    node whose gain is above ``_MIN_GAIN``.

    ``H[b, c, node, f]`` counts the node's rows of class ``c`` whose column
    ``f`` holds ``values[b, f]``, and is summed over bins in place; ``hist``
    holds each node's class counts. A cut is a candidate after each bin of a
    node's column that holds a row when a later bin holds another, so each
    side keeps a row and an empty bin is never a cut. Gini sums run over the
    classes of every tree the level grows, in ascending order (a class absent
    from a node adds an exact 0.0). A node takes the first maximum gain in
    (feature, value) order: the lowest feature, then the lowest threshold.
    """
    node, feat, held = np.nonzero(H.any(axis=1).transpose(1, 2, 0))  # held bins, in (node, feature, value) order
    cut = np.flatnonzero((node[1:] == node[:-1]) & (feat[1:] == feat[:-1]) & is_open[node[:-1]])
    node, feat, lower, upper = node[cut], feat[cut], held[cut], held[cut + 1]
    for b in range(1, len(H)):  # one add over contiguous planes; whole counts, so exact
        H[b] += H[b - 1]
    left = H[lower, :, node, feat]  # (candidates, n_classes)
    total = hist.sum(axis=1)
    n, n_left = total[node], left.sum(axis=1)
    n_right = n - n_left
    parent = 1.0 - ((hist / total[:, None]) ** 2).sum(axis=1)
    gini_left = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - (((hist[node] - left) / n_right[:, None]) ** 2).sum(axis=1)
    child = (n_left * gini_left + n_right * gini_right) / n
    gain = parent[node] - child
    ranked = np.lexsort((-gain, node))  # stable: by node, then falling gain, then (feature, value)
    ranked_node = node[ranked]
    best = ranked[np.searchsorted(ranked_node, ranked_node) == np.arange(len(ranked))]  # each node's first
    best = best[gain[best] > _MIN_GAIN]
    return node[best], feat[best], values[lower[best], feat[best]], values[upper[best], feat[best]]


def _tree_folds(M: np.ndarray, labels: np.ndarray, splits: list, max_depth: int) -> Iterator[TreeModel]:
    """Each split's tree, grown in groups of splits that share one level loop.

    The distinct (row, label) pairs are found once, on the columns some row
    uses; a split weights each pair's first row of ``M`` by its training rows
    the pair stands for, every other row by 0. A group takes splits in order
    while its rows of nonzero weight, summed, stay at or below ``len(M)``,
    which also bounds the nodes, and so the histogram, of a level. Three dt
    compares of perfbench's seed-29 cv corpus, in one process, peak at 37.9
    MB RSS, at 42.6 MB keyed on every column and at 47.0 MB with no group
    budget (which runs about 5% faster).
    """
    used = np.flatnonzero(M.any(axis=0))
    _, first, inverse = _distinct_rows(np.column_stack([M[:, used], labels]))
    first_of = first[inverse]  # each row's pair's first row
    group: list[tuple[np.ndarray, np.ndarray]] = []
    rows = 0
    for mask, columns in splits:
        counts = np.bincount(first_of[mask], minlength=len(M))
        n = np.count_nonzero(counts)  # at most the split's rows, so a split alone always fits
        if rows + n > len(M):
            yield from _grow_group(M, labels, group, max_depth)
            group, rows = [], 0
        group.append((counts, columns))
        rows += n
    if group:
        yield from _grow_group(M, labels, group, max_depth)


def _grow_group(M: np.ndarray, labels: np.ndarray, group: list, max_depth: int) -> list[TreeModel]:
    """The trees of a group of (counts, columns) splits of the rows of ``M``,
    in one matrix: each split's rows of nonzero count (a row of count 0 would
    leave a cut side empty and its gain nan), read from ``M`` in its own
    column order and padded with zero columns to the widest split's width.
    """
    kept = [np.flatnonzero(counts) for counts, _ in group]
    stacked = np.zeros((sum(map(len, kept)), max(len(columns) for _, columns in group)))
    start = 0
    for rows, (_, columns) in zip(kept, group):
        stacked[start : start + len(rows), : len(columns)] = M[np.ix_(rows, columns)]
        start += len(rows)
    return _train_trees(
        stacked,
        labels[np.concatenate(kept)],
        np.concatenate([counts[rows] for rows, (counts, _) in zip(kept, group)]),
        np.repeat(np.arange(len(group)), list(map(len, kept))),
        [len(columns) for _, columns in group],
        max_depth,
    )


def _train_trees(
    M: np.ndarray, labels: np.ndarray, counts: np.ndarray, root_of: np.ndarray, dims: list[int], max_depth: int
) -> list[TreeModel]:
    """One tree per root, grown breadth-first in one level loop: row ``i``
    stands for ``counts[i]`` equal rows of root ``root_of[i]``'s tree, whose
    features are the first ``dims[root]`` columns of ``M``. Splits come from
    per-level class histograms over each column's exact values: each column
    of ``M`` is binned once by its own distinct values (``_column_ranks``),
    and at each level one weighted count per (bin, class, node, column) lets
    ``_best_cuts`` score every node of the level at once. A level's histogram
    holds (bins × classes × nodes × columns) cells, where the bins are the
    most distinct values one column holds: few on the whole-numbered
    matrices the program builds, the rows at most on real-valued X. A node
    with one class, at ``max_depth`` (0 sets no limit) or without a cut is a
    leaf. Training does not recurse.
    """
    classes, y = np.unique(labels, return_inverse=True)
    d = M.shape[1]
    bins, values, _ = _column_ranks(M)
    roots = [TreeNode() for _ in dims]
    rows, nid = np.arange(len(M)), root_of.astype(np.intp)  # the rows not in a leaf, and each one's node
    level, depth = roots, 0
    while level:
        # each row counts once in each column, in its (bin, class, node, column) cell
        cells = ((bins[rows] * len(classes) + y[rows, None]) * len(level) + nid[:, None]) * d + np.arange(d)
        H = np.bincount(cells.ravel(), np.repeat(counts[rows], d), len(values) * len(classes) * len(level) * d)
        H = H.reshape(len(values), len(classes), len(level), d)
        hist = H[..., 0].sum(axis=0).T  # each node's class counts: a row holds one bin of column 0
        is_open = (np.count_nonzero(hist, axis=1) > 1) & (max_depth == 0 or depth < max_depth)
        split, feature, lower, upper = _best_cuts(H, hist, is_open, values)

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
        nid = np.where(split_of[nid] < 0, -1, split_of[nid] + goes_right)
        rows, nid = rows[nid >= 0], nid[nid >= 0]
        level, depth = next_level, depth + 1
    return [TreeModel(dim=dim, root=root) for dim, root in zip(dims, roots)]


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


def _svm_folds(M: np.ndarray, labels: np.ndarray, splits: list, c_reg: float, epochs: int = 200) -> Iterator[SvmModel]:
    """Each split's SVM, trained in stacks of consecutive splits that share
    a column count, a training-row count mod 4 and whether that count is 1
    (numpy takes a one-row product as a dot, which sums in another order
    than gemv). A stack's models are refused together when training overflows.
    """

    def stack_key(split):
        mask, columns = split
        rows = np.count_nonzero(mask)
        return len(columns), rows % 4, rows == 1

    for _, stack in groupby(splits, stack_key):
        group = [(np.flatnonzero(mask), columns) for mask, columns in stack]
        yield from _fit_linear(lambda: _train_svms(M, labels, group, c_reg, epochs), f"c_reg {c_reg}")


def _svm_rows(
    M: np.ndarray, labels: np.ndarray, rows: np.ndarray, columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``M`` a split's part of the stack holds, in order, and the
    number of the split's training rows each stands for, laid out so that
    gemv sums each row's margin as it sums those of the rows it stands for.

    gemv sums a matrix's last (rows mod 4) rows in another order than the
    rows before them, and each row before them in the same order wherever
    it sits. So only the training rows before the last (rows mod 4) are
    merged into distinct (row, label) pairs; the last rows follow, each on
    its own. In the stack, zero rows of count 0 pad every split's distinct
    pairs to the widest split's, rounded up to a multiple of 4, and each
    split's last rows come last, so every row keeps its gemv place.
    """
    body = rows[: len(rows) - len(rows) % 4]
    _, first, inverse = _distinct_rows(np.column_stack([M[np.ix_(body, columns)], labels[body]]))
    counts = np.append(np.bincount(inverse), np.ones(len(rows) - len(body), np.int64))
    return np.append(body[first], rows[len(body) :]), counts


def _train_svms(M: np.ndarray, labels: np.ndarray, group: list, c_reg: float, epochs: int) -> list[SvmModel]:
    """One-vs-rest separators for each (training rows, columns) split of a
    group, every split taking each step together in one stack.

    Each split's classes' weights and bias are rows of ``wb[split]``, over
    the union of the group's classes: a one-vs-rest row updates on its own,
    so a class a split lacks trains beside the others and is dropped from
    its model. One stacked matrix-vector product gives every margin: numpy's
    matmul makes, per (split, class), the gemv call ``np.dot(M, w)`` makes,
    so each margin keeps that call's bits, where a gemm would sum it in its
    kernel's blocking order. One product with ``[M | 1]`` gives the
    subgradient and the bias sum, exact on integer-valued features. Each
    element takes the per-class update's operations in their order,
    ``wb - eta * (decay * wb - grad / n)``: the decay row's 0 leaves the
    bias unregularized, and as a bias is never -0.0, its ``0 * b - s / n``
    is the per-class ``-s / n``.
    """
    layouts = [_svm_rows(M, labels, rows, columns) for rows, columns in group]
    dim, tail = len(group[0][1]), len(group[0][0]) % 4
    width = max(len(picked) for picked, _ in layouts) - tail
    width += -width % 4
    height = width + tail
    # the stack's one copy of the rows, filled one split at a time; a padding
    # row takes no class, and with its count of 0 pulls nothing
    with_ones = np.zeros((len(group), height, dim + 1))
    with_ones[..., dim] = 1.0
    row_labels, counts = np.full((len(group), height), -1), np.zeros((len(group), height), np.int64)
    for split, ((picked, picked_counts), (_, columns)) in enumerate(zip(layouts, group)):
        at = np.r_[: len(picked) - tail, width:height]
        with_ones[split, at, :dim] = M[np.ix_(picked, columns)]
        row_labels[split, at], counts[split, at] = labels[picked], picked_counts
    split_classes = [np.unique(labels[rows], return_inverse=True)[0] for rows, _ in group]  # the flag: see _train_lda
    class_ids = np.unique(np.concatenate(split_classes), return_inverse=True)[0]
    targets = np.where(row_labels[:, None] == class_ids[:, None], 1.0, -1.0)  # (splits, classes, height)
    # a violating row pulls its class's separator toward its own side, once
    # for each training row it stands for
    pulls = targets * counts[:, None]
    n = np.array([len(rows) for rows, _ in group])[:, None, None]
    decay = np.append(np.full(dim, c_reg), 0.0)
    wb = np.zeros((len(group), len(class_ids), dim + 1))
    stacked, weights, biases = with_ones[:, None, :, :dim], wb[..., :dim, None], wb[..., dim:]  # views
    outputs = np.empty((*targets.shape, 1))
    margins, violating = outputs[..., 0], np.empty(targets.shape, dtype=bool)
    step, grad = np.empty_like(wb), np.empty_like(wb)
    for t in range(1, epochs + 1):
        eta = 1.0 / (c_reg * t)
        np.matmul(stacked, weights, out=outputs)
        np.add(margins, biases, out=margins)
        np.multiply(targets, margins, out=margins)
        np.less(margins, 1.0, out=violating)
        # each row's pull, in the margins' place; a row that does not violate
        # pulls by a signed zero, and a zero's sign never reaches wb
        np.multiply(pulls, violating, out=margins)
        np.matmul(margins, with_ones, out=grad)
        np.divide(grad, n, out=grad)
        np.multiply(decay, wb, out=step)
        np.subtract(step, grad, out=step)
        np.multiply(step, eta, out=step)
        np.subtract(wb, step, out=wb)
    models = []
    for split_wb, ids in zip(wb, split_classes):
        kept = split_wb[np.searchsorted(class_ids, ids)]  # a copy, without the classes the split lacks
        models.append(SvmModel(dim=dim, class_ids=ids.astype(np.int64), weights=kept[:, :dim], biases=kept[:, dim]))
    return models
