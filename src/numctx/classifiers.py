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
separators taking each step together. Each class's margins are its own
matrix-vector product, and the weighted, summed subgradient is exact on
integer-valued features, the only kind the program builds, so the weights
are bit-identical to training on every row, one class at a time; on other
real X that sum may differ in the last bits. LDA and the SVM keep one
linear form, per-class weights and bias, for scoring and storage. Models
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
        if self.shrinkage < 0:
            raise ValueError(f"shrinkage must be >= 0, got {self.shrinkage}")
        if self.c_reg <= 0:
            raise ValueError(f"c_reg must be > 0, got {self.c_reg}")
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

    Rows are keyed on their bytes, so 0.0 and -0.0 stay apart; np.unique
    (axis=0) sorts whole rows and costs 5-20x as much on a
    cross-validation fold.
    """
    slots: dict[bytes, int] = {}
    inverse = np.array([slots.setdefault(row.tobytes(), len(slots)) for row in M], dtype=np.intp)
    first = np.unique(inverse, return_index=True)[1]
    return M[first], first, inverse


def _check_dim(model: TrainedModel, width: int) -> None:
    if width != model.dim:
        raise ValueError(f"feature dimension {width} does not match model dimension {model.dim}")


def train(X, y, cfg: TrainConfig) -> TrainedModel:
    """Fit the configured algorithm on (X, y); deterministic given cfg."""
    M = _as_matrix(X)
    labels = np.asarray([int(v) for v in y], dtype=np.int64)
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
        return _train_lda(M, labels, cfg.shrinkage)
    # the tree and the SVM see each distinct (row, label) pair once, weighted
    # by its count; the row's float bits are the key, so no label past 2**53
    # is rounded into another
    _, first, inverse = _distinct_rows(np.column_stack([M.view(np.int64), labels]))
    counts = np.bincount(inverse)
    if cfg.algorithm == Algorithm.DecisionTree:
        return _train_tree(M[first], labels[first], counts, cfg.max_depth, cfg.min_leaf)
    if cfg.algorithm == Algorithm.LinearSVM:
        return _train_svm(M[first], labels[first], counts, cfg.c_reg, cfg.epochs)
    raise ValueError(f"unknown algorithm {cfg.algorithm!r}")


def predict(model: TrainedModel, x) -> FormatLabel:
    """Classify a single feature vector."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"x must be a 1-D vector, got ndim={v.ndim}")
    _check_dim(model, v.shape[0])
    return FormatLabel(int(predict_batch(model, v.reshape(1, -1))[0]))


def predict_batch(model: TrainedModel, X) -> np.ndarray:
    """Classify many vectors at once; returns an int64 array of label values."""
    M = _as_matrix(X)
    _check_dim(model, M.shape[1])
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
    class_ids = np.unique(labels)
    if len(class_ids) < 2:
        raise ValueError("LDA requires at least 2 classes in the training data")
    n, dim = M.shape
    means = np.vstack([M[labels == c].mean(axis=0) for c in class_ids])
    centered = M - means[np.searchsorted(class_ids, labels)]
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
    log_priors = np.log(np.array([(labels == c).sum() for c in class_ids], dtype=np.float64) / n)
    # the discriminant is linear in x: keep only its weights and bias
    coef = means @ inv_covariance  # (n_classes, dim)
    intercept = -0.5 * np.einsum("ij,ij->i", coef, means) + log_priors
    return LdaModel(dim=dim, class_ids=class_ids.astype(np.int64), weights=coef, biases=intercept)


# --- linear SVM ----------------------------------------------------------


def _train_svm(M: np.ndarray, labels: np.ndarray, counts: np.ndarray, c_reg: float, epochs: int) -> SvmModel:
    class_ids = np.unique(labels)
    rows, dim = M.shape
    n = int(counts.sum())
    targets = np.where(labels == class_ids[:, None], 1.0, -1.0)  # (n_classes, rows)
    # a violating row pulls its class's separator toward its own side, once
    # for each training row it stands for
    pulls = targets * counts
    weights = np.zeros((len(class_ids), dim))
    biases = np.zeros(len(class_ids))
    outputs = np.empty((len(class_ids), rows))
    for t in range(1, epochs + 1):
        eta = 1.0 / (c_reg * t)
        for row in range(len(class_ids)):
            np.dot(M, weights[row], out=outputs[row])
        pull = np.where(targets * (outputs + biases[:, None]) < 1.0, pulls, 0.0)
        weights = weights - eta * (c_reg * weights - (pull @ M) / n)
        biases = biases - eta * (-pull.sum(axis=1) / n)
    return SvmModel(dim=dim, class_ids=class_ids.astype(np.int64), weights=weights, biases=biases)


# --- serialization -------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vec(v: np.ndarray) -> str:
    return " ".join(_fmt(x) for x in v)


def serialize(model: TrainedModel) -> str:
    """Render a model as a versioned, platform-independent text blob."""
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


def _label(field: str, key: str) -> int:
    """The label on a ``key`` line; one ``serialize`` never writes is refused at that line."""
    label = int(field)
    if not 0 <= label < len(FormatLabel):
        raise ModelFormatError(f"{key} label {label} is not a FormatLabel value")
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
