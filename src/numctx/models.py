"""Model records, their file format and the per-row predict; no numpy.

``classifiers.train`` fills a model with numpy arrays and ``read_model``
with plain lists and tuples, so loading a model file and classifying with
it never imports numpy. Each model's prediction rule is written here once
(``_descend``, ``_vote``, ``_linear_score``, ``_squared_distance``), and
``classifiers.predict_batch`` calls the same functions on numpy rows, so
``predict`` on a row's nonzero (column, value) pairs gives the batch's label.
KNN adds squared differences in ascending column order over the union of
the two rows' nonzero columns; a column both hold as 0 would add +0.0, so
the batch, which adds every column some point or query holds, gets the same
distance bit for bit on any real X. Models serialize to a versioned
line-oriented text format with reals rendered to 17 significant digits, so
a round-trip is prediction-exact; a stored real that is nan or infinite, or
a ``dim`` below 1, is refused on load.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections.abc import Mapping, Sequence
from enum import Enum
from typing import NamedTuple

from .labels import LABELS, FormatLabel

_MAGIC = "numctx-model v2"


class Algorithm(str, Enum):
    KNN = "knn"
    DecisionTree = "dt"
    LDA = "lda"
    LinearSVM = "svm"


class ModelFormatError(ValueError):
    """Raised when a serialized model blob cannot be parsed."""


class _TrainFields(NamedTuple):
    algorithm: Algorithm
    k: int = 1
    max_depth: int = 16  # 0 = unlimited
    shrinkage: float = 1e-4
    c_reg: float = 1.0


class TrainConfig(_TrainFields):
    """The settings that select a model, checked however a config is built:
    namedtuple's ``_make``, which ``_replace`` calls, would skip ``__new__``."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.algorithm == Algorithm.KNN and self.k not in (1, 3):
            raise ValueError(f"k must be 1 or 3, got {self.k}")
        if self.max_depth is None or self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0 (0 = unlimited), got {self.max_depth}")
        # negated range tests, so nan fails them too. A finite value can still
        # overflow training (c_reg 1e-320 makes the SVM's step infinite),
        # which train refuses
        if not 0 <= self.shrinkage < math.inf:
            raise ValueError(f"shrinkage must be finite and >= 0, got {self.shrinkage}")
        if not 0 < self.c_reg < math.inf:
            raise ValueError(f"c_reg must be finite and > 0, got {self.c_reg}")
        return self


class KnnModel:
    """The training points and their labels, verbatim and in training order.
    ``read_model`` gives equal points one shared tuple, so a loaded model
    holds each distinct point once. Training also keeps each point's row id
    (``classifiers.row_ids``), which a loaded model finds when it predicts."""

    algorithm = Algorithm.KNN

    def __init__(self, dim: int, k: int, points: Sequence[Sequence[float]], labels: Sequence[int], point_ids=None):
        self.dim, self.k, self.points, self.labels, self.point_ids = dim, k, points, labels, point_ids

    @functools.cached_property
    def neighbours(self) -> list[tuple[dict[int, float], list[tuple[int, int]]]]:
        """Each distinct point once, in order of first appearance: its
        nonzero columns, and the (training index, label) of its first ``k``
        occurrences, the most a k-nearest search can take from it. Points
        equal as numbers are one point here (0.0 and -0.0 alike), as any
        query is equally far from both."""
        found: dict[tuple, tuple[dict[int, float], list[tuple[int, int]]]] = {}
        for index, (point, label) in enumerate(zip(self.points, self.labels)):
            key = tuple(point)
            if key not in found:
                found[key] = ({column: value for column, value in enumerate(key) if value}, [])
            if len(found[key][1]) < self.k:
                found[key][1].append((index, int(label)))
        return list(found.values())


class TreeNode:
    """Internal split (feature, threshold, children) or leaf (label)."""

    __slots__ = ("feature", "threshold", "left", "right", "label")

    def __init__(self, feature: int | None = None, threshold: float | None = None,
                 left: TreeNode | None = None, right: TreeNode | None = None, label: int | None = None):
        self.feature, self.threshold, self.left, self.right, self.label = feature, threshold, left, right, label

    @property
    def is_leaf(self) -> bool:
        return self.label is not None


class TreeModel:
    algorithm = Algorithm.DecisionTree

    def __init__(self, dim: int, root: TreeNode):
        self.dim, self.root = dim, root


class LinearModel:
    """Per-class linear scores; the highest score wins. ``class_ids`` ascend,
    ``weights`` is (n_classes, dim) and ``biases`` (n_classes,)."""

    def __init__(self, dim: int, class_ids: Sequence[int], weights: Sequence[Sequence[float]], biases: Sequence[float]):
        self.dim, self.class_ids, self.weights, self.biases = dim, class_ids, weights, biases


class LdaModel(LinearModel):
    algorithm = Algorithm.LDA


class SvmModel(LinearModel):
    algorithm = Algorithm.LinearSVM


TrainedModel = KnnModel | TreeModel | LdaModel | SvmModel


def predict(model: TrainedModel, row: Mapping[int, float]) -> FormatLabel:
    """Classify one feature row, given as its nonzero columns and their
    values in ascending column order; an absent column reads 0.0."""
    if isinstance(model, TreeModel):
        return LABELS[_descend(model.root, lambda feature: row.get(feature, 0.0))]
    if isinstance(model, KnnModel):
        scored = []  # (distance, training index, label) of every point the search may take
        for point, first in model.neighbours:
            # the ascending union of the two rows' nonzero columns
            columns = sorted(point.keys() | row.keys())
            differences = (point.get(c, 0.0) - row.get(c, 0.0) for c in columns)
            distance = math.sqrt(_squared_distance(d * d for d in differences))
            for index, label in first:
                scored.append((distance, index, label))
        return LABELS[_vote((distance, label) for distance, _, label in heapq.nsmallest(model.k, scored))]
    pairs = tuple(row.items())
    scores = [_linear_score(weights, bias, pairs) for weights, bias in zip(model.weights, model.biases)]
    # the first maximum: class_ids ascend, so a tie goes to the lowest label
    return LABELS[model.class_ids[scores.index(max(scores))]]


def _descend(node: TreeNode, value) -> int:
    """The label of the leaf a row reaches, going left where ``value(feature)``
    is at most the split's threshold."""
    while node.label is None:
        node = node.left if value(node.feature) <= node.threshold else node.right
    return node.label


def _vote(nearest) -> int:
    """The vote of (distance, label) pairs, nearest first: most votes, then the
    least distance summed in neighbour order, then the lowest label."""
    votes: dict[int, int] = {}
    summed: dict[int, float] = {}
    for distance, label in nearest:
        votes[label] = votes.get(label, 0) + 1
        summed[label] = summed.get(label, 0.0) + distance
    return min(votes, key=lambda label: (-votes[label], summed[label], label))


def _squared_distance(squares):
    """0.0 plus each column's square ``d * d``, ``d`` being point minus
    query, in ascending column order. A square may be a numpy array, one
    step for many (query, point) pairs: the batch squares each (value, point)
    difference once and gives that row to every query holding the value, as
    equal ``d`` square alike, and so do 0.0 and -0.0. A column both rows
    hold as 0 adds +0.0, which leaves the sum unchanged, so it may be left
    out."""
    squared = 0.0
    for s in squares:
        squared += s
    return squared


def _linear_score(weights, bias, pairs):
    """0.0 plus ``weights[column] * value`` for each pair in column order, then
    plus ``bias``; a value may be a numpy column, one step for many rows."""
    score = 0.0
    for column, value in pairs:
        score += weights[column] * value
    return score + bias


# --- serialization -------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vec(v: Sequence[float]) -> str:
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
        # the lists grow with the lines read, so a declared n or dim allocates
        # nothing; equal point lines share one tuple
        point_labels, points = [], []
        shared: dict[tuple[str, ...], tuple[float, ...]] = {}
        for _ in range(n):
            label, *vector = reader.take("point", 1 + dim)
            point_labels.append(_label(label, "point"))
            key = tuple(vector)
            if key not in shared:
                shared[key] = tuple(_finite("point", vector))
            points.append(shared[key])
        model: TrainedModel = KnnModel(dim=dim, k=k, points=points, labels=point_labels)
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
        class_ids = [_label(c, "class") for c in reader.take("classes")]
        if not class_ids:
            raise ModelFormatError("classes line names no class")
        if any(b <= a for a, b in zip(class_ids, class_ids[1:])):
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
        model = linear(dim=dim, class_ids=class_ids, weights=weights, biases=biases)

    reader.take("end", 0)
    return model
