"""Timing spans around the program's module attributes, installed from outside.

The program is not edited: ``install`` replaces the module attributes the
program looks up at call time (``numctx.cli.tokenize``,
``numctx.evaluation.train``, ...) with wrappers that record one span per
call, and ``uninstall`` puts the originals back. Spans stay in memory while
an operation runs and are written out with ``dump`` after it.
"""

from __future__ import annotations

import importlib
import time

_ALGOS = {"TreeModel": "dt", "KnnModel": "knn", "LdaModel": "lda", "SvmModel": "svm"}


def _model_algo(model) -> str:
    return _ALGOS.get(type(model).__name__, type(model).__name__.lower())


def _predict_name(model, *_args, **_kwargs) -> str:
    return f"classifiers.predict.{_model_algo(model)}"


def _predict_batch_name(model, *_args, **_kwargs) -> str:
    return f"classifiers.predict_batch.{_model_algo(model)}"


def _train_name(_X, _y, cfg, *_args, **_kwargs) -> str:
    return f"classifiers.train.{cfg.algorithm.value}"


def _rows(_model, X, *_args, **_kwargs) -> int:
    return len(X)


# (module, attribute the program calls through, span name or a function of
# the call's arguments giving it, function of the arguments giving the rows
# of work or None). Several attributes may name one layer: the CLI and
# context_features each hold their own reference to the locator functions.
TARGETS = (
    ("numctx.cli", "tokenize", "locator.tokenize", None),
    ("numctx.cli", "locate_numbers", "locator.locate_numbers", None),
    ("numctx.cli", "shape_of", "locator.shape_of", None),
    ("numctx.cli", "predict", _predict_name, None),
    ("numctx.cli", "verbalize", "verbalizer.verbalize", None),
    ("numctx.cli", "load_pipeline", "cli.load_pipeline", None),
    ("numctx.cli", "deserialize", "classifiers.deserialize", None),
    ("numctx.cli", "train", _train_name, None),
    ("numctx.cli", "load_corpus", "corpus.load_corpus", None),
    ("numctx.cli", "scan_corpus", "corpus.scan_corpus", None),
    ("numctx.context_features", "tokenize", "locator.tokenize", None),
    ("numctx.context_features", "locate_numbers", "locator.locate_numbers", None),
    ("numctx.context_features", "shape_of", "locator.shape_of", None),
    ("numctx.context_features", "window_for_token", "context_features.window_for_token", None),
    ("numctx.context_features", "encode", "context_features.encode", None),
    ("numctx.context_features", "encode_at", "context_features.encode_at", None),
    ("numctx.context_features", "token_at", "context_features.token_at", None),
    ("numctx.context_features", "load_lexicon", "context_features.load_lexicon", None),
    ("numctx.corpus", "scan_corpus", "corpus.scan_corpus", None),
    ("numctx.bow_features", "build_vocab", "bow_features.build_vocab", None),
    ("numctx.bow_features", "bow_encode", "bow_features.bow_encode", None),
    ("numctx.evaluation", "cross_validate", "evaluation.cross_validate", None),
    ("numctx.evaluation", "stratified_folds", "corpus.stratified_folds", None),
    ("numctx.evaluation", "train", _train_name, None),
    ("numctx.evaluation", "predict_batch", _predict_batch_name, _rows),
)


class _Folds(list):
    """The fold list ``stratified_folds`` returned; iterating it marks each
    fold as the current request, so spans carry their fold index."""

    def __init__(self, folds, tracer: "Tracer"):
        super().__init__(folds)
        self._tracer = tracer

    def __iter__(self):
        for index, fold in enumerate(super().__iter__()):
            self._tracer.request = index
            yield fold


class Tracer:
    """Spans of one process: ``[name, start_ns, end_ns, parent, request,
    rows, error]``, where ``parent`` indexes the enclosing span (-1 for a
    root) and ``error`` names the exception a call raised, if any."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name, fn, args=(), kwargs=None, rows=None):
        kwargs = kwargs or {}
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.request, rows, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            record[6] = type(exc).__name__
            raise
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, fn, rows_of):
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            rows = rows_of(*args, **kwargs) if rows_of else None
            return self.span(label, fn, args, kwargs, rows)

        return traced

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target; return the ``module.attribute`` names that no
        longer exist, which are reported as unmeasured."""
        unmeasured = []
        for module_name, attr, name, rows_of in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                unmeasured.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                unmeasured.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(name, original, rows_of)
            if attr == "stratified_folds":
                wrapped = self._wrap_folds(wrapped)
            setattr(module, attr, wrapped)
            self._restore.append((module, attr, original))
        return unmeasured

    def _wrap_folds(self, fn):
        def traced(*args, **kwargs):
            self.request = None
            return _Folds(fn(*args, **kwargs), self)

        return traced

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def dump(self, path, op: int) -> None:
        """Append this tracer's spans, tagged with operation ``op``, to the
        tab-separated span file at ``path`` and forget them."""
        with open(path, "a", encoding="utf-8") as fh:
            for index, (name, start, end, parent, request, rows, error) in enumerate(self.spans):
                fields = (op, index, parent, name, start, end, request, rows, error)
                fh.write("\t".join("-" if f is None else str(f) for f in fields) + "\n")
        self.spans.clear()
        self.request = None
