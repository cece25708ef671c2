"""One trained pipeline: the lexicon, a fitted feature extractor, a model.

Training, cross-validation and classification all encode through the
extractors here, so this module alone chooses between context and
bag-of-words features. An extractor maps a number to a hashable ``key``,
everything its feature row depends on (the six context codes, or the
number's raw text for bag-of-words), and ``row(key)`` is that row's nonzero
(column, value) pairs in column order. The columns are those its fitted
state keeps of one fixed encoding: all 56 context columns, or the
vocabulary's bytes out of the 256 byte counts. An unfitted extractor keeps
every column, so cross-validation encodes the corpus once and takes each
fold's columns from it. A pipeline is not changed after it is built, so
``Pipeline.read_line`` remembers the label of each key it has seen (up to
``MEMO_SIZE`` keys, least recently used dropped first) and runs the model's
pure-Python ``predict`` on the pairs only for a new key: loading a pipeline
and classifying with it imports no numpy. Only ``encode_rows``, which builds
each distinct key's training row once (the extractor's ``rows``), and
``Pipeline.fit`` do.
An extractor's fitted state is its ``dump()`` lines and nothing else: the
pipeline file stores them and cross-validation compares them. A pipeline
file holds, line by line: the magic, the lexicon (``lexicon <count>`` then
one ``lexentry <word> <Class>`` per entry; the verbalizer reads it too),
``extractor <name>`` and that extractor's state, then the model as
``models.serialize`` writes it, whose width must be the extractor's
number of columns. ``Pipeline.load`` reads the file on every call but parses
each distinct text once per process (the last ``PARSED_FILES`` texts are
kept): as a pipeline is not changed after it is built, every load of the
same bytes from the same path returns one object, warm memo included.
"""

from __future__ import annotations

import functools
from collections.abc import Hashable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING

from . import bow_features, context_features, models
from .models import LineReader, ModelFormatError, TrainConfig
from .context_features import ContextWindow, Lexicon
from .labels import FormatLabel
from .locator import NumberShape, NumberToken, shape_of
from .verbalizer import VerbalizationStyle, verbalize

if TYPE_CHECKING:  # an annotation only: classifying reads no corpus
    from .corpus import Corpus

_MAGIC = "numctx-pipeline v3"
EXTRACTORS = ("context", "bow")
# keys whose label a pipeline remembers: context keys are bounded by the
# reachable code space (111 * 111 * 9 * 3 = 332,667: a Boundary slot next to
# the number has a Boundary slot beyond it), bag-of-words keys are raw numbers
# and are not
MEMO_SIZE = 4096
# distinct pipeline files whose parse ``Pipeline.load`` keeps; the stream
# benchmark serves 4
PARSED_FILES = 8


class ContextFeatures:
    """The fixed 56-dim window and shape encoding; it learns nothing."""

    name = "context"
    windowed = True
    columns = range(context_features.FEATURE_DIM)

    def __init__(self, lexicon: Lexicon):
        self.lexicon = lexicon

    def fit(self, numbers: list[NumberToken]) -> None:
        pass

    def key(self, window: ContextWindow, number: NumberToken, shape: NumberShape) -> tuple[int, ...]:
        return context_features.codes(window, shape, self.lexicon)

    def row(self, key: tuple[int, ...]) -> dict[int, float]:
        return context_features.one_hot_row(key)

    def rows(self, keys: list[tuple[int, ...]]):
        import numpy as np  # training and cross-validation only: classifying reads the pairs

        X = np.zeros((len(keys), len(self.columns)))
        for i, key in enumerate(keys):
            X[i, list(self.row(key))] = 1.0  # one_hot_row's values are all 1.0
        return X

    def dump(self) -> list[str]:
        return []  # the pipeline stores the lexicon

    def load(self, reader: LineReader) -> None:
        pass


class BowFeatures:
    """Character counts of the number itself; the window is not read. The
    state is ``vocab <byte> ...``, the kept byte values in column order."""

    name = "bow"
    windowed = False

    def __init__(self):
        self._keep(list(range(bow_features.BYTES)))

    def _keep(self, columns: list[int]) -> None:
        self.columns = columns
        self.column_of = {byte: column for column, byte in enumerate(columns)}

    def fit(self, numbers: list[NumberToken]) -> None:
        self._keep(bow_features.build_vocab([n.raw for n in numbers]))

    def key(self, window: ContextWindow | None, number: NumberToken, shape: NumberShape | None) -> str:
        return number.raw

    def row(self, key: str) -> dict[int, float]:
        return bow_features.bow_row(key, self.column_of)

    def rows(self, keys: list[str]):
        return bow_features.byte_counts(keys)[:, self.columns]

    def dump(self) -> list[str]:
        return [" ".join(["vocab", *map(str, self.columns)])]

    def load(self, reader: LineReader) -> None:
        columns: list[int] = []
        for b in map(int, reader.take("vocab")):
            if not 0 <= b < bow_features.BYTES:  # not one of the byte counts
                raise ModelFormatError(f"'vocab' byte {b} outside 0..255")
            if b in columns:
                raise ModelFormatError("'vocab' line repeats a byte")
            columns.append(b)
        if not columns:  # every number has at least one byte, so fit never writes this
            raise ModelFormatError("'vocab' line names no byte")
        self._keep(columns)


Features = ContextFeatures | BowFeatures


def make_features(extractor: str, lexicon: Lexicon) -> Features:
    """The unfitted extractor named ``extractor``."""
    if extractor == "context":
        return ContextFeatures(lexicon)
    if extractor == "bow":
        return BowFeatures()
    raise ValueError(f"unknown extractor {extractor!r}, expected one of {EXTRACTORS}")


def encode_rows(features: Features, corpus: Corpus):
    """Every corpus row's feature row in a numpy matrix, each distinct key's
    row built once; windows and shapes are built only for extractors that read them."""
    if features.windowed:
        window = context_features.number_window
        keys = [features.key(window(s.text, s.number), s.number, shape_of(s.number)) for s in corpus]
    else:
        keys = [features.key(None, s.number, None) for s in corpus]
    index: dict[Hashable, int] = {}  # each distinct key's row, in order of first appearance
    at = [index.setdefault(key, len(index)) for key in keys]
    return features.rows(list(index))[at]


class Pipeline:
    def __init__(self, lexicon: Lexicon, features: Features, model: models.TrainedModel):
        self.lexicon, self.features, self.model = lexicon, features, model

        # closes over the parts, not self: with no reference cycle a dropped
        # pipeline is freed at once, not at the next garbage collection
        def predict(key: Hashable) -> FormatLabel:
            return models.predict(model, features.row(key))

        self.memo = functools.lru_cache(maxsize=MEMO_SIZE)(predict)

    def read_line(self, text: str, style: VerbalizationStyle) -> Iterator[tuple]:
        """``(number, window, shape, label, words)`` for each number of ``text``, yielded before the next is read."""
        for number, window, shape in context_features.line_numbers(text):
            label = self.memo(self.features.key(window, number, shape))
            yield number, window, shape, label, verbalize(number, label, style, window, self.lexicon, shape)

    @classmethod
    def fit(cls, corpus: Corpus, cfg: TrainConfig, extractor: str, lexicon: Lexicon) -> "Pipeline":
        """Fit the extractor on every corpus row, then train the model."""
        from . import classifiers  # numpy: only training imports it

        features = make_features(extractor, lexicon)
        features.fit([s.number for s in corpus])
        X = encode_rows(features, corpus)
        return cls(lexicon, features, classifiers.train(X, [s.label for s in corpus], cfg))

    def save(self, path: str | Path) -> None:
        entries = self.lexicon.entries
        lines = [_MAGIC, f"lexicon {len(entries)}"]
        lines += [f"lexentry {word} {entries[word].name}" for word in sorted(entries)]
        lines += [f"extractor {self.features.name}", *self.features.dump(), models.serialize(self.model)]
        Path(path).write_text("\n".join(lines), encoding="utf-8")

    @staticmethod
    def load(path: str | Path) -> "Pipeline":
        """Read a pipeline file; any damage raises ModelFormatError naming
        ``path``. The file is read on every call and its text parsed once."""
        return _parse(context_features.read_utf8(Path(path), ModelFormatError), f"{path}: ")

    @classmethod
    def _read(cls, reader: LineReader) -> "Pipeline":
        reader.magic(_MAGIC)
        (count,) = reader.take("lexicon", 1)
        lexicon = Lexicon(entries={})
        for _ in range(int(count)):
            context_features.add_entry(lexicon.entries, *reader.take("lexentry", 2))
        (extractor,) = reader.take("extractor", 1)
        features = make_features(extractor, lexicon)
        features.load(reader)
        model = models.read_model(reader)
        if model.dim != len(features.columns):
            raise ModelFormatError(f"model dim {model.dim} does not match the {extractor} width {len(features.columns)}")
        return cls(lexicon, features, model)


# keyed by the file's whole text, never its path or mtime alone, so a
# rewritten file is parsed again; a text that fails to parse is not kept
# (lru_cache stores no exception) and raises again on the next load
@functools.lru_cache(maxsize=PARSED_FILES)
def _parse(text: str, source: str) -> Pipeline:
    return LineReader(text).parse(Pipeline._read, source)
