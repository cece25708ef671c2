"""One trained pipeline: the lexicon, a fitted feature extractor, a model.

Training, cross-validation and classification all encode through the
extractors here, so this module alone chooses between context and
bag-of-words features. An extractor maps a number to a hashable ``key``,
everything its vector depends on (the six context codes, or the number's
raw text for bag-of-words), and ``vector(key)`` is that number's feature
row. A pipeline is not changed after it is built, so ``Pipeline.label``
remembers the label of each key it has seen (up to ``MEMO_SIZE`` keys,
least recently used dropped first) and runs the model only for a new key.
An extractor's fitted state is its ``dump()`` lines and nothing else: the
pipeline file stores them and cross-validation compares them. A pipeline
file holds, line by line: the magic, the lexicon (``lexicon <count>`` then
one ``lexentry <word> <Class>`` per entry; the verbalizer reads it too),
``extractor <name>`` and that extractor's state, then the model as
``classifiers.serialize`` writes it, whose width must be the extractor's.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bow_features, classifiers, context_features
from .classifiers import LineReader, ModelFormatError, TrainConfig
from .context_features import ContextWindow, Lexicon
from .corpus import Corpus
from .labels import FormatLabel
from .locator import NumberToken, shape_of, tokenize

_MAGIC = "numctx-pipeline v3"
EXTRACTORS = ("context", "bow")
# keys whose label a pipeline remembers: context keys are bounded by the
# code space (11**4 * 9 * 3), bag-of-words keys are raw numbers and are not
MEMO_SIZE = 4096


class ContextFeatures:
    """The fixed 56-dim window and shape encoding; it learns nothing."""

    name = "context"
    windowed = True
    width = context_features.FEATURE_DIM

    def __init__(self, lexicon: Lexicon):
        self.lexicon = lexicon

    def fit(self, numbers: list[NumberToken]) -> None:
        pass

    def key(self, window: ContextWindow, number: NumberToken) -> tuple[int, ...]:
        return context_features.codes(window, shape_of(number), self.lexicon)

    def vector(self, key: tuple[int, ...]) -> np.ndarray:
        return context_features.one_hot(key)

    def dump(self) -> list[str]:
        return []  # the pipeline stores the lexicon

    def load(self, reader: LineReader) -> None:
        pass


class BowFeatures:
    """Character counts of the number itself; the window is not read. The
    state is ``vocab <byte> ...``, byte values in column order."""

    name = "bow"
    windowed = False

    def __init__(self):
        self.vocab = bow_features.BowVocab(byte_to_column={})

    @property
    def width(self) -> int:
        return self.vocab.size

    def fit(self, numbers: list[NumberToken]) -> None:
        self.vocab = bow_features.build_vocab([n.raw for n in numbers])

    def key(self, window: ContextWindow | None, number: NumberToken) -> str:
        return number.raw

    def vector(self, key: str) -> np.ndarray:
        return bow_features.bow_encode(key, self.vocab).astype(np.float64)

    def dump(self) -> list[str]:
        by_column = sorted(self.vocab.byte_to_column, key=self.vocab.byte_to_column.__getitem__)
        return [" ".join(["vocab", *map(str, by_column)])]

    def load(self, reader: LineReader) -> None:
        by_column = [int(b) for b in reader.take("vocab")]
        byte_to_column = {b: column for column, b in enumerate(by_column)}
        if len(byte_to_column) != len(by_column):
            raise ModelFormatError("'vocab' line repeats a byte")
        for b in by_column:
            if not 0 <= b <= 255:  # gram_byte never yields it, so its column could never fire
                raise ModelFormatError(f"'vocab' byte {b} outside 0..255")
        self.vocab = bow_features.BowVocab(byte_to_column)


Features = ContextFeatures | BowFeatures


def make_features(extractor: str, lexicon: Lexicon) -> Features:
    """The unfitted extractor named ``extractor``."""
    if extractor == "context":
        return ContextFeatures(lexicon)
    if extractor == "bow":
        return BowFeatures()
    raise ValueError(f"unknown extractor {extractor!r}, expected one of {EXTRACTORS}")


def encode_rows(features: Features, corpus: Corpus) -> np.ndarray:
    """Every corpus row's vector; windows are built only for extractors that read them."""
    windows = [None] * len(corpus)
    if features.windowed:
        windows = [context_features.window_for_token(tokenize(s.text), s.number) for s in corpus]
    return np.vstack([features.vector(features.key(w, s.number)) for w, s in zip(windows, corpus)])


@dataclass
class Pipeline:
    lexicon: Lexicon
    features: Features
    model: classifiers.TrainedModel
    memo: Callable[[Hashable], FormatLabel] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        model, features = self.model, self.features

        # closes over the parts, not self: with no reference cycle a dropped
        # pipeline is freed at once, not at the next garbage collection
        def predict(key: Hashable) -> FormatLabel:
            return classifiers.predict(model, features.vector(key))

        self.memo = functools.lru_cache(maxsize=MEMO_SIZE)(predict)

    def label(self, window: ContextWindow, number: NumberToken) -> FormatLabel:
        """The model's label for ``number`` in ``window``, computed once per key."""
        return self.memo(self.features.key(window, number))

    @classmethod
    def fit(cls, corpus: Corpus, cfg: TrainConfig, extractor: str, lexicon: Lexicon) -> "Pipeline":
        """Fit the extractor on every corpus row, then train the model."""
        features = make_features(extractor, lexicon)
        features.fit([s.number for s in corpus])
        X = encode_rows(features, corpus)
        return cls(lexicon, features, classifiers.train(X, [s.label for s in corpus], cfg))

    def save(self, path: str | Path) -> None:
        entries = self.lexicon.entries
        lines = [_MAGIC, f"lexicon {len(entries)}"]
        lines += [f"lexentry {word} {entries[word].name}" for word in sorted(entries)]
        lines += [f"extractor {self.features.name}", *self.features.dump(), classifiers.serialize(self.model)]
        Path(path).write_text("\n".join(lines), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Pipeline":
        """Read a pipeline file; any damage raises ModelFormatError naming ``path``."""
        return LineReader(context_features.read_utf8(Path(path), ModelFormatError)).parse(cls._read, f"{path}: ")

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
        model = classifiers.read_model(reader)
        if model.dim != features.width:
            raise ModelFormatError(f"model dim {model.dim} does not match the {extractor} width {features.width}")
        return cls(lexicon, features, model)
