"""Character-unigram bag-of-words benchmark features.

Each character of the number token (attached symbols included) is mapped to
its 0-255 code value; codes above 255 land in the overflow bucket 255. The
vocabulary assigns columns in order of first appearance over the training
tokens, so it never exceeds 256 columns, and encoding counts the
in-vocabulary grams of a token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

_OVERFLOW = 255


@dataclass(frozen=True)
class BowVocab:
    byte_to_column: dict[int, int]

    @property
    def size(self) -> int:
        return len(self.byte_to_column)


def unigrams(token_raw: str) -> list[str]:
    """One single-character gram per character, in order."""
    return list(token_raw)


def gram_byte(gram: str) -> int:
    """Code value of a single-character gram, clamped to the 0-255 range."""
    if len(gram) != 1:
        raise ValueError(f"gram must be a single character, got {gram!r}")
    return min(ord(gram), _OVERFLOW)


def build_vocab(training_tokens: Iterable[str]) -> BowVocab:
    """Assign columns to distinct byte values in first-appearance order."""
    byte_to_column: dict[int, int] = {}
    for token in training_tokens:
        for gram in unigrams(token):
            byte = gram_byte(gram)
            if byte not in byte_to_column:
                byte_to_column[byte] = len(byte_to_column)
    return BowVocab(byte_to_column=byte_to_column)


def bow_encode(token_raw: str, vocab: BowVocab) -> np.ndarray:
    """Count in-vocabulary gram bytes; out-of-vocabulary grams are dropped."""
    counts = np.zeros(vocab.size, dtype=np.int64)
    for gram in unigrams(token_raw):
        column = vocab.byte_to_column.get(gram_byte(gram))
        if column is not None:
            counts[column] += 1
    return counts
