"""Character-unigram bag-of-words benchmark features.

Each character of the number token (attached symbols included) is mapped to
its 0-255 code value; codes above 255 land in the overflow bucket 255. The
vocabulary assigns columns in order of first appearance over the training
tokens, so it never exceeds 256 columns, and encoding counts the
in-vocabulary grams of a token.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_OVERFLOW = 255


def unigrams(token_raw: str) -> list[str]:
    """One single-character gram per character, in order."""
    return list(token_raw)


def gram_byte(gram: str) -> int:
    """Code value of a single-character gram, clamped to the 0-255 range."""
    if len(gram) != 1:
        raise ValueError(f"gram must be a single character, got {gram!r}")
    return min(ord(gram), _OVERFLOW)


def build_vocab(training_tokens: Iterable[str]) -> dict[int, int]:
    """Byte value -> column, columns assigned in first-appearance order, so
    the dict's insertion order is its column order."""
    columns: dict[int, int] = {}
    for token in training_tokens:
        for gram in unigrams(token):
            columns.setdefault(gram_byte(gram), len(columns))
    return columns


def bow_encode(token_raw: str, columns: dict[int, int]) -> np.ndarray:
    """Count in-vocabulary gram bytes; out-of-vocabulary grams are dropped."""
    counts = np.zeros(len(columns), dtype=np.float64)
    for gram in unigrams(token_raw):
        column = columns.get(gram_byte(gram))
        if column is not None:
            counts[column] += 1
    return counts
