"""Character-unigram bag-of-words benchmark features.

Each character of the number token (attached symbols included) is mapped to
its 0-255 code value; codes above 255 land in the overflow bucket 255. A
token's 256 byte counts are one fixed encoding. The vocabulary is the bytes
the training tokens hold, in order of first appearance, and it picks the
encoding's columns in that order; other bytes drop.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_OVERFLOW = 255
BYTES = _OVERFLOW + 1  # width of the fixed encoding


def unigrams(token_raw: str) -> list[str]:
    """One single-character gram per character, in order."""
    return list(token_raw)


def gram_byte(gram: str) -> int:
    """Code value of a single-character gram, clamped to the 0-255 range."""
    if len(gram) != 1:
        raise ValueError(f"gram must be a single character, got {gram!r}")
    return min(ord(gram), _OVERFLOW)


def build_vocab(training_tokens: Iterable[str]) -> list[int]:
    """The byte values of the training tokens, in first-appearance order."""
    # a byte first appears with the first of the characters that map to it
    first_characters = dict.fromkeys("".join(training_tokens))
    return list(dict.fromkeys(map(gram_byte, first_characters)))


def bow_encode(token_raw: str, columns: np.ndarray | list[int]) -> np.ndarray:
    """The token's counts of the byte values ``columns``, in that order; a
    gram whose byte is not among them is dropped."""
    counts = np.zeros(BYTES, dtype=np.float64)
    for gram in unigrams(token_raw):
        counts[gram_byte(gram)] += 1
    return counts[columns]
