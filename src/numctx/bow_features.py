"""Character-unigram bag-of-words benchmark features.

Each character of the number token (attached symbols included) is mapped to
its 0-255 code value; codes above 255 land in the overflow bucket 255. A
token's 256 byte counts are one fixed encoding. The vocabulary is the bytes
the training tokens hold, in order of first appearance, and it picks the
encoding's columns in that order; other bytes drop. ``bow_row`` gives a
token's nonzero columns, which is all classifying reads; training counts
many tokens' bytes at once with ``byte_counts``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

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


def bow_row(token_raw: str, column_of: Mapping[int, int]) -> dict[int, float]:
    """The token's nonzero counts of the kept byte values, keyed by column in
    ascending order; ``column_of`` maps each kept byte value to its column."""
    counts: dict[int, float] = {}
    for gram in unigrams(token_raw):
        column = column_of.get(gram_byte(gram))
        if column is not None:
            counts[column] = counts.get(column, 0.0) + 1.0
    return dict(sorted(counts.items()))


def byte_counts(tokens: Sequence[str]):
    """Each token's 256 byte counts, a (tokens × 256) float64 numpy matrix
    counted in one pass over all their characters."""
    import numpy as np  # training only: classifying reads ``bow_row``

    points = np.frombuffer("".join(tokens).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    token_of = np.repeat(np.arange(len(tokens)), [len(token) for token in tokens])
    counts = np.bincount(token_of * BYTES + np.minimum(points, _OVERFLOW), minlength=len(tokens) * BYTES)
    return counts.reshape(len(tokens), BYTES).astype(np.float64)
