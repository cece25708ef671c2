"""Character-unigram bag-of-words benchmark features.

Each character of the number token (attached symbols included) is mapped to
its 0-255 code value; codes above 255 land in the overflow bucket 255. A
token's 256 byte counts are one fixed encoding. The vocabulary is the bytes
the training tokens hold, in order of first appearance, and it picks the
encoding's columns in that order; other bytes drop. ``bow_row`` gives a
token's nonzero columns, which is all classifying reads; ``bow_encode``, the
dense row, is the numpy reference they are checked against.
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
    """The nonzero counts of ``bow_encode``'s row, keyed by column in
    ascending order; ``column_of`` maps each kept byte value to its column."""
    counts: dict[int, float] = {}
    for gram in unigrams(token_raw):
        column = column_of.get(gram_byte(gram))
        if column is not None:
            counts[column] = counts.get(column, 0.0) + 1.0
    return dict(sorted(counts.items()))


def bow_encode(token_raw: str, columns: Sequence[int]):
    """The token's counts of the byte values ``columns``, in that order, as a
    numpy vector; a gram whose byte is not among them is dropped."""
    import numpy as np  # only this dense reference needs it

    counts = np.zeros(BYTES, dtype=np.float64)
    for gram in unigrams(token_raw):
        counts[gram_byte(gram)] += 1
    return counts[columns]
