import re

import pytest

from numctx.corpus import Corpus, LabeledSentence
from numctx.evaluation import ConfusionMatrix
from numctx.labels import FormatLabel

# reference 6x6 confusion-matrix fixture (rows true, columns predicted),
# label order Date, Time, Phone, Currency, Measurement, Percentage
REFERENCE_CM_COUNTS = [
    [69, 0, 0, 0, 15, 0],
    [0, 89, 0, 0, 0, 0],
    [0, 1, 9, 0, 0, 0],
    [1, 0, 0, 76, 0, 0],
    [0, 0, 0, 2, 68, 0],
    [0, 0, 0, 1, 3, 81],
]


@pytest.fixture
def reference_cm() -> ConfusionMatrix:
    return ConfusionMatrix.from_counts(REFERENCE_CM_COUNTS)


def separable_corpus(per_class: int = 10) -> Corpus:
    """Toy corpus where every class's window carries its own unique keyword."""
    templates = {
        FormatLabel.Date: "acara itu pada {n} Januari ini",
        FormatLabel.Time: "acara itu pada pukul {n} tepat",
        FormatLabel.Phone: "sila hubungi talian {n} segera",
        FormatLabel.Currency: "tiket berharga {n} ringgit sahaja",
        FormatLabel.Measurement: "jaraknya kira-kira {n} kilometer lagi",
        FormatLabel.Percentage: "kadarnya naik {n} peratus tahun",
    }
    rows = []
    for label, template in templates.items():
        for i in range(per_class):
            value = str(10 + i)
            text = template.format(n=value)
            start = text.index(value)
            rows.append(
                LabeledSentence(
                    id=f"{label.name.lower()}{i}",
                    text=text,
                    span=(start, start + len(value)),
                    label=label,
                )
            )
    return Corpus(sentences=tuple(rows))


# --- the frozen word oracle --------------------------------------------------
# A frozen copy of the character-walking tokenizer that the compiled word
# pattern replaced: each word of ``text`` as (start, end, surface), in text
# order. Locator and window tests compare the program's one word scan to it.

_ORACLE_STRIP = ".,;!?()\"'"


def _oracle_tokenize(text: str) -> list[tuple[int, int, str]]:
    words: list[tuple[int, int, str]] = []
    for m in re.finditer(r"\S+", text):
        start, end = m.start(), m.end()
        while start < end and text[start] in _ORACLE_STRIP:
            start += 1
        while end > start and text[end - 1] in _ORACLE_STRIP:
            end -= 1
        if start == end:
            continue
        words.append((start, end, text[start:end]))
    return words
