import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from numctx.bow_features import BYTES, gram_byte, unigrams
from numctx.context_features import _N_BUCKETS, _N_CLASSES, _N_SHAPES, KeywordClass
from numctx.corpus import Corpus, LabeledSentence
from numctx.datagen import generate_corpus
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
def reference_cm() -> np.ndarray:
    return np.array(REFERENCE_CM_COUNTS, dtype=np.int64)


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


def bow_encode(token_raw: str, columns):
    """The token's counts of the byte values ``columns``, in that order, as a
    numpy vector, counted one gram at a time: the dense bag-of-words
    reference the program's rows are checked against. A gram whose byte is
    not among ``columns`` is dropped."""
    counts = np.zeros(BYTES, dtype=np.float64)
    for gram in unigrams(token_raw):
        counts[gram_byte(gram)] += 1
    return counts[columns]


# --- perfbench's generated inputs and the context key space -----------------


def _perfbench_inputs():
    """``perfbench/inputs.py``, loaded by path, so the tests build the
    benchmark's inputs by its own rules."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


PERFBENCH_INPUTS = _perfbench_inputs()


def stream_lines():
    """The lines perfbench's stream workload classifies at seed 29: the
    distinct sentences of generated corpora 29000 to 29029, in order."""
    return PERFBENCH_INPUTS.stream_lines(29)[0]


def cv_workload_corpus():
    """The corpus perfbench cross-validates in its cv workload at seed 29:
    generated corpora 29000 and 29001 end to end, 674 rows."""
    seeds = PERFBENCH_INPUTS.corpus_seeds(29, PERFBENCH_INPUTS.CV_CORPORA)
    return Corpus(tuple(s for seed in seeds for s in generate_corpus(seed)))


def reachable_context_keys():
    """Every six-code context key a window and shape can give: (pre2, pre1,
    post1, post2, shape kind, digit bucket). A slot past the sentence edge
    is Boundary, so a Boundary slot next to the number has a Boundary slot
    beyond it; every other pair of classes, shape kind and bucket occurs."""
    boundary = int(KeywordClass.Boundary)
    classes = range(_N_CLASSES)
    pairs = [(near, far) for near in classes for far in classes if near != boundary or far == boundary]
    return [
        (pre2, pre1, post1, post2, kind, bucket)
        for pre1, pre2 in pairs
        for post1, post2 in pairs
        for kind in range(_N_SHAPES)
        for bucket in range(_N_BUCKETS)
    ]


# --- random lines -----------------------------------------------------------
# What the random lines of the window and key-space properties are made of:
# glued and spaced RM, every character that ends or splits a word, tabs and
# whitespace outside ASCII (an information separator, next line, no-break
# space, line separator and ideographic space), and letters that lowercase
# to another letter (ẞ), to two characters (İ) or by their place in the word (Σ)
LINE_ALPHABET = st.sampled_from(
    list("0123456789aK+%.,:/-;!?()\"' \tİẞΣ\x1c\x85\xa0\u2028\u3000") + ["RM", "RM "]
)


# --- the frozen word oracle --------------------------------------------------
# A frozen copy of the character-walking tokenizer that the compiled word
# pattern replaced: each word of ``text`` as (start, end, surface), in text
# order. Locator and window tests compare the program's word searches to it.

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
