"""Seeded workload inputs and their fingerprint.

Inputs come from the program's own synthetic generator,
``numctx.datagen.generate_corpus``, over a range of corpus seeds derived
from the workload seed. Nothing is filtered to avoid failures: a line that
makes ``classify`` abort stays in the input and counts as a failed operation.
numctx is imported inside the functions because ``run.py`` puts ``src/`` on
the path only after checking that it exists.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# 30 corpora give about 9.7k distinct sentences with 10.1k numbers; one
# pass through them takes 0.5 to 2 s per model
STREAM_CORPORA = 30
# 2 corpora concatenated give 674 rows, so one compare run takes 0.1 to 1.5 s
# and a run holds enough of them for a steady median
CV_CORPORA = 2


def corpus_seeds(seed: int, count: int) -> list[int]:
    return [seed * 1000 + i for i in range(count)]


@dataclass
class Inputs:
    lines: list[str]  # stream and oneshot: sentences without newline
    spans: list[list[tuple[int, int]]]  # locate_numbers spans of each line
    fingerprint: dict


def _shape_mix(numbers) -> dict[str, int]:
    from numctx.locator import shape_of

    mix = Counter(shape_of(n).kind.name for n in numbers)
    return dict(sorted(mix.items()))


def stream_lines(seed: int) -> tuple[list[str], int]:
    """Distinct sentences of the derived corpora, in generation order, and
    the number of corpus rows they came from."""
    from numctx.datagen import generate_corpus

    seen: set[str] = set()
    lines: list[str] = []
    rows = 0
    for corpus_seed in corpus_seeds(seed, STREAM_CORPORA):
        for sentence in generate_corpus(corpus_seed):
            rows += 1
            if sentence.text not in seen:
                seen.add(sentence.text)
                lines.append(sentence.text)
    return lines, rows


def cv_corpus(seed: int, path: Path):
    """Write the concatenation of the derived corpora to ``path``, with ids
    renamed so they stay unique, and return the corpus."""
    from numctx.corpus import Corpus, LabeledSentence, save_corpus
    from numctx.datagen import generate_corpus

    rows: list[LabeledSentence] = []
    for corpus_seed in corpus_seeds(seed, CV_CORPORA):
        for s in generate_corpus(corpus_seed):
            rows.append(LabeledSentence(id=f"r{len(rows) + 1:05d}", text=s.text, span=s.span, label=s.label))
    corpus = Corpus(sentences=tuple(rows))
    save_corpus(corpus, path)
    return corpus


def make_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    """Generate the inputs of ``workload`` for ``seed``; the cv corpus is
    written to ``workdir/corpus.csv``."""
    from numctx.context_features import token_at
    from numctx.locator import locate_numbers

    if workload == "cv":
        path = workdir / "corpus.csv"
        corpus = cv_corpus(seed, path)
        data = path.read_bytes()
        texts = {s.text for s in corpus}
        numbers = [token_at(s.text, s.span) for s in corpus]
        fingerprint = {
            "corpus_seeds": corpus_seeds(seed, CV_CORPORA),
            "sha256": hashlib.sha256(data).hexdigest(),
            "rows": len(corpus),
            "lines": len(texts),
            "numbers": len(numbers),
            "labels": dict(sorted(Counter(s.label.name for s in corpus).items())),
            "shape_mix": _shape_mix(numbers),
        }
        return Inputs(lines=[], spans=[], fingerprint=fingerprint)

    lines, rows = stream_lines(seed)
    located = [locate_numbers(line) for line in lines]
    numbers = [n for per_line in located for n in per_line]
    fingerprint = {
        "corpus_seeds": corpus_seeds(seed, STREAM_CORPORA),
        "sha256": hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest(),
        "rows": rows,
        "lines": len(lines),
        "numbers": len(numbers),
        "shape_mix": _shape_mix(numbers),
    }
    spans = [[n.span for n in per_line] for per_line in located]
    return Inputs(lines=lines, spans=spans, fingerprint=fingerprint)
