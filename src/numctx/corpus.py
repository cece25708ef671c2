"""Labeled-sentence corpus: CSV I/O, validation, and stratified folds.

Corpus files are UTF-8 CSV with header ``id,text,start,end,label`` and
RFC 4180 quoting. ``start``/``end`` are character offsets (Unicode scalar
values, end exclusive) of one number token inside ``text``; a sentence
containing several numbers appears as several rows sharing the text but
carrying distinct ids and spans. A row carries the number token its span locates.

Every corpus fault is one ``CorpusError``, a ``ValueError``. A bad row's
message starts ``path:line (id …)``, or ``path:line`` for a short row or a
repeated id; a bad file's names the file, and a class with fewer members
than the fold count names the class.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import context_features
from .labels import LABELS, FormatLabel
from .locator import NumberToken

_HEADER = ["id", "text", "start", "end", "label"]


class CorpusError(ValueError):
    """A corpus-file problem; the message says where and what."""


@dataclass(frozen=True)
class LabeledSentence:
    """One row; ``number`` is the located number token at ``span`` (ValueError if none is)."""

    id: str
    text: str
    span: tuple[int, int]
    label: FormatLabel
    number: NumberToken = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # through the module, so a wrapper around context_features.token_at sees every row
        object.__setattr__(self, "number", context_features.token_at(self.text, self.span))


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[LabeledSentence, ...]

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    def __getitem__(self, index: int) -> LabeledSentence:
        return self.sentences[index]

    def class_counts(self) -> dict[FormatLabel, int]:
        counts = {label: 0 for label in LABELS}
        for sentence in self.sentences:
            counts[sentence.label] += 1
        return counts


def _normalize_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _parse_row(p: Path, line: int, row: list[str], seen_ids: dict[str, int]) -> LabeledSentence:
    """The row ending at ``line`` as a sentence; a bad row raises a CorpusError.
    ``seen_ids`` maps each id read so far to its line, and gains this row's."""
    if len(row) != len(_HEADER):
        raise CorpusError(f"{p}:{line}: expected {len(_HEADER)} fields, got {len(row)}")
    row_id, text, start_s, end_s, label_s = row
    where = f"{p}:{line} (id {row_id})"
    text = _normalize_newlines(text)
    try:
        start, end = int(start_s), int(end_s)
    except ValueError:
        raise CorpusError(f"{where}: non-integer span {start_s!r},{end_s!r}") from None
    try:
        label = FormatLabel.from_name(label_s)
    except ValueError as exc:
        raise CorpusError(f"{where}: {exc}") from None
    if not (0 <= start < end <= len(text)):
        raise CorpusError(f"{where}: span ({start},{end}) outside text of length {len(text)}")
    try:
        sentence = LabeledSentence(id=row_id, text=text, span=(start, end), label=label)
    except ValueError:
        raise CorpusError(f"{where}: span ({start},{end}) = {text[start:end]!r} is not a located number token") from None
    if row_id in seen_ids:
        raise CorpusError(f"{p}:{line}: duplicate id {row_id!r} (first seen line {seen_ids[row_id]})")
    seen_ids[row_id] = line
    return sentence


def scan_corpus(path: str | Path) -> tuple[list[LabeledSentence], list[CorpusError]]:
    """Parse every row, collecting errors instead of stopping at the first.

    Returns the rows that validated and one CorpusError per bad row, in file
    order, each naming ``path:line``. Blank rows are skipped. An empty file,
    a bad header or bytes that are not UTF-8 is the one error and yields no rows.
    """
    p = Path(path)
    try:
        text = context_features.read_utf8(p, CorpusError)
    except CorpusError as exc:
        return [], [exc]
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        return [], [CorpusError(f"{p}: empty file, expected header {','.join(_HEADER)}")]
    if header != _HEADER:
        return [], [CorpusError(f"{p}:1: bad header {header!r}, expected {_HEADER!r}")]
    sentences: list[LabeledSentence] = []
    errors: list[CorpusError] = []
    seen_ids: dict[str, int] = {}
    for row in reader:
        if row:
            try:
                sentences.append(_parse_row(p, reader.line_num, row, seen_ids))
            except CorpusError as exc:
                errors.append(exc)
    return sentences, errors


def load_corpus(path: str | Path) -> Corpus:
    """Load and validate a corpus file, raising on the first bad row."""
    sentences, errors = scan_corpus(path)
    if errors:
        raise errors[0]
    return Corpus(sentences=tuple(sentences))


def bundled_corpus_path() -> Path:
    return Path(str(resources.files("numctx").joinpath("data/corpus.csv")))


def load_bundled_corpus() -> Corpus:
    return load_corpus(bundled_corpus_path())


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    p = Path(path)
    with p.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HEADER)
        for s in corpus:
            writer.writerow([s.id, s.text, s.span[0], s.span[1], s.label.name])


def stratified_folds(corpus: Corpus, k: int, seed: int) -> list[tuple[int, ...]]:
    """Partition corpus indices into ``k`` class-stratified folds.

    Within each class present in the corpus, fold sizes differ by at most
    one; overall fold sizes also differ by at most one. A class present
    with fewer than ``k`` members raises CorpusError. Deterministic given
    (corpus order, k, seed).
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if len(corpus) == 0:
        raise CorpusError("corpus has no sentences to partition")
    by_class: dict[FormatLabel, list[int]] = {label: [] for label in LABELS}
    for index, sentence in enumerate(corpus):
        by_class[sentence.label].append(index)
    for label in LABELS:
        if 0 < len(by_class[label]) < k:
            raise CorpusError(
                f"class {label.name} has {len(by_class[label])} members, fewer than the {k} folds"
            )

    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    cursor = 0
    for label in LABELS:
        # the golden digests pin the permutation that shuffle draws for the seed
        rng.shuffle(by_class[label])
        for index in by_class[label]:
            folds[cursor % k].append(index)
            cursor += 1
    return [tuple(sorted(fold)) for fold in folds]
