"""Deterministic generator for the bundled synthetic corpus.

Sentences are assembled from per-format templates: the number pattern of the
format's sub-categories, the cue keywords that belong to it, and digit-free
distractor words. A slice of each class is deliberately "bare" (no cue word
inside the two-word window), so no classifier can reach 100% and the corpus
keeps a realistic error floor. The generator is a pure function of the seed;
the CSV shipped under ``data/`` is its output for ``DEFAULT_SEED``.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus, LabeledSentence, save_corpus
from .labels import FormatLabel

DEFAULT_SEED = 7

# digit-free connective words; none may appear in the default lexicon
FILLERS = [
    "kerajaan", "negeri", "menerima", "laporan", "baharu", "projek",
    "pembangunan", "syarikat", "tempatan", "penduduk", "kawasan", "semalam",
    "dijangka", "selepas", "mesyuarat", "khas", "pegawai", "kanan",
    "perkara", "berkenaan", "keputusan", "rasmi", "daerah", "mereka",
    "sudah", "masih", "turut", "sambil", "program", "majlis",
]

_MONTH_WORDS = [
    "Januari", "Februari", "Mac", "April", "Mei", "Jun",
    "Julai", "Ogos", "September", "Oktober", "November", "Disember",
]
_PERIODS = ["pagi", "petang", "malam"]
_UNITS = ["meter", "kilometer", "gram", "kilogram"]
_COLLECTIVES = ["orang", "buah", "ekor", "biji", "botol"]
_CURRENCIES = ["dolar", "euro", "dinar", "baht"]


@dataclass(frozen=True)
class _Num:
    text: str
    label: FormatLabel


def _f(rng: random.Random) -> str:
    return rng.choice(FILLERS)


def _n(rng: random.Random, lo: int, hi: int) -> str:
    return str(rng.randint(lo, hi))


def _digits(rng: random.Random, count: int) -> str:
    return "".join(str(rng.randint(0, 9)) for _ in range(count))


def _year(rng: random.Random) -> str:
    return str(rng.randint(1970, 2029))


def _two(rng: random.Random, lo: int, hi: int) -> str:
    return f"{rng.randint(lo, hi):02d}"


# --- per-class templates --------------------------------------------------
# each returns a list of sentence parts; _Num parts become labeled rows


def _date_templates():
    D = FormatLabel.Date

    def day_month(rng):
        return [_f(rng), _f(rng), "pada", _Num(_n(rng, 1, 28), D), rng.choice(_MONTH_WORDS), "ini", _f(rng)]

    def day_month_year(rng):
        return [_f(rng), "bermula", _Num(_n(rng, 1, 28), D), rng.choice(_MONTH_WORDS), _Num(_year(rng), D), "di", _f(rng)]

    def slash(rng):
        num = f"{_two(rng, 1, 28)}/{_two(rng, 1, 12)}/{_year(rng)}"
        return [_f(rng), _f(rng), "pada", _Num(num, D), _f(rng), _f(rng)]

    def bare_year(rng):
        return ["menjelang", "tahun", _Num(_year(rng), D), _f(rng), _f(rng)]

    def hyphen_iso(rng):
        num = f"{_year(rng)}-{_two(rng, 1, 12)}-{_two(rng, 1, 28)}"
        return [_f(rng), "bertarikh", _Num(num, D), _f(rng)]

    return [day_month, day_month, day_month, day_month_year, slash, slash, bare_year, hyphen_iso]


def _time_templates():
    T = FormatLabel.Time

    def pukul(rng):
        return [_f(rng), _f(rng), "pada", "pukul", _Num(_n(rng, 1, 12), T), rng.choice(_PERIODS), _f(rng)]

    def jam_dot(rng):
        num = f"{rng.randint(1, 12)}.{_two(rng, 0, 59)}"
        return ["bermula", "jam", _Num(num, T), rng.choice(_PERIODS), _f(rng), _f(rng)]

    def colon(rng):
        num = f"{_two(rng, 0, 23)}:{_two(rng, 0, 59)}"
        return [_f(rng), _f(rng), "sekitar", _Num(num, T), rng.choice(_PERIODS)]

    def plain_period(rng):
        return [_f(rng), "pada", _Num(_n(rng, 1, 12), T), rng.choice(_PERIODS), _f(rng)]

    return [pukul, pukul, pukul, jam_dot, jam_dot, colon, colon, plain_period]


def _phone_templates():
    P = FormatLabel.Phone

    def talian(rng):
        num = f"0{rng.randint(3, 9)}-{_digits(rng, 7)}"
        return ["sila", "hubungi", "talian", _Num(num, P), "untuk", _f(rng)]

    def telefon(rng):
        num = f"0{rng.randint(3, 9)}-{_digits(rng, 7)}"
        return [_f(rng), "nombor", "telefon", _Num(num, P), _f(rng)]

    def signed(rng):
        num = f"+60-{_two(rng, 10, 19)}-{_digits(rng, 6)}"
        return ["talian", "antarabangsa", _Num(num, P), _f(rng)]

    def plain(rng):
        return [_f(rng), "hubungi", "tel", _Num(_digits(rng, 8), P), "segera"]

    return [talian, talian, talian, telefon, telefon, signed, plain]


def _currency_templates():
    C = FormatLabel.Currency

    def rm_plain(rng):
        return [_f(rng), "bernilai", _Num(f"RM {_n(rng, 2, 900)}", C), _f(rng), _f(rng)]

    def ringgit(rng):
        return [_f(rng), "berharga", _Num(_n(rng, 2, 980), C), "ringgit", _f(rng)]

    def rm_cents(rng):
        num = f"RM {_n(rng, 1, 90)}.{_two(rng, 0, 99)}"
        return ["kerugian", "dianggarkan", _Num(num, C), _f(rng)]

    def foreign(rng):
        return [_f(rng), "bernilai", _Num(_n(rng, 5, 900), C), rng.choice(_CURRENCIES), _f(rng)]

    def dot_ringgit(rng):
        num = f"{rng.randint(1, 9)}.{_two(rng, 0, 99)}"
        return ["harga", "barang", "itu", _Num(num, C), "ringgit"]

    def bare(rng):
        return [_f(rng), _f(rng), "dianggarkan", _Num(_n(rng, 2, 90), C), _f(rng), _f(rng)]

    return [rm_plain, rm_plain, ringgit, ringgit, ringgit, rm_cents, foreign, dot_ringgit, bare]


def _measurement_templates():
    M = FormatLabel.Measurement

    def seramai(rng):
        return [_f(rng), "seramai", _Num(_n(rng, 5, 900), M), "orang", _f(rng), _f(rng)]

    def unit(rng):
        return [_f(rng), "sejauh", _Num(_n(rng, 2, 980), M), rng.choice(_UNITS), "dari", _f(rng)]

    def decimal_unit(rng):
        num = f"{rng.randint(1, 80)}.{rng.randint(1, 9)}"
        return ["seberat", _Num(num, M), rng.choice(_UNITS), _f(rng)]

    def collective(rng):
        return [_f(rng), _f(rng), "sebanyak", _Num(_n(rng, 2, 90), M), rng.choice(_COLLECTIVES), "lembu"]

    def bare(rng):
        return [_f(rng), _f(rng), "meliputi", _Num(_n(rng, 2, 90), M), _f(rng), _f(rng)]

    return [seramai, seramai, seramai, unit, unit, decimal_unit, collective, collective, bare]


def _percentage_templates():
    PC = FormatLabel.Percentage

    def peratus(rng):
        return [_f(rng), "meningkat", _Num(_n(rng, 1, 99), PC), "peratus", _f(rng)]

    def decimal(rng):
        num = f"{rng.randint(1, 30)}.{rng.randint(1, 9)}"
        return ["kadar", "faedah", _Num(num, PC), "peratus", _f(rng)]

    def suffixed(rng):
        return [_f(rng), "menokok", "sebanyak", _Num(f"{_n(rng, 1, 99)}%", PC), _f(rng)]

    def suffixed_value(rng):
        # value words also precede percentages, not just money amounts
        return ["kenaikan", rng.choice(["berjumlah", "bernilai"]), _Num(f"{_n(rng, 1, 99)}%", PC), _f(rng)]

    def hingga_range(rng):
        a, b = rng.randint(1, 40), rng.randint(41, 99)
        return ["antara", _Num(str(a), PC), "hingga", _Num(str(b), PC), "peratus", _f(rng)]

    def hyphen_range(rng):
        a, b = rng.randint(1, 40), rng.randint(41, 99)
        return [_f(rng), "sekitar", _Num(f"{a}-{b}", PC), "peratus", _f(rng)]

    def peratus_value(rng):
        return [_f(rng), "jumlah", "kenaikan", _Num(_n(rng, 1, 99), PC), "peratus", _f(rng)]

    return [
        peratus, peratus, peratus, decimal, suffixed, suffixed,
        suffixed_value, peratus_value, hingga_range, hyphen_range,
    ]


_TEMPLATES = {
    FormatLabel.Date: _date_templates(),
    FormatLabel.Time: _time_templates(),
    FormatLabel.Phone: _phone_templates(),
    FormatLabel.Currency: _currency_templates(),
    FormatLabel.Measurement: _measurement_templates(),
    FormatLabel.Percentage: _percentage_templates(),
}

CLASS_TARGETS = {
    FormatLabel.Date: 58,
    FormatLabel.Time: 56,
    FormatLabel.Phone: 48,
    FormatLabel.Currency: 58,
    FormatLabel.Measurement: 58,
    FormatLabel.Percentage: 58,
}


def _assemble(parts) -> tuple[str, list[tuple[tuple[int, int], FormatLabel]]]:
    words: list[str] = []
    spans: list[tuple[tuple[int, int], FormatLabel]] = []
    pos = 0
    for part in parts:
        if words:
            pos += 1
        text = part.text if isinstance(part, _Num) else part
        if isinstance(part, _Num):
            spans.append(((pos, pos + len(text)), part.label))
        words.append(text)
        pos += len(text)
    text = " ".join(words)
    text = text[0].upper() + text[1:]
    return text, spans


def generate_corpus(seed: int = DEFAULT_SEED) -> Corpus:
    """Build the synthetic corpus; identical output for identical seed."""
    rng = random.Random(seed)
    sentences: list[LabeledSentence] = []
    serial = 0
    for label in CLASS_TARGETS:
        produced = 0
        templates = _TEMPLATES[label]
        cursor = 0
        while produced < CLASS_TARGETS[label]:
            template = templates[cursor % len(templates)]
            cursor += 1
            text, spans = _assemble(template(rng))
            for span, span_label in spans:
                serial += 1
                sentences.append(
                    LabeledSentence(id=f"s{serial:04d}", text=text, span=span, label=span_label)
                )
                produced += 1
    return Corpus(sentences=tuple(sentences))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regenerate the bundled synthetic corpus")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    corpus = generate_corpus(args.seed)
    save_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
