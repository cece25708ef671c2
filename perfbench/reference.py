"""Fixed reference workloads that gauge how fast the host runs right now.

The host this benchmark was built on changes speed by up to 1.7x for
seconds to minutes at a time, on both of its CPUs at once. Wall-time medians
of the same code then spread by 15 to 45% between runs. The worker times a
reference before every timed step and once after the last, and ``run.py``
scales each step's wall time by the reference's nominal time over the mean
of the two reference times around it. Scaled times spread far less; raw
wall times are still printed in the report.

Neither reference uses numctx, so a change to the program cannot move them.
``reference_ns`` mixes what the program's hot path does in process: regex
scans, small frozen dataclasses, dict lookups, string joins and small numpy
vectors. ``process_reference_ns`` starts an interpreter that imports numpy,
as every one-shot ``classify`` process does; process start and import slow
down far less than computation in the host's slow phases, so they need a
reference of their own.
"""

from __future__ import annotations

import re
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# the references' times on the host the benchmark was built on, when fast
NOMINAL_MS = 20.0
NOMINAL_PROCESS_MS = 130.0

_TEXT = (
    "Kerajaan negeri menerima laporan baharu pada 12 Mac 2024 dengan RM 34.50 "
    "dan 7% pukul 9:30 pagi, talian 03-1234 5678."
)
_NUMBER = re.compile(r"\d+(?:[.,:/-]\d+)*")
_WORD = re.compile(r"\S+")
_WEIGHTS = np.arange(6 * 56, dtype=np.float64).reshape(6, 56) / 100


@dataclass(frozen=True)
class _Token:
    surface: str
    start: int
    end: int
    lowered: str


def _once() -> int:
    tokens = [_Token(m.group(), m.start(), m.end(), m.group().lower()) for m in _WORD.finditer(_TEXT)]
    total = 0
    for m in _NUMBER.finditer(_TEXT):
        vec = np.zeros(56)
        vec[m.start() % 56] = 1.0
        vec[(m.end() * 7) % 56] = 1.0
        best = int(np.argmax(_WEIGHTS @ vec))
        total += best + len(" ".join(t.lowered for t in tokens if t.end <= m.start()))
    return total


def reference_ns(repeats: int = 300) -> int:
    """Wall nanoseconds of the reference workload."""
    t0 = time.perf_counter_ns()
    for _ in range(repeats):
        _once()
    return time.perf_counter_ns() - t0


def process_reference_ns() -> int:
    """Wall nanoseconds of a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter_ns() - t0
