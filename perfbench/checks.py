"""Output checks, and self-tests that show each check counts a failure.

An operation fails when the program exits non-zero (an abort) or when its
output fails a check. Only the second makes the run incorrect: a line that
``classify`` aborts on is a known defect of the program that the benchmark
keeps visible as a failed operation.

- ``classify``: every output line matches ``start-end<TAB>Label<TAB>words``
  with a lowercase verbalization, and the spans of one input line equal
  ``locate_numbers`` of that line, in order.
- ``compare``: the report parses and its figures are percentages whose
  delta adds up.
- Every repeat of an operation within a run (the same stream block, compare
  or oneshot line for the same model) exits and prints exactly as its first
  run did.

Each distinct operation counts once in ``attempted``; its first run is
checked in full and each repeat only for identity with it. A repeat that
differs is one more failed operation. So a run of correct, deterministic
code reports the same counts for a seed however many repeats fit its time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

LABEL_NAMES = ("Date", "Time", "Phone", "Currency", "Measurement", "Percentage")
OUTPUT_LINE = re.compile(r"(\d+)-(\d+)\t(?:" + "|".join(LABEL_NAMES) + r")\t[a-z ]+")
MAX_PROBLEMS = 5


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0  # operations that aborted or failed a check
    bad: int = 0  # operations that failed a check
    aborted: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.bad += other.bad
        self.aborted += other.aborted
        self.problems.extend(other.problems[: MAX_PROBLEMS - len(self.problems)])

    def note(self, problem: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)


def _lines_ok(got: list[str], spans: list[tuple[int, int]]) -> bool:
    """``got`` are well-formed output lines whose spans are a prefix of ``spans``."""
    for text, span in zip(got, spans):
        m = OUTPUT_LINE.fullmatch(text)
        if m is None or (int(m.group(1)), int(m.group(2))) != tuple(span):
            return False
    return len(got) <= len(spans)


def check_stream(segments: list, spans: list[list[tuple[int, int]]]) -> Tally:
    """One streamed pass: ``segments`` as ``worker.stream_block`` records them,
    ``spans`` the located numbers of every input line. One operation is one
    input line."""
    tally = Tally(attempted=len(spans))
    read = 0
    for start, end, rc, out, err in segments:
        out_lines = out.splitlines()
        pos = 0
        for i in range(start, end):
            aborted = rc != 0 and i == end - 1
            got = out_lines[pos : pos + len(spans[i])]
            pos += len(got)
            if not _lines_ok(got, spans[i]) or not (aborted or len(got) == len(spans[i])):
                tally.bad += 1
                tally.failed += 1
                tally.note(f"line {i}: output {got!r} does not match spans {spans[i]}")
            elif aborted:
                tally.aborted += 1
                tally.failed += 1
                tally.note(f"line {i}: exit {rc}: {err.strip()[-200:]}")
        if pos != len(out_lines):
            tally.bad += 1
            tally.failed += 1
            tally.note(f"lines {start}-{end}: {len(out_lines) - pos} output lines beyond the input")
        read = end
    if read < len(spans):
        tally.failed += len(spans) - read
        tally.note(f"lines {read}-{len(spans)} were never read")
    return tally


def check_process(op: dict, spans: list[tuple[int, int]]) -> Tally:
    """One oneshot process classifying one line."""
    tally = Tally(attempted=1)
    if op["rc"] != 0:
        tally.aborted = tally.failed = 1
        tally.note(f"process {op['op']}: exit {op['rc']}: {op['stderr'].strip()[-200:]}")
        return tally
    got = op["stdout"].splitlines()
    if len(got) != len(spans) or not _lines_ok(got, spans):
        tally.bad = tally.failed = 1
        tally.note(f"process {op['op']}: output {got!r} does not match spans {spans}")
    return tally


def report_problem(report: str, model: str) -> str | None:
    """Why a ``compare`` TSV report is malformed, or None when it is not."""
    lines = report.splitlines()
    head = ["# kind\tcomparison", f"# classifier\t{model}", "# folds\t10", "# seed\t42",
            "section\tcomparison", "extractor\thighest_pct\tmean_pct\tstd_pct"]
    if len(lines) != len(head) + 3 or lines[: len(head)] != head:
        return "unexpected report layout"
    rows = {}
    for text, name in zip(lines[len(head) :], ("context", "bow", "delta_mean_pct")):
        fields = text.split("\t")
        if fields[0] != name:
            return f"expected a {name!r} row, got {text!r}"
        try:
            rows[name] = [float(f) for f in fields[1:]]
        except ValueError:
            return f"non-numeric figure in {text!r}"
    for name, count in (("context", 3), ("bow", 3), ("delta_mean_pct", 1)):
        if len(rows[name]) != count:
            return f"{name} row has {len(rows[name])} figures, expected {count}"
    for name in ("context", "bow"):
        highest, mean, std = rows[name]
        if not (0 <= mean <= highest <= 100 and std >= 0):
            return f"{name} figures out of range: {rows[name]}"
    if abs(rows["delta_mean_pct"][0] - (rows["context"][1] - rows["bow"][1])) > 0.0051:
        return "delta_mean_pct is not context minus bow"
    return None


def check_compare(op: dict) -> Tally:
    """One ``compare`` run."""
    tally = Tally(attempted=1)
    if op["rc"] != 0:
        tally.aborted = tally.failed = 1
        tally.note(f"compare {op['model']} op {op['op']}: exit {op['rc']}: {op['stderr'].strip()[-200:]}")
        return tally
    problem = report_problem(op["stdout"], op["model"])
    if problem is not None:
        tally.bad = tally.failed = 1
        tally.note(f"compare {op['model']} op {op['op']}: {problem}")
    return tally


def _result(op: dict):
    """What a run of an operation printed and how it exited; stderr is left
    out, since a traceback names the files it passed through."""
    if "segments" in op:
        return [segment[:4] for segment in op["segments"]]
    return op["rc"], op["stdout"]


def check_repeats(runs: list[dict]) -> Tally:
    """The runs of one distinct operation: every repeat exits and prints as
    the first run did. Each one that differs counts as a failed operation."""
    tally = Tally()
    for op in runs[1:]:
        if _result(op) != _result(runs[0]):
            tally.attempted += 1
            tally.bad += 1
            tally.failed += 1
            tally.note(f"{op['model']} op {op['op']}: differs from the first run of the same operation (op {runs[0]['op']})")
    return tally


_SPANS = [[(20, 22)], [(6, 8), (14, 16)]]
_GOOD = "20-22\tDate\tdua puluh satu januari\n"
_REPORT = (
    "# kind\tcomparison\n# classifier\tdt\n# folds\t10\n# seed\t42\nsection\tcomparison\n"
    "extractor\thighest_pct\tmean_pct\tstd_pct\ncontext\t99.01\t97.03\t1.50\n"
    "bow\t60.40\t55.45\t3.21\ndelta_mean_pct\t41.58\n"
)


def self_test() -> list[str]:
    """Feed each check a known-good and a known-bad output; return the cases
    whose failure count came out wrong (empty when every check works)."""
    two = "6-8\tPercentage\tlima peratus\n14-16\tTime\tdua petang\n"
    compare = {"model": "dt", "rc": 0, "stderr": ""}
    cases = {
        "good stream": (check_stream([[0, 2, 0, _GOOD + two, ""]], _SPANS), 0),
        "corrupted output line": (check_stream([[0, 2, 0, _GOOD.replace("dua", "Dua") + two, ""]], _SPANS), 1),
        "span that locate_numbers did not give": (check_stream([[0, 2, 0, _GOOD.replace("22", "23") + two, ""]], _SPANS), 1),
        "missing output line": (check_stream([[0, 2, 0, _GOOD + two.split("\n")[0] + "\n", ""]], _SPANS), 1),
        "aborted line, then resumed": (check_stream([[0, 1, 1, "", "x"], [1, 2, 0, two, ""]], _SPANS), 1),
        "line never read": (check_stream([[0, 1, 0, _GOOD, ""]], _SPANS), 1),
        "good process": (check_process({"op": 0, "rc": 0, "stdout": _GOOD, "stderr": ""}, _SPANS[0]), 0),
        "non-zero exit": (check_process({"op": 0, "rc": 1, "stdout": "", "stderr": "x"}, _SPANS[0]), 1),
        "malformed process output": (check_process({"op": 0, "rc": 0, "stdout": "20-22\tDate\t\n", "stderr": ""}, _SPANS[0]), 1),
        "good report": (check_compare(dict(compare, op=0, stdout=_REPORT)), 0),
        "report with a wrong delta": (check_compare(dict(compare, op=0, stdout=_REPORT.replace("41.58", "41.59"))), 1),
        "compare that exits non-zero": (check_compare(dict(compare, op=0, rc=1, stdout="")), 1),
        "repeated report": (check_repeats([dict(compare, op=0, stdout=_REPORT), dict(compare, op=1, stdout=_REPORT)]), 0),
        "mismatched report": (check_repeats([dict(compare, op=0, stdout=_REPORT), dict(compare, op=1, stdout=_REPORT.replace("99.01", "99.02"))]), 1),
        "repeated stream block that printed other bytes": (
            check_repeats([{"model": "dt", "op": 0, "segments": [[0, 2, 0, _GOOD + two, ""]]},
                           {"model": "dt", "op": 1, "segments": [[0, 2, 0, _GOOD.replace("satu", "dua") + two, ""]]}]), 1),
        "repeated process that exited otherwise": (
            check_repeats([{"model": "dt", "op": 0, "rc": 0, "stdout": _GOOD}, {"model": "dt", "op": 1, "rc": 1, "stdout": _GOOD}]), 1),
    }
    return [f"{name}: {tally.failed} failed, expected {want}" for name, (tally, want) in cases.items() if tally.failed != want]


if __name__ == "__main__":
    broken = self_test()
    print("\n".join(broken) or "all checks count failures as expected")
    raise SystemExit(1 if broken else 0)
