"""Run one workload's program calls in a process of their own.

Usage: python3 perfbench/worker.py JOB_JSON

``run.py`` writes the job (workload, inputs, run length, tracing on or off)
and reads back what this process records: the set-up times and, one JSON
line per operation, its wall time and the program's raw output. Checking
the output is left to ``run.py``, so this process's peak RSS is that of the
program calls plus the inputs fed to them.

Stream and cv call ``numctx.cli.main`` in this process; oneshot starts a
fresh ``python -m numctx.cli`` per input line. With tracing on, every
operation runs twice, untraced then traced, so the difference of the two is
the tracing overhead. Before every set-up and every operation, and once
after the last of each, a reference workload of ``reference.py`` is timed:
the in-process one around set-ups and stream and cv operations, the process
one around oneshot operations.
"""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from reference import process_reference_ns, reference_ns

MODELS = ("dt", "knn", "lda", "svm")
SETUP_REPEATS = 9
# stream feeds each model its lines in this many blocks, one classify run
# each: more, shorter operations give a steadier median on a drifting host
STREAM_BLOCKS = 4
# oneshot cycles through this many input lines, evenly spaced over the
# stream sentences, and stops only after a whole cycle, so every run makes
# the same distinct operations whatever the host's speed
ONESHOT_LINES = 4
PROCESS_TIMEOUT_S = 60


class LineFeed:
    """Stands in for stdin: hands the program one line at a time and keeps
    the position, so a ``classify`` call that aborted is followed by a new
    call that starts on the next line."""

    def __init__(self, lines: list[str], first: int, tracer=None):
        self.lines = lines
        self.first = first  # index of lines[0] in the whole input, the request id
        self.pos = 0
        self.tracer = tracer

    def __iter__(self):
        return self

    def __next__(self) -> str:
        if self.pos >= len(self.lines):
            raise StopIteration
        if self.tracer is not None:
            self.tracer.request = self.first + self.pos
        self.pos += 1
        return self.lines[self.pos - 1]


def call_cli(cli, argv: list[str], stdin, tracer=None) -> tuple[int, str, str]:
    """``numctx.cli.main(argv)`` with stdin, stdout and stderr redirected;
    returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = stdin, out, err
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.span(f"cli.{argv[0]}", cli.main, (argv,))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        # a crash of the program is one failed operation, not the end of the run
        rc = 1
        err.write(traceback.format_exc())
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, out.getvalue(), err.getvalue()


def stream_block(cli, model_path: str, lines: list[str], first: int, tracer=None) -> dict:
    """All ``lines`` through ``classify``; after an abort, a new call resumes
    on the next line. Each segment is one call: [first line, end line, exit
    code, stdout, stderr], counted within ``lines``; the line before ``end``
    is the aborted one when the exit code is not 0."""
    feed = LineFeed(lines, first, tracer)
    segments = []
    t0 = time.perf_counter_ns()
    while feed.pos < len(lines):
        start = feed.pos
        rc, out, err = call_cli(cli, ["classify", "--model", model_path], feed, tracer)
        segments.append([start, feed.pos, rc, out, err])
        if feed.pos == start:
            break  # the call read nothing, so another would not either
    return {"wall_ns": time.perf_counter_ns() - t0, "segments": segments}


def compare_run(cli, model: str, corpus_path: str, tracer=None) -> dict:
    t0 = time.perf_counter_ns()
    rc, out, err = call_cli(cli, ["compare", "--classifier", model, "--corpus", corpus_path], iter(()), tracer)
    return {"wall_ns": time.perf_counter_ns() - t0, "rc": rc, "stdout": out, "stderr": err}


def one_process(job: dict, model_path: str, line: str, op: int, traced: bool) -> dict:
    """One fresh interpreter classifying one line, timed from spawn to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [job["src"], env.get("PYTHONPATH")]))
    args = ["classify", "--model", model_path]
    t0 = time.perf_counter_ns()
    if traced:
        cmd = [sys.executable, job["launcher"], job["spans"], str(op), str(t0), *args]
    else:
        cmd = [sys.executable, "-m", "numctx.cli", *args]
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, cwd=job["root"],
    )
    try:
        out, err = proc.communicate(line + "\n", timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    return {"wall_ns": time.perf_counter_ns() - t0, "rc": proc.returncode, "stdout": out, "stderr": err}


def setup(cli, job: dict, tracer=None) -> tuple[float, list[str]]:
    """The program work before the first timed operation; returns its
    seconds and the program's stdout of each call."""
    t0 = time.perf_counter_ns()
    if job["workload"] == "cv":
        calls = [call_cli(cli, ["validate", "--corpus", job["corpus"]], iter(()), tracer)]
    else:
        calls = [
            call_cli(cli, ["train", "--classifier", m, "--output", job["models"][m]], iter(()), tracer)
            for m in MODELS
        ]
    seconds = (time.perf_counter_ns() - t0) / 1e9
    for rc, out, err in calls:
        if rc != 0:
            raise RuntimeError(f"set-up failed with exit code {rc}: {out}{err}")
    return seconds, [out for _, out, _ in calls]


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    from numctx import cli

    tracer = None
    unmeasured: list[str] = []
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()

    # set-up i runs between setup_refs[i] and setup_refs[i + 1]; operation i
    # (its "step") between op_refs[i] and op_refs[i + 1]
    setup_refs: list[int] = []
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_refs.append(reference_ns())
        setups.append(setup(cli, job))
    setup_refs.append(reference_ns())
    op_reference = process_reference_ns if job["workload"] == "oneshot" else reference_ns
    op_refs: list[int] = []
    ops_path = Path(job["ops"])
    op = 0

    def record(entry: dict, traced: bool) -> None:
        nonlocal op
        entry.update(op=op, traced=traced, step=len(op_refs) - 1)
        with ops_path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry) + "\n")
        if tracer is not None and tracer.spans:
            tracer.dump(job["spans"], op)
        op += 1

    if tracer is not None:
        # one more set-up, traced, for the layers that only set-up reaches
        unmeasured = tracer.install()
        op_refs.append(op_reference())
        seconds, _ = setup(cli, job, tracer)
        tracer.uninstall()
        record({"kind": "setup", "model": None, "wall_ns": int(seconds * 1e9)}, True)

    lines = [line + "\n" for line in job.get("lines", [])]
    bounds = [len(lines) * b // STREAM_BLOCKS for b in range(STREAM_BLOCKS + 1)]
    oneshot_lines = [len(lines) * i // ONESHOT_LINES for i in range(ONESHOT_LINES)]
    deadline = time.perf_counter() + job["seconds"]
    cycle = 0
    while True:
        if job["workload"] == "stream":
            plan = [(model, block) for block in range(STREAM_BLOCKS) for model in MODELS]
        else:
            plan = [(model, None) for model in MODELS]
        for model, block in plan:
            for traced in (False, True) if tracer is not None else (False,):
                op_refs.append(op_reference())
                if job["workload"] == "oneshot":
                    line = oneshot_lines[cycle]
                    entry = one_process(job, job["models"][model], job["lines"][line], op, traced)
                    entry.update(kind="process", line=line)
                else:
                    if traced:
                        tracer.install()
                    if job["workload"] == "stream":
                        first, end = bounds[block], bounds[block + 1]
                        entry = stream_block(cli, job["models"][model], lines[first:end], first, tracer if traced else None)
                        entry.update(kind="classify", first=first, end=end)
                    else:
                        entry = compare_run(cli, model, job["corpus"], tracer if traced else None)
                        entry.update(kind="compare")
                    if traced:
                        tracer.uninstall()
                entry.update(model=model)
                record(entry, traced)
        if job["workload"] == "oneshot":
            cycle = (cycle + 1) % ONESHOT_LINES
        if cycle == 0 and time.perf_counter() >= deadline:
            break
    op_refs.append(op_reference())

    return {
        "setup_s": [seconds for seconds, _ in setups],
        "setup_refs_ns": setup_refs,
        "op_refs_ns": op_refs,
        "setup_outputs": setups[-1][1],
        "unmeasured": unmeasured,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "model_bytes": {m: os.path.getsize(p) for m, p in job.get("models", {}).items()},
    }


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = run(job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
