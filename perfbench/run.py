"""numctx benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {stream,cv,oneshot} --seed N --seconds S --trace {0,1}

Generates the workload's inputs from the seed, has ``worker.py`` run the
program on them in a process of its own for S seconds, checks every output,
prints a report and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every operation also
runs traced and the metrics are the per-layer ones. The exit code is 0 when
every output passed its checks, 1 when one did not, 2 when the run could not
be made. See README.md beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from reference import NOMINAL_MS, NOMINAL_PROCESS_MS  # noqa: E402
from worker import MODELS  # noqa: E402

WORKLOADS = ("stream", "cv", "oneshot")
RUN_LIMIT_S = 175  # the whole run, worker included, ends within this

UNITS = {"setup_s": "s", **{f"op_ms_{m}": "ms" for m in MODELS}, "peak_rss_mb": "MB"}

# every layer a span may name, in the order the report lists them
LAYERS = (
    "locator.tokenize", "locator.locate_numbers", "locator.shape_of",
    "context_features.window_for_token", "context_features.encode",
    "context_features.encode_at", "context_features.token_at", "context_features.load_lexicon",
    *(f"classifiers.predict.{m}" for m in MODELS),
    *(f"classifiers.predict_batch.{m}" for m in MODELS),
    *(f"classifiers.train.{m}" for m in MODELS),
    "classifiers.deserialize", "verbalizer.verbalize",
    "cli.classify", "cli.compare", "cli.train", "cli.validate", "cli.load_pipeline",
    "bow_features.build_vocab", "bow_features.bow_encode",
    "corpus.load_corpus", "corpus.scan_corpus", "corpus.stratified_folds",
    "evaluation.cross_validate",
    "python.startup", "import.numpy", "import.numctx",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.us_per_call": "us", f"{layer}.calls": "count", f"{layer}.self_share": "%"})
    units.update({f"classifiers.predict_batch.{m}.us_per_row": "us" for m in MODELS})
    units.update({f"classifiers.deserialize.bytes_{m}": "count" for m in MODELS})
    units.update({"verbalizer.verbalize.fail_ratio": "ratio", "tracing_overhead_pct": "%"})
    return units


# --- environment -------------------------------------------------------------


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


# --- statistics --------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least 10 samples above it, and
    its nearest-rank value; None when there are fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))
    return pct, sorted(values)[rank - 1]


# --- checks -----------------------------------------------------------------


def read_ops(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def check_ops(workload: str, ops: list[dict], data: inputs.Inputs) -> tuple[checks.Tally, dict[str, str]]:
    """Check every operation; return the tally and a digest of each model's
    output, so a change of output bytes shows between two commits. Each
    distinct operation (stream block, compare run or oneshot line, per
    model) counts once; its repeats must exit and print as its first run."""
    tally = checks.Tally()
    digests: dict[str, str] = {}
    timed = [op for op in ops if op["kind"] != "setup"]
    for model in MODELS:
        # distinct operation (stream block, oneshot line, or None for cv) -> its runs, in the order they ran
        runs: dict[int | None, list[dict]] = defaultdict(list)
        for op in timed:
            if op["model"] == model:
                runs[op.get("first", op.get("line"))].append(op)
        outputs = []
        for mine in runs.values():
            first = mine[0]
            if workload == "cv":
                tally.add(checks.check_compare(first))
                outputs.append(first["stdout"])
            elif workload == "stream":
                tally.add(checks.check_stream(first["segments"], data.spans[first["first"] : first["end"]]))
                outputs.append("".join(s[3] for s in first["segments"]))
            else:
                tally.add(checks.check_process(first, data.spans[first["line"]]))
                outputs.append(first["stdout"])
            tally.add(checks.check_repeats(mine))
        digests[model] = hashlib.sha256("".join(outputs).encode()).hexdigest()[:16]
    return tally, digests


# --- metrics ----------------------------------------------------------------


def scale(wall_ns: int, step: int, refs: list[int], nominal_ms: float) -> float:
    """Wall time of timed step ``step`` in ms, scaled to the reference's
    nominal speed by the reference times just before and after it."""
    return wall_ns / 1e6 * nominal_ms * 2e6 / (refs[step] + refs[step + 1])


def end_to_end(workload: str, ops: list[dict], result: dict) -> tuple[dict, list[str]]:
    """Medians of scaled times: set-up in s; per model, ms per compare run
    (cv) or per process (oneshot), and for stream ms per input line, the sum
    over the input's blocks of each block's median time over the lines."""
    setup_refs, op_refs = result["setup_refs_ns"], result["op_refs_ns"]
    nominal = NOMINAL_PROCESS_MS if workload == "oneshot" else NOMINAL_MS

    def ms(op: dict) -> float:
        return scale(op["wall_ns"], op["step"], op_refs, nominal)

    setups = [s * 1e9 for s in result["setup_s"]]
    metrics = {"setup_s": statistics.median(scale(ns, i, setup_refs, NOMINAL_MS) for i, ns in enumerate(setups)) / 1e3}
    report = [
        f"{'process' if workload == 'oneshot' else 'in-process'} reference around operations: "
        f"median {statistics.median(op_refs) / 1e6:.2f} ms (nominal {nominal} ms), "
        f"range {min(op_refs) / 1e6:.2f}-{max(op_refs) / 1e6:.2f} ms, n={len(op_refs)}",
        f"setup_s: scaled {metrics['setup_s']:.4f}, raw runs {', '.join(f'{s:.4f}' for s in result['setup_s'])}",
    ]
    pooled = []
    for model in MODELS:
        mine = [op for op in ops if op["model"] == model and op["kind"] != "setup"]
        if workload == "stream":
            blocks = defaultdict(list)
            for op in mine:
                blocks[op["first"], op["end"]].append(op)
            lines = sum(end - first for first, end in blocks)
            med = sum(statistics.median(ms(op) for op in b) for b in blocks.values()) / lines
            raw = sum(statistics.median(op["wall_ns"] / 1e6 for op in b) for b in blocks.values()) / lines
            text = f"scaled {med:.6g} ms ({len(mine)} blocks of {lines} lines); raw {raw:.6g} ms, {1000 / raw:.0f} lines/s"
        else:
            q1, med, q3 = quartiles([ms(op) for op in mine])
            raw_ms = [op["wall_ns"] / 1e6 for op in mine]
            pooled += raw_ms
            text = (f"scaled median {med:.6g} ms (q1 {q1:.6g}, q3 {q3:.6g}, n={len(mine)}); "
                    f"raw median {statistics.median(raw_ms):.6g} ms")
        metrics[f"op_ms_{model}"] = med
        report.append(f"op_ms_{model}: {text}")
    if workload == "oneshot":
        t = tail(pooled)
        report.append(
            f"raw latency over all processes: p50 {statistics.median(pooled):.1f} ms, "
            + (f"p{t[0]} {t[1]:.1f} ms" if t else "no tail (fewer than 11 samples)")
            + f", n={len(pooled)}"
        )
    rss_kb = result["children_rss_kb"] if workload == "oneshot" else result["rss_kb"]
    metrics["peak_rss_mb"] = rss_kb / 1024
    return metrics, report


def read_spans(path: Path):
    """Yield (op, spans) with spans as (name, duration_ns, self_ns, request,
    rows, error); self time is duration minus the time of child spans."""
    rows: list[list[str]] = []
    current = None
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            if fields[0] != current and rows:
                yield int(current), _self_times(rows)
                rows = []
            current = fields[0]
            rows.append(fields)
    if rows:
        yield int(current), _self_times(rows)


def _self_times(rows: list[list[str]]) -> list[tuple]:
    durations = [int(r[5]) - int(r[4]) for r in rows]
    covered = [0] * len(rows)
    for r, duration in zip(rows, durations):
        if r[2] != "-1":
            covered[int(r[2])] += duration
    return [
        (r[3], d, d - c, r[6], None if r[7] == "-" else int(r[7]), None if r[8] == "-" else r[8])
        for r, d, c in zip(rows, durations, covered)
    ]


def per_layer(ops: list[dict], result: dict, spans_path: Path) -> tuple[dict, list[str]]:
    by_op = {op["op"]: op for op in ops}
    traced_ops = [op for op in ops if op["traced"]]
    first_round: dict[tuple, int] = {}  # (model, stream block) -> its first traced op
    for op in traced_ops:
        first_round.setdefault((op["model"], op.get("first")), op["op"])
    first_round = set(first_round.values())
    calls, calls_round, total, self_ns, rows, errors = (Counter() for _ in range(6))
    accounted = defaultdict(lambda: [0, 0])  # model -> [self ns of spans, traced wall ns]
    for op, spans in read_spans(spans_path):
        model = by_op[op]["model"] if op in by_op else None
        for name, duration, own, _request, work, error in spans:
            calls[name] += 1
            calls_round[name] += op in first_round
            total[name] += duration
            self_ns[name] += own
            rows[name] += work or 0
            if error:
                errors[name, error] += 1
            accounted[model][0] += own
    for op in traced_ops:
        accounted[op["model"]][1] += op["wall_ns"]
    traced_wall = sum(op["wall_ns"] for op in traced_ops) or 1

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.us_per_call"] = total[layer] / calls[layer] / 1e3 if calls[layer] else 0.0
        metrics[f"{layer}.calls"] = calls_round[layer]
        metrics[f"{layer}.self_share"] = 100 * self_ns[layer] / traced_wall
    for m in MODELS:
        name = f"classifiers.predict_batch.{m}"
        metrics[f"{name}.us_per_row"] = total[name] / rows[name] / 1e3 if rows[name] else 0.0
        metrics[f"classifiers.deserialize.bytes_{m}"] = result["model_bytes"].get(m, 0)
    verbalize = "verbalizer.verbalize"
    metrics[f"{verbalize}.fail_ratio"] = errors[verbalize, "VerbalizationError"] / calls[verbalize] if calls[verbalize] else 0.0
    pairs = [(by_op[op["op"] - 1], op) for op in traced_ops if op["kind"] != "setup"]
    untraced = sum(u["wall_ns"] for u, _ in pairs)
    metrics["tracing_overhead_pct"] = 100 * (sum(t["wall_ns"] for _, t in pairs) - untraced) / untraced

    report = ["layer\tcalls(first round)\tcalls(all)\tus_per_call\tself_ms\tself_share%"]
    for name in sorted(calls, key=lambda n: -self_ns[n]):
        report.append(
            f"{name}\t{calls_round[name]}\t{calls[name]}\t{total[name] / calls[name] / 1e3:.2f}"
            f"\t{self_ns[name] / 1e6:.1f}\t{100 * self_ns[name] / traced_wall:.2f}"
        )
    for (name, error), count in sorted(errors.items()):
        report.append(f"raised: {name} {error} x{count} of {calls[name]} calls")
    for model, (own, wall) in accounted.items():
        if wall:
            report.append(f"span self times cover {100 * own / wall:.1f}% of traced wall time ({model or 'setup'})")
    report.append(f"tracing overhead: {metrics['tracing_overhead_pct']:.1f}% over {len(pairs)} paired operations")
    missing = [layer for layer in LAYERS if not calls[layer]]
    report.append(f"layers not reached by this workload: {', '.join(missing) or 'none'}")
    report.append(f"unmeasured (attribute no longer exists): {', '.join(result['unmeasured']) or 'none'}")
    return metrics, report


# --- the run ----------------------------------------------------------------


def run(args, workdir: Path, started: float) -> int:
    data = inputs.make_inputs(args.workload, args.seed, workdir)
    print(f"inputs: {json.dumps(data.fingerprint, sort_keys=True)}")
    job = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "root": str(ROOT),
        "src": str(SRC),
        "launcher": str(HERE / "launch.py"),
        "ops": str(workdir / "ops.jsonl"),
        "spans": str(workdir / "spans.tsv"),
        "result": str(workdir / "result.json"),
    }
    if args.workload == "cv":
        job["corpus"] = str(workdir / "corpus.csv")
    else:
        job["lines"] = data.lines
        job["models"] = {m: str(workdir / f"{m}.model") for m in MODELS}
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")

    budget = RUN_LIMIT_S - (time.perf_counter() - started) - 10
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)], cwd=ROOT, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"error: the worker did not finish within {budget:.0f} s", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        print(f"error: the worker exited with code {proc.returncode}", file=sys.stderr)
        return 2
    result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    ops = read_ops(Path(job["ops"]))

    tally, digests = check_ops(args.workload, ops, data)
    if args.workload == "cv":
        rows_line = f"rows\t{data.fingerprint['rows']}"
        if rows_line not in result["setup_outputs"][0].splitlines():
            tally.bad += 1
            tally.note(f"validate did not report {rows_line!r}")
    print(f"output digests (sha256 of each model's output over its distinct operations): {json.dumps(digests)}")
    print(f"operations: attempted {tally.attempted}, failed {tally.failed} "
          f"(aborted {tally.aborted}, failed a check {tally.bad})")
    for problem in tally.problems:
        print(f"  {problem}")

    if args.trace:
        metrics, report = per_layer(ops, result, Path(job["spans"]))
        units = per_layer_units()
    else:
        metrics, report = end_to_end(args.workload, ops, result)
        units = UNITS
    print("\n".join(report))
    correct = tally.bad == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "numctx" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'numctx'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    broken = checks.self_test()
    if broken:
        print("error: the output checks fail their self-test:\n" + "\n".join(broken), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print(f"numctx benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"machine: {json.dumps(machine(), sort_keys=True)}")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return run(args, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
