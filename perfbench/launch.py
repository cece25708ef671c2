"""Traced stand-in for ``python -m numctx.cli`` in the oneshot workload.

Usage: python3 perfbench/launch.py SPANS_FILE OP SPAWN_NS CLI_ARGS...

Times the interpreter start (from SPAWN_NS, the parent's ``perf_counter_ns``
just before it spawned this process; both read the same monotonic clock),
``import numpy``, the rest of ``import numctx.cli``, and, with the wrappers
of ``tracing.py`` installed, the ``numctx.cli.main`` call. The spans are
appended to SPANS_FILE under operation OP; the exit code is the program's.
"""

import time

STARTED_NS = time.perf_counter_ns()

import importlib  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, op, spawn_ns, cli_args = argv[1], int(argv[2]), int(argv[3]), argv[4:]
    tracer = Tracer()
    tracer.request = op
    tracer.spans.append(["python.startup", spawn_ns, STARTED_NS, -1, op, None, None])
    try:
        tracer.span("import.numpy", importlib.import_module, ("numpy",))
        cli = tracer.span("import.numctx", importlib.import_module, ("numctx.cli",))
        tracer.install()
        return tracer.span(f"cli.{cli_args[0]}", cli.main, (cli_args,))
    finally:
        tracer.dump(spans_path, op)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
