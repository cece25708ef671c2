"""Model bytes under every OpenBLAS kernel the CPU can run.

numpy's OpenBLAS, when built with ``DYNAMIC_ARCH``, picks a kernel for the
CPU when it loads, and ``OPENBLAS_CORETYPE`` forces another. Kernels may sum
a product in different orders, so the bytes of a model whose training calls
BLAS are only reproducible if every kernel gives them. ``KERNEL_CASES`` are
re-run in a subprocess under each kernel that the CPU's flags allow, except
the one this process already runs them under.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy  # noqa: F401  (loads numpy's BLAS, so this process's maps name it)
import pytest

REPO = Path(__file__).resolve().parents[1]

# The pytest node ids whose bytes must not depend on the kernel: the SVM
# oracle, whose margins are gemv calls; the SVM folds trained in one stack,
# each equal to its split trained alone only if gemv sums a row the same way
# at the row's place in either matrix; and the SVM model files. LDA's cases
# join once its weights stop depending on the kernel's summation order.
KERNEL_CASES = (
    "tests/test_classifiers.py::TestSvmMatchesPerClassTrainer",
    "tests/test_classifiers.py::TestStackedSvmFolds",
    *(
        f"tests/test_evaluation.py::TestTrainFolds::test_each_fold_model_equals_train[{corpus}-{extractor}-{seed}-svm]"
        for corpus in ("bundled", "generated")
        for extractor in ("context", "bow")
        for seed in (42, 29)
    ),
    "tests/test_golden.py::test_output_matches_pinned_digest[train svm context]",
    "tests/test_golden.py::test_output_matches_pinned_digest[train svm bow]",
)

# each OPENBLAS_CORETYPE and the /proc/cpuinfo flags its kernels need
KERNELS = {
    "Prescott": {"pni"},
    "Sandybridge": {"avx"},
    "Haswell": {"avx2", "fma"},
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
}

# prints the kernel OpenBLAS loaded, then runs pytest on the arguments
_RUN_CASES = f"""
import sys
sys.path.insert(0, {str(REPO / "tests")!r})
import pytest
from test_blas_kernels import openblas_string
print(openblas_string("get_corename"), flush=True)
sys.exit(pytest.main(sys.argv[1:]))
"""


def openblas_string(name: str) -> str | None:
    """OpenBLAS's ``openblas_<name>()`` from the library numpy loaded into
    this process, or None when that BLAS is not OpenBLAS. numpy 2's wheels
    prefix the symbol ``scipy_``, and 64-bit-index builds suffix it ``64_``."""
    import ctypes

    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    fields = (line.split(maxsplit=5) for line in maps.read_text().splitlines())
    paths = sorted({f[5] for f in fields if len(f) == 6 and "openblas" in Path(f[5]).name.lower()})
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in (f"{p}{name}{s}" for p in ("scipy_openblas_", "openblas_") for s in ("64_", "")):
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes, function.restype = [], ctypes.c_char_p
                return function().decode()
    return None


def _cpu_flags() -> set[str]:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


def _run_cases_under(kernel: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": str(REPO / "src")}
    args = ["-q", "-rf", "-p", "no:cacheprovider", *KERNEL_CASES]
    return subprocess.run([sys.executable, "-c", _RUN_CASES, *args], cwd=REPO, env=env, capture_output=True, text=True)


def test_svm_bytes_equal_under_every_kernel_the_cpu_runs():
    if not Path("/proc/cpuinfo").exists():
        pytest.skip("the CPU's flags are read from /proc/cpuinfo, which this system lacks")
    config = openblas_string("get_config")
    if config is None:
        pytest.skip("numpy's BLAS is not OpenBLAS, so OPENBLAS_CORETYPE chooses nothing")
    if "DYNAMIC_ARCH" not in config.split():
        pytest.skip(f"numpy's OpenBLAS holds one kernel, not a DYNAMIC_ARCH set: {config}")
    here, flags = openblas_string("get_corename"), _cpu_flags()
    kernels = [kernel for kernel, needs in KERNELS.items() if needs <= flags and kernel.lower() != here.lower()]
    if not kernels:
        pytest.skip(f"the CPU runs no kernel of {sorted(KERNELS)} besides {here}, which this run uses")
    with ThreadPoolExecutor(max_workers=2) as pool:  # one run per CPU of a 2-CPU runner
        runs = dict(zip(kernels, pool.map(_run_cases_under, kernels)))
    loaded = {}
    for kernel, proc in runs.items():
        output = f"under OPENBLAS_CORETYPE={kernel}:\n{proc.stdout[-4000:]}{proc.stderr[-2000:]}"
        assert proc.returncode == 0, output
        loaded[kernel] = proc.stdout.splitlines()[0]
    # each forced kernel reports a core of its own, so none fell back to this process's
    assert len({here, *loaded.values()}) == len(loaded) + 1, f"{here} here; forced: {loaded}"
