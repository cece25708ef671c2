"""Byte-identical gate: sha256 pins of what the CLI prints and writes at seed 42.

The cases are ``evaluate`` (TSV and JSON) for every classifier and extractor,
``compare`` (TSV and JSON) for every classifier, and ``train`` then
``classify --model`` over the bundled corpus's distinct sentences, where the
stdout, stderr and exit code are pinned together. The model file ``train``
writes is pinned too, for every classifier and extractor, so a change to
how a model is fitted must keep its stored bytes as well as its
predictions. KNN is also pinned at ``--k 3`` (``evaluate`` TSV, ``train``,
and ``train`` then ``classify`` for each extractor), so its vote and tie
order are gated as well as its nearest point. Several of the classify
streams end in an abort today; they are pinned as they are, so a change
that alters any output byte fails here. A change that alters output on
purpose prints the new table with ``PYTHONPATH=src python
tests/test_golden.py`` and replaces ``DIGESTS``.

``READINGS_DIGEST`` pins the verbalizer apart from any model: every number
located in the bundled corpus's distinct sentences, read with its own
window under each label its shape can be read as, in each of the 8 styles.
The same command prints it; ``PYTHONPATH=src python tests/test_golden.py
readings`` prints the readings themselves, one per line, so a change to a
reading can be reviewed as a diff of that table. ``CUE_READINGS_DIGEST``
pins the same table over ``CUE_SENTENCES``, a few hand-written lines with
the readings the corpus does not reach (a number before ``sen``, cue words
whose slot order decides the reading); ``... tests/test_golden.py
cue-readings`` prints it.

``WORKLOAD_DIGESTS`` pins ``compare`` TSV for dt and knn on the benchmark's
own cv corpus (``cv_workload_corpus()``, written by perfbench's writer), at
the fold seed the benchmark runs (42) and at 29. lda and svm are left out:
their reports move with the BLAS kernel's summation order.
"""

import hashlib
import io
import itertools
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from conftest import PERFBENCH_INPUTS

from numctx.cli import main
from numctx.context_features import line_windows
from numctx.corpus import bundled_corpus_path, load_corpus
from numctx.labels import LABELS
from numctx.locator import locate_numbers, shape_of
from numctx.verbalizer import _READINGS, CurrencyMode, UnitMode, VerbalizationStyle, YearMode, verbalize

CLASSIFIERS = ("dt", "knn", "lda", "svm")
EXTRACTORS = ("context", "bow")
FORMATS = ("tsv", "json")
CASES = (
    [f"evaluate {c} {e} {f}" for c in CLASSIFIERS for e in EXTRACTORS for f in FORMATS]
    + [f"compare {c} {f}" for c in CLASSIFIERS for f in FORMATS]
    + [f"classify {c} {e}" for c in CLASSIFIERS for e in EXTRACTORS]
    + [f"evaluate knn {e} tsv --k 3" for e in EXTRACTORS]
    + [f"classify knn {e} --k 3" for e in EXTRACTORS]
    + [f"train {c} {e}" for c in CLASSIFIERS for e in EXTRACTORS]
    + [f"train knn {e} --k 3" for e in EXTRACTORS]
)

DIGESTS = {
    "evaluate dt context tsv": "abad59db2b47c9c8084d7c637bcf5de821acbef0fcbb0edc9a55f8a58ce025ee",
    "evaluate dt context json": "56462807faf1d02092107ce6dda666c9af95f3f17f2abd6875752f3bd2d6dfe0",
    "evaluate dt bow tsv": "37f2057a66681b3cce9294f4ffeb3906271737ff7a657debe8c5803911d8a45f",
    "evaluate dt bow json": "0820f2bd0b09f64b662217992a36c2a127ab3e7019e9d098422485fbb04aea56",
    "evaluate knn context tsv": "ced7421b5d9f2adcbf72c357cdfe262ecd581972b0824f53839632196cf6b54f",
    "evaluate knn context json": "35f5b05a0184e78436c69fbde3a92a6ced48d2df9acfddbf19fcb3d3e2c86ad6",
    "evaluate knn bow tsv": "70584f8b7e8064c31c1df89280198edaf3b12c7ad6a6c3701c7ad0ac5ac9babe",
    "evaluate knn bow json": "596eaca9fed56108c8a0ff207fee7faf23f619cfd14de107692e12e795c235f1",
    "evaluate lda context tsv": "095637262a5db41cfff485471b26ffa50f2b1ff209a23d85367161e98be1402b",
    "evaluate lda context json": "0e14cf41167e5e6eccdf664454a7fe3a0798d07288868c6236d2ad76d24f2d26",
    "evaluate lda bow tsv": "838564adf4a0d180afed2224878b369f2c9adfc02bf3f92b54bd33332929cfff",
    "evaluate lda bow json": "2c5a3161256f90387dcc996b960adc3999bd5904ab60fb13da48e3e5c699dbf1",
    "evaluate svm context tsv": "af6e8e218a023c8df69cab138e25470a9c8d2934b8bfcc97e29b24c8062acefa",
    "evaluate svm context json": "b1d876f56941076aeeb373922652c10743d8a53b9e7fec96b2e52d753907eb40",
    "evaluate svm bow tsv": "8545471debc852f5424de83b7f1356ed17d3f55acc7c291d1ea71ef8b4bb24ea",
    "evaluate svm bow json": "c5f63047073a62d5630bcf16d2bcc866aa7639e5ad4574f81cfbeb7a2956659a",
    "compare dt tsv": "ac7f2c45253a8da23720b1f1fda6e951afafeb5ead32b4067d6dfe06998f5eb2",
    "compare dt json": "e92d7c070eca398099e69a88074079cc548167cb9402bf593b67468eb17a8d4a",
    "compare knn tsv": "d2c90f618172c9ba8d206c8951c4916baf14cd18e0a92c462be1e7eafde5b36f",
    "compare knn json": "5e6c8d05e216655e683f44e836e8a3d7dfab1a00bfb4805dcbbb877a648f9a41",
    "compare lda tsv": "aedcd77e57a3a0cf3b110eacde4e25b6a1b6acbbdf2caee457c4b911f1c80af0",
    "compare lda json": "16290c472861df64aea25f28dc7f965f138710507abc491cf91240aa3e72c4a1",
    "compare svm tsv": "c6db569ebb9a871d9dbd78a1f657835673ce4c7ea9d56f59a0f4b3dc38828771",
    "compare svm json": "98b3a5ded1dc53d8677ca9e50eb43e2b7e9504fc224dc2958afcffcc54a57b08",
    "classify dt context": "cb0e8aabeebcd6404fce3acda73011bf9fedd60683c1a2bb042506334f365dff",
    "classify dt bow": "d62653a33f1949f6190a45bd2c4742473c3f5320eb347f3263ef7fcc5d2306da",
    "classify knn context": "cb0e8aabeebcd6404fce3acda73011bf9fedd60683c1a2bb042506334f365dff",
    "classify knn bow": "b4f15e8b0b41d221134206c980a95f8d6ccd36586e2a7a8676fe2815ebf09aea",
    "classify lda context": "cb0e8aabeebcd6404fce3acda73011bf9fedd60683c1a2bb042506334f365dff",
    "classify lda bow": "204e805cc3cc3f014fd1531f7ab220e5a51162a3414cf4d70fc26188834085db",
    "classify svm context": "6b0c9a7b287b728e4b1016123589335fbf3bb1d7ba3880e729bff6fc5514eeae",
    "classify svm bow": "7f030799a32f0995594ee3b26d345f6300ee4b071d56110fb7b3e492319ce6ee",
    "evaluate knn context tsv --k 3": "07aaa03ca4acdada74b9962d88abfa60628b4db3658aa7312c51121d34f92d0f",
    "evaluate knn bow tsv --k 3": "e3c9563c86b31ff8a0b96875f4fea17564a0b6212e8d6ac064253c571534a136",
    "classify knn context --k 3": "cb0e8aabeebcd6404fce3acda73011bf9fedd60683c1a2bb042506334f365dff",
    "classify knn bow --k 3": "4e1ca04da0eee88b2782220fcef1f288be99494ba068ff12afb90511820db052",
    "train dt context": "f0be005a3ddee4bdb3718bf1b24cda1761dcb46ffff9c2a8e22111fe72b28375",
    "train dt bow": "81b26126365047e000c53b9ae11ae970ef172b27f4e7b6e7846d48e5e8e90181",
    "train knn context": "b89ec7e5ef1bdece8000a037595b1d58fc75e5f1f0bb366007c28b0cea0fc406",
    "train knn bow": "4d59238b2309990b6ab00c281ad862e195a98a1bd1f9314b7dd4c64d6ea701ce",
    "train lda context": "524f991fb7edf65d990b52571dadd1a8e6506c8fc123348ab64e59ae4d7062b9",
    "train lda bow": "acbb6aabce1f08ec6758112f09819e01b2aa99db133d4cf039e59badab6c3216",
    "train svm context": "a77b0b11e98fa09a20cedcb50bfca0f03b1b2214d8b164cc3fc82fc32b882940",
    "train svm bow": "47cbd35b2a5473ed3a9ca1214676b1488165d48b20f05dc16914d610bc240b17",
    "train knn context --k 3": "52c03b992f6c6aad3d6c3dd7f595516d86ae8486bb8600480b8455208820de72",
    "train knn bow --k 3": "d7eefe2fd794ffac6f924a7e27b3f9cd71a2e911e098c0864552f88b0bd6aabd",
}

# the cv workload at seed 29: its corpus, its argv, and the fold seed
WORKLOAD_CASES = [f"compare {c} --seed {seed}" for c in ("dt", "knn") for seed in (42, 29)]
WORKLOAD_DIGESTS = {
    "compare dt --seed 42": "b8f82a9fd51eafe11db9930534e4f5e983e22e72f2c4255ea046cd07a3cec625",
    "compare dt --seed 29": "368cf227c9a68e401d209f3725912c67c3d8d08e218494d53eef74b0e4854b70",
    "compare knn --seed 42": "f6eec6409772e863defacf04450602333e408f958f26d6b3d5a2496f882e7b61",
    "compare knn --seed 29": "fbdb5a588a2bd01ef6ef16f8c0a8b8bb67cf0a93761bf7e697c29eedd507131d",
}

READINGS_DIGEST = "3dfcb23abe81005930df6e659f5cbb7abf05bf0066aedf066ed6553a121a200a"

# hand-written lines whose readings the bundled corpus never reaches: a
# number before ``sen``, and cue words in more than one slot, where the
# search order (post1, post2, pre1, pre2) picks the word that is read
CUE_SENTENCES = (
    "Harga 50 sen sahaja .",
    "Esok pagi pukul 8.30 malam",
    "Mac lalu 21 April ini",
    "Yen naik 500 euro semalam",
    "kerugian dianggarkan RM 1.234 semalam",
)
CUE_READINGS_DIGEST = "07f06f0d35b82d2ccffa267a47099a4fb982fde79f93eaa054c0997ad2344679"


def run(argv: list[str], stdin_text: str = "") -> tuple[int, str, str]:
    """``main(argv)`` in this process: exit code, stdout, stderr."""
    out, err, saved_stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def digest_of(case: str) -> str:
    spec, _, flags = case.partition(" --")
    model_flags = f"--{flags}".split() if flags else []
    command, classifier, *options = spec.split()
    if command in ("train", "classify"):
        with tempfile.TemporaryDirectory() as tmp:
            model = Path(tmp) / "model.txt"
            argv = ["train", "--classifier", classifier, "--extractor", *options, *model_flags, "--output", str(model)]
            code, _, err = run(argv)
            assert code == 0, err
            if command == "train":
                return hashlib.sha256(model.read_bytes()).hexdigest()
            sentences = dict.fromkeys(s.text for s in load_corpus(bundled_corpus_path()))
            pinned = json.dumps(run(["classify", "--model", str(model)], "".join(f"{s}\n" for s in sentences)))
    else:
        *extractor, fmt = options
        argv = [command, "--classifier", classifier, *model_flags, "--seed", "42", "--format", fmt]
        code, out, err = run(argv + ["--extractor", *extractor] if extractor else argv)
        assert (code, err) == (0, ""), err
        pinned = out
    return hashlib.sha256(pinned.encode("utf-8")).hexdigest()


def workload_digest_of(case: str) -> str:
    _, classifier, *seed = case.split()
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.csv"
        PERFBENCH_INPUTS.cv_corpus(29, corpus)
        code, out, err = run(["compare", "--classifier", classifier, "--corpus", str(corpus), *seed, "--format", "tsv"])
    assert (code, err) == (0, ""), err
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def bundled_sentences() -> list[str]:
    return list(dict.fromkeys(s.text for s in load_corpus(bundled_corpus_path())))


def readings_table(sentences) -> str:
    """One line per reading: sentence index, span, number, label, style and words."""
    styles = [VerbalizationStyle(*modes) for modes in itertools.product(YearMode, CurrencyMode, UnitMode)]
    lines = []
    for index, text in enumerate(sentences):
        numbers = locate_numbers(text)
        for number, window in zip(numbers, line_windows(text, numbers)):
            shape = shape_of(number)
            for label, style in itertools.product(LABELS, styles):
                if shape.kind not in _READINGS[label][1]:
                    continue
                words = verbalize(number, label, style, context=window, shape=shape)
                modes = "/".join(mode.value for mode in style)
                start, end = number.span
                lines.append(f"{index}\t{start}-{end}\t{number.raw}\t{label.name}\t{modes}\t{words}\n")
    return "".join(lines)


@pytest.mark.parametrize("case", CASES)
def test_output_matches_pinned_digest(case):
    assert digest_of(case) == DIGESTS[case]


@pytest.mark.parametrize("case", WORKLOAD_CASES)
def test_workload_output_matches_pinned_digest(case):
    assert workload_digest_of(case) == WORKLOAD_DIGESTS[case]


def readings_digest(sentences) -> str:
    return hashlib.sha256(readings_table(sentences).encode("utf-8")).hexdigest()


def test_readings_match_pinned_digest():
    assert readings_digest(bundled_sentences()) == READINGS_DIGEST


def test_cue_readings_match_pinned_digest():
    assert readings_digest(CUE_SENTENCES) == CUE_READINGS_DIGEST


if __name__ == "__main__":
    tables = {"readings": bundled_sentences, "cue-readings": lambda: CUE_SENTENCES}
    if sys.argv[1:] and sys.argv[1] in tables:
        sys.stdout.write(readings_table(tables[sys.argv[1]]()))
        raise SystemExit
    print("DIGESTS = {")
    for case in CASES:
        print(f'    "{case}": "{digest_of(case)}",')
    print("}")
    print("WORKLOAD_DIGESTS = {")
    for case in WORKLOAD_CASES:
        print(f'    "{case}": "{workload_digest_of(case)}",')
    print("}")
    print(f'READINGS_DIGEST = "{readings_digest(bundled_sentences())}"')
    print(f'CUE_READINGS_DIGEST = "{readings_digest(CUE_SENTENCES)}"')
