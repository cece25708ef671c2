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
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from numctx.cli import main
from numctx.corpus import bundled_corpus_path, load_corpus

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


@pytest.mark.parametrize("case", CASES)
def test_output_matches_pinned_digest(case):
    assert digest_of(case) == DIGESTS[case]


if __name__ == "__main__":
    print("DIGESTS = {")
    for case in CASES:
        print(f'    "{case}": "{digest_of(case)}",')
    print("}")
