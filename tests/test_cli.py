import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import separable_corpus
from numctx.classifiers import Algorithm, ModelFormatError, TrainConfig, deserialize
import numctx
from numctx import cli, context_features, locator, pipeline, verbalizer
from numctx.cli import build_parser, main
from numctx.context_features import default_lexicon_path
from numctx.corpus import save_corpus
from numctx.pipeline import Pipeline

COURT_SENTENCE = "Mahkamah menetapkan 21 Januari ini untuk sebutan semula kes"
YEN_SENTENCE = "Harga buku itu 500 yen sahaja ."
# two numbers each; the second line's RM is its own word, covered by the number
CLOCK_SENTENCE = "Mahkamah menetapkan 21 Januari ini pada jam 10:30 pagi"
SPACED_RM_SENTENCE = "Harga naik 5% kepada RM 12 sahaja"
HEADER = "id,text,start,end,label\n"
ZEROS = " ".join(["0"] * 56)
# --c-reg 1e-320 makes the SVM's first step 1/c_reg infinite
C_REG_OVERFLOW = "c_reg 1e-320 overflows training, and no model file holds a non-finite weight"


def with_model(*lines):
    """An edit that replaces a pipeline file's model section with ``lines``."""
    return lambda text: text[: text.index("numctx-model v2")] + "\n".join(["numctx-model v2", *lines, "end", ""])


def run(argv, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def toy_corpus_path(tmp_path):
    path = tmp_path / "toy.csv"
    save_corpus(separable_corpus(12), path)
    return str(path)


class TestValidate:
    def test_valid_corpus_histogram(self, toy_corpus_path, capsys):
        code, out, err = run(["validate", "--corpus", toy_corpus_path], capsys=capsys)
        assert code == 0
        assert "Date\t12" in out
        assert "Percentage\t12" in out
        assert err == ""

    def test_missing_class_warns(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text(HEADER + f's1,"{COURT_SENTENCE}",20,22,Date\n', encoding="utf-8")
        code, out, err = run(["validate", "--corpus", str(path)], capsys=capsys)
        assert code == 0
        assert "warning: class Phone has 0 instances" in out

    def test_bad_span_row_exits_1_naming_id(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            HEADER
            + f's1,"{COURT_SENTENCE}",20,22,Date\n'
            + f's2,"{COURT_SENTENCE}",0,8,Date\n',
            encoding="utf-8",
        )
        code, out, err = run(["validate", "--corpus", str(path)], capsys=capsys)
        assert code == 1
        assert "s2" in err

    def test_every_bad_row_reported_in_order(self, tmp_path, capsys):
        # one row of each fault, a blank row, and quoted newlines (csv line numbers count them)
        path = tmp_path / "faults.csv"
        path.write_text(
            HEADER
            + f's1,"{COURT_SENTENCE}",20,22,Date\n'
            + f's2,"{COURT_SENTENCE}",20,22\n'
            + f's3,"{COURT_SENTENCE}",tujuh,22,Date\n'
            + f's4,"{COURT_SENTENCE}",20,22,Fraction\n'
            + f's5,"{COURT_SENTENCE}",20,99,Date\n'
            + f's6,"{COURT_SENTENCE}",0,8,Date\n'
            + f's1,"{COURT_SENTENCE}",20,22,Date\n'
            + "\n"
            + 's9,"Mahkamah menetapkan\n21 Januari ini",20,22,Date\n'
            + 's10,"pukul\n8.30 pagi",6,8,Time\n',
            encoding="utf-8",
        )
        code, out, err = run(["validate", "--corpus", str(path)], capsys=capsys)
        assert code == 1
        assert out.splitlines()[:3] == [f"corpus\t{path}", "rows\t2", "Date\t2"]
        assert err.splitlines() == [
            f"error: {path}:3: expected 5 fields, got 4",
            f"error: {path}:4 (id s3): non-integer span 'tujuh','22'",
            f"error: {path}:5 (id s4): unknown format label 'Fraction' "
            "(expected one of: Date, Time, Phone, Currency, Measurement, Percentage)",
            f"error: {path}:6 (id s5): span (20,99) outside text of length 59",
            f"error: {path}:7 (id s6): span (0,8) = 'Mahkamah' is not a located number token",
            f"error: {path}:8: duplicate id 's1' (first seen line 2)",
            f"error: {path}:13 (id s10): span (6,8) = '8.' is not a located number token",
        ]

    @pytest.mark.parametrize(
        "content, message",
        [
            ("", "{path}: empty file, expected header id,text,start,end,label"),
            (
                "id,sentence\n",
                "{path}:1: bad header ['id', 'sentence'], expected ['id', 'text', 'start', 'end', 'label']",
            ),
        ],
    )
    def test_unreadable_header_is_one_error(self, content, message, tmp_path, capsys):
        path = tmp_path / "head.csv"
        path.write_text(content, encoding="utf-8")
        code, out, err = run(["validate", "--corpus", str(path)], capsys=capsys)
        assert code == 1
        assert "rows\t0" in out
        assert err.splitlines() == ["error: " + message.format(path=path)]

    def test_missing_file_exits_1(self, capsys):
        code, out, err = run(["validate", "--corpus", "/nonexistent.csv"], capsys=capsys)
        assert code == 1


class TestNotUtf8:
    """A file that is not UTF-8 is one error naming the file and the offset of its first bad byte."""

    def test_validate_corpus(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes((HEADER + 's1,"Caf\xe9 21 Januari",5,7,Date\n').encode("latin-1"))
        code, out, err = run(["validate", "--corpus", str(path)], capsys=capsys)
        assert code == 1
        assert "rows\t0" in out
        offset = len(HEADER) + len('s1,"Caf')
        assert err.splitlines() == [f"error: {path}: byte {offset} (0xe9) is not UTF-8: invalid continuation byte"]

    def test_lexicon(self, toy_corpus_path, tmp_path, capsys):
        path = tmp_path / "latin1.tsv"
        path.write_bytes("ringgit\tCurrencyWord\ncaf\xe9\tValueWord\n".encode("latin-1"))
        code, out, err = run(["evaluate", "--corpus", toy_corpus_path, "--lexicon", str(path)], capsys=capsys)
        assert (code, out) == (1, "")
        assert err == f"numctx: error: {path}: byte 24 (0xe9) is not UTF-8: invalid continuation byte\n"

    def test_model(self, toy_corpus_path, tmp_path, monkeypatch, capsys):
        path = tmp_path / "model.txt"
        run(["train", "--corpus", toy_corpus_path, "--output", str(path)], capsys=capsys)
        path.write_bytes(path.read_bytes().replace(b"lexentry am ", b"lexentry \xe9m ", 1))
        offset = path.read_bytes().index(b"\xe9")
        code, out, err = run(["classify", "--model", str(path)], "ayat 5\n", monkeypatch, capsys)
        assert (code, out) == (1, "")
        assert err == f"numctx: error: {path}: byte {offset} (0xe9) is not UTF-8: invalid continuation byte\n"


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, out, err = run(["evaluate", "--bogus"], capsys=capsys)
        assert code == 2

    def test_folds_one(self, toy_corpus_path, capsys):
        code, out, err = run(
            ["evaluate", "--corpus", toy_corpus_path, "--folds", "1"], capsys=capsys
        )
        assert code == 2

    def test_kernel_svm_out_of_scope(self, toy_corpus_path, capsys):
        code, out, err = run(
            ["evaluate", "--corpus", toy_corpus_path, "--classifier", "svm-rbf"], capsys=capsys
        )
        assert code == 2
        assert "out of scope" in err

    def test_no_command(self, capsys):
        code, out, err = run([], capsys=capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--classifier", "knn", "--k", "2"],
            ["--max-depth", "-1"],
            ["--min-leaf", "0"],
            ["--shrinkage", "-1"],
            ["--c-reg", "0"],
            ["--epochs", "0"],
            ["--classifier", "lda", "--shrinkage", "nan"],
            ["--classifier", "lda", "--shrinkage", "inf"],
            ["--classifier", "svm", "--c-reg", "nan"],
            ["--classifier", "svm", "--c-reg", "inf"],
        ],
    )
    def test_out_of_range_classifier_flag_names_the_flag(self, flags, capsys):
        code, out, err = run(["evaluate", *flags], capsys=capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"numctx: error: {flags[-2]} must be ")
        if flags[0] == "--max-depth":  # the flag's own range: 0 means unlimited, None cannot be typed
            assert err == "numctx: error: --max-depth must be >= 0 (0 = unlimited), got -1\n"

    @pytest.mark.parametrize("command", [["train", "--output", "m.txt"], ["evaluate"], ["compare"], ["classify"]])
    @pytest.mark.parametrize("missing", [["--corpus", "/nonexistent.csv"], ["--lexicon", "/nonexistent.tsv"]])
    def test_usage_error_comes_before_a_missing_input_file(self, command, missing, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run([*command, *missing, "--c-reg", "0"], "", monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("numctx: error: --c-reg must be ")
        assert not (tmp_path / "m.txt").exists()


class TestMain:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_in_one_process_print_what_each_prints_alone(self, toy_corpus_path, monkeypatch, capsys):
        calls = [
            (["validate", "--corpus", toy_corpus_path], ""),
            (["classify", "--corpus", toy_corpus_path], COURT_SENTENCE + "\n"),
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(numctx.__file__).parents[1])}
        alone = [
            subprocess.run(
                [sys.executable, "-m", "numctx.cli", *argv], input=stdin, capture_output=True, text=True, env=env
            )
            for argv, stdin in calls
        ]
        in_one_process = [run(argv, stdin, monkeypatch, capsys) for argv, stdin in calls]
        assert in_one_process == [(p.returncode, p.stdout, p.stderr) for p in alone]
        assert in_one_process[1] == (0, "20-22\tDate\tdua puluh satu januari\n", "")


class TestFlagsTakeTheLibraryDefaults:
    def test_train_flags_give_the_default_config(self):
        args = build_parser().parse_args(["train", "--output", "x"])
        assert cli._train_config(args) == TrainConfig(Algorithm.DecisionTree)

    @pytest.fixture
    def style_of(self, toy_corpus_path, tmp_path, monkeypatch, capsys):
        """Runs classify --model with the given flags; returns the style it verbalized in."""
        model_path = tmp_path / "model.txt"
        run(["train", "--corpus", toy_corpus_path, "--output", str(model_path)], capsys=capsys)
        styles = []
        monkeypatch.setattr(cli, "verbalize", lambda token, label, style, **kwargs: styles.append(style) or "")

        def style_of(*flags):
            argv = ["classify", "--model", str(model_path), *flags]
            assert run(argv, COURT_SENTENCE + "\n", monkeypatch, capsys) == (0, "20-22\tDate\t\n", "")
            return styles.pop()

        return style_of

    def test_no_style_flag_gives_the_default_style(self, style_of):
        assert style_of() == verbalizer.DEFAULT_STYLE

    @pytest.mark.parametrize("flag", ["--year-mode", "--currency-mode", "--unit-mode"])
    def test_every_mode_is_accepted_by_its_flag(self, flag, style_of):
        field = flag[2:].replace("-", "_")
        for mode in type(getattr(verbalizer.DEFAULT_STYLE, field)):
            assert style_of(flag, mode.value) == replace(verbalizer.DEFAULT_STYLE, **{field: mode})


class TestEvaluate:
    def test_tsv_report(self, toy_corpus_path, capsys):
        code, out, err = run(
            ["evaluate", "--corpus", toy_corpus_path, "--classifier", "dt", "--folds", "6"],
            capsys=capsys,
        )
        assert code == 0
        assert "# classifier\tdt" in out
        assert "section\tconfusion" in out

    def test_json_report(self, toy_corpus_path, capsys):
        code, out, err = run(
            ["evaluate", "--corpus", toy_corpus_path, "--folds", "6", "--format", "json"],
            capsys=capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "evaluation"
        assert report["summary"]["mean_pct"] == 100.0

    def test_byte_identical_given_seed(self, toy_corpus_path, capsys):
        argv = ["evaluate", "--corpus", toy_corpus_path, "--folds", "6", "--seed", "11"]
        code1, out1, _ = run(argv, capsys=capsys)
        code2, out2, _ = run(argv, capsys=capsys)
        assert (code1, code2) == (0, 0)
        assert out1 == out2

    def test_empty_corpus_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(HEADER, encoding="utf-8")
        code, out, err = run(["evaluate", "--corpus", str(path)], capsys=capsys)
        assert code == 1

    def test_c_reg_that_overflows_training_exits_1(self, capsys):
        code, out, err = run(["evaluate", "--classifier", "svm", "--c-reg", "1e-320"], capsys=capsys)
        assert (code, out, err) == (1, "", f"numctx: error: {C_REG_OVERFLOW}\n")

    def test_more_folds_than_a_class_has_members_exits_1_naming_the_folds(self, capsys):
        # the message names the --folds value, not --k, the knn neighbour count
        code, out, err = run(["evaluate", "--folds", "1000"], capsys=capsys)
        assert (code, out) == (1, "")
        assert re.fullmatch(r"numctx: error: class \w+ has \d+ members, fewer than the 1000 folds\n", err)


class TestCompare:
    def test_two_rows_and_delta(self, toy_corpus_path, capsys):
        code, out, err = run(
            ["compare", "--corpus", toy_corpus_path, "--folds", "6", "--format", "json"],
            capsys=capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert [r["extractor"] for r in report["rows"]] == ["context", "bow"]
        expected = round(report["rows"][0]["mean_pct"] - report["rows"][1]["mean_pct"], 2)
        assert report["delta_mean_pct"] == expected

    def test_deterministic_delta(self, toy_corpus_path, capsys):
        argv = ["compare", "--corpus", toy_corpus_path, "--folds", "6"]
        _, out1, _ = run(argv, capsys=capsys)
        _, out2, _ = run(argv, capsys=capsys)
        assert out1 == out2

    def test_extractor_flag_is_a_usage_error(self, toy_corpus_path, capsys):
        # compare always runs both extractors, so it takes no --extractor
        code, out, err = run(["compare", "--corpus", toy_corpus_path, "--extractor", "bow"], capsys=capsys)
        assert code == 2
        assert "--extractor" in err
        assert out == ""

    def test_lda_and_svm_never_import_numpy_ma(self):
        # numpy.ma holds about 1.3 MB resident, and np.unique with no return
        # flag imports it on numpy 2; a fresh process shows what compare loads
        script = (
            "import json, sys\n"
            "import numpy\n"
            "numpy_alone = 'numpy.ma' in sys.modules\n"
            "from numctx import cli\n"
            "codes = [cli.main(['compare', '--classifier', name]) for name in ('lda', 'svm')]\n"
            "print(json.dumps([numpy_alone, codes, 'numpy.ma' in sys.modules]), file=sys.stderr)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(numctx.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        numpy_alone, codes, after = json.loads(proc.stderr.splitlines()[-1])
        if numpy_alone:
            pytest.skip("import numpy alone already loads numpy.ma (numpy 1.x)")
        assert codes == [0, 0]
        assert not after


class TestTrainAndClassify:
    def test_c_reg_that_overflows_training_exits_1_and_writes_no_file(self, tmp_path):
        # a process of its own, so a RuntimeWarning would reach its stderr
        model_path = tmp_path / "model.txt"
        argv = ["train", "--classifier", "svm", "--c-reg", "1e-320", "--output", str(model_path)]
        env = {**os.environ, "PYTHONPATH": str(Path(numctx.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "numctx.cli", *argv], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"numctx: error: {C_REG_OVERFLOW}\n")
        assert not model_path.exists()

    def test_train_then_classify(self, toy_corpus_path, tmp_path, monkeypatch, capsys):
        model_path = tmp_path / "model.txt"
        code, out, err = run(
            ["train", "--corpus", toy_corpus_path, "--output", str(model_path)], capsys=capsys
        )
        assert code == 0
        assert model_path.exists()

        code, out, err = run(
            ["classify", "--model", str(model_path)],
            stdin_text=COURT_SENTENCE + "\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        assert out == "20-22\tDate\tdua puluh satu januari\n"

    def test_train_then_classify_bow(self, tmp_path, monkeypatch, capsys):
        # bundled corpus: its training tokens cover the '%' byte
        model_path = tmp_path / "bow.txt"
        code, *_ = run(
            ["train", "--extractor", "bow", "--output", str(model_path)], capsys=capsys
        )
        assert code == 0
        code, out, err = run(
            ["classify", "--model", str(model_path)],
            stdin_text="kadar 12% naik\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        assert "Percentage" in out

    @pytest.mark.parametrize("command", ["train", "classify"])
    def test_seed_flag_is_a_usage_error(self, command, toy_corpus_path, tmp_path, capsys):
        # --seed only assigns folds; training itself draws no randomness
        argv = [command, "--corpus", toy_corpus_path, "--seed", "1"]
        if command == "train":
            argv += ["--output", str(tmp_path / "model.txt")]
        code, out, err = run(argv, capsys=capsys)
        assert code == 2
        assert "--seed" in err
        assert out == ""
        assert not (tmp_path / "model.txt").exists()

    def test_classify_retrains_without_model(self, monkeypatch, capsys):
        # no --model: trains on the bundled corpus out of the box
        code, out, err = run(
            ["classify"],
            stdin_text=COURT_SENTENCE + "\nharga 5% sahaja\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "20-22\tDate\tdua puluh satu januari"
        assert lines[1] == "6-8\tPercentage\tlima peratus"

    @pytest.mark.parametrize("classifier", ["dt", "knn", "lda", "svm"])
    def test_numbers_from_10_18_read_digit_by_digit(self, classifier, monkeypatch, capsys):
        # 21 digits, then 22 after RM: past kuadrilion, so no magnitude word
        code, out, err = run(
            ["classify", "--classifier", classifier],
            stdin_text="Nombor 123456789012345678901 itu .\nKos berjumlah RM 1234567890123456789012 ringgit semuanya .\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert (code, err) == (0, "")
        digits = "satu dua tiga empat lima enam tujuh lapan sembilan kosong"
        first, second = out.splitlines()
        assert first.startswith("7-28\t")
        assert f"\t{digits} {digits} satu" in first
        assert second == f"14-39\tCurrency\t{digits} {digits} satu dua ringgit"

    def test_classify_scans_each_line_once_and_shapes_each_number_once(self, tmp_path, monkeypatch, capsys):
        model_path = tmp_path / "model.txt"
        assert run(["train", "--output", str(model_path)], capsys=capsys)[0] == 0
        calls = {"scan_words": 0, "shape_of": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        # every module's own reference, so a call through any of them counts
        for module in (locator, context_features, pipeline, verbalizer, cli):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        code, out, err = run(
            ["classify", "--model", str(model_path)],
            stdin_text=CLOCK_SENTENCE + "\n" + SPACED_RM_SENTENCE + "\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "20-22\tDate\tdua puluh satu januari",
            "44-49\tTime\tsepuluh tiga puluh pagi",
            "11-13\tPercentage\tlima peratus",
            "21-26\tCurrency\tdua belas ringgit",
        ]
        assert calls == {"scan_words": 2, "shape_of": 4}

    @pytest.mark.parametrize("extractor", ["context", "bow"])
    @pytest.mark.parametrize("command", ["train", "classify"])
    def test_header_only_corpus_names_the_empty_training_set(self, command, extractor, tmp_path, monkeypatch, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(HEADER, encoding="utf-8")
        argv = [command, "--corpus", str(path), "--extractor", extractor]
        if command == "train":
            argv += ["--output", str(tmp_path / "m.txt")]
        code, out, err = run(argv, stdin_text="harga 5% sahaja\n", monkeypatch=monkeypatch, capsys=capsys)
        assert (code, out, err) == (1, "", "numctx: error: training set is empty\n")

    def test_classify_empty_input(self, toy_corpus_path, monkeypatch, capsys):
        code, out, err = run(
            ["classify", "--corpus", toy_corpus_path],
            stdin_text="",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        assert out == ""

    def test_classify_no_numbers(self, toy_corpus_path, monkeypatch, capsys):
        code, out, err = run(
            ["classify", "--corpus", toy_corpus_path],
            stdin_text="tiada nombor di sini\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        assert out == ""

    def test_classify_corrupt_model_exits_1(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a model\n", encoding="utf-8")
        code, out, err = run(
            ["classify", "--model", str(bad)],
            stdin_text="ayat 5\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text + "junk\nmore junk\n", "after the end"),
            (lambda text: text.replace("lexentry am TimeWord", "lexentry am", 1), "fields"),
            (lambda text: text.replace("extractor context", "extractor context bow", 1), "fields"),
            (lambda text: text.replace("\nend\n", "\n"), "unexpected end of file"),
            (lambda text: re.sub(r"^split \d+", "split 99", text, count=1, flags=re.M), "split feature 99"),
            (lambda text: re.sub(r"^split \d+", "split -1", text, count=1, flags=re.M), "split feature -1"),
            (lambda text: re.sub(r"^leaf \d+", "leaf 9", text, count=1, flags=re.M), "leaf label 9"),
            # the entry after 'am' becomes a second 'am'; the declared count still matches
            (
                lambda text: re.sub(r"^(lexentry am TimeWord\n)[^\n]*\n", r"\1\1", text, count=1, flags=re.M),
                "duplicate lexicon entry 'am'",
            ),
            (lambda text: text.replace("lexentry am ", "lexentry a\u00a0m ", 1), "without whitespace"),
            (with_model("algorithm knn", "dim 56", "k 0", "n 1", f"point 0 {ZEROS}"), "k must be 1 or 3, got 0"),
            (with_model("algorithm knn", "dim 56", "k 1", "n 0"), "needs at least 1 point"),
            (with_model("algorithm lda", "dim 56", "classes"), "classes line names no class"),
            (with_model("algorithm lda", "dim 0", "classes 0", "weights 0", "bias 0 0"), "dim must be at least 1, got 0"),
            # declared sizes far past the file's lines are refused by the lines, not by an allocation
            (
                with_model("algorithm knn", "dim 56", "k 1", "n 1000000000000", f"point 0 {ZEROS}"),
                "expected 'point' line, got 'end'",
            ),
            (
                with_model("algorithm knn", "dim 1000000000000", "k 1", "n 1", f"point 0 {ZEROS}"),
                "'point' line holds 57 fields, expected 1000000000001",
            ),
            (
                with_model("algorithm lda", "dim 1000000000000", "classes 0", f"weights 0 {ZEROS}", "bias 0 0"),
                "'weights' line holds 57 fields, expected 1000000000001",
            ),
            # a label past int64 is out of range like any other, not an int64 overflow
            (
                with_model("algorithm knn", "dim 56", "k 1", "n 1", f"point {10**20} {ZEROS}"),
                f"point label {10**20} is not a FormatLabel value",
            ),
            (
                with_model("algorithm svm", "dim 56", f"classes {10**20}", f"weights 0 {ZEROS}", "bias 0 0"),
                f"class label {10**20} is not a FormatLabel value",
            ),
            (
                with_model("algorithm lda", "dim 55", "classes 0", f"weights 0 {ZEROS[2:]}", "bias 0 0"),
                "model dim 55 does not match the context width 56",
            ),
            (
                lambda text: re.sub(r"^(split \d+) \S+", r"\1 nan", text, count=1, flags=re.M),
                "split line holds a non-finite",
            ),
            (
                with_model("algorithm knn", "dim 56", "k 1", "n 1", f"point 0 nan {ZEROS[2:]}"),
                "point line holds a non-finite",
            ),
            (
                with_model("algorithm lda", "dim 56", "classes 0", f"weights 0 {ZEROS[2:]} inf", "bias 0 0"),
                "weights line holds a non-finite",
            ),
            (
                with_model("algorithm svm", "dim 56", "classes 0", f"weights 0 {ZEROS}", "bias 0 -inf"),
                "bias line holds a non-finite",
            ),
        ],
    )
    def test_damaged_pipeline_exits_1_naming_file(
        self, edit, message, toy_corpus_path, tmp_path, monkeypatch, capsys
    ):
        model_path = tmp_path / "model.txt"
        run(["train", "--corpus", toy_corpus_path, "--output", str(model_path)], capsys=capsys)
        model_path.write_text(edit(model_path.read_text(encoding="utf-8")), encoding="utf-8")
        code, out, err = run(
            ["classify", "--model", str(model_path)],
            stdin_text="ayat 5\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 1
        assert re.search(rf"error: {re.escape(str(model_path))}: line \d+: ", err)
        assert message in err
        assert "Traceback" not in err

    def test_flags_the_model_file_fixes_are_a_usage_error(self, toy_corpus_path, tmp_path, monkeypatch, capsys):
        model_path = tmp_path / "model.txt"
        run(["train", "--corpus", toy_corpus_path, "--output", str(model_path)], capsys=capsys)
        argv = ["classify", "--model", str(model_path), "--classifier", "svm", "--extractor", "bow"]
        code, out, err = run(argv, COURT_SENTENCE + "\n", monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert "--extractor, --classifier cannot be combined with --model" in err
        # a flag left at its default value and the style flags still pass
        argv = ["classify", "--model", str(model_path), "--classifier", "dt", "--year-mode", "paired"]
        code, out, err = run(argv, COURT_SENTENCE + "\n", monkeypatch, capsys)
        assert (code, out) == (0, "20-22\tDate\tdua puluh satu januari\n")

    @pytest.mark.parametrize(
        "flag,value",
        [
            # a path other than the default; the file is never read
            ("--corpus", None),
            ("--lexicon", None),
            ("--extractor", "bow"),
            ("--classifier", "svm"),
            ("--k", "3"),
            ("--max-depth", "5"),
            ("--min-leaf", "2"),
            ("--shrinkage", "0.5"),
            ("--c-reg", "2"),
            ("--epochs", "10"),
        ],
    )
    def test_each_flag_the_model_file_fixes_is_named(
        self, flag, value, toy_corpus_path, tmp_path, monkeypatch, capsys
    ):
        model_path = tmp_path / "model.txt"
        run(["train", "--corpus", toy_corpus_path, "--output", str(model_path)], capsys=capsys)
        argv = ["classify", "--model", str(model_path), flag, value or toy_corpus_path]
        code, out, err = run(argv, COURT_SENTENCE + "\n", monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err == f"numctx: error: {flag} cannot be combined with --model, which fixes them\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--year-mode", "paired"],
            ["--currency-mode", "symbolic"],
            ["--unit-mode", "abbrev"],
            # a fixed flag at its default, as --corpus with the bundled corpus
            ["--lexicon", str(default_lexicon_path())],
        ],
    )
    def test_style_flags_combine_with_model(self, flags, toy_corpus_path, tmp_path, monkeypatch, capsys):
        model_path = tmp_path / "model.txt"
        run(["train", "--corpus", toy_corpus_path, "--output", str(model_path)], capsys=capsys)
        argv = ["classify", "--model", str(model_path), *flags]
        code, out, err = run(argv, COURT_SENTENCE + "\n", monkeypatch, capsys)
        assert (code, out, err) == (0, "20-22\tDate\tdua puluh satu januari\n", "")

    def test_bow_vocab_repeating_a_byte_rejected(self, tmp_path, capsys):
        # a repeated byte would leave a column past the vocabulary's size
        path = tmp_path / "bow.txt"
        run(["train", "--extractor", "bow", "--output", str(path)], capsys=capsys)
        text = path.read_text(encoding="utf-8")
        path.write_text(re.sub(r"^(vocab \d+ (\d+))", r"\1 \2", text, flags=re.M), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="repeats a byte"):
            Pipeline.load(path)

    def test_bow_vocab_naming_no_byte_rejected(self, tmp_path, capsys):
        # with no column, every number would be labelled by the model's biases alone
        path = tmp_path / "bow.txt"
        run(["train", "--extractor", "bow", "--output", str(path)], capsys=capsys)
        text = path.read_text(encoding="utf-8")
        path.write_text(re.sub(r"^vocab .*$", "vocab", text, count=1, flags=re.M), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=r"line \d+: 'vocab' line names no byte"):
            Pipeline.load(path)

    @pytest.mark.parametrize("byte", ["999", "256", "-1"])
    def test_bow_vocab_byte_outside_0_255_exits_1_naming_file(self, byte, tmp_path, monkeypatch, capsys):
        # gram_byte never yields such a byte, so its column would never fire
        path = tmp_path / "bow.txt"
        run(["train", "--extractor", "bow", "--classifier", "lda", "--output", str(path)], capsys=capsys)
        text = path.read_text(encoding="utf-8")
        path.write_text(re.sub(r"^vocab \d+", f"vocab {byte}", text, count=1, flags=re.M), encoding="utf-8")
        code, out, err = run(["classify", "--model", str(path)], COURT_SENTENCE + "\n", monkeypatch, capsys)
        assert (code, out) == (1, "")
        assert re.search(rf"error: {re.escape(str(path))}: line \d+: 'vocab' byte {byte} outside 0..255", err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["pipeline", "model"])
    def test_v1_file_rejected_with_retrain_message(self, kind, toy_corpus_path, tmp_path, capsys):
        path = tmp_path / "model.txt"
        run(["train", "--corpus", toy_corpus_path, "--output", str(path)], capsys=capsys)
        text = path.read_text(encoding="utf-8")
        with pytest.raises(ModelFormatError, match="retrain"):
            if kind == "model":
                deserialize(text[text.index("numctx-model v2") :].replace(" v2", " v1", 1))
            else:
                path.write_text(text.replace("numctx-pipeline v3", "numctx-pipeline v2"), encoding="utf-8")
                Pipeline.load(path)

    def test_style_flags(self, toy_corpus_path, monkeypatch, capsys):
        code, out, err = run(
            ["classify", "--corpus", toy_corpus_path, "--year-mode", "paired"],
            stdin_text="acara itu pada 1924 Januari ini\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert code == 0
        assert "sembilan belas dua puluh empat" in out


class TestLexiconResolution:
    def test_empty_lexicon_degrades_the_report(self, toy_corpus_path, tmp_path, capsys):
        # the separable corpus is told apart by keyword classes alone
        empty = tmp_path / "empty.tsv"
        empty.write_text("# nothing\n", encoding="utf-8")
        argv = ["evaluate", "--corpus", toy_corpus_path, "--folds", "6", "--format", "json"]
        code, out, err = run(argv + ["--lexicon", str(empty)], capsys=capsys)
        assert code == 0
        degraded = json.loads(out)["summary"]["mean_pct"]
        code, out, err = run(argv, capsys=capsys)
        full = json.loads(out)["summary"]["mean_pct"]
        assert degraded < full == 100.0

    @pytest.mark.parametrize("argv", [["evaluate", "--folds", "6"], ["classify"]])
    def test_environment_does_not_choose_the_lexicon(self, argv, toy_corpus_path, tmp_path, monkeypatch, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# nothing\n", encoding="utf-8")
        argv = [*argv, "--corpus", toy_corpus_path]
        monkeypatch.delenv("NUMCTX_LEXICON", raising=False)
        unset = run(argv, COURT_SENTENCE + "\n", monkeypatch, capsys)
        monkeypatch.setenv("NUMCTX_LEXICON", str(empty))
        assert run(argv, COURT_SENTENCE + "\n", monkeypatch, capsys) == unset
        assert unset[0] == 0


@pytest.fixture
def yen_lexicon(tmp_path):
    """The bundled lexicon plus ``yen``, in a file whose name holds a space."""
    path = tmp_path / "my lex.tsv"
    bundled = default_lexicon_path().read_text(encoding="utf-8")
    path.write_text(bundled + "yen\tCurrencyWord\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def jan_lexicon(tmp_path):
    """The bundled lexicon plus the month abbreviation ``jan``."""
    path = tmp_path / "jan.tsv"
    bundled = default_lexicon_path().read_text(encoding="utf-8")
    path.write_text(bundled + "jan\tMonth\n", encoding="utf-8")
    return str(path)


class TestUserLexicon:
    @pytest.mark.parametrize("classifier", ["dt", "knn", "lda", "svm"])
    def test_date_reader_takes_month_words_from_model_lexicon(
        self, classifier, jan_lexicon, tmp_path, monkeypatch, capsys
    ):
        model_path = tmp_path / "model.txt"
        argv = ["train", "--classifier", classifier, "--lexicon", jan_lexicon, "--output", str(model_path)]
        code, *_ = run(argv, capsys=capsys)
        assert code == 0
        code, out, err = run(
            ["classify", "--model", str(model_path)],
            stdin_text="Mesyuarat pada 21 jan ini\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert (code, out) == (0, "15-17\tDate\tdua puluh satu jan\n")

    @pytest.mark.parametrize("classifier", ["lda", "svm"])
    def test_verbalizer_reads_lexicon_on_the_fly(self, classifier, yen_lexicon, monkeypatch, capsys):
        code, out, err = run(
            ["classify", "--classifier", classifier, "--lexicon", yen_lexicon],
            stdin_text=YEN_SENTENCE + "\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert (code, out) == (0, "15-18\tCurrency\tlima ratus yen\n")

    @pytest.mark.parametrize("classifier", ["lda", "svm"])
    def test_verbalizer_reads_lexicon_from_model(
        self, classifier, yen_lexicon, tmp_path, monkeypatch, capsys
    ):
        model_path = tmp_path / "model.txt"
        argv = ["train", "--classifier", classifier, "--lexicon", yen_lexicon, "--output", str(model_path)]
        code, *_ = run(argv, capsys=capsys)
        assert code == 0
        code, out, err = run(
            ["classify", "--model", str(model_path)],
            stdin_text=YEN_SENTENCE + "\n",
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        assert (code, out) == (0, "15-18\tCurrency\tlima ratus yen\n")

    def test_lexicon_file_name_with_space_round_trips(self, yen_lexicon, tmp_path, capsys):
        # bow pipelines store the lexicon too
        model_path = tmp_path / "bow.txt"
        argv = ["train", "--extractor", "bow", "--lexicon", yen_lexicon, "--output", str(model_path)]
        code, *_ = run(argv, capsys=capsys)
        assert code == 0
        assert Pipeline.load(model_path).lexicon.lookup("yen").name == "CurrencyWord"

    def test_lexicon_word_with_space_rejected(self, toy_corpus_path, tmp_path, capsys):
        path = tmp_path / "spaced.tsv"
        path.write_text("peratus\tPercentWord\nper cent\tPercentWord\n", encoding="utf-8")
        argv = ["train", "--corpus", toy_corpus_path, "--lexicon", str(path)]
        code, out, err = run(argv + ["--output", str(tmp_path / "m.txt")], capsys=capsys)
        assert code == 1
        assert f"{path}:2:" in err
        assert "'per cent'" in err
