"""Command-line surface: validate, train, evaluate, compare, classify.

Exit codes: 0 success, 1 data/runtime error, 2 usage error. All randomness
flows from ``--seed``, so two invocations with equal flags produce
byte-identical reports. ``NUMCTX_LEXICON`` overrides the default lexicon
path; an explicit ``--lexicon`` flag wins over the environment.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import context_features, evaluation
from .classifiers import Algorithm, TrainConfig
from .context_features import Lexicon
from .corpus import (
    Corpus,
    CorpusError,
    bundled_corpus_path,
    load_corpus,
    scan_corpus,
)
from .labels import LABELS
from .locator import locate_numbers, shape_of
from .pipeline import EXTRACTORS, Pipeline
from .verbalizer import (
    CurrencyMode,
    UnitMode,
    VerbalizationStyle,
    YearMode,
    verbalize,
)

_OUT_OF_SCOPE_CLASSIFIERS = ("svm-poly", "svm-rbf")
# what a model file fixes; with --model only the style flags apply
_MODEL_FILE_FLAGS = (
    "corpus", "lexicon", "extractor", "classifier", "k", "max_depth", "min_leaf", "shrinkage", "c_reg", "epochs",
)
# a module-level name, so perfbench can time pipeline loading from outside
load_pipeline = Pipeline.load


def _add_corpus_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--corpus",
        type=Path,
        default=bundled_corpus_path(),
        help="corpus CSV (id,text,start,end,label); defaults to the bundled corpus",
    )


def _add_lexicon_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lexicon",
        type=Path,
        default=None,
        help="keyword lexicon file; defaults to $NUMCTX_LEXICON, then the bundled lexicon",
    )


def _add_model_flags(parser: argparse.ArgumentParser, extractor: bool = True) -> None:
    if extractor:  # compare always runs both extractors
        parser.add_argument("--extractor", choices=EXTRACTORS, default="context")
    parser.add_argument(
        "--classifier",
        choices=[a.value for a in Algorithm] + list(_OUT_OF_SCOPE_CLASSIFIERS),
        default="dt",
    )
    parser.add_argument("--k", type=int, default=1, help="neighbors for knn (1 or 3)")
    parser.add_argument("--max-depth", type=int, default=16, help="dt depth limit, 0 = unlimited")
    parser.add_argument("--min-leaf", type=int, default=1)
    parser.add_argument("--shrinkage", type=float, default=1e-4)
    parser.add_argument("--c-reg", type=float, default=1.0)
    parser.add_argument("--epochs", type=int, default=200)


def _add_eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--folds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42, help="seeds the fold assignment")
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")


def _add_style_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--year-mode", choices=("full", "paired"), default="full")
    parser.add_argument("--currency-mode", choices=("spoken", "symbolic"), default="spoken")
    parser.add_argument("--unit-mode", choices=("full", "abbrev"), default="full")


@functools.cache  # main may run many times in one process; building the tree takes about 2 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numctx",
        description="locate numbers in Malay sentences, classify their format, verbalize them",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a corpus file and print class counts")
    _add_corpus_flag(p_validate)
    p_validate.set_defaults(func=cmd_validate)

    p_train = sub.add_parser("train", help="train on a corpus and write a model file")
    _add_corpus_flag(p_train)
    _add_lexicon_flag(p_train)
    _add_model_flags(p_train)
    p_train.add_argument("--output", type=Path, required=True, help="model file to write")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="k-fold cross-validation report")
    _add_corpus_flag(p_eval)
    _add_lexicon_flag(p_eval)
    _add_model_flags(p_eval)
    _add_eval_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="context vs bag-of-words comparison report")
    _add_corpus_flag(p_cmp)
    _add_lexicon_flag(p_cmp)
    _add_model_flags(p_cmp, extractor=False)
    _add_eval_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_cls = sub.add_parser(
        "classify", help="read sentences on stdin, print span/label/verbalization lines"
    )
    _add_corpus_flag(p_cls)
    _add_lexicon_flag(p_cls)
    _add_model_flags(p_cls)
    _add_style_flags(p_cls)
    p_cls.add_argument("--model", type=Path, default=None, help="model file from 'train'")
    p_cls.set_defaults(func=cmd_classify)

    return parser


def _load_lexicon(args) -> Lexicon:
    # read at call time, not as a parser default: the parser outlives changes to the environment
    env = os.environ.get("NUMCTX_LEXICON")
    return context_features.load_lexicon(args.lexicon or env or context_features.default_lexicon_path())


def _usage_error(message: str):
    print(f"numctx: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _train_config(args) -> TrainConfig:
    if args.classifier in _OUT_OF_SCOPE_CLASSIFIERS:
        _usage_error(
            f"classifier {args.classifier!r} is unsupported (out of scope); "
            "supported classifiers are dt, knn, lda, svm - see README"
        )
    if args.max_depth < 0:  # TrainConfig spells unlimited None, the flag 0
        _usage_error(f"--max-depth must be >= 0 (0 = unlimited), got {args.max_depth}")
    try:
        return TrainConfig(
            algorithm=Algorithm(args.classifier),
            k=args.k,
            max_depth=None if args.max_depth == 0 else args.max_depth,
            min_leaf=args.min_leaf,
            shrinkage=args.shrinkage,
            c_reg=args.c_reg,
            epochs=args.epochs,
        )
    except ValueError as exc:  # each message starts with the field: the flag with underscores
        name, rest = str(exc).split(" ", 1)
        _usage_error(f"--{name.replace('_', '-')} {rest}")


def _check_folds(folds: int) -> None:
    if folds < 2:
        _usage_error(f"--folds must be >= 2, got {folds}")


def _emit_report(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        sys.stdout.write(evaluation.render_tsv(report))


# --- commands ---------------------------------------------------------------


def cmd_validate(args) -> int:
    sentences, errors = scan_corpus(args.corpus)
    counts = Corpus(tuple(sentences)).class_counts()
    print(f"corpus\t{args.corpus}")
    print(f"rows\t{len(sentences)}")
    for label in LABELS:
        print(f"{label.name}\t{counts[label]}")
    for label in LABELS:
        if counts[label] == 0:
            print(f"warning: class {label.name} has 0 instances")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    return 1 if errors else 0


def cmd_evaluate(args) -> int:
    _check_folds(args.folds)
    cfg = _train_config(args)
    corpus = load_corpus(args.corpus)
    lexicon = _load_lexicon(args)
    summary = evaluation.cross_validate(
        corpus, args.extractor, cfg, k=args.folds, seed=args.seed, lexicon=lexicon
    )
    _emit_report(evaluation.evaluation_report(summary), args.format)
    return 0


def cmd_compare(args) -> int:
    _check_folds(args.folds)
    cfg = _train_config(args)
    corpus = load_corpus(args.corpus)
    lexicon = _load_lexicon(args)
    context_summary = evaluation.cross_validate(
        corpus, "context", cfg, k=args.folds, seed=args.seed, lexicon=lexicon
    )
    bow_summary = evaluation.cross_validate(corpus, "bow", cfg, k=args.folds, seed=args.seed)
    _emit_report(evaluation.comparison_report(context_summary, bow_summary), args.format)
    return 0


def cmd_train(args) -> int:
    cfg = _train_config(args)
    corpus = load_corpus(args.corpus)
    Pipeline.fit(corpus, cfg, args.extractor, _load_lexicon(args)).save(args.output)
    print(f"trained {cfg.algorithm.value} on {len(corpus)} rows ({args.extractor} features) -> {args.output}")
    return 0


def _style_from_args(args) -> VerbalizationStyle:
    return VerbalizationStyle(
        year_mode=YearMode(args.year_mode),
        currency_mode=CurrencyMode(args.currency_mode),
        unit_mode=UnitMode(args.unit_mode),
    )


def cmd_classify(args) -> int:
    style = _style_from_args(args)
    if args.model is not None:
        defaults = build_parser().parse_args(["classify"])
        ignored = [name for name in _MODEL_FILE_FLAGS if getattr(args, name) != getattr(defaults, name)]
        if ignored:
            flags = ", ".join("--" + name.replace("_", "-") for name in ignored)
            _usage_error(f"{flags} cannot be combined with --model, which fixes them")
        pipeline = load_pipeline(args.model)
    else:
        # no model file: train on the (bundled by default) corpus right here
        cfg = _train_config(args)
        pipeline = Pipeline.fit(load_corpus(args.corpus), cfg, args.extractor, _load_lexicon(args))

    for line in sys.stdin:
        text = line.rstrip("\n")
        if not text:
            continue
        numbers = locate_numbers(text)
        for number, window in zip(numbers, context_features.line_windows(text, numbers)):
            shape = shape_of(number)
            label = pipeline.label(window, number, shape)
            words = verbalize(number, label, style, context=window, lexicon=pipeline.lexicon, shape=shape)
            start, end = number.span
            print(f"{start}-{end}\t{label.name}\t{words}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, ValueError, OSError) as exc:  # lexicon, model and verbalization errors are ValueErrors
        print(f"numctx: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
