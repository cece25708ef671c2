"""Command-line surface: validate, train, evaluate, compare, classify.

Exit codes: 0 success, 1 data/runtime error, 2 usage error. All randomness
flows from ``--seed``, so two invocations with equal flags produce
byte-identical reports. ``--corpus`` and ``--lexicon`` default to the
bundled corpus and lexicon; no environment variable is read.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import context_features, evaluation
from .classifiers import Algorithm, TrainConfig
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
# a module-level name, so perfbench can time pipeline loading from outside
load_pipeline = Pipeline.load


@functools.cache  # main may run many times in one process; building the tree takes about 2 ms
def build_parser() -> argparse.ArgumentParser:
    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument(
        "--corpus",
        type=Path,
        default=bundled_corpus_path(),
        help="corpus CSV (id,text,start,end,label); defaults to the bundled corpus",
    )
    lexicon = argparse.ArgumentParser(add_help=False)
    lexicon.add_argument(
        "--lexicon",
        type=Path,
        default=context_features.default_lexicon_path(),
        help="keyword lexicon file; defaults to the bundled lexicon",
    )
    extractor = argparse.ArgumentParser(add_help=False)  # compare always runs both extractors
    extractor.add_argument("--extractor", choices=EXTRACTORS, default="context")
    classifier = argparse.ArgumentParser(add_help=False)
    classifier.add_argument(
        "--classifier",
        choices=[a.value for a in Algorithm] + list(_OUT_OF_SCOPE_CLASSIFIERS),
        default="dt",
    )
    classifier.add_argument("--k", type=int, default=1, help="neighbors for knn (1 or 3)")
    classifier.add_argument("--max-depth", type=int, default=16, help="dt depth limit, 0 = unlimited")
    classifier.add_argument("--min-leaf", type=int, default=1)
    classifier.add_argument("--shrinkage", type=float, default=1e-4)
    classifier.add_argument("--c-reg", type=float, default=1.0)
    classifier.add_argument("--epochs", type=int, default=200)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--folds", type=int, default=10)
    report.add_argument("--seed", type=int, default=42, help="seeds the fold assignment")
    report.add_argument("--format", choices=("tsv", "json"), default="tsv")
    style = argparse.ArgumentParser(add_help=False)
    style.add_argument("--year-mode", choices=("full", "paired"), default="full")
    style.add_argument("--currency-mode", choices=("spoken", "symbolic"), default="spoken")
    style.add_argument("--unit-mode", choices=("full", "abbrev"), default="full")
    # what a model file fixes, by name and default; with --model only the style flags apply
    model_file_flags = {
        name: default
        for group in (corpus, lexicon, extractor, classifier)
        for name, default in vars(group.parse_args([])).items()
    }

    parser = argparse.ArgumentParser(
        prog="numctx",
        description="locate numbers in Malay sentences, classify their format, verbalize them",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "validate", parents=[corpus], help="check a corpus file and print class counts"
    ).set_defaults(func=cmd_validate)
    p_train = sub.add_parser(
        "train", parents=[corpus, lexicon, extractor, classifier], help="train on a corpus and write a model file"
    )
    p_train.add_argument("--output", type=Path, required=True, help="model file to write")
    p_train.set_defaults(func=cmd_train)
    sub.add_parser(
        "evaluate", parents=[corpus, lexicon, extractor, classifier, report], help="k-fold cross-validation report"
    ).set_defaults(func=cmd_evaluate)
    sub.add_parser(
        "compare", parents=[corpus, lexicon, classifier, report], help="context vs bag-of-words comparison report"
    ).set_defaults(func=cmd_compare)
    p_cls = sub.add_parser(
        "classify",
        parents=[corpus, lexicon, extractor, classifier, style],
        help="read sentences on stdin, print span/label/verbalization lines",
    )
    p_cls.add_argument("--model", type=Path, default=None, help="model file from 'train'")
    p_cls.set_defaults(func=cmd_classify, model_file_flags=model_file_flags)
    return parser


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


def _inputs(args) -> tuple[TrainConfig, Corpus, context_features.Lexicon]:
    """The training config, corpus and lexicon the flags name; a usage error comes before any file is read."""
    return _train_config(args), load_corpus(args.corpus), context_features.load_lexicon(args.lexicon)


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
    cfg, corpus, lexicon = _inputs(args)
    summary = evaluation.cross_validate(
        corpus, args.extractor, cfg, k=args.folds, seed=args.seed, lexicon=lexicon
    )
    _emit_report(evaluation.evaluation_report(summary), args.format)
    return 0


def cmd_compare(args) -> int:
    _check_folds(args.folds)
    cfg, corpus, lexicon = _inputs(args)
    context_summary, bow_summary = (
        evaluation.cross_validate(corpus, extractor, cfg, k=args.folds, seed=args.seed, lexicon=lexicon)
        for extractor in ("context", "bow")
    )
    _emit_report(evaluation.comparison_report(context_summary, bow_summary), args.format)
    return 0


def cmd_train(args) -> int:
    cfg, corpus, lexicon = _inputs(args)
    Pipeline.fit(corpus, cfg, args.extractor, lexicon).save(args.output)
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
        ignored = [name for name, default in args.model_file_flags.items() if getattr(args, name) != default]
        if ignored:
            flags = ", ".join("--" + name.replace("_", "-") for name in ignored)
            _usage_error(f"{flags} cannot be combined with --model, which fixes them")
        pipeline = load_pipeline(args.model)
    else:
        # no model file: train on the (bundled by default) corpus right here
        cfg, corpus, lexicon = _inputs(args)
        pipeline = Pipeline.fit(corpus, cfg, args.extractor, lexicon)

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
