"""numctx: locate numbers in Malay text, classify their format, verbalize them."""

from .bow_features import BowVocab, bow_encode, build_vocab, gram_byte, unigrams
from .classifiers import (
    Algorithm,
    ModelFormatError,
    TrainConfig,
    deserialize,
    predict,
    predict_batch,
    serialize,
    train,
)
from .context_features import (
    FEATURE_DIM,
    ContextWindow,
    KeywordClass,
    Lexicon,
    classify_word,
    default_lexicon,
    encode,
    extract_window,
    load_lexicon,
    token_at,
    window_for_token,
)
from .corpus import (
    Corpus,
    CorpusError,
    LabeledSentence,
    StratificationError,
    bundled_corpus_path,
    load_bundled_corpus,
    load_corpus,
    save_corpus,
    scan_corpus,
    stratified_folds,
)
from .evaluation import (
    ConfusionMatrix,
    RunSummary,
    accuracy,
    class_metrics,
    comparison_report,
    cross_validate,
    evaluation_report,
    f_measure,
    precision,
    recall,
    render_tsv,
    summarize,
)
from .labels import LABELS, FormatLabel
from .locator import (
    NumberShape,
    NumberToken,
    ShapeKind,
    WordToken,
    locate_numbers,
    shape_of,
    tokenize,
)
from .verbalizer import (
    DEFAULT_STYLE,
    CurrencyMode,
    UnitMode,
    VerbalizationError,
    VerbalizationStyle,
    YearMode,
    cardinal,
    verbalize,
    year_words,
)

__version__ = "0.1.0"
