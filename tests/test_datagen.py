from numctx.context_features import bundled_corpus_path, default_lexicon
from numctx.corpus import load_corpus
from numctx.datagen import DEFAULT_SEED, FILLERS, generate_corpus
from numctx.labels import LABELS
from numctx.locator import locate_numbers


class TestGenerator:
    def test_deterministic(self):
        assert generate_corpus(3) == generate_corpus(3)
        assert generate_corpus(3) != generate_corpus(4)

    def test_bundled_file_matches_generator(self):
        # the shipped CSV is exactly the generator's output for the default seed
        assert load_corpus(bundled_corpus_path()) == generate_corpus(DEFAULT_SEED)

    def test_size_floor(self):
        corpus = generate_corpus(DEFAULT_SEED)
        counts = corpus.class_counts()
        assert len(corpus) >= 300
        for label in LABELS:
            assert counts[label] >= 40, label

    def test_fillers_outside_lexicon(self):
        lexicon = default_lexicon()
        for word in FILLERS:
            assert word not in lexicon.entries, word
            assert not any(ch.isdigit() for ch in word)

    def test_ids_unique(self):
        corpus = generate_corpus(DEFAULT_SEED)
        ids = [s.id for s in corpus]
        assert len(set(ids)) == len(ids)

    def test_every_span_locates(self):
        for sentence in generate_corpus(DEFAULT_SEED):
            spans = {t.span for t in locate_numbers(sentence.text)}
            assert sentence.span in spans
