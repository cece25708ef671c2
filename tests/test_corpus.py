import pytest
from hypothesis import given, settings, strategies as st

from numctx.context_features import bundled_corpus_path
from numctx.corpus import (
    Corpus,
    CorpusError,
    LabeledSentence,
    load_corpus,
    save_corpus,
    scan_corpus,
    stratified_folds,
)
from numctx.labels import LABELS, FormatLabel
from numctx.locator import locate_numbers

COURT_ROW = 's1,"Mahkamah menetapkan 21 Januari ini untuk sebutan semula kes",20,22,Date\n'
HEADER = "id,text,start,end,label\n"


def write_corpus(tmp_path, body, name="corpus.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body, encoding="utf-8")
    return path


def make_sentence(sid, label=FormatLabel.Date, value="21"):
    text = f"ayat nombor {value} sahaja"
    start = text.index(value)
    return LabeledSentence(id=sid, text=text, span=(start, start + len(value)), label=label)


class TestFormatLabel:
    def test_canonical_ordering(self):
        assert list(LABELS) == [
            FormatLabel.Date,
            FormatLabel.Time,
            FormatLabel.Phone,
            FormatLabel.Currency,
            FormatLabel.Measurement,
            FormatLabel.Percentage,
        ]
        assert FormatLabel.Date < FormatLabel.Time < FormatLabel.Phone
        assert FormatLabel.Currency < FormatLabel.Measurement < FormatLabel.Percentage

    def test_exactly_six_variants(self):
        assert len(FormatLabel) == 6

    def test_from_name_round_trip(self):
        for label in FormatLabel:
            assert FormatLabel.from_name(label.name) == label

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError, match="Fraction"):
            FormatLabel.from_name("Fraction")


class TestLoadCorpus:
    def test_court_row(self, tmp_path):
        corpus = load_corpus(write_corpus(tmp_path, COURT_ROW))
        assert len(corpus) == 1
        sentence = corpus[0]
        assert sentence.label == FormatLabel.Date
        assert sentence.text[20:22] == "21"

    def test_header_only(self, tmp_path):
        corpus = load_corpus(write_corpus(tmp_path, ""))
        assert len(corpus) == 0

    def test_unknown_label(self, tmp_path):
        path = write_corpus(tmp_path, 's1,"nombor 21 itu",7,9,Fraction\n')
        with pytest.raises(CorpusError, match="unknown format label 'Fraction'"):
            load_corpus(path)

    def test_span_outside_text(self, tmp_path):
        path = write_corpus(tmp_path, 's1,"nombor 21 itu",7,99,Date\n')
        with pytest.raises(CorpusError, match="outside text of length"):
            load_corpus(path)

    def test_span_not_a_number(self, tmp_path):
        path = write_corpus(tmp_path, 's1,"nombor 21 itu",0,6,Date\n')
        with pytest.raises(CorpusError, match="is not a located number token"):
            load_corpus(path)

    def test_duplicate_id(self, tmp_path):
        path = write_corpus(tmp_path, COURT_ROW + COURT_ROW)
        with pytest.raises(CorpusError, match="duplicate id 's1'"):
            load_corpus(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = write_corpus(tmp_path, "only,two\n")
        with pytest.raises(CorpusError, match=":2: expected 5 fields, got 2"):
            load_corpus(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("id,sentence\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="bad header"):
            load_corpus(path)

    def test_non_integer_span(self, tmp_path):
        path = write_corpus(tmp_path, 's1,"nombor 21 itu",tujuh,9,Date\n')
        with pytest.raises(CorpusError, match="non-integer span"):
            load_corpus(path)

    def test_scan_collects_all_issues(self, tmp_path):
        body = COURT_ROW + 's2,"nombor 21 itu",0,6,Date\n' + 's3,"nombor 21 itu",7,9,Fraction\n'
        sentences, issues = scan_corpus(write_corpus(tmp_path, body))
        assert len(sentences) == 1
        assert len(issues) == 2
        assert all(type(issue) is CorpusError for issue in issues)

    def test_round_trip(self, tmp_path):
        original = load_corpus(bundled_corpus_path())
        out = tmp_path / "again.csv"
        save_corpus(original, out)
        assert load_corpus(out) == original

    def test_offsets_count_scalar_values_not_bytes(self, tmp_path):
        # 'seūsai' is 6 characters but 7 utf-8 bytes; byte offsets would miss
        text = "seūsai 21 Januari"
        start = text.index("21")
        path = write_corpus(tmp_path, f's1,"{text}",{start},{start + 2},Date\n')
        corpus = load_corpus(path)
        assert corpus[0].text[start : start + 2] == "21"

    def test_round_trip_quoting(self, tmp_path):
        text = 'dia kata "nombor 21, bukan 12"'
        start = text.index("21")
        corpus = Corpus(
            sentences=(LabeledSentence("q1", text, (start, start + 2), FormatLabel.Date),)
        )
        out = tmp_path / "quoted.csv"
        save_corpus(corpus, out)
        assert load_corpus(out) == corpus


class TestRowCarriesItsNumber:
    @pytest.mark.parametrize("span", [(12, 13), (0, 4)], ids=["cuts-the-number", "on-a-word"])
    def test_span_that_is_not_a_located_number_cannot_be_built(self, span):
        with pytest.raises(ValueError, match="is not a located number token"):
            LabeledSentence("s1", "ayat nombor 21 sahaja", span, FormatLabel.Date)

    def test_number_is_the_token_at_the_span_and_not_a_field_compared(self):
        sentence = make_sentence("s1", value="RM 2.50")
        assert (sentence.number.raw, sentence.number.span) == ("RM 2.50", sentence.span)
        assert sentence == make_sentence("s1", value="RM 2.50")
        assert hash(sentence) == hash(make_sentence("s1", value="RM 2.50"))
        assert "number" not in repr(sentence)

    def test_equality_and_hash_ignore_number(self):
        sentence, other = make_sentence("s1"), make_sentence("s1")
        object.__setattr__(other, "number", locate_numbers("RM 9")[0])
        assert other.number != sentence.number
        assert other == sentence
        assert hash(other) == hash(sentence)


class TestStratifiedFolds:
    def test_singletons(self):
        corpus = Corpus(sentences=tuple(make_sentence(f"s{i}") for i in range(10)))
        folds = stratified_folds(corpus, k=10, seed=0)
        assert sorted(len(f) for f in folds) == [1] * 10

    def test_571_rows_fold_sizes(self):
        corpus = Corpus(sentences=tuple(make_sentence(f"s{i}") for i in range(571)))
        folds = stratified_folds(corpus, k=10, seed=42)
        assert sorted(len(f) for f in folds) == [57] * 9 + [58]

    def test_exhaustive_count_two_classes(self):
        # 20 rows, two classes of 10, k=5: every fold takes exactly 2 of each
        rows = [make_sentence(f"a{i}", FormatLabel.Date) for i in range(10)]
        rows += [make_sentence(f"b{i}", FormatLabel.Time) for i in range(10)]
        corpus = Corpus(sentences=tuple(rows))
        folds = stratified_folds(corpus, k=5, seed=3)
        for fold in folds:
            by_label = {FormatLabel.Date: 0, FormatLabel.Time: 0}
            for index in fold:
                by_label[corpus[index].label] += 1
            assert by_label == {FormatLabel.Date: 2, FormatLabel.Time: 2}

    def test_small_class_error_names_class(self):
        rows = [make_sentence(f"a{i}", FormatLabel.Date) for i in range(10)]
        rows += [make_sentence(f"b{i}", FormatLabel.Phone) for i in range(3)]
        corpus = Corpus(sentences=tuple(rows))
        with pytest.raises(CorpusError, match="class Phone has 3 members"):
            stratified_folds(corpus, k=5, seed=0)

    def test_k_below_two(self):
        corpus = Corpus(sentences=tuple(make_sentence(f"s{i}") for i in range(4)))
        with pytest.raises(ValueError):
            stratified_folds(corpus, k=1, seed=0)

    def test_empty_corpus(self):
        with pytest.raises(CorpusError, match="no sentences to partition"):
            stratified_folds(Corpus(sentences=()), k=2, seed=0)

    def test_determinism(self):
        corpus = load_corpus(bundled_corpus_path())
        assert stratified_folds(corpus, 10, 42) == stratified_folds(corpus, 10, 42)
        assert stratified_folds(corpus, 10, 42) != stratified_folds(corpus, 10, 43)

    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=6),
        k=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_partition_properties(self, sizes, k, seed):
        rows = []
        for class_index, size in enumerate(sizes):
            label = LABELS[class_index]
            size = 0 if size == 0 else max(size, k)  # present classes need >= k
            rows += [make_sentence(f"c{class_index}_{i}", label) for i in range(size)]
        if not rows:
            return
        corpus = Corpus(sentences=tuple(rows))
        folds = stratified_folds(corpus, k=k, seed=seed)

        flat = [i for fold in folds for i in fold]
        assert sorted(flat) == list(range(len(corpus)))  # disjoint and exhaustive
        assert len(folds) == k
        total_sizes = [len(fold) for fold in folds]
        assert max(total_sizes) - min(total_sizes) <= 1
        for label in LABELS:
            per_fold = [sum(1 for i in fold if corpus[i].label == label) for fold in folds]
            assert max(per_fold) - min(per_fold) <= 1
