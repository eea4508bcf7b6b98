"""Corpus ingestion, schemas, stratified splitting, and batching."""

import os
import re
import tempfile
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtlc.data import (
    Corpus,
    LabelSchema,
    Record,
    SENTIMENT_CLASSES,
    batches,
    class_counts,
    corpus_to_tsv,
    encode_split,
    load_joint_tsv,
    merge_task_files,
    schemas_for_language,
    stratified_split,
)
from mtlc.errors import ContractError, DataError
from mtlc.text import build_vocab

SCHEMAS = schemas_for_language("kannada")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def make_corpus(labels, task="sentiment"):
    records = [
        Record(text=f"text {i}", labels={"sentiment": s, "offense": 0})
        for i, s in enumerate(labels)
    ]
    return Corpus(records=records, schemas=SCHEMAS, language="kannada")


class TestSchemas:
    def test_kannada_class_counts(self):
        assert SCHEMAS["sentiment"].n_classes == 5
        assert SCHEMAS["offense"].n_classes == 6

    def test_malayalam_drops_targeted_others(self):
        schemas = schemas_for_language("malayalam")
        assert schemas["offense"].n_classes == 5
        assert "Offensive targeted others" not in schemas["offense"].classes

    def test_tamil_offense_classes(self):
        assert schemas_for_language("tamil")["offense"].n_classes == 6

    def test_case_insensitive_lookup(self):
        assert SCHEMAS["sentiment"].index(" positive ") == 0
        assert SCHEMAS["offense"].index("NOT OFFENSIVE") == 0

    def test_unknown_label(self):
        with pytest.raises(DataError):
            SCHEMAS["sentiment"].index("joyful")

    def test_lookup_table_trims_and_folds_case(self):
        schema = LabelSchema("offense", ("Not offensive", "Offensive Untargeted"))
        assert schema.index("offensive untargeted") == 1
        assert schema.index("\tNOT Offensive \r") == 0
        with pytest.raises(DataError, match="unknown offense label 'Offensive'"):
            schema.index("Offensive")

    def test_duplicate_differing_only_in_case_rejected(self):
        with pytest.raises(ContractError, match="duplicate class names"):
            LabelSchema("sentiment", ("Positive", "positive"))

    def test_lookup_table_leaves_equality_and_hash_alone(self):
        a = LabelSchema("sentiment", SENTIMENT_CLASSES)
        b = LabelSchema("sentiment", SENTIMENT_CLASSES)
        assert a == b and hash(a) == hash(b)
        assert a != LabelSchema("offense", SENTIMENT_CLASSES)
        assert repr(a) == f"LabelSchema(task='sentiment', classes={SENTIMENT_CLASSES!r})"

    def test_unknown_language(self):
        with pytest.raises(ContractError):
            schemas_for_language("klingon")


class TestLoadJointTsv:
    def test_dedup_keeps_first(self, tmp_path):
        path = write(
            tmp_path,
            "c.tsv",
            "hello there\tPositive\tNot offensive\n"
            "another one\tNegative\tOther language\n"
            "hello there\tNeutral\tNot offensive\n",
        )
        corpus = load_joint_tsv(path, SCHEMAS, "kannada")
        assert len(corpus) == 2
        assert corpus.records[0].labels["sentiment"] == 0  # first wins

    def test_label_trimming(self, tmp_path):
        path = write(tmp_path, "c.tsv", "hi\tPositive \tNot offensive\n")
        corpus = load_joint_tsv(path, SCHEMAS, "kannada")
        assert corpus.records[0].labels["sentiment"] == 0

    def test_header_skipped(self, tmp_path):
        path = write(
            tmp_path,
            "c.tsv",
            "text\tsentiment\toffense\nhi\tPositive\tNot offensive\n",
        )
        assert len(load_joint_tsv(path, SCHEMAS, "kannada")) == 1

    def test_utf8_bom_stripped(self, tmp_path):
        path = write(
            tmp_path,
            "c.tsv",
            "\ufeffhi there\tPositive\tNot offensive\nbye\tNegative\tNot offensive\n",
        )
        corpus = load_joint_tsv(path, SCHEMAS, "kannada")
        assert corpus.records[0].text == "hi there"
        vocab = build_vocab(rec.text for rec in corpus.records)
        assert "\ufeff" not in vocab.token_to_id

    def test_bad_rows_over_limit_fail_with_line_numbers(self, tmp_path):
        rows = ["ok {}\tPositive\tNot offensive".format(i) for i in range(9)]
        rows.insert(4, "bad row\tJoyful\tNot offensive")
        path = write(tmp_path, "c.tsv", "\n".join(rows) + "\n")
        with pytest.raises(DataError, match="line 5"):
            load_joint_tsv(path, SCHEMAS, "kannada")

    def test_embedded_tab_makes_row_malformed(self, tmp_path):
        path = write(tmp_path, "c.tsv", "has\ttab inside\tPositive\tNot offensive\n")
        with pytest.raises(DataError, match="columns"):
            load_joint_tsv(path, SCHEMAS, "kannada")

    def test_fixture_with_known_counts(self, tmp_path):
        # scaled-down mirror of the Kannada sentiment distribution
        counts = [23, 10, 5, 5, 7]
        lines = []
        i = 0
        for cls, n in zip(SENTIMENT_CLASSES, counts):
            for _ in range(n):
                lines.append(f"comment number {i}\t{cls}\tNot offensive")
                i += 1
        path = write(tmp_path, "c.tsv", "\n".join(lines) + "\n")
        corpus = load_joint_tsv(path, SCHEMAS, "kannada")
        assert len(corpus) == 50
        assert class_counts(corpus, "sentiment") == counts

    def test_idempotent(self, tmp_path):
        path = write(tmp_path, "c.tsv", "hi\tPositive\tNot offensive\nyo\tNeutral\tOther language\n")
        a = load_joint_tsv(path, SCHEMAS, "kannada")
        b = load_joint_tsv(path, SCHEMAS, "kannada")
        assert a.records == b.records


class TestMergeTaskFiles:
    def test_identical_text_sets(self, tmp_path):
        sent = write(tmp_path, "s.tsv", "one\tPositive\ntwo\tNegative\n")
        off = write(tmp_path, "o.tsv", "one\tNot offensive\ntwo\tOther language\n")
        corpus, report = merge_task_files(sent, off, SCHEMAS, "kannada")
        assert len(corpus) == 2
        assert report.dropped_first_only == 0 and report.dropped_second_only == 0

    def test_disjoint_sets(self, tmp_path):
        sent = write(tmp_path, "s.tsv", "one\tPositive\n")
        off = write(tmp_path, "o.tsv", "two\tNot offensive\n")
        corpus, report = merge_task_files(sent, off, SCHEMAS, "kannada")
        assert len(corpus) == 0
        assert (report.dropped_first_only, report.dropped_second_only) == (1, 1)

    def test_partial_overlap(self, tmp_path):
        sent_lines = [f"t{i}\tPositive" for i in range(10)]
        off_lines = [f"t{i}\tNot offensive" for i in range(4, 12)]
        sent = write(tmp_path, "s.tsv", "\n".join(sent_lines) + "\n")
        off = write(tmp_path, "o.tsv", "\n".join(off_lines) + "\n")
        corpus, report = merge_task_files(sent, off, SCHEMAS, "kannada")
        assert len(corpus) == 6
        assert report.dropped_first_only == 4
        assert report.dropped_second_only == 2


class TestStratifiedSplit:
    def test_single_class_7273_reproduces_test_support(self):
        corpus = make_corpus([0] * 7273)
        splits = stratified_split(corpus, (0.8, 0.1, 0.1), seed=1)
        assert (len(splits.train), len(splits.val), len(splits.test)) == (5818, 727, 728)

    def test_everything_to_train(self):
        corpus = make_corpus([0, 1, 2] * 10)
        splits = stratified_split(corpus, (1.0, 0.0, 0.0), seed=0)
        assert len(splits.train) == 30 and len(splits.val) == 0 and len(splits.test) == 0

    def test_same_seed_identical_membership(self):
        corpus = make_corpus([i % 3 for i in range(60)])
        a = stratified_split(corpus, seed=7)
        b = stratified_split(corpus, seed=7)
        assert [r.text for r in a.train.records] == [r.text for r in b.train.records]
        assert [r.text for r in a.test.records] == [r.text for r in b.test.records]

    def test_different_seed_same_sizes_different_membership(self):
        corpus = make_corpus([i % 3 for i in range(60)])
        a = stratified_split(corpus, seed=7)
        b = stratified_split(corpus, seed=8)
        assert len(a.train) == len(b.train) and len(a.test) == len(b.test)
        assert [r.text for r in a.train.records] != [r.text for r in b.train.records]

    def test_tiny_class_goes_to_train(self):
        corpus = make_corpus([0] * 20 + [1] * 2)
        splits = stratified_split(corpus, seed=0)
        train_counts = class_counts(splits.train, "sentiment")
        assert train_counts[1] == 2
        assert class_counts(splits.val, "sentiment")[1] == 0
        assert class_counts(splits.test, "sentiment")[1] == 0

    def test_partition_property(self):
        corpus = make_corpus([i % 4 for i in range(157)])
        splits = stratified_split(corpus, seed=3)
        assert len(splits.train) + len(splits.val) + len(splits.test) == 157
        all_texts = sorted(
            [r.text for part in (splits.train, splits.val, splits.test) for r in part.records]
        )
        assert all_texts == sorted(r.text for r in corpus.records)

    def test_per_class_train_fraction(self):
        corpus = make_corpus([i % 4 for i in range(157)])
        splits = stratified_split(corpus, seed=3)
        full = class_counts(corpus, "sentiment")
        train = class_counts(splits.train, "sentiment")
        for c in range(4):
            if full[c] >= 3:
                assert abs(train[c] - 0.8 * full[c]) <= 1.0

    def test_bad_ratios(self):
        corpus = make_corpus([0, 1, 2])
        with pytest.raises(ContractError):
            stratified_split(corpus, (0.5, 0.2, 0.2))


class TestBatches:
    @pytest.fixture
    def vocab(self):
        return build_vocab(["text one two"], mode="word")

    def test_sizes(self, vocab):
        corpus = make_corpus([0] * 10)
        out = batches(encode_split(corpus, vocab, 6), 4, False, 0)
        assert [len(b) for b in out] == [4, 4, 2]

    def test_order_preserved_without_shuffle(self, vocab):
        corpus = make_corpus(list(range(5)))
        out = batches(encode_split(corpus, vocab, 6), 2, False, 0)
        flat = [label for b in out for label in b.labels["sentiment"]]
        assert flat == [0, 1, 2, 3, 4]

    def test_label_multiset_preserved_under_shuffle(self, vocab):
        labels = [int(x) for x in np.random.default_rng(0).integers(0, 5, size=33)]
        corpus = make_corpus(labels)
        out = batches(encode_split(corpus, vocab, 6), 8, True, 42)
        flat = sorted(label for b in out for label in b.labels["sentiment"])
        assert flat == sorted(labels)

    def test_label_ids_in_schema_range(self, vocab):
        corpus = make_corpus([0, 4, 2, 3])
        for b in batches(encode_split(corpus, vocab, 6), 2, True, 1):
            for task, labels in b.labels.items():
                n = SCHEMAS[task].n_classes
                assert all(0 <= label < n for label in labels)

    def test_empty_split_rejected(self, vocab):
        corpus = Corpus(records=[], schemas=SCHEMAS, language="kannada")
        with pytest.raises(ContractError):
            encode_split(corpus, vocab, 6)


class TestRoundTrip:
    def test_corpus_to_tsv_reloads(self, tmp_path):
        records = [
            Record(text="alpha beta", labels={"sentiment": 1, "offense": 5}),
            Record(text="gamma", labels={"sentiment": 4, "offense": 0}),
        ]
        corpus = Corpus(records=records, schemas=SCHEMAS, language="kannada")
        path = tmp_path / "out.tsv"
        path.write_text(corpus_to_tsv(corpus), encoding="utf-8")
        again = load_joint_tsv(str(path), SCHEMAS, "kannada")
        assert again.records == records

    def test_class_counts_identities(self):
        corpus = make_corpus([0, 0, 1, 3])
        assert class_counts(corpus, "sentiment") == [2, 1, 0, 1, 0]
        assert sum(class_counts(corpus, "sentiment")) == len(corpus)
        empty = Corpus(records=[], schemas=SCHEMAS, language="kannada")
        assert class_counts(empty, "sentiment") == [0] * 5


# ---------------------------------------------------------------------------
# property tests of TSV ingestion
# ---------------------------------------------------------------------------

def norm(text):
    """A comment as ingested: NFC, whitespace and U+FEFF trimmed at both ends."""
    return re.sub(r"^[\s\ufeff]+|[\s\ufeff]+$", "", unicodedata.normalize("NFC", text))


# any text a TSV cell can hold: no tab, and no line break the reader splits on
CELL = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
    min_size=1,
    max_size=12,
).filter(lambda t: norm(t))
LABELS = st.tuples(
    st.sampled_from(SCHEMAS["sentiment"].classes), st.sampled_from(SCHEMAS["offense"].classes)
)
# a label cell: a class name in any case and padding, or any other text
LABEL_LIKE = {
    task: st.one_of(
        CELL,
        st.builds(
            lambda name, upper, pad: (name.upper() if upper else name.lower()) + pad,
            st.sampled_from(SCHEMAS[task].classes),
            st.booleans(),
            st.sampled_from(["", " "]),
        ),
    )
    for task in ("sentiment", "offense")
}
ROWS = st.lists(st.tuples(CELL, LABELS), min_size=1, max_size=8)
PROPERTY = settings(max_examples=60, deadline=None)


def load_text(text, newline="\n"):
    """Write `text` byte for byte (lines joined by `newline`) and load it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.tsv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text.replace("\n", newline))
        return load_joint_tsv(path, SCHEMAS, "kannada")


def tsv(rows):
    return "".join(f"{text}\t{s}\t{o}\n" for text, (s, o) in rows)


class TestTsvProperties:
    @PROPERTY
    @given(ROWS)
    @example([("a", ("Positive", "Not offensive")), ("\ufeffb", ("Neutral", "Not offensive"))])
    def test_round_trip_through_corpus_to_tsv(self, rows):
        corpus = load_text(tsv(rows))
        assert [rec.text for rec in corpus.records] == list(dict.fromkeys(norm(t) for t, _ in rows))
        # a split reorders the records, so any of them may be written first
        for records in (corpus.records, corpus.records[::-1]):
            part = Corpus(records=records, schemas=SCHEMAS, language="kannada")
            assert load_text(corpus_to_tsv(part)).records == records

    @PROPERTY
    @given(ROWS)
    def test_crlf_reads_like_lf(self, rows):
        assert load_text(tsv(rows), "\r\n").records == load_text(tsv(rows)).records

    @PROPERTY
    @given(ROWS, CELL, CELL)
    def test_text_with_a_tab_is_a_bad_row(self, rows, left, right):
        good = rows * 100  # 100+ rows, so one bad row is within the 1% limit
        bad = (f"{left}\t{right}", ("Positive", "Not offensive"))
        mixed = load_text(tsv(good[:1] + [bad] + good[1:]))
        assert mixed.records == load_text(tsv(good)).records
        with pytest.raises(DataError, match="line 2: expected 3 tab-separated columns, got 4"):
            load_text(tsv(rows[:1] + [bad]))

    @PROPERTY
    @given(ROWS, CELL, st.tuples(LABEL_LIKE["sentiment"], LABEL_LIKE["offense"]))
    def test_header_like_first_row(self, rows, first_text, first_labels):
        # a first row is a header only when none of its label cells is a label
        is_label = [
            any(c.lower() == cell.strip().lower() for c in SCHEMAS[task].classes)
            for cell, task in zip(first_labels, ("sentiment", "offense"))
        ]
        text = tsv([(first_text, first_labels)] + rows)
        if all(is_label):
            kept = load_text(text).records[0].text
            assert kept == norm(first_text)
        elif any(is_label):
            with pytest.raises(DataError, match="line 1: unknown"):
                load_text(text)  # a data row with one bad label, over the limit
        else:
            assert load_text(text).records == load_text(tsv(rows)).records

    @PROPERTY
    @given(st.integers(1, 400), st.integers(0, 6), st.randoms(use_true_random=False))
    def test_bad_row_limit_is_one_percent(self, n_good, n_bad, rnd):
        lines = [f"comment {i}\tPositive\tNot offensive" for i in range(n_good)]
        for j in range(n_bad):  # after the first row, which alone decides on a header
            lines.insert(rnd.randint(1, len(lines)), f"broken {j}\tJoyful\tNot offensive")
        text = "\n".join(lines) + "\n"
        if 100 * n_bad > n_good + n_bad:  # more than 1% of the rows are bad
            with pytest.raises(DataError, match=f"{n_bad} bad rows"):
                load_text(text)
        else:
            assert len(load_text(text)) == n_good
