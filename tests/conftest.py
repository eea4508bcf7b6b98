import pytest

from mtlc.data import Corpus, Record, schemas_for_language, stratified_split
from mtlc.text import build_vocab
from mtlc.toy import toy_rows


@pytest.fixture(scope="session")
def toy_corpus():
    schemas = schemas_for_language("kannada")
    records = [
        Record(
            text=text,
            labels={
                "sentiment": schemas["sentiment"].index(sent),
                "offense": schemas["offense"].index(off),
            },
        )
        for text, sent, off in toy_rows()
    ]
    return Corpus(records=records, schemas=schemas, language="kannada")


@pytest.fixture(scope="session")
def toy_splits(toy_corpus):
    return stratified_split(toy_corpus, (0.8, 0.1, 0.1), 5, "sentiment")


@pytest.fixture(scope="session")
def toy_vocab(toy_splits):
    # toy.cfg's text settings
    texts = (r.text for r in toy_splits.train.records)
    return build_vocab(texts, mode="word", min_freq=1, max_size=4000)
