import math
import threading
from types import SimpleNamespace

import pytest

from mtlc import mtl
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
    return build_vocab(texts, mode="word", max_size=4000)


@pytest.fixture
def forward_calls(monkeypatch):
    """`.count`: the sequences `mtl.encoder_forward` has encoded since the
    test set it to 0. A [T, ...] tower stack encodes each sequence T times,
    so soft sharing's one pass counts two per comment."""
    counter = SimpleNamespace(count=0)
    lock = threading.Lock()  # TestConcurrency encodes on five threads at once
    forward = mtl.encoder_forward

    def counted(batch, params, *args, **kwargs):
        with lock:
            counter.count += len(batch.lengths) * math.prod(params["tok_emb"].shape[:-2])
        return forward(batch, params, *args, **kwargs)

    monkeypatch.setattr(mtl, "encoder_forward", counted)
    return counter
