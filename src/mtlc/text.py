"""Vocabulary construction and deterministic comment encoding.

A deliberately small substitute for subword tokenizers: either whole
whitespace-split words (surrounding punctuation stripped) or single Unicode
scalar values. `build_vocab` takes every setting from its caller (`mtlc
train` passes the config's `text.mode` and `text.max_size`), and
`parse_vocab` parses a vocabulary file's bytes its caller has read.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable

from .checkpoint import write_atomic
from .errors import ContractError, DataError

PAD, UNK, CLS, SEP = 0, 1, 2, 3
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]")
VOCAB_FORMAT_VERSION = "1"
MODES = ("word", "char")


@dataclass(frozen=True)
class Vocab:
    mode: str
    id_to_token: tuple[str, ...]
    token_to_id: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "token_to_id", {t: i for i, t in enumerate(self.id_to_token)})

    def __len__(self) -> int:
        return len(self.id_to_token)


@dataclass(frozen=True)
class TokenSeq:
    """One encoded comment: its ids, [CLS] to [SEP] with no padding, for
    sequences of at most `max_len` positions."""

    ids: tuple[int, ...]
    max_len: int

    @property
    def mask(self) -> tuple[int, ...]:
        """1 for each id, then 0 up to `max_len`."""
        return (1,) * len(self.ids) + (0,) * (self.max_len - len(self.ids))


def _strip_punct(word: str) -> str:
    start, stop = 0, len(word)
    while start < stop and unicodedata.category(word[start]).startswith("P"):
        start += 1
    while stop > start and unicodedata.category(word[stop - 1]).startswith("P"):
        stop -= 1
    return word[start:stop]


def tokenize(text: str, mode: str) -> list[str]:
    if mode == "word":
        return [w for w in (_strip_punct(raw) for raw in text.split()) if w]
    if mode == "char":
        return list(text)
    raise ContractError(f"unknown tokenizer mode {mode!r}, expected one of {MODES}")


def build_vocab(corpus: Iterable[str], mode: str, max_size: int) -> Vocab:
    """Frequency-ranked vocabulary over `corpus`: every token it holds,
    ordered by descending frequency then token text, capped at `max_size`
    entries after the four special tokens."""
    freq: Counter[str] = Counter()
    texts = 0
    for text in corpus:
        texts += 1
        freq.update(tokenize(text, mode))
    if texts == 0:
        raise ContractError("cannot build a vocabulary from an empty corpus")
    ranked = sorted(freq, key=lambda tok: (-freq[tok], tok))
    return Vocab(mode=mode, id_to_token=SPECIAL_TOKENS + tuple(ranked[:max_size]))


def encode(text: str, vocab: Vocab, max_len: int) -> TokenSeq:
    """[CLS] + token ids truncated to max_len-2 + [SEP]."""
    tokens = tokenize(text, vocab.mode)
    ids = (CLS, *map(vocab.token_to_id.get, tokens[: max_len - 2], repeat(UNK)), SEP)
    return TokenSeq(ids, max_len)


def save_vocab(vocab: Vocab, path: str) -> bytes:
    """Write `vocab` to `path`; returns the bytes written."""
    lines = [VOCAB_FORMAT_VERSION, vocab.mode]
    for token in vocab.id_to_token[len(SPECIAL_TOKENS) :]:
        if "\n" in token or "\r" in token:
            raise ContractError(f"token {token!r} contains a line break")
        lines.append(token)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    write_atomic(path, data)
    return data


def parse_vocab(data: bytes, path: str) -> Vocab:
    """The vocabulary `save_vocab` wrote as `data`; `path` names the file in
    errors. The caller reads the bytes, so it can check them first."""
    try:
        raw = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: vocabulary file is not UTF-8 text ({err.reason})") from None
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        raise DataError(f"{path}: vocabulary file is missing its 2-line header")
    version, mode = lines[0], lines[1]
    if version != VOCAB_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported vocabulary format version {version!r}")
    if mode not in MODES:
        raise DataError(f"{path}: unknown tokenizer mode {mode!r}")
    id_to_token = SPECIAL_TOKENS + tuple(lines[2:])
    if len(set(id_to_token)) != len(id_to_token):
        raise DataError(f"{path}: duplicate tokens in vocabulary file")
    return Vocab(mode=mode, id_to_token=id_to_token)
