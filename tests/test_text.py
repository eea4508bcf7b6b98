"""Vocabulary construction and sequence encoding."""

import pytest

from mtlc.errors import ContractError, DataError
from mtlc.text import (
    CLS,
    SEP,
    UNK,
    build_vocab,
    encode,
    parse_vocab,
    save_vocab,
    tokenize,
)


class TestBuildVocab:
    def test_word_mode_hand_case(self):
        vocab = build_vocab(["a b", "a"], mode="word", max_size=100)
        assert vocab.token_to_id == {
            "[PAD]": 0, "[UNK]": 1, "[CLS]": 2, "[SEP]": 3, "a": 4, "b": 5,
        }

    def test_char_mode_hand_case(self):
        vocab = build_vocab(["ab"], mode="char", max_size=100)
        assert vocab.token_to_id["a"] == 4
        assert vocab.token_to_id["b"] == 5

    def test_frequency_then_lexicographic_rank(self):
        vocab = build_vocab(["z z b a"], mode="word", max_size=100)
        assert vocab.id_to_token[4:] == ("z", "a", "b")

    def test_max_size_caps_after_specials(self):
        vocab = build_vocab(["a b c d e"], mode="word", max_size=2)
        assert len(vocab) == 6

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            build_vocab([], mode="word", max_size=100)

    def test_bijection(self):
        vocab = build_vocab(["some words and more words"], mode="word", max_size=100)
        assert sorted(vocab.token_to_id.values()) == list(range(len(vocab)))
        for tok, i in vocab.token_to_id.items():
            assert vocab.id_to_token[i] == tok


class TestTokenize:
    def test_word_mode_strips_surrounding_punctuation(self):
        assert tokenize('"hello," (world)!', "word") == ["hello", "world"]

    def test_word_mode_keeps_interior_punctuation(self):
        assert tokenize("it's fine", "word") == ["it's", "fine"]

    def test_char_mode_unicode_scalars(self):
        assert tokenize("aX", "char") == ["a", "X"]
        assert tokenize("ಕನ", "char") == ["ಕ", "ನ"]

    def test_unknown_mode(self):
        with pytest.raises(ContractError):
            tokenize("x", "subword")


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return build_vocab(["a b", "a"], mode="word", max_size=100)

    def test_empty_text(self, vocab):
        seq = encode("", vocab, 6)
        assert seq.ids == (CLS, SEP)
        assert seq.mask == (1, 1, 0, 0, 0, 0)

    def test_hand_case(self, vocab):
        seq = encode("a b", vocab, 5)
        assert seq.ids == (2, 4, 5, 3)
        assert seq.mask == (1, 1, 1, 1, 0)
        # char ids a=4, " "=5, b=6: "?" and "ü" are unknown, the last " a" is cut
        vocab = build_vocab(["a b", "a"], mode="char", max_size=100)
        seq = encode("a?b ü a", vocab, 7)
        assert seq.ids == (2, 4, UNK, 6, 5, UNK, 3)
        assert seq.mask == (1,) * 7

    def test_truncation(self, vocab):
        text = " ".join(["a"] * 100)
        seq = encode(text, vocab, 8)
        assert sum(seq.mask) - 2 == 6  # [CLS] and [SEP] around 6 kept tokens
        assert seq.ids[0] == CLS and seq.ids[7] == SEP

    def test_deterministic(self, vocab):
        assert encode("a b a", vocab, 6) == encode("a b a", vocab, 6)

    def test_round_trip_for_in_vocab_text(self, vocab):
        seq = encode("a b a", vocab, 8)
        assert [vocab.id_to_token[i] for i in seq.ids if i > SEP] == ["a", "b", "a"]

    def test_mask_sum_identity(self, vocab):
        for text in ("", "a", "a b", " ".join(["b"] * 50)):
            for max_len in (3, 5, 9):
                seq = encode(text, vocab, max_len)
                raw = len(tokenize(text, vocab.mode))
                assert sum(seq.mask) == 2 + min(raw, max_len - 2)

    def test_mask_is_prefix(self, vocab):
        seq = encode("a b", vocab, 7)
        flipped = False
        for m in seq.mask:
            if m == 0:
                flipped = True
            assert not (flipped and m == 1)


class TestVocabFile:
    def test_round_trip(self, tmp_path):
        vocab = build_vocab(["a b c", "b c"], mode="word", max_size=100)
        path = str(tmp_path / "vocab.txt")
        save_vocab(vocab, path)
        loaded = parse_vocab((tmp_path / "vocab.txt").read_bytes(), path)
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.mode == vocab.mode

    def test_header_format(self, tmp_path):
        vocab = build_vocab(["xy"], mode="char", max_size=100)
        path = str(tmp_path / "vocab.txt")
        save_vocab(vocab, path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        assert lines[0] == "1"
        assert lines[1] == "char"
        assert lines[2] == "x"

    @pytest.mark.parametrize("data", [b"", b"1\n", b"1"])
    def test_file_shorter_than_its_header_rejected(self, data):
        with pytest.raises(DataError, match="vocab.txt: vocabulary file is missing its 2-line header"):
            parse_vocab(data, "vocab.txt")

    def test_bad_version_rejected(self):
        with pytest.raises(DataError):
            parse_vocab(b"9\nword\na\n", "vocab.txt")

    def test_bad_mode_rejected(self):
        with pytest.raises(DataError):
            parse_vocab(b"1\nbpe\na\n", "vocab.txt")

    def test_duplicate_token_rejected(self):
        with pytest.raises(DataError):
            parse_vocab(b"1\nword\na\na\n", "vocab.txt")

    def test_non_utf8_rejected_naming_the_file(self):
        with pytest.raises(DataError, match="vocab.txt.*not UTF-8"):
            parse_vocab(b"1\nword\n\xff\n", "vocab.txt")
