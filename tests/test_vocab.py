"""Tokenizer oracles: greedy longest-match traces, UNK fallback, counting,
and re-index commutation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunekit.errors import ContractError, DataError, InvalidIndexError, VocabularyError
from prunekit.vocab import (SPECIAL_TOKENS, Vocabulary, count_corpus_tokens,
                            reindex, tokenize)

BASE_TOKENS = list(SPECIAL_TOKENS) + [
    "a", "##a", "ab", "b", "un", "break", "##break", "##able", "##er",
    "hello", "world", "the", "cat",
]


@pytest.fixture
def vocab():
    return Vocabulary(BASE_TOKENS)


def toks(vocab, text):
    return [vocab.token_of(i) for i in tokenize(vocab, text)]


class TestTokenize:
    def test_greedy_trace(self, vocab):
        assert toks(vocab, "unbreakable") == ["un", "##break", "##able"]
        assert toks(vocab, "breaker") == ["break", "##er"]

    def test_longest_match_wins(self, vocab):
        # "ab" is present whole, so the shorter "a" is never considered
        assert toks(vocab, "ab") == ["ab"]

    def test_whole_word_unk_on_any_failure(self, vocab):
        # "b" matches at position 0 but "a" cannot continue (no "##a"?
        # it exists here, so pick a truly unmatched word instead)
        assert toks(vocab, "zzz") == ["[UNK]"]
        # first piece matches, continuation fails, whole word collapses
        assert toks(vocab, "hellox") == ["[UNK]"]

    def test_word_length_limit(self, vocab):
        matchable = "a" * 100
        assert toks(vocab, matchable) == ["a"] + ["##a"] * 99
        assert toks(vocab, "a" * 101) == ["[UNK]"]

    def test_whitespace_only_presplit(self, vocab):
        assert toks(vocab, "hello,world") == ["[UNK]"]
        assert toks(vocab, "hello  world\tcat\nthe") == ["hello", "world", "cat", "the"]

    def test_empty_text(self, vocab):
        assert tokenize(vocab, "") == []
        assert tokenize(vocab, "   ") == []

    def test_normalization_off_by_default(self, vocab):
        assert toks(vocab, "Hello") == ["[UNK]"]

    def test_normalization_when_enabled(self):
        v = Vocabulary(BASE_TOKENS + ["café"], normalize=True)
        assert [v.token_of(i) for i in tokenize(v, "HELLO")] == ["hello"]
        decomposed = "café"
        assert [v.token_of(i) for i in tokenize(v, decomposed)] == ["café"]

    def test_pure_function(self, vocab):
        assert tokenize(vocab, "unbreakable cat") == tokenize(vocab, "unbreakable cat")


class TestVocabulary:
    def test_ids_are_line_positions(self, vocab):
        for i, tok in enumerate(BASE_TOKENS):
            assert vocab.id_of(tok) == i
            assert vocab.token_of(i) == tok

    def test_specials_required(self):
        with pytest.raises(ContractError):
            Vocabulary(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "word"])

    def test_duplicates_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary(list(SPECIAL_TOKENS) + ["x", "x"])

    def test_bad_tokens_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary(list(SPECIAL_TOKENS) + [""])
        with pytest.raises(VocabularyError):
            Vocabulary(list(SPECIAL_TOKENS) + ["two words"])

    def test_file_roundtrip(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.from_file(path)
        assert loaded.tokens == vocab.tokens
        assert path.read_text().splitlines()[vocab.id_of("hello")] == "hello"

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[UNK]\n\n[CLS]\n[SEP]\n[MASK]\n")
        with pytest.raises(VocabularyError, match="line 3"):
            Vocabulary.from_file(path)

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"[PAD]\n[UNK]\n\xff\n[CLS]\n[SEP]\n[MASK]\n")
        with pytest.raises(VocabularyError, match="not UTF-8 text at byte 12"):
            Vocabulary.from_file(path)


class TestCounting:
    def test_hand_counts(self, vocab, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("the cat\nthe unbreakable cat\n")
        counts = count_corpus_tokens(vocab, corpus)
        assert counts[vocab.id_of("the")] == 2
        assert counts[vocab.id_of("cat")] == 2
        assert counts[vocab.id_of("un")] == 1
        assert counts[vocab.id_of("##break")] == 1
        assert counts[vocab.id_of("##able")] == 1
        assert counts.sum() == 7

    def test_line_order_invariance(self, vocab, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("the cat\nhello world\nzzz\n")
        b.write_text("zzz\nhello world\nthe cat\n")
        np.testing.assert_array_equal(count_corpus_tokens(vocab, a),
                                      count_corpus_tokens(vocab, b))

    def test_unknown_words_count_as_unk(self, vocab, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("zzz qqq\n")
        counts = count_corpus_tokens(vocab, corpus)
        assert counts[vocab.unk_id] == 2

    def test_pre_tokenized_mode(self, vocab, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("the [MASK] unbreakable\n")
        counts = count_corpus_tokens(vocab, corpus, pre_tokenized=True)
        assert counts[vocab.id_of("the")] == 1
        assert counts[vocab.mask_id] == 1
        # not split into pieces in this mode: whole item is unknown
        assert counts[vocab.unk_id] == 1
        assert counts[vocab.id_of("##break")] == 0

    def test_empty_corpus_zero_counts(self, vocab, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("")
        assert count_corpus_tokens(vocab, corpus).sum() == 0

    def test_not_utf8_is_data_error(self, vocab, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b"the cat\n" * 5000 + b"the \xff cat\n")
        with pytest.raises(DataError, match="c.txt: not UTF-8 text"):
            count_corpus_tokens(vocab, corpus)

    def test_missing_file_raises_oserror(self, vocab, tmp_path):
        with pytest.raises(OSError):
            count_corpus_tokens(vocab, tmp_path / "nope.txt")


class TestReindex:
    def test_identity(self, vocab):
        new, mapping = reindex(vocab, range(len(vocab)))
        assert new.tokens == vocab.tokens
        assert mapping == {i: i for i in range(len(vocab))}

    def test_compaction_mapping(self, vocab):
        kept = list(vocab.special_ids) + [vocab.id_of("hello"), vocab.id_of("cat")]
        new, mapping = reindex(vocab, kept)
        assert len(new) == len(kept)
        for old, newid in mapping.items():
            assert new.token_of(newid) == vocab.token_of(old)

    def test_dropping_special_rejected(self, vocab):
        kept = [i for i in range(len(vocab)) if i != vocab.mask_id]
        with pytest.raises(ContractError):
            reindex(vocab, kept)

    def test_bad_ids_rejected(self, vocab):
        with pytest.raises(InvalidIndexError):
            reindex(vocab, list(vocab.special_ids) + [len(vocab)])
        with pytest.raises(InvalidIndexError):
            reindex(vocab, list(vocab.special_ids) + [6, 6])
        with pytest.raises(ContractError):
            reindex(vocab, [])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["unbreakable", "hello", "world", "ab", "breaker", "the"]),
                    min_size=1, max_size=8))
    def test_commutes_with_tokenize_for_surviving_pieces(self, words):
        vocab = Vocabulary(BASE_TOKENS)
        sentence = " ".join(words)
        original = tokenize(vocab, sentence)
        kept = sorted(set(vocab.special_ids) | set(original))
        new_vocab, mapping = reindex(vocab, kept)
        assert tokenize(new_vocab, sentence) == [mapping[i] for i in original]
