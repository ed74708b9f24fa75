"""WordPiece-style vocabulary and tokenizer.

Text is pre-split on whitespace only. Each word is consumed by greedy
longest-match against the vocabulary, where continuation pieces carry a
"##" prefix. If any position of a word cannot be matched (or the word is
longer than MAX_WORD_CHARS) the whole word becomes a single [UNK].
"""

from __future__ import annotations

import unicodedata
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .configs import read_text
from .errors import ContractError, DataError, InvalidIndexError, VocabularyError

SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
MAX_WORD_CHARS = 100


class Vocabulary:
    """Immutable token list with id lookup; ids are list positions."""

    def __init__(self, tokens: Sequence[str], normalize: bool = False):
        tokens = list(tokens)
        if not tokens:
            raise VocabularyError("vocabulary is empty")
        seen: dict[str, int] = {}
        for i, tok in enumerate(tokens):
            if not tok or tok.split() != [tok]:
                raise VocabularyError(f"token {i} is empty or contains whitespace: {tok!r}")
            if tok in seen:
                raise VocabularyError(f"duplicate token {tok!r} at ids {seen[tok]} and {i}")
            seen[tok] = i
        missing = [s for s in SPECIAL_TOKENS if s not in seen]
        if missing:
            raise ContractError(f"vocabulary missing special tokens: {missing}")
        self._tokens: tuple[str, ...] = tuple(tokens)
        self._ids: dict[str, int] = seen
        self.normalize = bool(normalize)

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise VocabularyError(f"token {token!r} not in vocabulary") from None

    def token_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._tokens):
            raise InvalidIndexError(f"token id {token_id} out of range")
        return self._tokens[token_id]

    @property
    def tokens(self) -> tuple[str, ...]:
        return self._tokens

    @property
    def pad_id(self) -> int:
        return self._ids["[PAD]"]

    @property
    def unk_id(self) -> int:
        return self._ids["[UNK]"]

    @property
    def cls_id(self) -> int:
        return self._ids["[CLS]"]

    @property
    def sep_id(self) -> int:
        return self._ids["[SEP]"]

    @property
    def mask_id(self) -> int:
        return self._ids["[MASK]"]

    @property
    def special_ids(self) -> tuple[int, ...]:
        return tuple(self._ids[s] for s in SPECIAL_TOKENS)

    @classmethod
    def from_file(cls, path: str | Path, normalize: bool = False) -> "Vocabulary":
        lines = read_text(path, VocabularyError).splitlines()
        for i, line in enumerate(lines, start=1):
            if not line.strip():
                raise VocabularyError(f"{path}: blank token at line {i}")
        return cls([line.strip() for line in lines], normalize=normalize)

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self._tokens) + "\n", encoding="utf-8")


def _match_word(vocab: Vocabulary, word: str) -> list[int]:
    if len(word) > MAX_WORD_CHARS:
        return [vocab.unk_id]
    ids: list[int] = []
    start = 0
    while start < len(word):
        end = len(word)
        found = -1
        while end > start:
            piece = word[start:end]
            if start > 0:
                piece = "##" + piece
            if piece in vocab:
                found = vocab.id_of(piece)
                break
            end -= 1
        if found < 0:
            return [vocab.unk_id]
        ids.append(found)
        start = end
    return ids


def tokenize(vocab: Vocabulary, text: str) -> list[int]:
    """Token ids for one document; no framing tokens are added."""
    if vocab.normalize:
        text = unicodedata.normalize("NFC", text).lower()
    ids: list[int] = []
    for word in text.split():
        ids.extend(_match_word(vocab, word))
    return ids


def count_corpus_tokens(vocab: Vocabulary, path: str | Path,
                        pre_tokenized: bool = False) -> np.ndarray:
    """Occurrence count per token id over a one-document-per-line corpus.

    pre_tokenized treats each whitespace-separated item as a finished token
    (unknown items count as [UNK]) instead of running WordPiece.
    """
    counts = np.zeros(len(vocab), dtype=np.int64)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                if pre_tokenized:
                    ids = [vocab.id_of(t) if t in vocab else vocab.unk_id for t in line.split()]
                else:
                    ids = tokenize(vocab, line)
                for i in ids:
                    counts[i] += 1
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text") from exc
    return counts


def reindex(vocab: Vocabulary, kept_ids: Iterable[int]) -> tuple[Vocabulary, dict[int, int]]:
    """Compact the vocabulary to kept_ids; returns (new vocab, old->new map)."""
    kept = [int(i) for i in kept_ids]
    if not kept:
        raise ContractError("kept_ids must not be empty")
    if len(set(kept)) != len(kept):
        raise InvalidIndexError("duplicate kept ids")
    for i in kept:
        if not 0 <= i < len(vocab):
            raise InvalidIndexError(f"kept id {i} out of range for vocabulary of {len(vocab)}")
    kept_set = set(kept)
    dropped_specials = [s for s in SPECIAL_TOKENS if vocab.id_of(s) not in kept_set]
    if dropped_specials:
        raise ContractError(f"reindex would drop special tokens: {dropped_specials}")
    new_vocab = Vocabulary([vocab.token_of(i) for i in kept], normalize=vocab.normalize)
    return new_vocab, {old: new for new, old in enumerate(kept)}
