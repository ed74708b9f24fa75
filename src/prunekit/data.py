"""Dataset loading: TSV/plain-text files into padded, framed batches."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .configs import read_text
from .errors import ContractError, DataError
from .vocab import Vocabulary, tokenize


@dataclass(eq=False)
class Batch:
    token_ids: np.ndarray           # int64 (batch, seq), padded with pad_id
    labels: np.ndarray | None       # int64 (batch,) or None for unlabeled data

    @property
    def size(self) -> int:
        return self.token_ids.shape[0]


@dataclass(eq=False)
class Dataset:
    batches: list[Batch]
    labeled: bool
    batch_size: int
    num_examples: int
    source: str = ""

    def __len__(self) -> int:
        return len(self.batches)

    def __iter__(self):
        return iter(self.batches)


def load_dataset(path: str | Path, vocab: Vocabulary, *, batch_size: int,
                 max_len: int, labeled: bool, subsample: float = 1.0,
                 seed: int = 0) -> Dataset:
    """Read one example per line; labeled lines are "label<TAB>text".

    Every example is framed as [CLS] tokens... [SEP] with the token span
    truncated to max_len - 2. Batches are consecutive groups of batch_size
    (last one may be short), each padded to its own longest sequence.
    Subsampling draws round(subsample * N) examples (at least one) with a
    seeded generator and keeps them in file order.
    """
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    if max_len < 2:
        raise ContractError(f"max_len must be >= 2 to fit [CLS] and [SEP], got {max_len}")
    if not 0.0 < subsample <= 1.0:
        raise ContractError(f"subsample must be in (0, 1], got {subsample}")

    path = Path(path)
    lines = read_text(path, DataError).splitlines()
    examples: list[tuple[list[int], int | None]] = []
    for row, line in enumerate(lines, start=1):
        if labeled:
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise DataError(f"{path}: row {row}: expected label<TAB>text")
            raw_label, text = parts
            try:
                label = int(raw_label)
            except ValueError:
                raise DataError(f"{path}: row {row}: label {raw_label!r} is not an integer") from None
        else:
            label, text = None, line
        ids = [vocab.cls_id] + tokenize(vocab, text)[:max_len - 2] + [vocab.sep_id]
        examples.append((ids, label))
    if not examples:
        raise ContractError(f"dataset {path} is empty")

    if subsample < 1.0:
        n = len(examples)
        k = max(1, round(subsample * n))
        picked = np.sort(np.random.default_rng(seed).permutation(n)[:k])
        examples = [examples[i] for i in picked]

    batches: list[Batch] = []
    for start in range(0, len(examples), batch_size):
        chunk = examples[start:start + batch_size]
        width = max(len(ids) for ids, _ in chunk)
        ids_arr = np.full((len(chunk), width), vocab.pad_id, dtype=np.int64)
        for i, (ids, _) in enumerate(chunk):
            ids_arr[i, :len(ids)] = ids
        labels_arr = (np.array([lab for _, lab in chunk], dtype=np.int64)
                      if labeled else None)
        batches.append(Batch(token_ids=ids_arr, labels=labels_arr))
    return Dataset(batches=batches, labeled=labeled, batch_size=batch_size,
                   num_examples=len(examples), source=str(path))
