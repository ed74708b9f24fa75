"""Experiment harnesses built on the scoring stack."""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

from .data import load_dataset
from .errors import ContractError
from .model import Model
from .scoring import LossSpec, compute_scores
from .vocab import Vocabulary

DEFAULT_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def subsample_score_stability(model: Model, vocab: Vocabulary,
                              dataset_path: str | Path, *,
                              labeled: bool = True,
                              batch_size: int = 4,
                              max_len: int = 32,
                              fractions=DEFAULT_FRACTIONS,
                              seed: int = 0,
                              loss_spec: LossSpec | None = None,
                              granularity: str = "batch",
                              threads: int = 1) -> dict:
    """Score on seeded subsamples and rank-correlate each against the full run.

    Returns a JSON-ready report: per fraction, the example count and the
    Spearman correlation of the flattened score table against fraction 1.0.
    """
    fractions = [float(f) for f in fractions]
    if not fractions:
        raise ContractError("fractions must not be empty")
    if loss_spec is None:
        loss_spec = LossSpec.supervised()

    def scores(frac: float) -> tuple[int, np.ndarray]:
        ds = load_dataset(dataset_path, vocab, batch_size=batch_size,
                          max_len=max_len, labeled=labeled, subsample=frac, seed=seed)
        table = compute_scores(model, ds, loss_spec, granularity=granularity, threads=threads)
        return ds.num_examples, table.flattened()

    # the full data is scored once; fraction 1.0 reuses it and correlates exactly
    total, full = scores(1.0)
    num_examples, correlations = [], []
    for frac in fractions:
        n, flat = (total, full) if frac == 1.0 else scores(frac)
        num_examples.append(n)
        correlations.append(1.0 if frac == 1.0 else float(spearmanr(flat, full).statistic))
    return {
        "dataset": str(dataset_path),
        "seed": seed,
        "granularity": granularity,
        "loss_kind": loss_spec.kind,
        "total_examples": total,
        "fractions": fractions,
        "num_examples": num_examples,
        "spearman_vs_full": correlations,
    }
