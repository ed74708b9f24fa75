"""Gradient-based importance scores for attention heads and FFN neurons.

The importance of a unit is E[|dL/dg|] evaluated at gate g = 1, where the
gate multiplies the unit's output. Because the gate scales the whole unit
contribution, |dL/dg| equals |dL/d(unit output) . unit output|, so scores
come from a single backward pass per batch with no weight updates.

Two losses: supervised cross-entropy against dataset labels, and
self-supervised KL(q || p) where q is a fixed reference distribution
(typically the unpruned model's predictions) and gradients flow only
through p. Without given reference logits, each scoring unit's own taped
logits serve as q, so no separate forward pass is needed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigError, ContractError, NumericError, ShapeError
from .model import Model, build_gates, named_tensors, task_forward
from .tensor import (Tape, Tensor, add, backward, log_softmax_rows, mul, scale,
                     sum_all, _log_softmax_np)

CROSS_ENTROPY = "cross_entropy"
KL_DIVERGENCE = "kl_divergence"


@dataclass
class LossSpec:
    """Which loss drives scoring; KL carries optional per-batch reference logits."""

    kind: str
    reference_logits: list[np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in (CROSS_ENTROPY, KL_DIVERGENCE):
            raise ConfigError(f"unknown loss kind {self.kind!r}")
        if self.kind == CROSS_ENTROPY and self.reference_logits is not None:
            raise ConfigError("cross-entropy scoring does not take reference logits")

    @classmethod
    def supervised(cls) -> "LossSpec":
        return cls(kind=CROSS_ENTROPY)

    @classmethod
    def self_supervised(cls, reference_logits: list[np.ndarray] | None = None) -> "LossSpec":
        return cls(kind=KL_DIVERGENCE, reference_logits=reference_logits)


@dataclass
class ScoreTable:
    """Per-unit importance scores at the model's current widths."""

    head_scores: list[np.ndarray]
    ffn_scores: list[np.ndarray]
    loss_kind: str
    granularity: str
    num_examples: int
    units_averaged: int
    # per-batch KL reference logits the scores were computed against
    reference_logits: list[np.ndarray] | None = field(default=None, compare=False, repr=False)

    def flattened(self) -> np.ndarray:
        parts = [s.reshape(-1) for s in self.head_scores] + \
                [s.reshape(-1) for s in self.ffn_scores]
        return np.concatenate(parts) if parts else np.zeros(0)

    def to_dict(self) -> dict:
        return {
            "loss_kind": self.loss_kind,
            "granularity": self.granularity,
            "num_examples": self.num_examples,
            "units_averaged": self.units_averaged,
            "head_scores": [s.tolist() for s in self.head_scores],
            "ffn_scores": [s.tolist() for s in self.ffn_scores],
        }


def cross_entropy(logits: Tensor, labels, tape: Tape | None = None) -> Tensor:
    """Mean negative log-likelihood of integer labels under row softmax."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects (batch, classes) logits, got {logits.shape}")
    labels = np.asarray(labels)
    b, c = logits.shape
    if labels.shape != (b,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {b}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise ContractError(f"label out of range for {c} classes")
    onehot = np.zeros((b, c))
    onehot[np.arange(b), labels] = 1.0
    picked = mul(log_softmax_rows(logits, tape), Tensor(onehot), tape)
    return scale(sum_all(picked, tape), -1.0 / b, tape)


def kl_loss(q_logits: Tensor, p_logits: Tensor, tape: Tape | None = None) -> Tensor:
    """Mean KL(q || p) over rows; q is a constant (gradients reach only p).

    The constant sum q.log q term reuses the same log-softmax arithmetic as
    the cross term, so kl_loss(x, x) is exactly zero.
    """
    if q_logits.shape != p_logits.shape:
        raise ShapeError(f"logit shapes differ: {q_logits.shape} vs {p_logits.shape}")
    if q_logits.data.ndim < 1:
        raise ShapeError("kl_loss expects at least one distribution axis")
    rows = max(1, int(np.prod(q_logits.shape[:-1], dtype=np.int64)))
    log_q = _log_softmax_np(q_logits.data)
    q = np.exp(log_q)
    const = (q * log_q).sum()
    cross = sum_all(mul(log_softmax_rows(p_logits, tape), Tensor(q), tape), tape)
    gap = add(scale(cross, -1.0, tape), Tensor(np.float64(const)), tape)
    return scale(gap, 1.0 / rows, tape)


@contextmanager
def _frozen_weights(model: Model):
    """Temporarily clear requires_grad on weights so scoring touches only gates."""
    saved = [(t, t.requires_grad) for _, t in named_tensors(model)]
    for t, _ in saved:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, rg in saved:
            t.requires_grad = rg


def reference_logits(model: Model, dataset: Dataset) -> list[np.ndarray]:
    """Untaped task logits of every batch: the fixed target of KL scoring."""
    return [task_forward(model, b.token_ids).data for b in dataset]


def _unit_scores(model: Model, spec: LossSpec, token_ids,
                 labels, reference: np.ndarray | None, unit_label: str
                 ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray | None]:
    """Per-unit |dL/dgate| for one scoring unit, and the KL reference it used."""
    head_gates, ffn_gates = build_gates(model, requires_grad=True)
    tape = Tape()
    logits = task_forward(model, token_ids, head_gates, ffn_gates, tape)
    if spec.kind == CROSS_ENTROPY:
        loss = cross_entropy(logits, labels, tape)
    else:
        if reference is None:
            reference = logits.data
        elif reference.shape != logits.shape:
            raise ShapeError(f"reference logits shape {reference.shape} does not match "
                             f"model logits {logits.shape} for {unit_label}")
        loss = kl_loss(Tensor(reference), logits, tape)
    if not np.isfinite(loss.data):
        raise NumericError(f"non-finite loss for {unit_label}")
    backward(tape, loss)
    heads = [np.array([abs(float(g.grad)) if g.grad is not None else 0.0 for g in layer_gates])
             for layer_gates in head_gates]
    ffns = [np.abs(g.grad) if g.grad is not None else np.zeros(g.shape)
            for g in ffn_gates]
    return heads, ffns, reference


def compute_scores(model: Model, dataset: Dataset, loss_spec: LossSpec,
                   granularity: str = "batch", threads: int = 1) -> ScoreTable:
    """Importance scores averaged over batches (or single examples).

    Scores are |dL/dgate| per unit, averaged over scoring units. With
    granularity "example" every example is processed as a singleton batch.
    The reduction runs in a fixed unit order, so thread count never changes
    the result.

    KL scoring without given reference logits takes each unit's own taped
    logits as q (at batch granularity these equal reference_logits bit for
    bit). The table carries the per-batch reference it scored against, so
    later calls can pass it back and keep the same q.
    """
    if granularity not in ("batch", "example"):
        raise ConfigError(f"granularity must be 'batch' or 'example', got {granularity!r}")
    if threads < 1:
        raise ContractError(f"threads must be >= 1, got {threads}")
    if dataset is None or len(dataset) == 0:
        raise ContractError("scoring requires a non-empty dataset")
    if loss_spec.kind == CROSS_ENTROPY and not dataset.labeled:
        raise ContractError("cross-entropy scoring requires a labeled dataset")

    references: list[np.ndarray | None] = [None] * len(dataset)
    if loss_spec.reference_logits is not None:
        if len(loss_spec.reference_logits) != len(dataset):
            raise ContractError(
                f"{len(loss_spec.reference_logits)} reference batches for "
                f"{len(dataset)} dataset batches")
        references = list(loss_spec.reference_logits)

    # one scoring unit = (batch index, token_ids, labels, reference, label) tuple
    units = []
    for bi, batch in enumerate(dataset):
        if granularity == "batch":
            units.append((bi, batch.token_ids, batch.labels, references[bi], f"batch {bi}"))
        else:
            for ei in range(batch.size):
                ref = references[bi][ei:ei + 1] if references[bi] is not None else None
                labels = batch.labels[ei:ei + 1] if batch.labels is not None else None
                units.append((bi, batch.token_ids[ei:ei + 1], labels, ref,
                              f"batch {bi} example {ei}"))

    with _frozen_weights(model):
        def run(unit):
            _, ids, labels, ref, label = unit
            return _unit_scores(model, loss_spec, ids, labels, ref, label)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, units))

    head_totals = [np.zeros(len(layer.heads)) for layer in model.layers]
    ffn_totals = [np.zeros(layer.b1.shape[0]) for layer in model.layers]
    unit_refs: list[list[np.ndarray]] = [[] for _ in dataset]
    for unit, (heads, ffns, ref) in zip(units, results):
        for l in range(len(head_totals)):
            head_totals[l] += heads[l]
            ffn_totals[l] += ffns[l]
        unit_refs[unit[0]].append(ref)
    used_references = None
    if loss_spec.kind == KL_DIVERGENCE:
        used_references = [np.concatenate(refs) for refs in unit_refs]
    n = len(units)
    return ScoreTable(
        head_scores=[t / n for t in head_totals],
        ffn_scores=[t / n for t in ffn_totals],
        loss_kind=loss_spec.kind,
        granularity=granularity,
        num_examples=dataset.num_examples,
        units_averaged=n,
        reference_logits=used_references,
    )
