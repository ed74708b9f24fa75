"""Pruning engine: target selection, schedules, and the three pruners.

Masks are boolean keep-vectors indexed against the widths the model had
when pruning began; the dropped set only ever grows across iterations.
Quotas per iteration are front-loaded (earlier iterations take the
remainder). Selection drops the lowest-scored units, with deterministic
tie-breaking by (lower layer index, then lower unit index) first.
"""

from __future__ import annotations

import heapq
import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .checkpoint import atomic_dir, save_model
from .configs import (GeneralConfig, TransformerPruningConfig, VocabularyPruningConfig,
                      config_to_dict)
from .data import Dataset
from .errors import ConfigError, ContractError, ShapeError
from .model import (Model, count_parameters, remove_ffn_neurons, remove_heads,
                    remove_vocab_rows)
from .scoring import KL_DIVERGENCE, LossSpec, ScoreTable, compute_scores, reference_logits
from .vocab import Vocabulary, count_corpus_tokens, reindex

ProgressFn = Callable[[int, int, int, int], None]


@dataclass
class PruningMask:
    """Keep-vectors over the original head/neuron indices of every layer."""

    head_keep: list[np.ndarray]
    ffn_keep: list[np.ndarray]

    @classmethod
    def all_keep(cls, num_heads: Sequence[int], ffn_size: Sequence[int]) -> "PruningMask":
        return cls([np.ones(h, dtype=bool) for h in num_heads],
                   [np.ones(f, dtype=bool) for f in ffn_size])

    @classmethod
    def from_model(cls, model: Model) -> "PruningMask":
        return cls.all_keep(model.config.num_heads, model.config.ffn_size)

    def copy(self) -> "PruningMask":
        return PruningMask([k.copy() for k in self.head_keep],
                           [k.copy() for k in self.ffn_keep])

    def kept_heads(self) -> list[int]:
        return [int(k.sum()) for k in self.head_keep]

    def kept_ffn(self) -> list[int]:
        return [int(k.sum()) for k in self.ffn_keep]

    def to_dict(self) -> dict:
        return {"head_keep": [k.tolist() for k in self.head_keep],
                "ffn_keep": [k.tolist() for k in self.ffn_keep]}

    @classmethod
    def from_dict(cls, d: dict) -> "PruningMask":
        try:
            return cls([np.asarray(k, dtype=bool) for k in d["head_keep"]],
                       [np.asarray(k, dtype=bool) for k in d["ffn_keep"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed pruning mask: {exc}") from exc


def front_load(total: int, parts: int) -> list[int]:
    """Split total into parts non-increasing integers, remainder first."""
    if total < 0 or parts < 1:
        raise ContractError(f"front_load needs total >= 0 and parts >= 1, got {total}, {parts}")
    base, extra = divmod(total, parts)
    return [base + 1 if i < extra else base for i in range(parts)]


def _drop_per_layer(keep: list[np.ndarray], scores: list[np.ndarray],
                    per_layer: Sequence[int], what: str) -> None:
    for l, q in enumerate(per_layer):
        kept = np.flatnonzero(keep[l])
        if not 0 <= q <= kept.size:
            raise ConfigError(f"{what} quota {q} invalid for {kept.size} kept units in layer {l}")
        if q == 0:
            continue
        order = sorted(range(kept.size), key=lambda j: (scores[l][j], kept[j]))
        for j in order[:q]:
            keep[l][kept[j]] = False


def _drop_global(keep: list[np.ndarray], scores: list[np.ndarray],
                 quota: int, m: int, what: str) -> None:
    kepts = [np.flatnonzero(k) for k in keep]
    total = sum(k.size for k in kepts)
    if not 0 <= quota <= total:
        raise ConfigError(f"{what} quota {quota} invalid for {total} kept units")
    if quota == 0:
        return
    if m == 1:
        cands = sorted((float(scores[l][j]), l, int(kept[j]))
                       for l, kept in enumerate(kepts) for j in range(kept.size))
        for _, l, orig in cands[:quota]:
            keep[l][orig] = False
        return

    target_total = total - quota
    if target_total % m:
        raise ConfigError(f"{what}: kept total {target_total} is not a multiple of {m}")
    if target_total > sum(m * (k.size // m) for k in kepts):
        raise ConfigError(f"{what}: no per-layer multiples of {m} can keep {target_total} units")

    # keep-order per layer: score descending, ties keep the higher original
    # index (the mirror of dropping lower indices first)
    orders, prefixes = [], []
    for l, kept in enumerate(kepts):
        order = sorted(range(kept.size), key=lambda j: (scores[l][j], kept[j]), reverse=True)
        orders.append([int(kept[j]) for j in order])
        prefixes.append(np.concatenate(([0.0], np.cumsum([float(scores[l][j]) for j in order]))))

    # greedy m-sized block allocation; optimal because sorted prefix gains
    # are non-increasing per layer
    alloc = [0] * len(kepts)
    heap = []
    for l, kept in enumerate(kepts):
        if kept.size >= m:
            heapq.heappush(heap, (-(prefixes[l][m] - prefixes[l][0]), -l, l))
    for _ in range(target_total // m):
        neg_gain, _, l = heapq.heappop(heap)
        alloc[l] += m
        if alloc[l] + m <= m * (kepts[l].size // m):
            gain = prefixes[l][alloc[l] + m] - prefixes[l][alloc[l]]
            heapq.heappush(heap, (-gain, -l, l))
    for l in range(len(kepts)):
        for orig in orders[l][alloc[l]:]:
            keep[l][orig] = False


def select_targets(scores: ScoreTable, mask: PruningMask,
                   quota_heads: int | Sequence[int], quota_ffn: int | Sequence[int],
                   cfg: TransformerPruningConfig) -> PruningMask:
    """Mark the lowest-scored units as dropped; returns a new, smaller mask.

    An int quota is a global budget: split equally across layers under even
    masking (must divide evenly), or allocated by global score order
    otherwise. A sequence quota gives explicit per-layer drop counts.
    """
    L = len(mask.head_keep)
    if len(scores.head_scores) != L or len(scores.ffn_scores) != L:
        raise ShapeError("score table and mask disagree on layer count")
    for l in range(L):
        if scores.head_scores[l].size != int(mask.head_keep[l].sum()):
            raise ShapeError(f"layer {l}: {scores.head_scores[l].size} head scores for "
                             f"{int(mask.head_keep[l].sum())} kept heads")
        if scores.ffn_scores[l].size != int(mask.ffn_keep[l].sum()):
            raise ShapeError(f"layer {l}: {scores.ffn_scores[l].size} ffn scores for "
                             f"{int(mask.ffn_keep[l].sum())} kept neurons")

    new = mask.copy()

    def resolve(quota, even: bool, what: str) -> tuple[Sequence[int] | None, int | None]:
        if isinstance(quota, (int, np.integer)):
            if quota < 0:
                raise ConfigError(f"{what} quota must be >= 0, got {quota}")
            if even:
                if quota % L:
                    raise ConfigError(f"even {what} quota {quota} is not divisible by {L} layers")
                return [quota // L] * L, None
            return None, int(quota)
        return [int(q) for q in quota], None

    per_layer, global_q = resolve(quota_heads, cfg.head_even_masking, "head")
    if per_layer is not None:
        _drop_per_layer(new.head_keep, scores.head_scores, per_layer, "head")
    else:
        _drop_global(new.head_keep, scores.head_scores, global_q, 1, "head")

    per_layer, global_q = resolve(quota_ffn, cfg.ffn_even_masking, "ffn")
    if per_layer is not None:
        _drop_per_layer(new.ffn_keep, scores.ffn_scores, per_layer, "ffn")
    else:
        _drop_global(new.ffn_keep, scores.ffn_scores, global_q, cfg.multiple_of, "ffn")
    return new


def _apply_mask_delta(model: Model, old: PruningMask,
                      new: PruningMask) -> tuple[list[list[int]], list[list[int]]]:
    """Surgically remove units old keeps but new drops; returns original indices."""
    heads_dropped, ffn_dropped = [], []
    for l in range(len(old.head_keep)):
        if (new.head_keep[l] & ~old.head_keep[l]).any() or \
           (new.ffn_keep[l] & ~old.ffn_keep[l]).any():
            raise ContractError(f"layer {l}: mask gained units; dropped sets must only grow")
        prev = np.flatnonzero(old.head_keep[l])
        gone = [int(orig) for orig in prev if not new.head_keep[l][orig]]
        if gone:
            remove_heads(model, l, list(np.searchsorted(prev, gone)))
        heads_dropped.append(gone)

        prev = np.flatnonzero(old.ffn_keep[l])
        gone = [int(orig) for orig in prev if not new.ffn_keep[l][orig]]
        if gone:
            remove_ffn_neurons(model, l, list(np.searchsorted(prev, gone)))
        ffn_dropped.append(gone)
    return heads_dropped, ffn_dropped


@dataclass
class PruneReport:
    method: str
    initial_parameters: dict
    final_parameters: dict
    original_num_heads: list[int]
    original_ffn_size: list[int]
    final_num_heads: list[int]
    final_ffn_size: list[int]
    iterations: list[dict]
    mask: PruningMask | None
    elapsed_seconds: float
    config: dict | None = None
    vocabulary: dict | None = None
    last_scores: ScoreTable | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "initial_parameters": self.initial_parameters,
            "final_parameters": self.final_parameters,
            "original_num_heads": self.original_num_heads,
            "original_ffn_size": self.original_ffn_size,
            "final_num_heads": self.final_num_heads,
            "final_ffn_size": self.final_ffn_size,
            "iterations": self.iterations,
            "mask": self.mask.to_dict() if self.mask is not None else None,
            "elapsed_seconds": self.elapsed_seconds,
            "config": self.config,
            "vocabulary": self.vocabulary,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def _quota_schedules(cfg: TransformerPruningConfig, widths: list[int],
                          what: str) -> list[list[int] | int]:
    """Per-iteration quotas: per-layer lists under even masking, ints otherwise."""
    L = len(widths)
    target = cfg.target_num_of_heads if what == "head" else cfg.target_ffn_size
    even = cfg.head_even_masking if what == "head" else cfg.ffn_even_masking
    if even:
        gaps = []
        for l, w in enumerate(widths):
            if w < target:
                raise ConfigError(f"layer {l}: {what} target {target} exceeds current width {w}")
            gaps.append(w - target)
        per_layer = [front_load(g, cfg.n_iters) for g in gaps]
        return [[per_layer[l][t] for l in range(L)] for t in range(cfg.n_iters)]
    total = sum(widths)
    goal = L * target
    if goal > total:
        raise ConfigError(f"{what} target {target} per layer exceeds current total {total}")
    gap = total - goal
    m = cfg.multiple_of if what == "ffn" else 1
    if m > 1:
        if goal % m:
            raise ConfigError(f"ffn target total {goal} is not a multiple of multiple_of={m}")
        blocks = front_load(gap // m, cfg.n_iters)
        rem = gap % m
        return [blocks[t] * m + (rem if t == 0 else 0) for t in range(cfg.n_iters)]
    return front_load(gap, cfg.n_iters)


def transformer_prune(model: Model, dataset: Dataset | None,
                      cfg: TransformerPruningConfig, *,
                      loss_spec: LossSpec | None = None,
                      mask: PruningMask | None = None,
                      threads: int = 1,
                      progress: ProgressFn | None = None) -> PruneReport:
    """Prune heads and FFN neurons to the configured targets.

    Iterative mode scores on the dataset each iteration. Self-supervised
    scoring caches reference logits from the model as it stands on entry
    and keeps that reference for every iteration.
    """
    start = time.perf_counter()
    initial = count_parameters(model)
    orig_heads = list(model.config.num_heads)
    orig_ffn = list(model.config.ffn_size)
    iterations: list[dict] = []
    last_scores: ScoreTable | None = None

    if cfg.pruning_method == "mask":
        if mask is None:
            raise ConfigError("pruning_method 'mask' requires a pruning mask")
        if len(mask.head_keep) != len(model.layers):
            raise ShapeError(f"mask lists {len(mask.head_keep)} layers, model has {len(model.layers)}")
        for l in range(len(model.layers)):
            if mask.head_keep[l].shape != (orig_heads[l],) or \
               mask.ffn_keep[l].shape != (orig_ffn[l],):
                raise ShapeError(f"layer {l}: mask widths do not match model widths")
        full = PruningMask.all_keep(orig_heads, orig_ffn)
        heads_dropped, ffn_dropped = _apply_mask_delta(model, full, mask)
        iterations.append({"iteration": 1,
                           "heads_pruned": [[l, i] for l, gone in enumerate(heads_dropped) for i in gone],
                           "ffn_pruned": [[l, i] for l, gone in enumerate(ffn_dropped) for i in gone]})
        final_mask = mask.copy()
    else:
        if dataset is None or len(dataset) == 0:
            raise ContractError("iterative pruning requires a non-empty dataset")
        if loss_spec is None:
            loss_spec = LossSpec.self_supervised() if cfg.use_logits else LossSpec.supervised()
        if loss_spec.kind == KL_DIVERGENCE and loss_spec.reference_logits is None:
            loss_spec = LossSpec.self_supervised(reference_logits(model, dataset))

        head_sched = _quota_schedules(cfg, orig_heads, "head")
        ffn_sched = _quota_schedules(cfg, orig_ffn, "ffn")
        cur_mask = PruningMask.all_keep(orig_heads, orig_ffn)

        for t in range(cfg.n_iters):
            qh, qf = head_sched[t], ffn_sched[t]
            h_total = sum(qh) if isinstance(qh, list) else qh
            f_total = sum(qf) if isinstance(qf, list) else qf
            if h_total == 0 and f_total == 0:
                iterations.append({"iteration": t + 1, "heads_pruned": [], "ffn_pruned": []})
                if progress is not None:
                    progress(t + 1, cfg.n_iters, 0, 0)
                continue
            last_scores = compute_scores(model, dataset, loss_spec,
                                         granularity=cfg.score_granularity,
                                         threads=threads)
            new_mask = select_targets(last_scores, cur_mask, qh, qf, cfg)
            heads_dropped, ffn_dropped = _apply_mask_delta(model, cur_mask, new_mask)
            iterations.append({"iteration": t + 1,
                               "heads_pruned": [[l, i] for l, gone in enumerate(heads_dropped) for i in gone],
                               "ffn_pruned": [[l, i] for l, gone in enumerate(ffn_dropped) for i in gone]})
            cur_mask = new_mask
            if progress is not None:
                progress(t + 1, cfg.n_iters,
                         sum(len(g) for g in heads_dropped), sum(len(g) for g in ffn_dropped))
        final_mask = cur_mask

        if cfg.head_even_masking and any(h != cfg.target_num_of_heads for h in model.config.num_heads):
            raise ContractError(f"head targets missed: {model.config.num_heads}")
        if not cfg.head_even_masking and sum(model.config.num_heads) != \
                len(model.layers) * cfg.target_num_of_heads:
            raise ContractError(f"head budget missed: {model.config.num_heads}")
        if cfg.ffn_even_masking and any(f != cfg.target_ffn_size for f in model.config.ffn_size):
            raise ContractError(f"ffn targets missed: {model.config.ffn_size}")
        if not cfg.ffn_even_masking and sum(model.config.ffn_size) != \
                len(model.layers) * cfg.target_ffn_size:
            raise ContractError(f"ffn budget missed: {model.config.ffn_size}")

    return PruneReport(
        method=cfg.pruning_method,
        initial_parameters=initial,
        final_parameters=count_parameters(model),
        original_num_heads=orig_heads,
        original_ffn_size=orig_ffn,
        final_num_heads=list(model.config.num_heads),
        final_ffn_size=list(model.config.ffn_size),
        iterations=iterations,
        mask=final_mask,
        elapsed_seconds=time.perf_counter() - start,
        config=config_to_dict(cfg),
        last_scores=last_scores,
    )


def vocabulary_prune(model: Model, vocab: Vocabulary, corpus_path: str | Path,
                     cfg: VocabularyPruningConfig, *,
                     pre_tokenized: bool = False) -> tuple[Model, Vocabulary, dict]:
    """Drop vocabulary entries whose corpus count is below min_count.

    Special tokens always survive. The tokenizer and the embedding are
    re-indexed with the same old->new mapping.
    """
    counts = count_corpus_tokens(vocab, corpus_path, pre_tokenized=pre_tokenized)
    specials = set(vocab.special_ids)
    kept = sorted(specials | {int(i) for i in np.flatnonzero(counts >= cfg.min_count)})
    if set(kept) == specials:
        warnings.warn("vocabulary pruning kept only the special tokens; "
                      "the corpus matched nothing else", stacklevel=2)
    new_vocab, vocab_map = reindex(vocab, kept)
    model_map = remove_vocab_rows(model, kept, prune_lm_head=cfg.prune_lm_head)
    if vocab_map != model_map:
        raise ContractError("tokenizer and embedding re-index maps diverged")
    report = {
        "initial_size": len(counts),
        "final_size": len(kept),
        "dropped": len(counts) - len(kept),
        "min_count": cfg.min_count,
        "prune_lm_head": cfg.prune_lm_head,
    }
    return model, new_vocab, report


def save_pruned_outputs(output_dir: str | Path, model: Model, vocab: Vocabulary,
                        report: PruneReport) -> None:
    """Atomically write checkpoint + vocab.txt + prune_report.json."""
    with atomic_dir(output_dir) as staging:
        save_model(model, staging)
        vocab.save(staging / "vocab.txt")
        report.save(staging / "prune_report.json")


def pipeline_prune(model: Model, vocab: Vocabulary, corpus_path: str | Path,
                   dataset: Dataset | None,
                   general_cfg: GeneralConfig,
                   vocab_cfg: VocabularyPruningConfig,
                   trm_cfg: TransformerPruningConfig, *,
                   loss_spec: LossSpec | None = None,
                   mask: PruningMask | None = None,
                   threads: int = 1,
                   progress: ProgressFn | None = None,
                   pre_tokenized: bool = False,
                   save: bool = True) -> tuple[Model, Vocabulary, PruneReport]:
    """Transformer pruning followed by vocabulary pruning, then save outputs."""
    start = time.perf_counter()
    report = transformer_prune(model, dataset, trm_cfg, loss_spec=loss_spec,
                               mask=mask, threads=threads, progress=progress)
    model, vocab, vocab_report = vocabulary_prune(model, vocab, corpus_path, vocab_cfg,
                                                  pre_tokenized=pre_tokenized)
    report.vocabulary = vocab_report
    report.final_parameters = count_parameters(model)
    report.elapsed_seconds = time.perf_counter() - start
    if save:
        save_pruned_outputs(general_cfg.output_dir, model, vocab, report)
    return model, vocab, report
