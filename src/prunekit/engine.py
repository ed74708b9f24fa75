"""Pruning engine: target selection, schedules, and the three pruners.

Masks are boolean keep-vectors indexed against the widths the model had
when pruning began; the dropped set only ever grows across iterations.
Quotas per iteration are front-loaded (earlier iterations take the
remainder). Selection drops the lowest-scored units, with deterministic
tie-breaking by (lower layer index, then lower unit index) first.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field, fields
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
from .scoring import LossSpec, ScoreTable, compute_scores
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


def _drop_counts(quota: int | Sequence[int], scores: list[np.ndarray], even: bool,
                 m: int, what: str) -> list[int]:
    """Per-layer drop counts for one quota.

    A sequence is used as given and an even int is split equally. A global
    int keeps the best blocks of m units across layers: each layer's scores,
    best first, are cut into blocks of m, and the kept_total // m blocks with
    the largest sums survive, ties keeping the higher layer.
    """
    L = len(scores)
    if not isinstance(quota, (int, np.integer)):
        if len(quota) != L:
            raise ConfigError(f"{what} quota lists {len(quota)} layers, the model has {L}")
        return [int(q) for q in quota]
    if quota < 0:
        raise ConfigError(f"{what} quota must be >= 0, got {quota}")
    if even:
        if quota % L:
            raise ConfigError(f"even {what} quota {quota} is not divisible by {L} layers")
        return [quota // L] * L
    quota = int(quota)
    sizes = np.array([s.size for s in scores], dtype=np.int64)
    total = int(sizes.sum())
    if quota > total:
        raise ConfigError(f"{what} quota {quota} invalid for {total} kept units")
    if quota == 0:
        return [0] * L
    kept_total = total - quota
    if kept_total % m:
        raise ConfigError(f"{what}: kept total {kept_total} is not a multiple of {m}")
    if kept_total > int((m * (sizes // m)).sum()):
        raise ConfigError(f"{what}: no per-layer multiples of {m} can keep {kept_total} units")
    blocks = [np.sort(s)[::-1][:m * (s.size // m)].reshape(-1, m).sum(axis=1) for s in scores]
    gains = np.concatenate(blocks)
    layers = np.repeat(np.arange(L), [b.size for b in blocks])
    best = np.lexsort((-layers, -gains))[:kept_total // m]
    return (sizes - m * np.bincount(layers[best], minlength=L)).tolist()


def select_targets(scores: ScoreTable, mask: PruningMask,
                   quota_heads: int | Sequence[int], quota_ffn: int | Sequence[int],
                   cfg: TransformerPruningConfig) -> PruningMask:
    """Mark the lowest-scored units as dropped; returns a new, smaller mask.

    An int quota is a global budget: split equally across layers under even
    masking (must divide evenly), or allocated across layers by score
    otherwise, in blocks of multiple_of FFN neurons or of single heads. A
    sequence quota gives explicit per-layer drop counts.
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
    for keep, unit_scores, quota, even, m, what in (
            (new.head_keep, scores.head_scores, quota_heads, cfg.head_even_masking, 1, "head"),
            (new.ffn_keep, scores.ffn_scores, quota_ffn, cfg.ffn_even_masking,
             cfg.multiple_of, "ffn")):
        for l, q in enumerate(_drop_counts(quota, unit_scores, even, m, what)):
            kept = np.flatnonzero(keep[l])
            if not 0 <= q <= kept.size:
                raise ConfigError(f"{what} quota {q} invalid for {kept.size} kept units in layer {l}")
            # lowest scores drop first; ties drop the lower original index
            keep[l][kept[np.lexsort((kept, unit_scores[l]))[:q]]] = False
    return new


def _apply_mask_delta(model: Model, old: PruningMask,
                      new: PruningMask) -> tuple[list[list[int]], list[list[int]]]:
    """Surgically remove units old keeps but new drops.

    Returns the [layer, original index] pairs of the dropped heads and of the
    dropped FFN neurons.
    """
    heads_pruned: list[list[int]] = []
    ffn_pruned: list[list[int]] = []
    for l in range(len(old.head_keep)):
        if (new.head_keep[l] & ~old.head_keep[l]).any() or \
           (new.ffn_keep[l] & ~old.ffn_keep[l]).any():
            raise ContractError(f"layer {l}: mask gained units; dropped sets must only grow")
        for prev_keep, next_keep, remove, pruned in (
                (old.head_keep[l], new.head_keep[l], remove_heads, heads_pruned),
                (old.ffn_keep[l], new.ffn_keep[l], remove_ffn_neurons, ffn_pruned)):
            prev = np.flatnonzero(prev_keep)
            gone = np.flatnonzero(np.logical_not(next_keep[prev]))
            if gone.size:
                remove(model, l, list(gone))
            pruned.extend([l, int(i)] for i in prev[gone])
    return heads_pruned, ffn_pruned


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
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        if self.mask is not None:
            out["mask"] = self.mask.to_dict()
        return out

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
    if goal % m:
        raise ConfigError(f"ffn target total {goal} is not a multiple of multiple_of={m}")
    blocks = front_load(gap // m, cfg.n_iters)
    return [blocks[t] * m + (gap % m if t == 0 else 0) for t in range(cfg.n_iters)]


def transformer_prune(model: Model, dataset: Dataset | None,
                      cfg: TransformerPruningConfig, *,
                      mask: PruningMask | None = None,
                      threads: int = 1,
                      progress: ProgressFn | None = None) -> PruneReport:
    """Prune heads and FFN neurons to the configured targets.

    Both methods run the same loop: the mask method, the only one that takes
    a mask, applies it as its one step. Iterative mode scores on the dataset
    each iteration, except in iterations with nothing to drop. use_logits
    scores by KL against reference logits of the model as it stands on entry:
    the first scoring pass supplies them from its own taped forward, and
    later iterations reuse them. That pass always sees the entry model,
    because quotas are front-loaded: if iteration 1 drops nothing, no
    later iteration does either.
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
        n_steps = 1
    else:
        if mask is not None:
            raise ConfigError("a pruning mask requires pruning_method 'mask', "
                              f"got {cfg.pruning_method!r}")
        if dataset is None or len(dataset) == 0:
            raise ContractError("iterative pruning requires a non-empty dataset")
        loss_spec = LossSpec.self_supervised() if cfg.use_logits else LossSpec.supervised()
        head_sched = _quota_schedules(cfg, orig_heads, "head")
        ffn_sched = _quota_schedules(cfg, orig_ffn, "ffn")
        n_steps = cfg.n_iters

    cur_mask = PruningMask.all_keep(orig_heads, orig_ffn)
    for t in range(n_steps):
        if cfg.pruning_method == "mask":
            new_mask = mask.copy()
        elif not np.any(head_sched[t]) and not np.any(ffn_sched[t]):
            new_mask = cur_mask
        else:
            last_scores = compute_scores(model, dataset, loss_spec,
                                         granularity=cfg.score_granularity,
                                         threads=threads)
            if cfg.use_logits:
                loss_spec = LossSpec.self_supervised(last_scores.reference_logits)
            new_mask = select_targets(last_scores, cur_mask, head_sched[t], ffn_sched[t], cfg)
        heads_pruned, ffn_pruned = _apply_mask_delta(model, cur_mask, new_mask)
        iterations.append({"iteration": t + 1, "heads_pruned": heads_pruned,
                           "ffn_pruned": ffn_pruned})
        cur_mask = new_mask
        if progress is not None:
            progress(t + 1, n_steps, len(heads_pruned), len(ffn_pruned))

    if cfg.pruning_method == "iterative":
        for what, widths, target, even in (
                ("head", model.config.num_heads, cfg.target_num_of_heads, cfg.head_even_masking),
                ("ffn", model.config.ffn_size, cfg.target_ffn_size, cfg.ffn_even_masking)):
            if even and any(w != target for w in widths):
                raise ContractError(f"{what} targets missed: {widths}")
            if not even and sum(widths) != len(widths) * target:
                raise ContractError(f"{what} budget missed: {widths}")

    return PruneReport(
        method=cfg.pruning_method,
        initial_parameters=initial,
        final_parameters=count_parameters(model),
        original_num_heads=orig_heads,
        original_ffn_size=orig_ffn,
        final_num_heads=list(model.config.num_heads),
        final_ffn_size=list(model.config.ffn_size),
        iterations=iterations,
        mask=cur_mask,
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
                   mask: PruningMask | None = None,
                   threads: int = 1,
                   progress: ProgressFn | None = None,
                   pre_tokenized: bool = False,
                   save: bool = True) -> tuple[Model, Vocabulary, PruneReport]:
    """Transformer pruning followed by vocabulary pruning, then save outputs."""
    start = time.perf_counter()
    report = transformer_prune(model, dataset, trm_cfg, mask=mask, threads=threads,
                               progress=progress)
    model, vocab, vocab_report = vocabulary_prune(model, vocab, corpus_path, vocab_cfg,
                                                  pre_tokenized=pre_tokenized)
    report.vocabulary = vocab_report
    report.final_parameters = count_parameters(model)
    report.elapsed_seconds = time.perf_counter() - start
    if save:
        save_pruned_outputs(general_cfg.output_dir, model, vocab, report)
    return model, vocab, report
