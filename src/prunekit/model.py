"""Transformer encoder built on the tape-based tensor ops.

Structure of one layer, with per-layer head and FFN widths that may differ
after pruning:

    X <- LayerNorm(X + sum_h g_h * Att_h(X))     post-norm residual MHA
    X <- LayerNorm(X + FFN(X))                   post-norm residual FFN

A layer's H heads live in one Attention block whose tensors are stacked
head-major: rows h*head_size .. (h+1)*head_size - 1 of wq/wk/wv/wo and
bq/bk/bv, and row h of the (H, hidden) output bias bo, belong to head h.
Each head thus owns its full Q/K/V/O projections including an output bias,
so gating a head by 0 is exactly equivalent to removing it, and removing
heads is one row selection per tensor. The forward runs all heads at once:
three projection matmuls, a split into (batch, H, seq, head_size), one
batched attention core, and the gated output merge(ctx * g) @ wo + g @ bo.
The FFN gate is a vector applied to the post-GeLU activations, so zeroing
entry i is exactly equivalent to deleting neuron i (column i of W1, row i
of W2, element i of b1).

Checkpoints keep one entry per head and field, layers.{l}.heads.{h}.{f};
checkpoint_views maps those names onto slices of the stacked tensors.

Attention scores are scaled by 1/sqrt(hidden_size); head width head_size
is fixed at construction and never changes under pruning.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, ContractError, InvalidIndexError, ShapeError, VocabularyError
from .tensor import (Tape, Tensor, add, embedding_lookup, gelu, layer_norm, matmul,
                     matmul_t, merge_heads, mul, scale, select_first, softmax_rows,
                     split_heads, stack)


@dataclass
class ModelConfig:
    """Architecture description; per-layer widths because pruning is per-layer."""

    num_layers: int
    hidden_size: int
    head_size: int
    num_heads: list[int]
    ffn_size: list[int]
    vocab_size: int
    max_seq_len: int
    num_labels: int
    has_lm_head: bool = False
    lm_head_tied: bool = True
    # width of an untied LM head that was exempted from vocabulary pruning
    lm_vocab_size: int = field(default=-1)

    def __post_init__(self):
        for name in ("num_heads", "ffn_size"):
            widths = getattr(self, name)
            if isinstance(widths, int):
                widths = [widths] * self.num_layers
            if not isinstance(widths, (list, tuple)):
                raise ConfigError(f"{name} must be an int or a list of ints, got {widths!r}")
            setattr(self, name, list(widths))
        if self.lm_vocab_size < 0:
            self.lm_vocab_size = self.vocab_size if self.has_lm_head else 0
        self.validate()

    def validate(self) -> None:
        for name in ("num_layers", "hidden_size", "head_size", "vocab_size",
                     "max_seq_len", "num_labels"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if len(self.num_heads) != self.num_layers or len(self.ffn_size) != self.num_layers:
            raise ConfigError("num_heads and ffn_size must list one width per layer")
        for label, widths in (("num_heads", self.num_heads), ("ffn_size", self.ffn_size)):
            if any(not isinstance(w, int) or w < 0 for w in widths):
                raise ConfigError(f"{label} entries must be non-negative integers, got {widths}")
        if not self.has_lm_head and self.lm_vocab_size not in (0, self.vocab_size):
            raise ConfigError("lm_vocab_size is only meaningful with has_lm_head")


_HEAD_FIELDS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")


@dataclass
class Attention:
    """All attention heads of one layer, stacked head-major."""

    wq: Tensor  # (H * head_size, hidden)
    bq: Tensor  # (H * head_size,)
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor  # (H * head_size, hidden)
    bo: Tensor  # (H, hidden)

    def __len__(self) -> int:
        return self.bo.shape[0]


@dataclass
class EncoderLayer:
    heads: Attention
    w1: Tensor  # (hidden, ffn)
    b1: Tensor  # (ffn,)
    w2: Tensor  # (ffn, hidden)
    b2: Tensor  # (hidden,)
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


@dataclass
class Model:
    config: ModelConfig
    embedding: Tensor           # (vocab, hidden)
    position_embedding: Tensor  # (max_seq_len, hidden)
    layers: list[EncoderLayer]
    classifier_w: Tensor        # (hidden, num_labels)
    classifier_b: Tensor        # (num_labels,)
    lm_head: Tensor | None = None  # (lm_vocab, hidden) when has_lm_head and untied
    lm_bias: Tensor | None = None  # (lm_vocab,) when has_lm_head

    def clone(self) -> "Model":
        return copy.deepcopy(self)


# per-layer tensors besides attention: (name suffix, EncoderLayer attribute)
_LAYER_TENSORS = (("ffn.w1", "w1"), ("ffn.b1", "b1"), ("ffn.w2", "w2"), ("ffn.b2", "b2"),
                  ("ln1.gain", "ln1_gain"), ("ln1.bias", "ln1_bias"),
                  ("ln2.gain", "ln2_gain"), ("ln2.bias", "ln2_bias"))


def _parts(model: Model) -> Iterator[tuple[str, Tensor | Attention]]:
    """Stored parts in canonical order; a tied LM head is not stored."""
    yield "embedding", model.embedding
    yield "position_embedding", model.position_embedding
    for l, layer in enumerate(model.layers):
        yield f"layers.{l}.heads", layer.heads
        for suffix, attr in _LAYER_TENSORS:
            yield f"layers.{l}.{suffix}", getattr(layer, attr)
    yield "classifier.weight", model.classifier_w
    yield "classifier.bias", model.classifier_b
    if model.config.has_lm_head:
        if not model.config.lm_head_tied:
            yield "lm_head.weight", model.lm_head
        yield "lm_head.bias", model.lm_bias


def named_tensors(model: Model) -> Iterator[tuple[str, Tensor]]:
    """Stored tensors in canonical order, attention as layers.{l}.heads.{field}."""
    for name, part in _parts(model):
        if isinstance(part, Attention):
            for f in _HEAD_FIELDS:
                yield f"{name}.{f}", getattr(part, f)
        else:
            yield name, part


def checkpoint_views(model: Model) -> Iterator[tuple[str, np.ndarray]]:
    """Writable views of the stored arrays under their checkpoint names, in storage order.

    Attention is stored head by head as layers.{l}.heads.{h}.{field}; each
    entry is a slice of the stacked tensor. Reading a checkpoint into these
    views, or writing one from them, moves every byte once with no copy.
    """
    dh = model.config.head_size
    for name, part in _parts(model):
        if not isinstance(part, Attention):
            yield name, part.data
            continue
        for h in range(len(part)):
            for f in _HEAD_FIELDS:
                data = getattr(part, f).data
                yield f"{name}.{h}.{f}", data[h] if f == "bo" else data[h * dh:(h + 1) * dh]


def _part_shapes(cfg: ModelConfig) -> Iterator[tuple[str, tuple[int, ...] | dict[str, tuple[int, ...]]]]:
    """_parts for a config: each stored part's shape, attention as {field: stacked shape}."""
    d, dh = cfg.hidden_size, cfg.head_size
    yield "embedding", (cfg.vocab_size, d)
    yield "position_embedding", (cfg.max_seq_len, d)
    for l, (H, f) in enumerate(zip(cfg.num_heads, cfg.ffn_size)):
        w, b = (H * dh, d), (H * dh,)
        yield f"layers.{l}.heads", dict(zip(_HEAD_FIELDS, (w, b, w, b, w, b, w, (H, d))))
        for (suffix, _), shape in zip(_LAYER_TENSORS, ((d, f), (f,), (f, d), (d,), (d,), (d,), (d,), (d,))):
            yield f"layers.{l}.{suffix}", shape
    yield "classifier.weight", (d, cfg.num_labels)
    yield "classifier.bias", (cfg.num_labels,)
    if cfg.has_lm_head:
        if not cfg.lm_head_tied:
            yield "lm_head.weight", (cfg.lm_vocab_size, d)
        yield "lm_head.bias", (cfg.lm_vocab_size,)


def expected_tensor_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list defining storage order for checkpoints; allocates nothing."""
    out = []
    for name, shape in _part_shapes(cfg):
        if isinstance(shape, tuple):
            out.append((name, shape))
        else:  # one head's slice of each stacked field, as checkpoint_views cuts it
            out += [(f"{name}.{h}.{f}", s[1:] if f == "bo" else (cfg.head_size,) + s[1:])
                    for h in range(shape["bo"][0]) for f, s in shape.items()]
    return out


def empty_model(cfg: ModelConfig, requires_grad: bool = True,
                stored: Mapping[str, np.ndarray] = {}) -> Model:
    """A model of the config's shapes whose weights are not yet initialised.

    A part named in `stored` (a non-attention checkpoint name, or
    layers.{l}.heads.{field} for a stacked attention field) wraps that
    array, of that shape, without a copy; the rest are allocated empty.
    """
    def t(name: str, shape: tuple[int, ...]) -> Tensor:
        return Tensor(stored[name] if name in stored else np.empty(shape),
                      requires_grad=requires_grad)

    parts = {name: Attention(**{f: t(f"{name}.{f}", s) for f, s in shape.items()})
             if isinstance(shape, dict) else t(name, shape)
             for name, shape in _part_shapes(cfg)}
    layers = [EncoderLayer(parts[f"layers.{l}.heads"],
                           **{attr: parts[f"layers.{l}.{suffix}"] for suffix, attr in _LAYER_TENSORS})
              for l in range(cfg.num_layers)]
    return Model(config=cfg, embedding=parts["embedding"],
                 position_embedding=parts["position_embedding"], layers=layers,
                 classifier_w=parts["classifier.weight"], classifier_b=parts["classifier.bias"],
                 lm_head=parts.get("lm_head.weight"), lm_bias=parts.get("lm_head.bias"))


def assemble_model(cfg: ModelConfig, arrays: dict[str, np.ndarray],
                   requires_grad: bool = True) -> Model:
    """Build a Model from a complete checkpoint-name->array mapping in canonical shapes."""
    model = empty_model(cfg, requires_grad)
    views = list(checkpoint_views(model))
    missing = [n for n, _ in views if n not in arrays]
    if missing:
        raise ContractError(f"missing tensors: {missing[:4]}{'...' if len(missing) > 4 else ''}")
    for name, view in views:
        arr = np.asarray(arrays[name], dtype=np.float64)
        if arr.shape != view.shape:
            raise ShapeError(f"tensor {name} has shape {arr.shape}, expected {view.shape}")
        view[...] = arr
    return model


def build_gates(model: Model, requires_grad: bool = False) -> tuple[list[list[Tensor]], list[Tensor]]:
    """All-ones gates matching the model's current widths (neutral element)."""
    head_gates = [[Tensor(1.0, requires_grad=requires_grad) for _ in range(len(layer.heads))]
                  for layer in model.layers]
    ffn_gates = [Tensor(np.ones(layer.b1.shape[0]), requires_grad=requires_grad)
                 for layer in model.layers]
    return head_gates, ffn_gates


def _check_gates(model: Model, head_gates, ffn_gates) -> None:
    L = len(model.layers)
    if head_gates is not None:
        if len(head_gates) != L:
            raise ShapeError(f"head_gates lists {len(head_gates)} layers, model has {L}")
        for l, (gates, layer) in enumerate(zip(head_gates, model.layers)):
            if len(gates) != len(layer.heads):
                raise ShapeError(f"layer {l}: {len(gates)} head gates for {len(layer.heads)} heads")
            for g in gates:
                if g.shape != ():
                    raise ShapeError(f"head gates must be scalars, got shape {g.shape}")
    if ffn_gates is not None:
        if len(ffn_gates) != L:
            raise ShapeError(f"ffn_gates lists {len(ffn_gates)} layers, model has {L}")
        for l, (g, layer) in enumerate(zip(ffn_gates, model.layers)):
            width = layer.b1.shape[0]
            if g.shape != (width,):
                raise ShapeError(f"layer {l}: ffn gate shape {g.shape} does not match width {width}")


def _check_token_ids(model: Model, token_ids: np.ndarray) -> np.ndarray:
    ids = np.asarray(token_ids)
    if ids.ndim != 2:
        raise ContractError(f"token_ids must be 2D (batch, seq), got shape {ids.shape}")
    if ids.shape[0] < 1:
        raise ContractError("token_ids must contain at least one row")
    if ids.shape[1] < 1:
        raise ContractError("token_ids must contain at least one position")
    if ids.shape[1] > model.config.max_seq_len:
        raise ContractError(
            f"sequence length {ids.shape[1]} exceeds max_seq_len {model.config.max_seq_len}")
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError(f"token_ids must be integers, got dtype {ids.dtype}")
    if ids.min() < 0 or ids.max() >= model.config.vocab_size:
        raise VocabularyError(
            f"token id out of range for vocabulary of size {model.config.vocab_size}")
    return ids


def encoder_forward(model: Model, token_ids: np.ndarray,
                    head_gates: Sequence[Sequence[Tensor]] | None = None,
                    ffn_gates: Sequence[Tensor] | None = None,
                    tape: Tape | None = None) -> Tensor:
    """Run the encoder stack; returns hidden states of shape (batch, seq, hidden).

    Missing head gates mean all-ones gates; missing FFN gates mean no gating.
    """
    ids = _check_token_ids(model, token_ids)
    _check_gates(model, head_gates, ffn_gates)
    if head_gates is None:
        head_gates = build_gates(model)[0]
    n, dh = ids.shape[1], model.config.head_size
    inv_sqrt_d = 1.0 / math.sqrt(model.config.hidden_size)

    x = add(embedding_lookup(model.embedding, ids, tape),
            embedding_lookup(model.position_embedding, np.arange(n), tape), tape)
    for l, layer in enumerate(model.layers):
        att, H = layer.heads, len(layer.heads)
        q = split_heads(matmul_t(x, att.wq, tape, bias=att.bq), dh, tape)
        k = split_heads(matmul_t(x, att.wk, tape, bias=att.bk), dh, tape)
        v = split_heads(matmul_t(x, att.wv, tape, bias=att.bv), dh, tape)
        probs = softmax_rows(scale(matmul_t(q, k, tape), inv_sqrt_d, tape), tape)
        ctx = mul(matmul(probs, v, tape), stack(head_gates[l], (H, 1, 1), tape), tape)
        att_out = add(matmul(merge_heads(ctx, tape), att.wo, tape),
                      matmul(stack(head_gates[l], (1, H), tape), att.bo, tape), tape)
        x = layer_norm(add(x, att_out, tape), layer.ln1_gain, layer.ln1_bias, tape)

        hidden = gelu(matmul(x, layer.w1, tape, bias=layer.b1), tape)
        if ffn_gates is not None:
            hidden = mul(hidden, ffn_gates[l], tape)
        ffn_out = matmul(hidden, layer.w2, tape, bias=layer.b2)
        x = layer_norm(add(x, ffn_out, tape), layer.ln2_gain, layer.ln2_bias, tape)
    return x


def task_forward(model: Model, token_ids: np.ndarray,
                 head_gates: Sequence[Sequence[Tensor]] | None = None,
                 ffn_gates: Sequence[Tensor] | None = None,
                 tape: Tape | None = None) -> Tensor:
    """Classifier logits (batch, num_labels) read from position 0."""
    hidden = encoder_forward(model, token_ids, head_gates, ffn_gates, tape)
    first = select_first(hidden, tape)
    return matmul(first, model.classifier_w, tape, bias=model.classifier_b)


def lm_forward(model: Model, token_ids: np.ndarray, tape: Tape | None = None) -> Tensor:
    """LM logits (batch, seq, lm_vocab); tied heads reuse embedding storage."""
    if not model.config.has_lm_head:
        raise ContractError("model has no LM head")
    hidden = encoder_forward(model, token_ids, tape=tape)
    table = model.embedding if model.config.lm_head_tied else model.lm_head
    return matmul_t(hidden, table, tape, bias=model.lm_bias)


def _check_unit_indices(indices, width: int, what: str) -> list[int]:
    idx = [int(i) for i in indices]
    if len(set(idx)) != len(idx):
        raise InvalidIndexError(f"duplicate {what} indices: {sorted(idx)}")
    for i in idx:
        if not 0 <= i < width:
            raise InvalidIndexError(f"{what} index {i} out of range for width {width}")
    return idx


def remove_heads(model: Model, layer_index: int, head_indices) -> None:
    """Delete whole attention heads from one layer: one row selection per tensor."""
    if not 0 <= layer_index < len(model.layers):
        raise InvalidIndexError(f"layer index {layer_index} out of range")
    att = model.layers[layer_index].heads
    idx = _check_unit_indices(head_indices, len(att), "head")
    kept = np.setdiff1d(np.arange(len(att)), np.asarray(idx, dtype=np.int64))
    dh = model.config.head_size
    rows = (kept[:, None] * dh + np.arange(dh)).reshape(-1)
    for f in _HEAD_FIELDS:
        t = getattr(att, f)
        setattr(att, f, Tensor(t.data[kept if f == "bo" else rows], requires_grad=t.requires_grad))
    model.config.num_heads[layer_index] = int(kept.size)


def remove_ffn_neurons(model: Model, layer_index: int, neuron_indices) -> None:
    """Delete FFN neurons: W1 columns, b1 entries, W2 rows."""
    if not 0 <= layer_index < len(model.layers):
        raise InvalidIndexError(f"layer index {layer_index} out of range")
    layer = model.layers[layer_index]
    width = layer.b1.shape[0]
    idx = _check_unit_indices(neuron_indices, width, "ffn neuron")
    kept = np.setdiff1d(np.arange(width), np.asarray(idx, dtype=np.int64))
    rg = layer.w1.requires_grad
    layer.w1 = Tensor(layer.w1.data[:, kept], requires_grad=rg)
    layer.b1 = Tensor(layer.b1.data[kept], requires_grad=rg)
    layer.w2 = Tensor(layer.w2.data[kept, :], requires_grad=rg)
    model.config.ffn_size[layer_index] = int(kept.size)


def remove_vocab_rows(model: Model, kept_ids, prune_lm_head: bool = True) -> dict[int, int]:
    """Shrink the embedding to the given rows; returns the old->new id mapping.

    A tied LM head shares embedding storage, so it (and its bias) always
    follows. An untied LM head is row-pruned only when prune_lm_head is set;
    otherwise it keeps its full width, recorded in config.lm_vocab_size.
    """
    kept = [int(i) for i in kept_ids]
    if not kept:
        raise ContractError("kept_ids must not be empty")
    _check_unit_indices(kept, model.config.vocab_size, "vocab row")
    rg = model.embedding.requires_grad
    sel = np.asarray(kept, dtype=np.int64)
    model.embedding = Tensor(model.embedding.data[sel], requires_grad=rg)
    if model.config.has_lm_head:
        if model.config.lm_head_tied:
            model.lm_bias = Tensor(model.lm_bias.data[sel], requires_grad=rg)
            model.config.lm_vocab_size = len(kept)
        elif prune_lm_head:
            model.lm_head = Tensor(model.lm_head.data[sel], requires_grad=rg)
            model.lm_bias = Tensor(model.lm_bias.data[sel], requires_grad=rg)
            model.config.lm_vocab_size = len(kept)
    model.config.vocab_size = len(kept)
    return {old: new for new, old in enumerate(kept)}


def _head_params(cfg: ModelConfig) -> int:
    # wq+wk+wv+wo are head_size x hidden, bq+bk+bv are head_size, bo is hidden
    return 4 * cfg.head_size * cfg.hidden_size + 3 * cfg.head_size + cfg.hidden_size


def count_parameters_from_config(cfg: ModelConfig) -> dict[str, int]:
    """Parameter counts per bucket, derived arithmetically from the config.

    ffn_total counts only the per-neuron parameters (W1, b1, W2), so halving
    every layer's FFN width halves it exactly. The FFN output bias and the
    layer-norm vectors are width-independent and sit in the transformer
    bucket alongside heads_total and ffn_total.
    """
    d = cfg.hidden_size
    emb = cfg.vocab_size * d + cfg.max_seq_len * d
    if cfg.has_lm_head:
        if not cfg.lm_head_tied:
            emb += cfg.lm_vocab_size * d
        emb += cfg.lm_vocab_size
    heads_total = _head_params(cfg) * sum(cfg.num_heads)
    ffn_total = (2 * d + 1) * sum(cfg.ffn_size)
    transformer = heads_total + ffn_total + cfg.num_layers * 5 * d
    task_head = d * cfg.num_labels + cfg.num_labels
    return {
        "embedding": emb,
        "heads_total": heads_total,
        "ffn_total": ffn_total,
        "transformer": transformer,
        "task_head": task_head,
        "total": emb + transformer + task_head,
    }


def count_parameters(model: Model) -> dict[str, int]:
    """Parameter counts per bucket, summed over the stored tensors."""
    counts = count_parameters_from_config(model.config)
    total = sum(t.size for _, t in named_tensors(model))
    if total != counts["total"]:
        raise ContractError(
            f"stored parameters ({total}) disagree with config arithmetic ({counts['total']})")
    return counts
