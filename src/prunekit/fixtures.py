"""Deterministic random fixtures: models, vocabularies, corpora, datasets.

Everything derives from a seed through one generator per artifact, so the
same spec always produces bit-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import save_model
from .errors import ConfigError
from .model import Model, ModelConfig, assemble_model, expected_tensor_shapes
from .vocab import SPECIAL_TOKENS, Vocabulary

_WORDS = [
    "the", "cat", "sat", "on", "mat", "dog", "ran", "fast", "blue", "sky",
    "rain", "fell", "all", "day", "tree", "grew", "tall", "bird", "sang",
    "loud", "fish", "swam", "deep", "wind", "blew", "cold", "sun", "rose",
    "red", "moon", "hill", "path", "led", "home", "door", "shut", "light",
]
_PIECES = ["un", "break", "##break", "##able", "##er", "##ing", "##s", "##ed"]


@dataclass(frozen=True)
class FixtureSpec:
    num_layers: int = 2
    hidden_size: int = 32
    num_heads: int = 4
    ffn_size: int = 64
    vocab_size: int = 64
    max_seq_len: int = 64
    num_labels: int = 3
    has_lm_head: bool = False
    lm_head_tied: bool = True
    seed: int = 0
    corpus_lines: int = 40
    dataset_rows: int = 32

    def __post_init__(self):
        for name in ("num_heads", "corpus_lines", "dataset_rows"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_seq_len < 2:
            raise ConfigError(f"max_seq_len must be >= 2 to fit [CLS] and [SEP], "
                              f"got {self.max_seq_len}")
        if self.hidden_size % self.num_heads:
            raise ConfigError(f"hidden_size {self.hidden_size} not divisible by "
                              f"num_heads {self.num_heads}")
        if self.vocab_size < len(SPECIAL_TOKENS) + len(_PIECES) + 4:
            raise ConfigError(f"vocab_size {self.vocab_size} too small for a useful fixture")

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            num_layers=self.num_layers,
            hidden_size=self.hidden_size,
            head_size=self.hidden_size // self.num_heads,
            num_heads=[self.num_heads] * self.num_layers,
            ffn_size=[self.ffn_size] * self.num_layers,
            vocab_size=self.vocab_size,
            max_seq_len=self.max_seq_len,
            num_labels=self.num_labels,
            has_lm_head=self.has_lm_head,
            lm_head_tied=self.lm_head_tied,
        )


def build_model(spec: FixtureSpec) -> Model:
    """Random-weight model; layer norm affines stay near identity."""
    cfg = spec.model_config()
    rng = np.random.default_rng(spec.seed)
    arrays = {}
    for name, shape in expected_tensor_shapes(cfg):
        if ".ln" in name and name.endswith("gain"):
            arrays[name] = 1.0 + 0.01 * rng.normal(size=shape)
        elif ".ln" in name and name.endswith("bias"):
            arrays[name] = 0.01 * rng.normal(size=shape)
        elif name.endswith("bias") or name.startswith("layers") and name.split(".")[-1].startswith("b"):
            arrays[name] = 0.02 * rng.normal(size=shape)
        else:
            arrays[name] = 0.1 * rng.normal(size=shape)
    return assemble_model(cfg, arrays)


def build_vocab(spec: FixtureSpec) -> Vocabulary:
    """Specials first, then words, wordpiece pieces, and filler tokens."""
    tokens = list(SPECIAL_TOKENS)
    budget = spec.vocab_size - len(tokens) - len(_PIECES)
    tokens.extend(_WORDS[:budget])
    tokens.extend(_PIECES)
    for i in range(spec.vocab_size - len(tokens)):
        tokens.append(f"tok{i}")
    return Vocabulary(tokens[:spec.vocab_size])


def build_corpus_lines(spec: FixtureSpec) -> list[str]:
    """Sentences over the common words plus a few wordpiece composites.

    Only the first two thirds of the word list appears, so a vocabulary
    pruning pass with min_count >= 1 has something real to drop.
    """
    rng = np.random.default_rng(spec.seed + 1)
    common = _WORDS[:max(4, (2 * len(_WORDS)) // 3)]
    composites = ["unbreakable", "breaker", "breaking", "unbreak"]
    lines = []
    for _ in range(spec.corpus_lines):
        n = int(rng.integers(3, 9))
        words = [common[int(i)] for i in rng.integers(0, len(common), size=n)]
        if rng.random() < 0.3:
            words.append(composites[int(rng.integers(0, len(composites)))])
        lines.append(" ".join(words))
    return lines


def build_dataset_rows(spec: FixtureSpec) -> list[str]:
    rng = np.random.default_rng(spec.seed + 2)
    lines = build_corpus_lines(spec)
    rows = []
    for i in range(spec.dataset_rows):
        label = int(rng.integers(0, spec.num_labels))
        rows.append(f"{label}\t{lines[i % len(lines)]}")
    return rows


def make_fixture(out_dir: str | Path, spec: FixtureSpec | None = None) -> dict[str, Path]:
    """Write a complete fixture: model dir (with vocab.txt), corpus, dataset."""
    spec = spec or FixtureSpec()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model_dir = out / "model"
    model = build_model(spec)
    vocab = build_vocab(spec)
    save_model(model, model_dir)
    vocab.save(model_dir / "vocab.txt")
    corpus = out / "corpus.txt"
    corpus.write_text("\n".join(build_corpus_lines(spec)) + "\n", encoding="utf-8")
    dataset = out / "dataset.tsv"
    dataset.write_text("\n".join(build_dataset_rows(spec)) + "\n", encoding="utf-8")
    return {"model_dir": model_dir, "vocab": model_dir / "vocab.txt",
            "corpus": corpus, "dataset": dataset}
