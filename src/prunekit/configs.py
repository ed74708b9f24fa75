"""Run configuration dataclasses and strict JSON parsing.

Three run config kinds: general (device/output), vocabulary pruning, and
transformer pruning. Whole text files are read through read_text and JSON
files through read_json, which name the file and the bad byte or line;
config_from_dict rejects unknown keys by name and type-checks every value,
for run configs and for a checkpoint's ModelConfig alike.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError, PrunekitError

PRUNING_METHODS = ("iterative", "mask")
GRANULARITIES = ("batch", "example")
DEVICES = ("cpu",)


@dataclass(frozen=True)
class GeneralConfig:
    device: str = "cpu"
    output_dir: str = "pruned_model"

    def __post_init__(self):
        if self.device not in DEVICES:
            raise ConfigError(f"device must be one of {DEVICES}, got {self.device!r}")
        if not self.output_dir:
            raise ConfigError("output_dir must not be empty")


@dataclass(frozen=True)
class VocabularyPruningConfig:
    min_count: int = 1
    prune_lm_head: bool = True

    def __post_init__(self):
        if self.min_count < 0:
            raise ConfigError(f"min_count must be >= 0, got {self.min_count}")


@dataclass(frozen=True)
class TransformerPruningConfig:
    target_num_of_heads: int
    target_ffn_size: int
    pruning_method: str = "iterative"
    n_iters: int = 1
    head_even_masking: bool = True
    ffn_even_masking: bool = True
    multiple_of: int = 1
    use_logits: bool = False
    score_granularity: str = "batch"

    def __post_init__(self):
        if self.pruning_method not in PRUNING_METHODS:
            raise ConfigError(f"pruning_method must be one of {PRUNING_METHODS}, "
                              f"got {self.pruning_method!r}")
        if self.score_granularity not in GRANULARITIES:
            raise ConfigError(f"score_granularity must be one of {GRANULARITIES}, "
                              f"got {self.score_granularity!r}")
        if self.target_num_of_heads < 1:
            raise ConfigError(f"target_num_of_heads must be >= 1, got {self.target_num_of_heads}")
        if self.target_ffn_size < 1:
            raise ConfigError(f"target_ffn_size must be >= 1, got {self.target_ffn_size}")
        if self.n_iters < 1:
            raise ConfigError(f"n_iters must be >= 1, got {self.n_iters}")
        if self.multiple_of < 1:
            raise ConfigError(f"multiple_of must be >= 1, got {self.multiple_of}")
        if self.multiple_of > 1 and self.ffn_even_masking:
            raise ConfigError("multiple_of > 1 requires ffn_even_masking to be false")


def read_text(path: str | Path, error: type[PrunekitError] = ConfigError) -> str:
    """Read a UTF-8 text file; bytes that are not UTF-8 raise error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text at byte {exc.start}") from exc


def read_json(path: str | Path, error: type[PrunekitError] = ConfigError) -> dict:
    """Read a UTF-8 JSON file holding one object; anything else raises error."""
    path = Path(path)
    try:
        data = json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise error(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def config_from_dict(cls, data: dict, source: str = "config"):
    """Build a config dataclass from a dict with strict key/type checking."""
    hints = get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"{source}: unknown key {unknown[0]!r}"
                          + (f" (and {len(unknown) - 1} more)" if len(unknown) > 1 else ""))
    required = [n for n, f in fields.items()
                if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    missing = sorted(set(required) - set(data))
    if missing:
        raise ConfigError(f"{source}: missing required key {missing[0]!r}")
    for name, value in data.items():
        want = hints[name]
        if want is bool:
            ok = isinstance(value, bool)
        elif want is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif want is str:
            ok = isinstance(value, str)
        else:
            ok = True
        if not ok:
            raise ConfigError(f"{source}: key {name!r} must be {want.__name__}, "
                              f"got {type(value).__name__}")
    try:
        return cls(**data)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path: str | Path, cls):
    """Parse one JSON config file into the config dataclass cls."""
    return config_from_dict(cls, read_json(path), source=str(path))


def config_to_dict(cfg) -> dict:
    return dataclasses.asdict(cfg)
