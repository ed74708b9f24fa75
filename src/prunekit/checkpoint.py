"""Checkpoint directory format.

A model directory holds three files:

    config.json    architecture description (ModelConfig fields)
    weights.bin    all tensors concatenated, row-major little-endian float64
    manifest.json  ordered tensor index: name, shape, byte offset, byte length

Round trips are bit-exact. Loading validates the manifest against both the
config-derived expected shapes and the actual file size, naming the first
offending tensor, and reads each tensor straight into the model's arrays.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .configs import config_from_dict, config_to_dict, read_json
from .errors import ContractError, CorruptionError
from .model import Model, ModelConfig, checkpoint_views, empty_model

CONFIG_FILE = "config.json"
WEIGHTS_FILE = "weights.bin"
MANIFEST_FILE = "manifest.json"


def save_model(model: Model, directory: str | Path) -> None:
    """Write config.json, weights.bin and manifest.json into directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    offset = 0
    with open(directory / WEIGHTS_FILE, "wb") as fh:
        for name, view in checkpoint_views(model):
            raw = np.ascontiguousarray(view, dtype="<f8")
            fh.write(raw)
            entries.append({"name": name, "shape": list(view.shape),
                            "offset": offset, "length": raw.nbytes})
            offset += raw.nbytes
    (directory / MANIFEST_FILE).write_text(
        json.dumps({"tensors": entries}, indent=2) + "\n")
    (directory / CONFIG_FILE).write_text(
        json.dumps(config_to_dict(model.config), indent=2) + "\n")


def load_model(directory: str | Path, requires_grad: bool = True) -> Model:
    """Load a checkpoint directory; raises CorruptionError on any inconsistency."""
    directory = Path(directory)
    config_path = directory / CONFIG_FILE
    cfg = config_from_dict(ModelConfig, read_json(config_path, CorruptionError),
                           source=str(config_path))
    entries = read_json(directory / MANIFEST_FILE, CorruptionError).get("tensors")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise CorruptionError("manifest.json has no list of tensor objects")

    model = empty_model(cfg, requires_grad)
    views = list(checkpoint_views(model))
    if len(entries) != len(views):
        raise CorruptionError(
            f"manifest lists {len(entries)} tensors, config implies {len(views)}")
    offset = 0
    for entry, (name, view) in zip(entries, views):
        if entry.get("name") != name:
            raise CorruptionError(f"manifest tensor {entry.get('name')!r} where {name!r} expected")
        if entry.get("shape") != list(view.shape):
            raise CorruptionError(
                f"tensor {name}: manifest shape {entry.get('shape')} does not match expected {list(view.shape)}")
        if entry.get("offset") != offset or entry.get("length") != view.nbytes:
            raise CorruptionError(f"tensor {name}: bad offset/length in manifest")
        offset += view.nbytes

    with open(directory / WEIGHTS_FILE, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > offset:
            raise CorruptionError(f"weights.bin holds {size} bytes, manifest accounts for {offset}")
        for name, view in views:
            if fh.readinto(view) != view.nbytes:
                raise CorruptionError(f"weights.bin truncated at tensor {name}")
            if sys.byteorder != "little":
                view.byteswap(inplace=True)
    return model


@contextmanager
def atomic_dir(target: str | Path):
    """Stage writes in a temp sibling, rename into place only on success.

    The target must not already exist non-empty; a failed body leaves no
    trace of the attempt.
    """
    target = Path(target)
    target.parent.mkdir(parents=True, exist_ok=True)
    if target.exists() and any(target.iterdir()):
        raise ContractError(f"output directory {target} already exists and is not empty")
    tmp = target.parent / f".{target.name}.staging-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        yield tmp
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if target.exists():
        target.rmdir()
    tmp.rename(target)
