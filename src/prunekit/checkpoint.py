"""Checkpoint directory format.

A model directory holds three files:

    config.json    architecture description (ModelConfig fields)
    weights.bin    all tensors concatenated, row-major little-endian float64
    manifest.json  ordered tensor index: name, shape, byte offset, byte length

Round trips are bit-exact. Loading validates the manifest against both the
config-derived expected shapes and the actual file size, naming the first
offending tensor. It then maps weights.bin once, copy-on-write: every
tensor stored as one contiguous run (embeddings, FFN, LayerNorms,
classifier, LM head) is a view of that map, read lazily by the first
access, and writing into it never reaches the file. Only attention is
read: it is stored head by head, interleaved, so its stacked tensors
cannot be views and their bytes are read straight into them. Saving
replaces each file rather than truncating it, so a model mapped from a
directory may be saved back into it.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .configs import config_from_dict, config_to_dict, read_json
from .errors import ContractError, CorruptionError
from .model import Model, ModelConfig, checkpoint_views, empty_model, expected_tensor_shapes

CONFIG_FILE = "config.json"
WEIGHTS_FILE = "weights.bin"
MANIFEST_FILE = "manifest.json"


@contextmanager
def _replacing(path: Path) -> Iterator[BinaryIO]:
    """Write a temp sibling of path and rename it over path on success.

    The old file's inode lives on for any map of it, where truncating it in
    place would fault every later read through that map.
    """
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_model(model: Model, directory: str | Path) -> None:
    """Write config.json, weights.bin and manifest.json into directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    offset = 0
    with _replacing(directory / WEIGHTS_FILE) as fh:
        for name, view in checkpoint_views(model):
            raw = np.ascontiguousarray(view, dtype="<f8")
            fh.write(raw)
            entries.append({"name": name, "shape": list(view.shape),
                            "offset": offset, "length": raw.nbytes})
            offset += raw.nbytes
    for name, doc in ((MANIFEST_FILE, {"tensors": entries}),
                      (CONFIG_FILE, config_to_dict(model.config))):
        with _replacing(directory / name) as fh:
            fh.write((json.dumps(doc, indent=2) + "\n").encode())


def load_model(directory: str | Path, requires_grad: bool = True) -> Model:
    """Load a checkpoint directory; raises CorruptionError on any inconsistency."""
    directory = Path(directory)
    config_path = directory / CONFIG_FILE
    cfg = config_from_dict(ModelConfig, read_json(config_path, CorruptionError),
                           source=str(config_path))
    entries = read_json(directory / MANIFEST_FILE, CorruptionError).get("tensors")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise CorruptionError("manifest.json has no list of tensor objects")

    layout = expected_tensor_shapes(cfg)
    if len(entries) != len(layout):
        raise CorruptionError(
            f"manifest lists {len(entries)} tensors, config implies {len(layout)}")
    offset = 0
    for entry, (name, shape) in zip(entries, layout):
        if entry.get("name") != name:
            raise CorruptionError(f"manifest tensor {entry.get('name')!r} where {name!r} expected")
        if entry.get("shape") != list(shape):
            raise CorruptionError(
                f"tensor {name}: manifest shape {entry.get('shape')} does not match expected {list(shape)}")
        if entry.get("offset") != offset or entry.get("length") != 8 * math.prod(shape):
            raise CorruptionError(f"tensor {name}: bad offset/length in manifest")
        offset += entry["length"]

    with open(directory / WEIGHTS_FILE, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > offset:
            raise CorruptionError(f"weights.bin holds {size} bytes, manifest accounts for {offset}")
        if size < offset:
            first = next(e["name"] for e in entries if e["offset"] + e["length"] > size)
            raise CorruptionError(f"weights.bin truncated at tensor {first}")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        # attention (layers.{l}.heads.{h}.{field}) is interleaved on disk: no view
        stored = {name: np.frombuffer(mapped, "<f8", math.prod(shape), e["offset"]).reshape(shape)
                  for e, (name, shape) in zip(entries, layout) if ".heads." not in name}
        model = empty_model(cfg, requires_grad, stored)
        for entry, (name, view) in zip(entries, checkpoint_views(model)):
            if name in stored:
                continue
            fh.seek(entry["offset"])
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
