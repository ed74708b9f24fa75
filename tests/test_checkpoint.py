"""What a mapped checkpoint load promises: plain owned-looking arrays that
read the file's bytes, copy-on-write edits, independence from the directory
once loaded, safe saves over the source, and no leaked descriptors."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from conftest import toy
from prunekit import checkpoint
from prunekit.checkpoint import load_model, save_model
from prunekit.errors import CorruptionError
from prunekit.model import checkpoint_views, named_tensors, task_forward

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def saved(tmp_path):
    """A saved toy model with an untied LM head, so every kind of part is stored."""
    model, vocab, _ = toy(has_lm_head=True, lm_head_tied=False)
    save_model(model, tmp_path / "m")
    return tmp_path / "m", vocab


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def ids(vocab, seed=0):
    return np.random.default_rng(seed).integers(0, len(vocab), size=(2, 6))


def test_loaded_tensors_are_plain_arrays_with_the_manifest_bytes(saved):
    directory, _ = saved
    model = load_model(directory)
    for name, t in named_tensors(model):
        assert type(t.data) is np.ndarray, name
        assert t.data.dtype == np.float64 and t.data.flags.c_contiguous, name
        assert t.data.flags.writeable, name
    entries = json.loads((directory / "manifest.json").read_text())["tensors"]
    for entry, (name, view) in zip(entries, checkpoint_views(model), strict=True):
        on_disk = np.fromfile(directory / "weights.bin", dtype="<f8",
                              count=entry["length"] // 8, offset=entry["offset"])
        assert entry["name"] == name
        assert view.tobytes() == on_disk.tobytes(), name


def test_writes_into_a_loaded_model_never_reach_the_file(saved):
    directory, _ = saved
    before = digest(directory / "weights.bin")
    model = load_model(directory)
    for _, t in named_tensors(model):
        t.data += 1.0
    assert digest(directory / "weights.bin") == before
    assert load_model(directory).embedding.data.tobytes() != model.embedding.data.tobytes()


def test_model_outlives_its_directory(saved):
    directory, vocab = saved
    model = load_model(directory)
    logits = task_forward(model, ids(vocab)).data
    shutil.rmtree(directory)
    gc.collect()
    assert task_forward(model, ids(vocab)).data.tobytes() == logits.tobytes()


def test_clone_of_a_loaded_model_owns_its_data(saved):
    directory, _ = saved
    model = load_model(directory)
    copy = model.clone()
    for (name, a), (_, b) in zip(named_tensors(model), named_tensors(copy)):
        assert b.data.flags.owndata, name
        assert not np.shares_memory(a.data, b.data), name


def test_save_over_the_loaded_directory_keeps_the_edit(saved):
    # a subprocess, so that a fault on the map (SIGBUS, EFAULT) fails this
    # test instead of killing the test run
    directory, _ = saved
    script = textwrap.dedent(f"""
        from prunekit.checkpoint import load_model, save_model
        from prunekit.model import named_tensors
        model = load_model({str(directory)!r})
        model.embedding.data[0, 0] += 1.0
        model.layers[0].w1.data[1] *= -1.0
        save_model(model, {str(directory)!r})
        reloaded = load_model({str(directory)!r})
        for (na, a), (nb, b) in zip(named_tensors(model), named_tensors(reloaded), strict=True):
            assert na == nb and a.data.tobytes() == b.data.tobytes(), na
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert sorted(p.name for p in directory.iterdir()) == [
        "config.json", "manifest.json", "weights.bin"]


def test_failed_save_leaves_the_old_checkpoint(saved, monkeypatch):
    directory, _ = saved
    before = {f.name: digest(f) for f in directory.iterdir()}
    model = load_model(directory)

    def broken_views(m):
        views = checkpoint_views(m)
        yield next(views)
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint, "checkpoint_views", broken_views)
    with pytest.raises(OSError, match="disk full"):
        save_model(model, directory)
    assert {f.name: digest(f) for f in directory.iterdir()} == before


def test_empty_weights_is_corruption_error(saved):
    directory, _ = saved
    (directory / "weights.bin").write_bytes(b"")
    with pytest.raises(CorruptionError, match=r"truncated at tensor embedding"):
        load_model(directory)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_a_load_holds_one_descriptor_until_the_model_is_gone(saved):
    directory, _ = saved
    count = lambda: len(os.listdir("/proc/self/fd"))
    gc.collect()
    before = count()
    model = load_model(directory)
    assert count() <= before + 1
    del model
    gc.collect()
    assert count() == before
