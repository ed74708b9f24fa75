"""Smoke tests for the experiment scripts: each runs in-process on tiny
inputs, so a library API change that breaks a script fails here."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from prunekit.fixtures import make_fixture

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_subsample_experiment(tmp_path, capsys):
    paths = make_fixture(tmp_path / "fx")
    out = tmp_path / "stability.json"
    script = load_script("subsample_experiment")
    assert script.main(["--model-dir", str(paths["model_dir"]),
                        "--dataset", str(paths["dataset"]),
                        "--fractions", "0.5,1.0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["fractions"] == [0.5, 1.0]
    assert report["num_examples"][1] == report["total_examples"]
    assert report["spearman_vs_full"][1] == 1.0
    assert "report written to" in capsys.readouterr().out


def test_size_latency_grid_bench(capsys):
    script = load_script("size_latency_grid")
    assert script.main(["--layers", "1", "--hidden", "8", "--head-size", "4",
                        "--heads", "2,1", "--ffn", "8,4", "--rounds", "1",
                        "--bench"]) == 0
    out = capsys.readouterr().out
    assert "100.0%" in out
    assert "median seconds per forward pass" in out
