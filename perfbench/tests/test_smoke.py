"""Smoke tests for the benchmark itself, on tiny shapes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["pipeline-kl", "infer-pruned", "vocab-corpus"]   # vocab-corpus is report-only


def test_benchmark_json_names_gated_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    return out


def assert_metrics(out: dict, declared: list[dict]) -> None:
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = result(run("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--tiny"))
    assert_metrics(out, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path):
    spans_file = tmp_path / "spans.json"
    proc = run("--workload", workload, "--seed", "4", "--seconds", "1", "--trace", "1",
               "--tiny", "--trace-out", str(spans_file))
    out = result(proc)
    assert_metrics(out, SPEC["per_layer"])
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["checkpoint.load_s"] > 0 and m["data.load_dataset_s"] > 0
    if workload == "pipeline-kl":
        assert m["scoring.units"] > 0 and m["scoring.tape_records_per_unit"] > 0
        assert 0 < m["data.real_token_frac"] < 1 and m["vocab.words_per_s"] > 0
        assert m["tensor.scoring.qkv_proj_calls"] > 0
    if workload == "infer-pruned":
        assert m["data.real_token_frac"] == 1.0 and m["scoring.units"] == 0
        assert m["tensor.forward.attn_core_calls"] > 0 and m["tensor.forward.matmul_gflop"] > 0
    if workload == "vocab-corpus":
        assert m["vocab.words_per_s"] > 0 and 0 < m["vocab.unk_frac"] < 1
        assert m["checkpoint.save_mb"] > 0

    spans = json.loads(spans_file.read_text())["spans"]
    cycles = [s for s in spans if s["parent"] == -1]
    assert cycles and all(s["name"] == "cycle" for s in cycles)
    wall = sum(s["end"] - s["start"] for s in cycles)
    assert sum(s["self_s"] for s in spans) <= wall + 1e-9
    assert min(s["self_s"] for s in spans) >= -1e-6
    for s in spans:   # a child lies inside its parent
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            assert p["start"] <= s["start"] <= s["end"] <= p["end"]


def test_thread_sweep_reports_both_thread_counts():
    proc = run("--sweep-threads", "--seed", "5", "--seconds", "0.5", "--tiny")
    assert proc.returncode == 0, proc.stderr
    sweep = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {r["workload"] for r in sweep["sweep"]} == {"pipeline-kl", "infer-pruned"}
    assert all(r["correct"] and r["op_s_p50"] > 0 for r in sweep["sweep"])


def test_refuses_without_prunekit_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
