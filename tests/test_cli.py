"""End-to-end CLI behavior: exit codes, output layout, the --pruning_mode
alias, and agreement between CLI flags and the underlying API."""

from __future__ import annotations

import hashlib
import json
import shutil

import numpy as np
import pytest

from prunekit.checkpoint import load_model
from prunekit.cli import run_cli
from prunekit.vocab import Vocabulary

TRM_CFG = {"target_num_of_heads": 2, "target_ffn_size": 32, "n_iters": 2}


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fx") / "toy"
    assert run_cli(["make-fixture", "--out", str(out)]) == 0
    return out


@pytest.fixture
def trm_config_path(tmp_path):
    path = tmp_path / "transformer.json"
    path.write_text(json.dumps(TRM_CFG))
    return path


def model_dir(fixture_dir):
    return str(fixture_dir / "model")


class TestUtilityCommands:
    def test_make_fixture_prints_paths_and_is_deterministic(self, tmp_path, capsys):
        assert run_cli(["make-fixture", "--out", str(tmp_path / "a")]) == 0
        out = capsys.readouterr().out
        assert "model_dir:" in out and "dataset:" in out
        assert run_cli(["make-fixture", "--out", str(tmp_path / "b")]) == 0
        for rel in ["model/weights.bin", "model/config.json", "model/vocab.txt",
                    "corpus.txt", "dataset.tsv"]:
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes(), rel

    def test_summary(self, fixture_dir, capsys):
        assert run_cli(["summary", "--model-dir", model_dir(fixture_dir)]) == 0
        out = capsys.readouterr().out
        assert "21,475" in out
        for row in ["embedding", "transformer", "heads_total", "ffn_total",
                    "task_head", "total"]:
            assert row in out

    def test_bench(self, fixture_dir, capsys):
        code = run_cli(["bench", "--model-dir", model_dir(fixture_dir),
                        "--batch-size", "2", "--seq-len", "8", "--rounds", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "median" in out and "batch 2 x seq 8" in out

    def test_bench_with_reference_prints_speedup(self, fixture_dir, capsys):
        code = run_cli(["bench", "--model-dir", model_dir(fixture_dir),
                        "--reference-dir", model_dir(fixture_dir),
                        "--batch-size", "1", "--seq-len", "4", "--rounds", "1"])
        assert code == 0
        assert "speedup:" in capsys.readouterr().out


class TestPruneTransformer:
    def test_iterative_end_to_end(self, fixture_dir, trm_config_path, tmp_path, capsys):
        out = tmp_path / "pruned"
        report_path = tmp_path / "report.json"
        scores_path = tmp_path / "scores.json"
        code = run_cli([
            "prune-transformer", "--model-dir", model_dir(fixture_dir),
            "--transformer-config", str(trm_config_path),
            "--dataset", str(fixture_dir / "dataset.tsv"),
            "--batch-size", "4", "--output-dir", str(out),
            "--report-json", str(report_path), "--scores-json", str(scores_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "heads per layer: [2, 2]" in captured.out
        assert "ffn width per layer: [32, 32]" in captured.out
        assert "parameters:" in captured.out and "->" in captured.out
        assert "iteration 1/2" in captured.err and "iteration 2/2" in captured.err

        pruned = load_model(out)
        assert pruned.config.num_heads == [2, 2]
        assert pruned.config.ffn_size == [32, 32]
        assert (out / "vocab.txt").exists()
        report = json.loads(report_path.read_text())
        assert report["final_num_heads"] == [2, 2]
        assert json.loads((out / "prune_report.json").read_text())["method"] == "iterative"
        scores = json.loads(scores_path.read_text())
        assert len(scores["head_scores"]) == 2

    def test_kl_scores_json_keys(self, fixture_dir, tmp_path):
        cfg_path = tmp_path / "t.json"
        cfg_path.write_text(json.dumps({**TRM_CFG, "use_logits": True}))
        scores_path = tmp_path / "scores.json"
        assert run_cli(["prune-transformer", "--model-dir", model_dir(fixture_dir),
                        "--transformer-config", str(cfg_path),
                        "--dataset", str(fixture_dir / "dataset.tsv"),
                        "--output-dir", str(tmp_path / "pruned"),
                        "--scores-json", str(scores_path)]) == 0
        assert list(json.loads(scores_path.read_text())) == [
            "loss_kind", "granularity", "num_examples", "units_averaged",
            "head_scores", "ffn_scores"]

    def test_mask_json_and_reference_summary(self, fixture_dir, tmp_path, capsys):
        mask = {"head_keep": [[True, True, False, False]] * 2,
                "ffn_keep": [[True] * 32 + [False] * 32] * 2}
        mask_path = tmp_path / "mask.json"
        mask_path.write_text(json.dumps(mask))
        cfg_path = tmp_path / "t.json"
        cfg_path.write_text(json.dumps({"target_num_of_heads": 2, "target_ffn_size": 32,
                                        "pruning_method": "mask"}))
        out = tmp_path / "masked"
        code = run_cli(["prune-transformer", "--model-dir", model_dir(fixture_dir),
                        "--transformer-config", str(cfg_path),
                        "--mask-json", str(mask_path), "--output-dir", str(out)])
        assert code == 0
        capsys.readouterr()

        code = run_cli(["summary", "--model-dir", str(out),
                        "--reference-dir", model_dir(fixture_dir)])
        assert code == 0
        table = capsys.readouterr().out
        heads_row = next(l for l in table.splitlines() if "heads_total" in l)
        ffn_row = next(l for l in table.splitlines() if "ffn_total" in l)
        assert "50.0%" in heads_row and "50.0%" in ffn_row

    def test_matches_api_outputs(self, fixture_dir, trm_config_path, tmp_path):
        from prunekit.configs import TransformerPruningConfig
        from prunekit.data import load_dataset
        from prunekit.engine import transformer_prune

        out = tmp_path / "cli"
        assert run_cli(["prune-transformer", "--model-dir", model_dir(fixture_dir),
                        "--transformer-config", str(trm_config_path),
                        "--dataset", str(fixture_dir / "dataset.tsv"),
                        "--batch-size", "4", "--output-dir", str(out)]) == 0
        model = load_model(fixture_dir / "model")
        vocab = Vocabulary.from_file(fixture_dir / "model" / "vocab.txt")
        ds = load_dataset(fixture_dir / "dataset.tsv", vocab, batch_size=4,
                          max_len=64, labeled=True)
        transformer_prune(model, ds, TransformerPruningConfig(**TRM_CFG))
        cli_model = load_model(out)
        assert cli_model.config == model.config
        np.testing.assert_array_equal(cli_model.embedding.data, model.embedding.data)
        np.testing.assert_array_equal(cli_model.layers[0].w1.data,
                                      model.layers[0].w1.data)

    def test_failed_run_leaves_no_output(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "occupied"
        out.mkdir()
        (out / "keep.txt").write_text("precious")
        cfg_path = tmp_path / "t.json"
        cfg_path.write_text(json.dumps({"target_num_of_heads": 2, "target_ffn_size": 32,
                                        "pruning_method": "mask"}))
        mask_path = tmp_path / "mask.json"
        mask_path.write_text(json.dumps({"head_keep": [[True, True, False, False]] * 2,
                                         "ffn_keep": [[True] * 32 + [False] * 32] * 2}))
        code = run_cli(["prune-transformer", "--model-dir", model_dir(fixture_dir),
                        "--transformer-config", str(cfg_path),
                        "--mask-json", str(mask_path), "--output-dir", str(out)])
        assert code == 1
        assert (out / "keep.txt").read_text() == "precious"
        assert not (out / "config.json").exists()
        assert not list(out.parent.glob(".*staging*"))
        assert "error:" in capsys.readouterr().err


class TestPruneVocabAndPipeline:
    def test_prune_vocab(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "v"
        code = run_cli(["prune-vocab", "--model-dir", model_dir(fixture_dir),
                        "--corpus", str(fixture_dir / "corpus.txt"),
                        "--output-dir", str(out)])
        assert code == 0
        assert "vocabulary: 64 ->" in capsys.readouterr().out
        vocab = Vocabulary.from_file(out / "vocab.txt")
        model = load_model(out)
        assert len(vocab) < 64
        assert model.config.vocab_size == len(vocab)

    def test_pipeline(self, fixture_dir, trm_config_path, tmp_path, capsys):
        out = tmp_path / "p"
        code = run_cli(["prune-pipeline", "--model-dir", model_dir(fixture_dir),
                        "--transformer-config", str(trm_config_path),
                        "--corpus", str(fixture_dir / "corpus.txt"),
                        "--dataset", str(fixture_dir / "dataset.tsv"),
                        "--batch-size", "4", "--output-dir", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "heads per layer: [2, 2]" in text and "vocabulary: 64 ->" in text
        model = load_model(out)
        vocab = Vocabulary.from_file(out / "vocab.txt")
        assert model.config.num_heads == [2, 2]
        assert model.config.vocab_size == len(vocab) < 64
        report = json.loads((out / "prune_report.json").read_text())
        assert report["vocabulary"]["final_size"] == len(vocab)

    def test_pipeline_outputs_pinned(self, fixture_dir, trm_config_path, tmp_path, capsys):
        # the weights are copied, never recomputed, and the closest drop decision of
        # this run has a 0.37% relative score gap, so BLAS rounding cannot move the pin
        out = tmp_path / "pinned"
        assert run_cli(["prune-pipeline", "--model-dir", model_dir(fixture_dir),
                        "--transformer-config", str(trm_config_path),
                        "--corpus", str(fixture_dir / "corpus.txt"),
                        "--dataset", str(fixture_dir / "dataset.tsv"),
                        "--output-dir", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "prune_report.json").read_text())
        report.pop("elapsed_seconds")
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("weights.bin", "manifest.json", "config.json", "vocab.txt")}
        digests["prune_report.json"] = hashlib.sha256(
            json.dumps(report, indent=2).encode()).hexdigest()
        assert digests == {
            "weights.bin": "fe1691373c2146af014fd781b6d8d8789a003a7814b06c43c749b5d42e1e8275",
            "manifest.json": "d561c9ac23f146c714656fec841915548cf9e38cb5bb2ea95aa9bd19d5a132b1",
            "config.json": "dd300f6dbd4e07910799668524ba86cd7713fec1b6d5241806cd1863304b75d8",
            "vocab.txt": "dc5f8fdc4cadf6828381148dd9d83835895fd17ace09d20d472ea373171f8ffc",
            "prune_report.json":
                "27c65e723d6d5527c87c2afc80d39a0202d2826a84285f1ee066fd5bec5f4fcd",
        }

    def test_pruning_mode_alias(self, fixture_dir, trm_config_path, tmp_path):
        out = tmp_path / "alias"
        code = run_cli(["--pruning_mode", "transformer",
                        "--model-dir", model_dir(fixture_dir),
                        "--transformer-config", str(trm_config_path),
                        "--dataset", str(fixture_dir / "dataset.tsv"),
                        "--batch-size", "4", "--output-dir", str(out)])
        assert code == 0
        assert load_model(out).config.num_heads == [2, 2]

    def test_pruning_mode_equals_form(self, fixture_dir, tmp_path):
        out = tmp_path / "alias2"
        code = run_cli(["--pruning_mode=vocabulary",
                        "--model-dir", model_dir(fixture_dir),
                        "--corpus", str(fixture_dir / "corpus.txt"),
                        "--output-dir", str(out)])
        assert code == 0
        assert (out / "vocab.txt").exists()


class TestExitCodes:
    def test_missing_required_flag_is_2(self, fixture_dir, capsys):
        assert run_cli(["prune-transformer",
                        "--model-dir", model_dir(fixture_dir)]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_2(self, capsys):
        assert run_cli(["prune-everything"]) == 2
        capsys.readouterr()

    def test_bad_config_value_is_2(self, fixture_dir, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"target_num_of_heads": 2,
                                        "target_ffn_size": 32, "n_iters": 0}))
        code = run_cli(["prune-transformer", "--model-dir", model_dir(fixture_dir),
                        "--transformer-config", str(cfg_path),
                        "--dataset", str(fixture_dir / "dataset.tsv")])
        assert code == 2
        assert "n_iters" in capsys.readouterr().err

    def test_bad_pruning_mode_is_2(self, capsys):
        assert run_cli(["--pruning_mode", "everything"]) == 2
        assert "--pruning_mode" in capsys.readouterr().err

    def test_not_a_model_dir_is_2(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert run_cli(["summary", "--model-dir", str(tmp_path / "empty")]) == 2
        assert "config.json" in capsys.readouterr().err

    def test_mask_with_iterative_config_is_2(self, fixture_dir, trm_config_path, tmp_path,
                                             capsys):
        mask_path = tmp_path / "mask.json"
        mask_path.write_text(json.dumps({"head_keep": [[True, True, False, False]] * 2,
                                         "ffn_keep": [[True] * 32 + [False] * 32] * 2}))
        code = run_cli(["prune-transformer", "--model-dir", model_dir(fixture_dir),
                        "--transformer-config", str(trm_config_path),
                        "--mask-json", str(mask_path),
                        "--dataset", str(fixture_dir / "dataset.tsv"),
                        "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    def test_prune_vocab_rejects_threads(self, fixture_dir, tmp_path, capsys):
        assert run_cli(["prune-vocab", "--model-dir", model_dir(fixture_dir),
                        "--corpus", str(fixture_dir / "corpus.txt"), "--threads", "2",
                        "--output-dir", str(tmp_path / "out")]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_iterative_without_dataset_is_2(self, fixture_dir, trm_config_path, capsys):
        code = run_cli(["prune-transformer", "--model-dir", model_dir(fixture_dir),
                        "--transformer-config", str(trm_config_path)])
        assert code == 2
        assert "--dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,field", [("--heads", "num_heads"),
                                            ("--corpus-lines", "corpus_lines"),
                                            ("--dataset-rows", "dataset_rows")])
    def test_make_fixture_zero_count_is_2(self, flag, field, tmp_path, capsys):
        assert run_cli(["make-fixture", "--out", str(tmp_path / "fx"), flag, "0"]) == 2
        assert f"error: {field} must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "fx").exists()

    @pytest.mark.parametrize("value", ["1", "0"])
    def test_make_fixture_short_max_seq_len_is_2(self, value, tmp_path, capsys):
        # the fixture's own dataset needs room for [CLS] and [SEP]
        assert run_cli(["make-fixture", "--out", str(tmp_path / "fx"),
                        "--max-seq-len", value]) == 2
        assert "error: max_seq_len must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "fx").exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("prune-transformer", "--threads", "0"),
        ("prune-transformer", "--batch-size", "0"),
        ("prune-transformer", "--max-len", "1"),
        ("prune-transformer", "--subsample", "0"),
        ("prune-pipeline", "--subsample", "1.5"),
        ("bench", "--rounds", "0"),
        ("bench", "--warmup", "-1"),
        ("bench", "--seq-len", "0"),
        ("prune-transformer", "--seed", "-1"),
        ("bench", "--seed", "-1"),
        ("make-fixture", "--seed", "-1"),
    ])
    def test_out_of_range_flag_is_2(self, command, flag, value, fixture_dir,
                                    trm_config_path, tmp_path, capsys):
        argv = [command, flag, value]
        if command == "make-fixture":
            argv += ["--out", str(tmp_path / "out")]
        else:
            argv += ["--model-dir", model_dir(fixture_dir)]
        if command.startswith("prune-"):
            argv += ["--transformer-config", str(trm_config_path),
                     "--dataset", str(fixture_dir / "dataset.tsv"),
                     "--output-dir", str(tmp_path / "out")]
        if command == "prune-pipeline":
            argv += ["--corpus", str(fixture_dir / "corpus.txt")]
        assert run_cli(argv) == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_corpus_file_is_1(self, fixture_dir, tmp_path, capsys):
        code = run_cli(["prune-vocab", "--model-dir", model_dir(fixture_dir),
                        "--corpus", str(tmp_path / "missing.txt"),
                        "--output-dir", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unrunnable_device_is_2(self, fixture_dir, tmp_path, capsys):
        gcfg = tmp_path / "g.json"
        gcfg.write_text(json.dumps({"device": "cuda"}))
        code = run_cli(["prune-vocab", "--model-dir", model_dir(fixture_dir),
                        "--corpus", str(fixture_dir / "corpus.txt"),
                        "--general-config", str(gcfg),
                        "--output-dir", str(tmp_path / "y")])
        assert code == 2
        capsys.readouterr()

    # a damaged checkpoint file exits 1; a checkpoint schema error and a bad mask exit 2
    @pytest.mark.parametrize("name,damage,code", [
        ("manifest.json", lambda raw: b"[1, 2]", 1),
        ("manifest.json", lambda raw: json.dumps(
            {"tensors": [1] + json.loads(raw)["tensors"][1:]}).encode(), 1),
        ("config.json", lambda raw: json.dumps({**json.loads(raw), "num_heads": None}).encode(), 2),
        ("config.json", lambda raw: b"\xff" + raw, 1),
        ("mask.json", lambda raw: raw[:len(raw) // 2], 2),
    ], ids=["manifest-array", "manifest-entries", "config-null-heads", "config-not-utf8",
            "mask-truncated"])
    def test_malformed_json_is_typed_error(self, name, damage, code, fixture_dir,
                                           tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(fixture_dir / "model", model)
        cfg_path = tmp_path / "t.json"
        cfg_path.write_text(json.dumps({"target_num_of_heads": 2, "target_ffn_size": 32,
                                        "pruning_method": "mask"}))
        (tmp_path / "mask.json").write_text(json.dumps(
            {"head_keep": [[True, True, False, False]] * 2, "ffn_keep": [[True] * 64] * 2}))
        path = (tmp_path if name == "mask.json" else model) / name
        path.write_bytes(damage(path.read_bytes()))
        assert run_cli(["prune-transformer", "--model-dir", str(model),
                        "--transformer-config", str(cfg_path),
                        "--mask-json", str(tmp_path / "mask.json"),
                        "--output-dir", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # text that is not UTF-8 exits 1: a DataError for a dataset or a corpus, a
    # VocabularyError for vocab.txt
    @pytest.mark.parametrize("command,name", [
        ("prune-transformer", "dataset.tsv"),
        ("summary", "vocab.txt"),
        ("prune-vocab", "corpus.txt"),
    ])
    def test_text_not_utf8_is_typed_error(self, command, name, fixture_dir, tmp_path,
                                          trm_config_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(fixture_dir / "model", model)
        for text in ("dataset.tsv", "corpus.txt"):
            shutil.copy(fixture_dir / text, tmp_path / text)
        path = (model if name == "vocab.txt" else tmp_path) / name
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2] + b"\xff" + raw[len(raw) // 2:])
        argv = [command, "--model-dir", str(model)]
        if command == "prune-transformer":
            argv += ["--transformer-config", str(trm_config_path),
                     "--dataset", str(tmp_path / "dataset.tsv")]
        if command == "prune-vocab":
            argv += ["--corpus", str(tmp_path / "corpus.txt")]
        if command != "summary":
            argv += ["--output-dir", str(tmp_path / "out")]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and "not UTF-8" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
