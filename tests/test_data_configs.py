"""Config parsing strictness and dataset loading semantics."""

from __future__ import annotations

import json

import numpy as np
import pytest

from prunekit.configs import (GeneralConfig, TransformerPruningConfig,
                              VocabularyPruningConfig, config_from_dict,
                              config_to_dict, load_config)
from prunekit.data import load_dataset
from prunekit.errors import ConfigError, ContractError, DataError
from prunekit.vocab import SPECIAL_TOKENS, Vocabulary

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


@pytest.fixture
def vocab():
    return Vocabulary(list(SPECIAL_TOKENS) + WORDS)


def write_tsv(path, rows):
    path.write_text("".join(f"{lab}\t{text}\n" for lab, text in rows))
    return path


class TestConfigDataclasses:
    def test_defaults(self):
        v = VocabularyPruningConfig()
        assert v.min_count == 1 and v.prune_lm_head is True
        t = TransformerPruningConfig(target_num_of_heads=8, target_ffn_size=2048)
        assert (t.pruning_method, t.n_iters) == ("iterative", 1)
        assert t.head_even_masking and t.ffn_even_masking
        assert (t.multiple_of, t.use_logits, t.score_granularity) == (1, False, "batch")
        g = GeneralConfig()
        assert (g.device, g.output_dir) == ("cpu", "pruned_model")

    @pytest.mark.parametrize("bad", [
        dict(target_num_of_heads=0, target_ffn_size=2048),
        dict(target_num_of_heads=8, target_ffn_size=0),
        dict(target_num_of_heads=8, target_ffn_size=2048, n_iters=0),
        dict(target_num_of_heads=8, target_ffn_size=2048, multiple_of=0),
        dict(target_num_of_heads=8, target_ffn_size=2048, pruning_method="oneshot"),
        dict(target_num_of_heads=8, target_ffn_size=2048, score_granularity="token"),
    ])
    def test_transformer_validation(self, bad):
        with pytest.raises(ConfigError):
            TransformerPruningConfig(**bad)

    def test_multiple_of_requires_uneven_ffn(self):
        with pytest.raises(ConfigError, match="ffn_even_masking"):
            TransformerPruningConfig(target_num_of_heads=8, target_ffn_size=2048,
                                     multiple_of=4)
        cfg = TransformerPruningConfig(target_num_of_heads=8, target_ffn_size=2048,
                                       multiple_of=4, ffn_even_masking=False)
        assert cfg.multiple_of == 4

    def test_negative_min_count(self):
        with pytest.raises(ConfigError):
            VocabularyPruningConfig(min_count=-1)

    def test_cuda_rejected_at_parse(self):
        with pytest.raises(ConfigError, match="cpu"):
            GeneralConfig(device="cuda")
        assert GeneralConfig().device == "cpu"

    def test_unknown_device(self):
        with pytest.raises(ConfigError):
            GeneralConfig(device="tpu")


class TestConfigParsing:
    def test_full_parse_and_roundtrip(self, tmp_path):
        data = {"target_num_of_heads": 8, "target_ffn_size": 2048,
                "pruning_method": "iterative", "n_iters": 16,
                "head_even_masking": True, "ffn_even_masking": False,
                "multiple_of": 4, "use_logits": True,
                "score_granularity": "example"}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(data))
        cfg = load_config(path, TransformerPruningConfig)
        assert config_to_dict(cfg) == data
        assert config_from_dict(TransformerPruningConfig, config_to_dict(cfg)) == cfg

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="taget_ffn_size"):
            config_from_dict(TransformerPruningConfig,
                             {"target_num_of_heads": 8, "taget_ffn_size": 2048})

    def test_missing_required_key_is_named(self):
        with pytest.raises(ConfigError, match="target_ffn_size"):
            config_from_dict(TransformerPruningConfig, {"target_num_of_heads": 8})

    @pytest.mark.parametrize("key,value", [
        ("target_ffn_size", "big"),
        ("target_ffn_size", True),
        ("use_logits", 1),
        ("pruning_method", 7),
    ])
    def test_wrong_type_is_named(self, key, value):
        data = {"target_num_of_heads": 8, "target_ffn_size": 2048, key: value}
        with pytest.raises(ConfigError, match=key):
            config_from_dict(TransformerPruningConfig, data)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "min_count": 2,\n  "prune_lm_head": tru\n}\n')
        with pytest.raises(ConfigError, match="line 3"):
            load_config(path, VocabularyPruningConfig)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(path, GeneralConfig)


class TestLoadDataset:
    def test_batching_and_framing(self, vocab, tmp_path):
        path = write_tsv(tmp_path / "d.tsv",
                         [(0, "alpha beta"), (1, "gamma"), (2, "delta epsilon zeta"),
                          (1, "alpha"), (0, "beta gamma")])
        ds = load_dataset(path, vocab, batch_size=2, max_len=16, labeled=True)
        assert [b.size for b in ds.batches] == [2, 2, 1]
        assert ds.num_examples == 5 and ds.labeled and ds.batch_size == 2
        first = ds.batches[0]
        expect = [vocab.cls_id, vocab.id_of("alpha"), vocab.id_of("beta"), vocab.sep_id]
        np.testing.assert_array_equal(first.token_ids[0], expect)
        # "gamma" is shorter, padded to the batch width with pad_id
        np.testing.assert_array_equal(
            first.token_ids[1],
            [vocab.cls_id, vocab.id_of("gamma"), vocab.sep_id, vocab.pad_id])
        np.testing.assert_array_equal(first.labels, [0, 1])

    def test_per_batch_padding_width(self, vocab, tmp_path):
        path = write_tsv(tmp_path / "d.tsv",
                         [(0, "alpha beta gamma delta"), (0, "alpha"),
                          (0, "beta"), (0, "gamma")])
        ds = load_dataset(path, vocab, batch_size=2, max_len=16, labeled=True)
        assert ds.batches[0].token_ids.shape[1] == 6
        assert ds.batches[1].token_ids.shape[1] == 3

    def test_truncation_to_max_len(self, vocab, tmp_path):
        path = write_tsv(tmp_path / "d.tsv", [(0, "alpha beta gamma delta epsilon")])
        ds = load_dataset(path, vocab, batch_size=1, max_len=4, labeled=True)
        row = ds.batches[0].token_ids[0]
        assert row.shape == (4,)
        assert row[0] == vocab.cls_id and row[-1] == vocab.sep_id
        np.testing.assert_array_equal(row[1:3], [vocab.id_of("alpha"), vocab.id_of("beta")])

    def test_unlabeled_plain_text(self, vocab, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("alpha beta\ngamma\n")
        ds = load_dataset(path, vocab, batch_size=2, max_len=8, labeled=False)
        assert not ds.labeled and ds.batches[0].labels is None

    def test_bad_label_reports_row(self, vocab, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("0\talpha\n1\tbeta\nx\tgamma\n")
        with pytest.raises(DataError, match="row 3"):
            load_dataset(path, vocab, batch_size=2, max_len=8, labeled=True)

    def test_missing_tab_reports_row(self, vocab, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("0\talpha\nbeta gamma\n")
        with pytest.raises(DataError, match="row 2"):
            load_dataset(path, vocab, batch_size=2, max_len=8, labeled=True)

    def test_not_utf8_is_data_error(self, vocab, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_bytes(b"0\talpha\n1\tbe\xfft\n")
        with pytest.raises(DataError, match="not UTF-8 text at byte 12"):
            load_dataset(path, vocab, batch_size=2, max_len=8, labeled=True)

    def test_empty_file_rejected(self, vocab, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("")
        with pytest.raises(ContractError, match="empty"):
            load_dataset(path, vocab, batch_size=2, max_len=8, labeled=True)

    @pytest.mark.parametrize("kwargs", [
        dict(batch_size=0, max_len=8), dict(batch_size=2, max_len=1),
        dict(batch_size=2, max_len=8, subsample=0.0),
        dict(batch_size=2, max_len=8, subsample=1.5),
    ])
    def test_argument_validation(self, vocab, tmp_path, kwargs):
        path = write_tsv(tmp_path / "d.tsv", [(0, "alpha")])
        with pytest.raises(ContractError):
            load_dataset(path, vocab, labeled=True, **kwargs)

    def test_subsample_deterministic_and_ordered(self, vocab, tmp_path):
        rows = [(i % 3, WORDS[i % len(WORDS)]) for i in range(20)]
        path = write_tsv(tmp_path / "d.tsv", rows)
        a = load_dataset(path, vocab, batch_size=4, max_len=8, labeled=True,
                         subsample=0.5, seed=7)
        b = load_dataset(path, vocab, batch_size=4, max_len=8, labeled=True,
                         subsample=0.5, seed=7)
        assert a.num_examples == 10
        for ba, bb in zip(a.batches, b.batches):
            np.testing.assert_array_equal(ba.token_ids, bb.token_ids)
            np.testing.assert_array_equal(ba.labels, bb.labels)
        c = load_dataset(path, vocab, batch_size=4, max_len=8, labeled=True,
                         subsample=0.5, seed=8)
        assert any(not np.array_equal(x.labels, y.labels)
                   for x, y in zip(a.batches, c.batches))
        # kept examples appear in file order: labels follow the i % 3 pattern
        full = load_dataset(path, vocab, batch_size=20, max_len=8, labeled=True)
        picked_labels = np.concatenate([b.labels for b in a.batches])
        all_labels = full.batches[0].labels
        idx = 0
        for lab in picked_labels:
            while all_labels[idx] != lab:
                idx += 1
            idx += 1  # consumed one occurrence; order must be non-decreasing

    def test_subsample_keeps_at_least_one(self, vocab, tmp_path):
        path = write_tsv(tmp_path / "d.tsv", [(0, "alpha"), (1, "beta")])
        ds = load_dataset(path, vocab, batch_size=2, max_len=8, labeled=True,
                          subsample=0.01)
        assert ds.num_examples == 1
