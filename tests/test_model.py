"""Model semantics: forward shapes, gate/surgery equivalence, serialization,
and parameter accounting."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from conftest import gates_from_drops, toy
from prunekit.checkpoint import load_model, save_model
from prunekit.configs import config_from_dict, config_to_dict
from prunekit.errors import (ConfigError, ContractError, CorruptionError,
                             InvalidIndexError, ShapeError, VocabularyError)
from prunekit.fixtures import FixtureSpec, build_model
from prunekit.model import (ModelConfig, build_gates, count_parameters,
                            count_parameters_from_config, encoder_forward, lm_forward,
                            named_tensors, remove_ffn_neurons, remove_heads,
                            remove_vocab_rows, task_forward)
from prunekit import tensor
from prunekit.tensor import Tape, Tensor, backward, mul, sum_all


def ids_batch(vocab, rows=2, n=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, len(vocab), size=(rows, n))


def per_head_reference(model, ids):
    """The encoder computed head by head in plain NumPy, straight from the spec."""
    d, dh = model.config.hidden_size, model.config.head_size

    def norm(v, gain, bias):
        c = v - v.mean(axis=-1, keepdims=True)
        return c / np.sqrt((c * c).mean(axis=-1, keepdims=True) + 1e-5) * gain.data + bias.data

    x = model.embedding.data[ids] + model.position_embedding.data[:ids.shape[1]]
    for layer in model.layers:
        att, mixed = layer.heads, np.zeros_like(x)
        for h in range(len(att)):
            rows = slice(h * dh, (h + 1) * dh)
            q, k, v = (x @ w.data[rows].T + b.data[rows]
                       for w, b in ((att.wq, att.bq), (att.wk, att.bk), (att.wv, att.bv)))
            s = q @ k.transpose(0, 2, 1) / np.sqrt(d)
            p = np.exp(s - s.max(axis=-1, keepdims=True))
            mixed += (p / p.sum(axis=-1, keepdims=True)) @ v @ att.wo.data[rows] + att.bo.data[h]
        x = norm(x + mixed, layer.ln1_gain, layer.ln1_bias)
        hidden = x @ layer.w1.data + layer.b1.data
        hidden = hidden * 0.5 * (1.0 + erf(hidden / np.sqrt(2.0)))
        x = norm(x + hidden @ layer.w2.data + layer.b2.data, layer.ln2_gain, layer.ln2_bias)
    return x


class TestForward:
    def test_matches_per_head_reference(self):
        model, vocab, spec = toy(num_layers=3)
        remove_heads(model, 0, range(spec.num_heads))   # an empty layer, an uneven
        remove_heads(model, 1, [2])                     # one and a full one
        ids = ids_batch(vocab, rows=3, n=11)
        np.testing.assert_allclose(encoder_forward(model, ids).data,
                                   per_head_reference(model, ids), rtol=0, atol=1e-12)

    def test_output_shapes(self):
        model, vocab, spec = toy()
        ids = ids_batch(vocab)
        assert encoder_forward(model, ids).shape == (2, 8, spec.hidden_size)
        assert task_forward(model, ids).shape == (2, spec.num_labels)

    def test_identical_rows_identical_logits(self):
        model, vocab, _ = toy()
        row = ids_batch(vocab, rows=1)
        both = np.vstack([row, row])
        logits = task_forward(model, both).data
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_batch_permutation_equivariance(self):
        model, vocab, _ = toy()
        ids = ids_batch(vocab, rows=4)
        perm = np.array([2, 0, 3, 1])
        base = task_forward(model, ids).data
        shuffled = task_forward(model, ids[perm]).data
        np.testing.assert_array_equal(shuffled, base[perm])

    def test_neutral_gates_bit_identical(self):
        model, vocab, _ = toy()
        ids = ids_batch(vocab)
        plain = encoder_forward(model, ids).data
        head_gates, ffn_gates = build_gates(model)
        gated = encoder_forward(model, ids, head_gates, ffn_gates).data
        assert plain.tobytes() == gated.tobytes()

    def test_token_id_out_of_range(self):
        model, vocab, _ = toy()
        bad = np.array([[0, len(vocab)]])
        with pytest.raises(VocabularyError):
            encoder_forward(model, bad)

    def test_sequence_too_long(self):
        model, vocab, spec = toy()
        ids = np.zeros((1, spec.max_seq_len + 1), dtype=np.int64)
        with pytest.raises(ContractError):
            encoder_forward(model, ids)

    def test_zero_rows_rejected(self):
        model, _, _ = toy()
        with pytest.raises(ContractError, match="row"):
            encoder_forward(model, np.zeros((0, 3), dtype=np.int64))

    def test_taped_forward_size_independent_of_head_count(self):
        # heads are computed as one stacked block, so the tape does not grow with H
        lengths = set()
        for heads in (1, 2, 4, 8):
            model, vocab, _ = toy(num_heads=heads)
            head_gates, ffn_gates = build_gates(model, requires_grad=True)
            tape = Tape()
            task_forward(model, ids_batch(vocab), head_gates, ffn_gates, tape)
            lengths.add(len(tape))
        assert len(lengths) == 1, lengths

    def test_gate_structure_validated(self):
        model, vocab, _ = toy()
        ids = ids_batch(vocab)
        head_gates, ffn_gates = build_gates(model)
        with pytest.raises(ShapeError):
            encoder_forward(model, ids, head_gates[:1], ffn_gates)
        with pytest.raises(ShapeError):
            encoder_forward(model, ids, [hg[:-1] for hg in head_gates], ffn_gates)
        short = [g for g in ffn_gates]
        from prunekit.tensor import Tensor
        short[0] = Tensor(np.ones(3))
        with pytest.raises(ShapeError):
            encoder_forward(model, ids, head_gates, short)


def _taped_task_loss(model, ids, tape):
    """Gates that require grad, and a loss every logit reaches."""
    head_gates, ffn_gates = build_gates(model, requires_grad=True)
    logits = task_forward(model, ids, head_gates, ffn_gates, tape)
    w = Tensor(np.random.default_rng(7).normal(size=logits.shape))
    return head_gates + [ffn_gates], sum_all(mul(logits, w, tape), tape)


class TestCopyFreeBackward:
    def test_forward_leaves_inputs_untouched(self):
        model, vocab, _ = toy()
        ids = ids_batch(vocab, rows=3, n=9)
        before = [t.data.tobytes() for _, t in named_tensors(model)] + [ids.tobytes()]
        task_forward(model, ids)
        tape = Tape()
        _, loss = _taped_task_loss(model, ids, tape)
        backward(tape, loss)
        after = [t.data.tobytes() for _, t in named_tensors(model)] + [ids.tobytes()]
        assert after == before

    def test_gradients_are_owned(self, monkeypatch):
        # every array _accumulate stores is writeable, C-ordered, and shares
        # memory with no other live gradient except the output gradient of
        # the op handing it over (which backward releases right after)
        model, vocab, _ = toy()
        tape = Tape()
        gates, loss = _taped_task_loss(model, ids_batch(vocab, rows=3, n=9), tape)
        tensors = {id(t): t for rec in tape._records for t in (rec.out, *rec.inputs)}
        running = [None]
        for i, rec in enumerate(tape._records):
            def fn(g, rec=rec):
                running[0] = rec.out
                rec.fn(g)
            tape._records[i] = rec._replace(fn=fn)
        accumulate, stored = tensor._accumulate, []

        def checked(t, g):
            fresh = t.grad is None
            accumulate(t, g)
            if not fresh or t.grad is None:
                return
            stored.append(t)
            assert t.grad.flags.writeable and t.grad.flags.c_contiguous
            for other in tensors.values():
                if other is not t and other is not running[0] and other.grad is not None:
                    assert not np.shares_memory(t.grad, other.grad), (t, other)

        monkeypatch.setattr(tensor, "_accumulate", checked)
        backward(tape, loss)
        assert len(stored) > len(tape)
        leaves = [t for _, t in named_tensors(model)] + [g for layer in gates for g in layer]
        grads = [t.grad for t in leaves]
        assert all(g is not None and g.flags.writeable for g in grads)
        for i, g in enumerate(grads):
            assert not any(np.shares_memory(g, h) for h in grads[i + 1:])

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_scoring_tape_record_count(self, layers):
        # gates require grad, weights are frozen. Layer 0 records 15 ops: its
        # input needs no gradient, so its Q/K/V projections and attention core
        # are not recorded. Every later layer records 25: 3 projections, 3
        # splits, scores, scale, softmax, context, then the 15. The head adds
        # select_first and the classifier. Each bias is part of its matmul's
        # record; recorded as separate adds they cost 5 records per layer (2 in
        # layer 0) and 1 for the classifier.
        model, vocab, _ = toy(num_layers=layers)
        for _, t in named_tensors(model):
            t.requires_grad = False
        head_gates, ffn_gates = build_gates(model, requires_grad=True)
        tape = Tape()
        task_forward(model, ids_batch(vocab), head_gates, ffn_gates, tape)
        assert len(tape) == 15 + 25 * (layers - 1) + 2


class TestSurgery:
    def test_remove_nothing_is_noop(self):
        model, vocab, _ = toy()
        ids = ids_batch(vocab)
        before = task_forward(model, ids).data
        remove_heads(model, 0, [])
        remove_ffn_neurons(model, 1, [])
        after = task_forward(model, ids).data
        assert before.tobytes() == after.tobytes()

    def test_removed_head_equals_zero_gate(self):
        model, vocab, _ = toy()
        ids = ids_batch(vocab)
        gates = gates_from_drops(model, head_drops={0: [1], 1: [0, 3]})
        gated = task_forward(model, ids, *gates).data
        pruned = model.clone()
        remove_heads(pruned, 0, [1])
        remove_heads(pruned, 1, [0, 3])
        np.testing.assert_allclose(task_forward(pruned, ids).data, gated,
                                   rtol=0, atol=1e-10)

    def test_remove_all_heads_leaves_residual_path(self):
        model, vocab, spec = toy()
        ids = ids_batch(vocab)
        gates = gates_from_drops(model, head_drops={0: list(range(spec.num_heads))})
        gated = task_forward(model, ids, *gates).data
        pruned = model.clone()
        remove_heads(pruned, 0, range(spec.num_heads))
        assert pruned.config.num_heads == [0, spec.num_heads]
        np.testing.assert_allclose(task_forward(pruned, ids).data, gated,
                                   rtol=0, atol=1e-10)

    def test_backward_through_empty_layer(self):
        # a layer with no heads still carries zero-width attention tensors
        model, vocab, spec = toy()
        remove_heads(model, 0, range(spec.num_heads))
        tape = Tape()
        logits = task_forward(model, ids_batch(vocab), tape=tape)
        backward(tape, sum_all(logits, tape))
        assert model.layers[0].heads.wo.grad.shape == (0, spec.hidden_size)
        assert np.isfinite(model.layers[1].heads.wq.grad).all()

    def test_removed_ffn_neuron_equals_zero_gate(self):
        model, vocab, _ = toy()
        ids = ids_batch(vocab)
        gates = gates_from_drops(model, ffn_drops={0: [5, 17], 1: [0]})
        gated = task_forward(model, ids, *gates).data
        pruned = model.clone()
        remove_ffn_neurons(pruned, 0, [5, 17])
        remove_ffn_neurons(pruned, 1, [0])
        np.testing.assert_allclose(task_forward(pruned, ids).data, gated,
                                   rtol=0, atol=1e-10)

    def test_halving_ffn_halves_ffn_total(self):
        model, _, spec = toy()
        before = count_parameters(model)["ffn_total"]
        for l in range(spec.num_layers):
            remove_ffn_neurons(model, l, range(spec.ffn_size // 2))
        after = count_parameters(model)["ffn_total"]
        assert after * 2 == before

    def test_surgery_order_commutes(self):
        a, _, _ = toy()
        b = a.clone()
        remove_heads(a, 0, [2])
        remove_ffn_neurons(a, 0, [3, 4])
        remove_ffn_neurons(b, 0, [3, 4])
        remove_heads(b, 0, [2])
        for (name_a, ta), (name_b, tb) in zip(named_tensors(a), named_tensors(b)):
            assert name_a == name_b
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_bad_indices_rejected(self):
        model, _, spec = toy()
        with pytest.raises(InvalidIndexError):
            remove_heads(model, 0, [0, 0])
        with pytest.raises(InvalidIndexError):
            remove_heads(model, 0, [spec.num_heads])
        with pytest.raises(InvalidIndexError):
            remove_heads(model, 99, [0])
        with pytest.raises(InvalidIndexError):
            remove_ffn_neurons(model, 0, [-1])

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_random_mask_gating_matches_surgery(self, seed):
        model, vocab, spec = toy(seed=seed % 7)
        rng = np.random.default_rng(seed)
        head_drops = {l: sorted(rng.choice(spec.num_heads,
                                           size=rng.integers(0, spec.num_heads),
                                           replace=False).tolist())
                      for l in range(spec.num_layers)}
        ffn_drops = {l: sorted(rng.choice(spec.ffn_size,
                                          size=rng.integers(0, spec.ffn_size // 2),
                                          replace=False).tolist())
                     for l in range(spec.num_layers)}
        ids = ids_batch(vocab, seed=seed)
        gated = task_forward(model, ids, *gates_from_drops(model, head_drops, ffn_drops)).data
        pruned = model.clone()
        for l, idx in head_drops.items():
            remove_heads(pruned, l, idx)
        for l, idx in ffn_drops.items():
            remove_ffn_neurons(pruned, l, idx)
        np.testing.assert_allclose(task_forward(pruned, ids).data, gated,
                                   rtol=0, atol=1e-10)


class TestVocabSurgery:
    def test_mapping_and_logit_equivalence(self):
        model, vocab, _ = toy()
        kept = [i for i in range(len(vocab)) if i % 3 != 1 or i < 8]
        ids_old = np.array([[k] for k in kept[:6]]).T  # (1, 6) of surviving ids
        before = task_forward(model, ids_old).data
        mapping = remove_vocab_rows(model.clone(), kept)  # mapping only
        pruned = model.clone()
        assert remove_vocab_rows(pruned, kept) == mapping
        assert mapping == {old: new for new, old in enumerate(kept)}
        ids_new = np.vectorize(mapping.get)(ids_old)
        np.testing.assert_allclose(task_forward(pruned, ids_new).data, before,
                                   rtol=0, atol=1e-10)
        assert pruned.config.vocab_size == len(kept)

    def test_identity_keep_is_noop(self):
        model, vocab, _ = toy()
        ids = ids_batch(vocab)
        before = task_forward(model, ids).data
        mapping = remove_vocab_rows(model, list(range(len(vocab))))
        assert mapping == {i: i for i in range(len(vocab))}
        assert task_forward(model, ids).data.tobytes() == before.tobytes()

    def test_empty_keep_rejected(self):
        model, _, _ = toy()
        with pytest.raises(ContractError):
            remove_vocab_rows(model, [])

    def test_tied_lm_head_follows_embedding(self):
        model, vocab, spec = toy(has_lm_head=True, lm_head_tied=True)
        ids = ids_batch(vocab, rows=1, n=4)
        kept = list(range(0, len(vocab), 2))
        logits_before = lm_forward(model, ids).data
        mapping = remove_vocab_rows(model, kept)
        ids_new = np.vectorize(mapping.get)(ids) if all(int(i) in mapping for i in ids.ravel()) else None
        assert model.config.lm_vocab_size == len(kept)
        assert model.lm_bias.shape == (len(kept),)
        if ids_new is not None:
            after = lm_forward(model, ids_new).data
            np.testing.assert_allclose(after, logits_before[:, :, kept], rtol=0, atol=1e-10)

    def test_untied_lm_head_respects_flag(self):
        model, vocab, _ = toy(has_lm_head=True, lm_head_tied=False)
        v = len(vocab)
        kept = list(range(v // 2))
        spared = model.clone()
        remove_vocab_rows(spared, kept, prune_lm_head=False)
        assert spared.lm_head.shape == (v, 32)
        assert spared.config.lm_vocab_size == v
        assert spared.config.vocab_size == v // 2
        pruned = model.clone()
        remove_vocab_rows(pruned, kept, prune_lm_head=True)
        assert pruned.lm_head.shape == (v // 2, 32)
        assert pruned.config.lm_vocab_size == v // 2


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model, _, _ = toy()
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        for (na, ta), (nb, tb) in zip(named_tensors(model), named_tensors(loaded)):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes()
        assert loaded.config == model.config

    def test_roundtrip_after_pruning(self, tmp_path):
        model, _, _ = toy(has_lm_head=True, lm_head_tied=False)
        remove_heads(model, 0, [0, 2])
        remove_ffn_neurons(model, 1, range(10))
        remove_vocab_rows(model, list(range(40)), prune_lm_head=False)
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        assert loaded.config == model.config
        for (_, ta), (_, tb) in zip(named_tensors(model), named_tensors(loaded)):
            assert ta.data.tobytes() == tb.data.tobytes()

    # sha256 of the default fixture's checkpoint files, and of the same model
    # after removing heads 0 and 2 of layer 0 and every head of layer 1, as
    # written before attention was stored stacked: the format must not change
    FORMAT_PINS = [
        ({}, "4f6a7a90af8fcef7fbcda57969b8b99f4162cd8fa9d7d833e8e10577a79b4a70",
         "3da9fe50df08d9b4d65a4c9a76ce8e73eb403b008bd51db5ed1e1296acbaee87"),
        ({0: [0, 2], 1: [0, 1, 2, 3]},
         "2e60252b1df4fa68c4b83c6f2a8bed67e1cf16bd04a13cceac826c493b2c345d",
         "c7d1c076ec75fdfac1100a3bebc17249a7b05e76185979d0ded7571afef65254"),
    ]

    @pytest.mark.parametrize("drops,weights_sha,manifest_sha", FORMAT_PINS)
    def test_format_bytes_pinned(self, tmp_path, drops, weights_sha, manifest_sha):
        model = build_model(FixtureSpec())
        for layer, heads in drops.items():
            remove_heads(model, layer, heads)
        save_model(model, tmp_path / "m")
        digest = lambda f: hashlib.sha256((tmp_path / "m" / f).read_bytes()).hexdigest()
        assert digest("weights.bin") == weights_sha
        assert digest("manifest.json") == manifest_sha

    def test_truncated_weights_rejected(self, tmp_path):
        model, _, _ = toy()
        save_model(model, tmp_path / "m")
        wpath = tmp_path / "m" / "weights.bin"
        wpath.write_bytes(wpath.read_bytes()[:-16])
        # the last tensor, classifier.bias, holds 24 bytes: the file ends inside it
        with pytest.raises(CorruptionError, match=r"truncated at tensor classifier\.bias"):
            load_model(tmp_path / "m")

    def test_oversized_weights_rejected(self, tmp_path):
        model, _, _ = toy()
        save_model(model, tmp_path / "m")
        wpath = tmp_path / "m" / "weights.bin"
        size = wpath.stat().st_size
        wpath.write_bytes(wpath.read_bytes() + bytes(8))
        with pytest.raises(CorruptionError, match=f"holds {size + 8} bytes"):
            load_model(tmp_path / "m")

    def test_manifest_shape_mismatch_names_tensor(self, tmp_path):
        import json
        model, _, _ = toy()
        save_model(model, tmp_path / "m")
        mpath = tmp_path / "m" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["tensors"][3]["shape"][0] += 1
        mpath.write_text(json.dumps(manifest))
        name = manifest["tensors"][3]["name"]
        with pytest.raises(CorruptionError, match=name.replace(".", r"\.")):
            load_model(tmp_path / "m")


class TestCounting:
    def test_hand_computed_totals(self):
        # d=32, dh=8: per head 4*8*32 + 3*8 + 32 = 1080; ffn (65)*128 = 8320
        model, _, _ = toy()
        counts = count_parameters(model)
        assert counts["heads_total"] == 2 * 4 * 1080
        assert counts["ffn_total"] == 65 * 128
        assert counts["embedding"] == 64 * 32 + 64 * 32
        assert counts["task_head"] == 32 * 3 + 3
        assert counts["transformer"] == counts["heads_total"] + counts["ffn_total"] + 2 * 5 * 32
        assert counts["total"] == counts["embedding"] + counts["transformer"] + counts["task_head"]
        assert counts["total"] == sum(t.size for _, t in named_tensors(model))

    def test_config_counting_matches_model(self):
        model, _, spec = toy(has_lm_head=True, lm_head_tied=False)
        remove_heads(model, 0, [1])
        remove_ffn_neurons(model, 0, [0, 1, 2])
        assert count_parameters_from_config(model.config) == count_parameters(model)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_layers=2, hidden_size=0, head_size=8, num_heads=4,
                        ffn_size=64, vocab_size=64, max_seq_len=64, num_labels=3)
        with pytest.raises(ConfigError):
            ModelConfig(num_layers=2, hidden_size=32, head_size=8, num_heads=[4],
                        ffn_size=[64, 64], vocab_size=64, max_seq_len=64, num_labels=3)
        with pytest.raises(ConfigError, match="missing required key"):
            config_from_dict(ModelConfig, {"num_layers": 1})
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            config_from_dict(ModelConfig, {**config_to_dict(toy()[0].config), "bogus": 1})
        for widths in (None, "4", 4.0):
            with pytest.raises(ConfigError, match="num_heads must be an int or a list"):
                ModelConfig(num_layers=2, hidden_size=32, head_size=8, num_heads=widths,
                            ffn_size=64, vocab_size=64, max_seq_len=64, num_labels=3)

    def test_lm_head_param_accounting(self):
        tied, _, _ = toy(has_lm_head=True, lm_head_tied=True)
        untied, _, _ = toy(has_lm_head=True, lm_head_tied=False)
        plain, _, _ = toy()
        c_plain = count_parameters(plain)["embedding"]
        assert count_parameters(tied)["embedding"] == c_plain + 64
        assert count_parameters(untied)["embedding"] == c_plain + 64 * 32 + 64
