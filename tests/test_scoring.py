"""Loss oracles (closed forms and finite differences) and compute_scores
semantics: zero-unit detection, threading, granularity, determinism."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import assert_grads_close, numeric_grad, toy
from prunekit.data import load_dataset
from prunekit.errors import (ConfigError, ContractError, ShapeError)
from prunekit.fixtures import build_dataset_rows
from prunekit.model import build_gates, named_tensors, task_forward
from prunekit.scoring import (LossSpec, ScoreTable, compute_scores, cross_entropy,
                              kl_loss, reference_logits)
from prunekit.tensor import Tape, Tensor, backward


def tiny_dataset(tmp_path, vocab, spec, *, rows=8, batch_size=4, max_len=16):
    path = tmp_path / "d.tsv"
    path.write_text("".join(r + "\n" for r in build_dataset_rows(spec)[:rows]))
    return load_dataset(path, vocab, batch_size=batch_size, max_len=max_len, labeled=True)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy(Tensor(np.zeros((4, 3))), [0, 1, 2, 0])
        assert abs(float(loss.data) - math.log(3.0)) < 1e-12

    def test_two_class_closed_form(self):
        logits = Tensor(np.array([[10.0, -10.0]]))
        easy = float(cross_entropy(logits, [0]).data)
        hard = float(cross_entropy(logits, [1]).data)
        assert abs(easy - math.log1p(math.exp(-20.0))) < 1e-12
        assert abs(hard - (20.0 + math.log1p(math.exp(-20.0)))) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 7))
        labels = rng.integers(0, 7, size=5)
        a = float(cross_entropy(Tensor(x), labels).data)
        b = float(cross_entropy(Tensor(x + 1000.0), labels).data)
        assert abs(a - b) < 1e-9

    def test_batch_mean(self):
        x = np.array([[1.0, -2.0, 0.5]])
        single = float(cross_entropy(Tensor(x), [2]).data)
        tripled = float(cross_entropy(Tensor(np.repeat(x, 3, axis=0)), [2, 2, 2]).data)
        assert abs(single - tripled) < 1e-12

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5))
        labels = np.array([0, 4, 2])
        t = Tensor(x.copy(), requires_grad=True)
        tape = Tape()
        backward(tape, cross_entropy(t, labels, tape))
        numeric = numeric_grad(
            lambda: float(cross_entropy(Tensor(t.data), labels).data), t.data)
        assert_grads_close(t.grad, numeric, label="cross_entropy")

    def test_input_validation(self):
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros(3)), [0])
        with pytest.raises(ShapeError):
            cross_entropy(Tensor(np.zeros((2, 3))), [0])
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0.0, 1.0]))
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((2, 3))), [-1, 0])


class TestKLLoss:
    def test_identical_logits_give_exactly_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 6)) * 5.0
        assert float(kl_loss(Tensor(x), Tensor(x.copy())).data) == 0.0

    def test_closed_form(self):
        # q = [1/2, 1/2], p = [1/4, 3/4]: KL = 0.5 ln 2 + 0.5 ln(2/3)
        q = Tensor(np.array([[0.0, 0.0]]))
        p = Tensor(np.array([[0.0, math.log(3.0)]]))
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert abs(float(kl_loss(q, p).data) - expected) < 1e-12

    def test_mean_over_rows(self):
        q = np.array([[0.0, 0.0]])
        p = np.array([[0.0, 1.0]])
        one = float(kl_loss(Tensor(q), Tensor(p)).data)
        many = float(kl_loss(Tensor(np.repeat(q, 5, axis=0)),
                             Tensor(np.repeat(p, 5, axis=0))).data)
        assert abs(one - many) < 1e-12

    def test_three_dim_rows(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(2, 2, 4))
        p = rng.normal(size=(2, 2, 4))
        whole = float(kl_loss(Tensor(q), Tensor(p)).data)
        per_row = np.mean([float(kl_loss(Tensor(q[i, j][None]), Tensor(p[i, j][None])).data)
                           for i in range(2) for j in range(2)])
        assert abs(whole - per_row) < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            q = Tensor(rng.normal(size=(3, 5)) * 3.0)
            p = Tensor(rng.normal(size=(3, 5)) * 3.0)
            assert float(kl_loss(q, p).data) >= 0.0

    def test_gradient_reaches_only_p(self):
        rng = np.random.default_rng(5)
        q = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        p = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        tape = Tape()
        backward(tape, kl_loss(q, p, tape))
        assert q.grad is None
        assert p.grad is not None and np.abs(p.grad).max() > 0

    def test_p_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        q = Tensor(rng.normal(size=(3, 4)))
        p = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        tape = Tape()
        backward(tape, kl_loss(q, p, tape))
        numeric = numeric_grad(lambda: float(kl_loss(q, Tensor(p.data)).data), p.data)
        assert_grads_close(p.grad, numeric, label="kl_loss")

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            kl_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


class TestLossSpec:
    def test_kinds(self):
        assert LossSpec.supervised().kind == "cross_entropy"
        assert LossSpec.self_supervised().kind == "kl_divergence"
        with pytest.raises(ConfigError):
            LossSpec(kind="mse")
        with pytest.raises(ConfigError):
            LossSpec(kind="cross_entropy", reference_logits=[np.zeros((1, 2))])


class TestComputeScores:
    def test_zeroed_head_scores_zero(self, tmp_path):
        model, vocab, spec = toy()
        heads, dh = model.layers[0].heads, spec.hidden_size // spec.num_heads
        heads.wo.data[dh:2 * dh] = 0.0
        heads.bo.data[1] = 0.0
        ds = tiny_dataset(tmp_path, vocab, spec)
        table = compute_scores(model, ds, LossSpec.supervised())
        assert table.head_scores[0][1] == 0.0
        assert table.head_scores[0][0] > 0.0
        assert all(np.all(s > 0) for s in table.ffn_scores)

    @pytest.mark.parametrize("kind", ["cross_entropy", "kl_divergence"])
    def test_scores_match_finite_difference_on_gates(self, tmp_path, kind):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec, rows=4, batch_size=4)
        batch = ds.batches[0]
        if kind == "cross_entropy":
            spec_loss = LossSpec.supervised()
            reference = None
        else:
            reference = task_forward(model, batch.token_ids).data
            spec_loss = LossSpec.self_supervised([reference])

        table = compute_scores(model, ds, spec_loss)

        def loss_at(head_overrides=None, ffn_overrides=None):
            head_gates, ffn_gates = build_gates(model)
            for (l, h), v in (head_overrides or {}).items():
                head_gates[l][h] = Tensor(v)
            for (l, i), v in (ffn_overrides or {}).items():
                ffn_gates[l].data[i] = v
            logits = task_forward(model, batch.token_ids, head_gates, ffn_gates)
            if kind == "cross_entropy":
                return float(cross_entropy(logits, batch.labels).data)
            return float(kl_loss(Tensor(reference), logits).data)

        h = 1e-4
        for l, hd in [(0, 0), (1, 2)]:
            numeric = (loss_at({(l, hd): 1 + h}) - loss_at({(l, hd): 1 - h})) / (2 * h)
            assert_grads_close(np.array(table.head_scores[l][hd]), np.abs(numeric),
                               rel=1e-3, floor=1e-8, label=f"head ({l},{hd}) {kind}")
        for l, i in [(0, 3), (1, 17)]:
            numeric = (loss_at(ffn_overrides={(l, i): 1 + h})
                       - loss_at(ffn_overrides={(l, i): 1 - h})) / (2 * h)
            assert_grads_close(np.array(table.ffn_scores[l][i]), np.abs(numeric),
                               rel=1e-3, floor=1e-8, label=f"ffn ({l},{i}) {kind}")

    def test_kl_self_reference_scores_vanish(self, tmp_path):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec)
        table = compute_scores(model, ds, LossSpec.self_supervised())
        assert np.abs(table.flattened()).max() < 1e-10

    def test_kl_own_logits_equal_explicit_reference(self, tmp_path):
        # at batch granularity the taped logits are the untaped reference, bit for bit
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec, rows=8, batch_size=4)
        reference = reference_logits(model, ds)
        own = compute_scores(model, ds, LossSpec.self_supervised())
        given = compute_scores(model, ds, LossSpec.self_supervised(reference))
        assert own.flattened().tobytes() == given.flattened().tobytes()
        for table in (own, given):
            assert [r.tobytes() for r in table.reference_logits] == \
                [r.tobytes() for r in reference]

    def test_returned_reference_per_batch(self, tmp_path):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec, rows=6, batch_size=4)
        table = compute_scores(model, ds, LossSpec.self_supervised(), granularity="example")
        assert [r.shape for r in table.reference_logits] == \
            [(b.size, spec.num_labels) for b in ds]
        np.testing.assert_allclose(np.concatenate(table.reference_logits),
                                   np.concatenate(reference_logits(model, ds)),
                                   rtol=0, atol=1e-12)
        assert compute_scores(model, ds, LossSpec.supervised()).reference_logits is None

    def test_batch_order_invariance(self, tmp_path):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec, rows=8, batch_size=4)
        forward = compute_scores(model, ds, LossSpec.supervised())
        ds.batches.reverse()
        backward_order = compute_scores(model, ds, LossSpec.supervised())
        assert np.abs(forward.flattened() - backward_order.flattened()).max() < 1e-12

    def test_thread_count_invariance(self, tmp_path):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec, rows=8, batch_size=2)
        one = compute_scores(model, ds, LossSpec.supervised(), threads=1)
        four = compute_scores(model, ds, LossSpec.supervised(), threads=4)
        np.testing.assert_array_equal(one.flattened(), four.flattened())

    def test_example_granularity_equals_singleton_batches(self, tmp_path):
        # uniform row lengths so grouped and singleton padding widths agree
        # (attention spans pad positions, so width is semantically relevant)
        model, vocab, spec = toy()
        rows = ["0\tthe cat sat", "1\tdog ran fast", "2\train fell all",
                "0\ttree grew tall", "1\tbird sang loud", "2\tfish swam deep"]
        path = tmp_path / "uniform.tsv"
        path.write_text("".join(r + "\n" for r in rows))
        grouped = load_dataset(path, vocab, batch_size=3, max_len=16, labeled=True)
        singles = load_dataset(path, vocab, batch_size=1, max_len=16, labeled=True)
        a = compute_scores(model, grouped, LossSpec.supervised(), granularity="example")
        b = compute_scores(model, singles, LossSpec.supervised(), granularity="batch")
        assert a.units_averaged == b.units_averaged == 6
        np.testing.assert_array_equal(a.flattened(), b.flattened())

    def test_determinism(self, tmp_path):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec)
        a = compute_scores(model, ds, LossSpec.supervised())
        b = compute_scores(model, ds, LossSpec.supervised())
        np.testing.assert_array_equal(a.flattened(), b.flattened())

    def test_scores_nonnegative_finite_and_shaped(self, tmp_path):
        model, vocab, spec = toy(seed=3)
        ds = tiny_dataset(tmp_path, vocab, spec)
        table = compute_scores(model, ds, LossSpec.supervised())
        assert len(table.head_scores) == len(model.layers)
        for l, layer in enumerate(model.layers):
            assert table.head_scores[l].shape == (len(layer.heads),)
            assert table.ffn_scores[l].shape == (layer.b1.shape[0],)
        flat = table.flattened()
        assert np.isfinite(flat).all() and (flat >= 0).all()
        assert table.units_averaged == len(ds.batches)
        assert table.num_examples == ds.num_examples

    def test_weights_untouched_after_scoring(self, tmp_path):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec)
        before = {name: t.data.copy() for name, t in named_tensors(model)}
        compute_scores(model, ds, LossSpec.supervised())
        for name, t in named_tensors(model):
            assert t.requires_grad, name
            assert t.grad is None, name
            np.testing.assert_array_equal(t.data, before[name])

    def test_validation_errors(self, tmp_path):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec)
        with pytest.raises(ConfigError):
            compute_scores(model, ds, LossSpec.supervised(), granularity="token")
        with pytest.raises(ContractError):
            compute_scores(model, ds, LossSpec.supervised(), threads=0)
        with pytest.raises(ContractError):
            compute_scores(model, ds, LossSpec.self_supervised([np.zeros((1, 2))]))
        unlabeled_path = tmp_path / "u.txt"
        unlabeled_path.write_text("the cat\n")
        unlabeled = load_dataset(unlabeled_path, vocab, batch_size=1, max_len=8,
                                 labeled=False)
        with pytest.raises(ContractError):
            compute_scores(model, unlabeled, LossSpec.supervised())

    def test_score_table_roundtrip_dict(self, tmp_path):
        model, vocab, spec = toy()
        ds = tiny_dataset(tmp_path, vocab, spec)
        table = compute_scores(model, ds, LossSpec.supervised())
        d = table.to_dict()
        assert d["loss_kind"] == "cross_entropy"
        assert d["head_scores"] == [s.tolist() for s in table.head_scores]
        assert isinstance(ScoreTable(**{**table.__dict__}), ScoreTable)
