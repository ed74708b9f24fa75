"""Tensor and tape tests: hand-computed forward oracles plus
finite-difference gradient checks for every primitive op."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_grads_close, numeric_grad
from prunekit.errors import ContractError, NumericError, ShapeError
from prunekit.tensor import (Tape, Tensor, add, backward, embedding_lookup, gelu,
                             layer_norm, log_softmax_rows, matmul, matmul_t,
                             merge_heads, mul, scale, select_first, softmax_rows,
                             split_heads, stack, sum_all)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestForward:
    def test_matmul_hand_example(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        np.testing.assert_array_equal(matmul(a, b).data, [[17.0], [39.0]])

    def test_matmul_identity(self):
        a = Tensor(rng().normal(size=(4, 4)))
        out = matmul(a, Tensor(np.eye(4)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_matmul_shape_errors(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 2))))
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 4, 2))))
        with pytest.raises(ShapeError):
            matmul_t(Tensor(np.zeros((2, 3))), Tensor(np.zeros((5, 4))))

    def test_matmul_t_matches_transpose(self):
        a = Tensor(rng(1).normal(size=(3, 4)))
        b = Tensor(rng(2).normal(size=(5, 4)))
        np.testing.assert_array_equal(matmul_t(a, b).data, a.data @ b.data.T)

    def test_head_split_layout(self):
        # head h owns column block h; merge inverts split exactly
        x = Tensor(np.arange(2 * 3 * 6, dtype=np.float64).reshape(2, 3, 6))
        heads = split_heads(x, 2)
        assert heads.shape == (2, 3, 3, 2)
        np.testing.assert_array_equal(heads.data[1, 2, 0], x.data[1, 0, 4:6])
        np.testing.assert_array_equal(merge_heads(heads).data, x.data)
        assert split_heads(Tensor(np.zeros((2, 3, 0))), 4).shape == (2, 0, 3, 4)
        with pytest.raises(ShapeError):
            split_heads(x, 4)

    def test_stack_shapes_scalars(self):
        gs = [Tensor(float(i)) for i in range(4)]
        np.testing.assert_array_equal(stack(gs, (2, 2)).data, [[0.0, 1.0], [2.0, 3.0]])
        assert stack([], (0, 1, 1)).shape == (0, 1, 1)

    def test_zero_width_operands(self):
        out = matmul(Tensor(np.zeros((2, 0))), Tensor(np.zeros((0, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))
        assert gelu(Tensor(np.zeros((2, 0)))).shape == (2, 0)

    def test_softmax_uniform(self):
        out = softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], rtol=0, atol=1e-15)

    def test_softmax_two_to_one(self):
        out = softmax_rows(Tensor([[0.0, math.log(2.0)]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 2 / 3]], rtol=0, atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(rng(3).normal(size=(4, 7)) * 10)
        sums = softmax_rows(x).data.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)

    def test_softmax_nan_rejected(self):
        bad = np.ones((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(NumericError):
            softmax_rows(Tensor(bad))
        with pytest.raises(NumericError):
            log_softmax_rows(Tensor(bad))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(-50, 50))
    def test_softmax_shift_invariance(self, seed, shift):
        x = rng(seed).normal(size=(2, 5))
        base = softmax_rows(Tensor(x)).data
        shifted = softmax_rows(Tensor(x + shift)).data
        np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)

    def test_log_softmax_consistency(self):
        x = Tensor(rng(4).normal(size=(3, 6)))
        np.testing.assert_allclose(log_softmax_rows(x).data,
                                   np.log(softmax_rows(x).data), rtol=0, atol=1e-12)

    def test_gelu_values(self):
        assert gelu(Tensor(0.0)).data == 0.0
        # x * Phi(x) at x=1, with Phi from the error function
        expected = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        np.testing.assert_allclose(gelu(Tensor(1.0)).data, expected, rtol=0, atol=1e-15)
        np.testing.assert_allclose(gelu(Tensor(10.0)).data, 10.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(gelu(Tensor(-10.0)).data, 0.0, rtol=0, atol=1e-9)

    def test_layer_norm_constant_row_returns_bias(self):
        x = Tensor(np.full((2, 4), 3.7))
        gain = Tensor(rng(5).normal(size=4))
        bias = Tensor(rng(6).normal(size=4))
        out = layer_norm(x, gain, bias)
        np.testing.assert_array_equal(out.data, np.broadcast_to(bias.data, (2, 4)))

    def test_layer_norm_two_point(self):
        out = layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        expected = 1.0 / math.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out.data, [[expected, -expected]], rtol=0, atol=1e-15)

    def test_layer_norm_affine(self):
        x = Tensor(rng(7).normal(size=(3, 5)))
        gain = Tensor(rng(8).normal(size=5))
        bias = Tensor(rng(9).normal(size=5))
        plain = layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5))).data
        affine = layer_norm(x, gain, bias).data
        np.testing.assert_allclose(affine, plain * gain.data + bias.data, rtol=0, atol=1e-12)

    def test_layer_norm_shape_error(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))

    def test_add_broadcast_and_mismatch(self):
        out = add(Tensor(np.ones((2, 3, 4))), Tensor(np.arange(12.0).reshape(3, 4)))
        assert out.shape == (2, 3, 4)
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((3, 4))), Tensor(np.zeros(5)))

    def test_mul_by_exact_one_is_bit_identical(self):
        x = Tensor(rng(10).normal(size=(3, 4)))
        out = mul(x, Tensor(1.0))
        assert out.data.tobytes() == x.data.tobytes()

    def test_embedding_lookup_gathers_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        ids = np.array([[0, 3], [3, 1]])
        out = embedding_lookup(table, ids)
        np.testing.assert_array_equal(out.data, table.data[ids])

    def test_select_first(self):
        x = Tensor(rng(11).normal(size=(2, 5, 3)))
        np.testing.assert_array_equal(select_first(x).data, x.data[:, 0, :])
        with pytest.raises(ShapeError):
            select_first(Tensor(np.zeros((2, 3))))


def _fd_case(name):
    """Build (forward, params) for one op; forward(tape) returns a scalar Tensor.

    Each output is contracted against a fixed random weighting so every
    output element influences the loss.
    """
    r = rng(hash(name) % (2 ** 32))

    def t(shape, scale_=1.0):
        return Tensor(r.normal(size=shape) * scale_, requires_grad=True)

    def weighted(y, tape):
        w = Tensor(rng(99).normal(size=y.shape))
        return sum_all(mul(y, w, tape), tape)

    if name == "matmul_2d":
        a, b = t((3, 4)), t((4, 2))
        return lambda tape: weighted(matmul(a, b, tape), tape), [a, b]
    if name == "matmul_3d_2d":
        a, b = t((2, 3, 4)), t((4, 2))
        return lambda tape: weighted(matmul(a, b, tape), tape), [a, b]
    if name == "matmul_3d_3d":
        a, b = t((2, 3, 4)), t((2, 4, 2))
        return lambda tape: weighted(matmul(a, b, tape), tape), [a, b]
    if name == "matmul_4d_4d":
        a, b = t((2, 3, 4, 5)), t((2, 3, 5, 2))
        return lambda tape: weighted(matmul(a, b, tape), tape), [a, b]
    if name == "matmul_t_2d":
        a, b = t((3, 4)), t((5, 4))
        return lambda tape: weighted(matmul_t(a, b, tape), tape), [a, b]
    if name == "matmul_t_3d_2d":
        a, b = t((2, 3, 4)), t((5, 4))
        return lambda tape: weighted(matmul_t(a, b, tape), tape), [a, b]
    if name == "matmul_t_3d_3d":
        a, b = t((2, 3, 4)), t((2, 5, 4))
        return lambda tape: weighted(matmul_t(a, b, tape), tape), [a, b]
    if name == "matmul_t_4d_4d":
        a, b = t((2, 3, 4, 5)), t((2, 3, 6, 5))
        return lambda tape: weighted(matmul_t(a, b, tape), tape), [a, b]
    if name == "stack":
        gs = [t(()) for _ in range(3)]
        return lambda tape: weighted(stack(gs, (3, 1), tape), tape), gs
    if name == "split_heads":
        x = t((2, 3, 6))
        return lambda tape: weighted(split_heads(x, 2, tape), tape), [x]
    if name == "merge_heads":
        x = t((2, 3, 4, 2))
        return lambda tape: weighted(merge_heads(x, tape), tape), [x]
    if name == "add_same":
        a, b = t((3, 4)), t((3, 4))
        return lambda tape: weighted(add(a, b, tape), tape), [a, b]
    if name == "add_vector":
        a, b = t((3, 4)), t((4,))
        return lambda tape: weighted(add(a, b, tape), tape), [a, b]
    if name == "add_batched":
        a, b = t((2, 3, 4)), t((3, 4))
        return lambda tape: weighted(add(a, b, tape), tape), [a, b]
    if name == "mul_same":
        a, b = t((3, 4)), t((3, 4))
        return lambda tape: weighted(mul(a, b, tape), tape), [a, b]
    if name == "mul_scalar_gate":
        a, g = t((2, 3, 4)), t(())
        return lambda tape: weighted(mul(a, g, tape), tape), [a, g]
    if name == "mul_vector_gate":
        a, g = t((2, 3, 4)), t((4,))
        return lambda tape: weighted(mul(a, g, tape), tape), [a, g]
    if name == "scale":
        a = t((3, 4))
        return lambda tape: weighted(scale(a, -2.5, tape), tape), [a]
    if name == "softmax":
        a = t((2, 5))
        return lambda tape: weighted(softmax_rows(a, tape), tape), [a]
    if name == "log_softmax":
        a = t((2, 5))
        return lambda tape: weighted(log_softmax_rows(a, tape), tape), [a]
    if name == "gelu":
        a = t((3, 4))
        return lambda tape: weighted(gelu(a, tape), tape), [a]
    if name == "layer_norm":
        x, gain, bias = t((2, 3, 6)), t((6,)), t((6,))
        return lambda tape: weighted(layer_norm(x, gain, bias, tape), tape), [x, gain, bias]
    if name == "embedding":
        w = t((7, 4))
        ids = np.array([[0, 3, 3], [6, 1, 3]])  # repeats exercise accumulation
        return lambda tape: weighted(embedding_lookup(w, ids, tape), tape), [w]
    if name == "select_first":
        x = t((2, 4, 3))
        return lambda tape: weighted(select_first(x, tape), tape), [x]
    if name == "sum_all":
        x = t((3, 4))
        return lambda tape: sum_all(x, tape), [x]
    raise KeyError(name)


FD_CASES = ["matmul_2d", "matmul_3d_2d", "matmul_3d_3d", "matmul_4d_4d", "matmul_t_2d",
            "matmul_t_3d_2d", "matmul_t_3d_3d", "matmul_t_4d_4d", "stack", "split_heads",
            "merge_heads", "add_same", "add_vector",
            "add_batched", "mul_same", "mul_scalar_gate", "mul_vector_gate",
            "scale", "softmax", "log_softmax", "gelu", "layer_norm",
            "embedding", "select_first", "sum_all"]


class TestBackward:
    @pytest.mark.parametrize("name", FD_CASES)
    def test_finite_difference(self, name):
        forward, params = _fd_case(name)
        tape = Tape()
        loss = forward(tape)
        backward(tape, loss)
        for i, p in enumerate(params):
            assert p.grad is not None, f"{name}: param {i} got no gradient"
            numeric = numeric_grad(lambda: forward(None).data.item(), p.data)
            assert_grads_close(p.grad, numeric, rel=1e-4, floor=1e-7,
                               label=f"{name} param {i}")

    def test_sum_all_grad_is_ones(self):
        x = Tensor(rng(20).normal(size=(3, 4)), requires_grad=True)
        tape = Tape()
        backward(tape, sum_all(x, tape))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_diamond_reuse_accumulates(self):
        x = Tensor(rng(21).normal(size=(3,)), requires_grad=True)
        c1, c2 = Tensor([1.0, 2.0, 3.0]), Tensor([10.0, 20.0, 30.0])
        tape = Tape()
        loss = sum_all(add(mul(x, c1, tape), mul(x, c2, tape), tape), tape)
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, c1.data + c2.data, rtol=0, atol=1e-15)

    def test_disconnected_tensor_gets_no_grad(self):
        x = Tensor(rng(22).normal(size=(2, 2)), requires_grad=True)
        z = Tensor(rng(23).normal(size=(2, 2)), requires_grad=True)
        tape = Tape()
        loss = sum_all(mul(x, x, tape), tape)
        mul(z, z, tape)  # recorded but not part of the loss
        backward(tape, loss)
        assert x.grad is not None
        assert z.grad is None

    def test_backward_determinism(self):
        forward, params = _fd_case("layer_norm")
        tape = Tape()
        loss = forward(tape)
        backward(tape, loss)
        first = [p.grad.copy() for p in params]
        # replay on a fresh tape after resetting the leaf grads
        for p in params:
            p.grad = None
        tape = Tape()
        backward(tape, forward(tape))
        for before, p in zip(first, params):
            assert before.tobytes() == p.grad.tobytes()

    def test_intermediate_grads_released_leaf_grads_kept(self):
        x = Tensor(rng(24).normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng(25).normal(size=(4, 2)), requires_grad=True)

        def forward(tape):
            h = matmul(x, w, tape)
            y = gelu(h, tape)
            return [h, y], sum_all(mul(y, y, tape), tape)

        tape = Tape()
        intermediates, loss = forward(tape)
        backward(tape, loss)
        assert len(tape) == 4  # backward leaves the tape itself intact
        assert all(t.grad is None for t in intermediates + [loss])
        for p in (x, w):
            numeric = numeric_grad(lambda: forward(None)[1].data.item(), p.data)
            assert_grads_close(p.grad, numeric, rel=1e-4, floor=1e-7, label="leaf")

    def test_add_operand_grads_do_not_alias(self):
        # add hands both operands views of one gradient; later contributions
        # to either operand must not reach the other
        a = Tensor(rng(26).normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng(27).normal(size=(2, 3)), requires_grad=True)
        c1, c2, c3 = (Tensor(rng(s).normal(size=(2, 3))) for s in (28, 29, 30))
        tape = Tape()
        u = mul(a, c1, tape)
        v = mul(b, c2, tape)
        y = add(a, b, tape)
        loss = sum_all(add(add(u, v, tape), mul(y, c3, tape), tape), tape)
        backward(tape, loss)
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_allclose(a.grad, c1.data + c3.data, rtol=0, atol=1e-15)
        np.testing.assert_allclose(b.grad, c2.data + c3.data, rtol=0, atol=1e-15)

    def test_leaf_grads_accumulate_across_tapes(self):
        # per-batch usage: fresh tape per forward, leaf grads sum until zeroed
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        tape1 = Tape()
        backward(tape1, sum_all(mul(x, x, tape1), tape1))
        once = x.grad.copy()
        tape2 = Tape()
        backward(tape2, sum_all(mul(x, x, tape2), tape2))
        np.testing.assert_allclose(x.grad, 2 * once, rtol=0, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        tape = Tape()
        y = mul(x, x, tape)
        with pytest.raises(ContractError):
            backward(tape, y)

    def test_records_visited_once_in_reverse(self):
        forward, _ = _fd_case("layer_norm")
        tape = Tape()
        loss = forward(tape)
        visits: list[int] = []
        for idx, rec in enumerate(tape._records):
            def wrapped(g, fn=rec.fn, idx=idx):
                visits.append(idx)
                fn(g)
            tape._records[idx] = rec._replace(fn=wrapped)
        backward(tape, loss)
        assert len(visits) == len(set(visits))
        assert visits == sorted(visits, reverse=True)

    def test_no_tape_means_no_requires_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        out = mul(x, x, None)
        assert out.requires_grad is False
        tape = Tape()
        loss = sum_all(out, tape)  # constant input: nothing to record
        assert len(tape) == 0
        assert loss.requires_grad is False

    def test_matmul_chain_against_fd(self):
        a = Tensor(rng(30).normal(size=(3, 3)), requires_grad=True)
        b = Tensor(rng(31).normal(size=(3, 3)), requires_grad=True)

        def forward(tape):
            return sum_all(matmul(a, b, tape), tape)

        tape = Tape()
        backward(tape, forward(tape))
        for p in (a, b):
            numeric = numeric_grad(lambda: forward(None).data.item(), p.data)
            assert_grads_close(p.grad, numeric)
