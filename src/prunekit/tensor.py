"""Minimal reverse-mode autodiff over float64 numpy arrays.

Every differentiable operation takes an optional Tape. With tape=None the
op just computes numpy results (inference mode, zero bookkeeping). With a
tape, ops whose inputs require gradients append a backward closure; calling
backward(tape, loss) replays the closures in reverse execution order and
accumulates gradients additively into Tensor.grad. Once an op's closure
has run, its output's gradient is released, so after backward only the
leaves (tensors no op produced) hold gradients. The caller resets leaf
grads (grad = None) between backward passes.

Gradients are handed over, not copied. Every array an op's backward passes
to _accumulate belongs to no other object: _accumulate stores the first one
as it is and adds later ones into it in place. Most ops pass fresh products
(matmul, mul, scale, gelu, ...) or views of their own output gradient g,
which nothing else reads once the closure has run. Three ops copy, because
what they would pass on is also held elsewhere or is not a plain C-ordered
array: add, when both operands would receive the same unreduced g; sum_all,
whose broadcast_to is a read-only view; and merge_heads, whose transposed
view is made C-ordered so downstream matmuls see the same layout, and so
round the same, as the copying version did.

Forward and backward chains write with out= and in-place operators only
into arrays the op has just created, never into an input, a gradient it
was given, or an array a recorded closure still reads. Each expression
keeps its operands and order (a*b and b*a round alike), so results are bit
for bit those of the plain textbook expressions.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, InvalidIndexError, NumericError, ShapeError

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A float64 array plus an optional accumulated gradient."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        # asarray keeps 0-d shapes (ascontiguousarray would promote to 1-d)
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Record(NamedTuple):
    out: Tensor
    inputs: tuple[Tensor, ...]
    fn: Callable[[np.ndarray], None]


class Tape:
    """Ordered log of differentiable ops for one forward computation."""

    __slots__ = ("_records",)

    def __init__(self):
        self._records: list[_Record] = []

    def record(self, out: Tensor, inputs: Sequence[Tensor],
               fn: Callable[[np.ndarray], None]) -> None:
        self._records.append(_Record(out, tuple(inputs), fn))

    def __len__(self) -> int:
        return len(self._records)


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(input) into every recorded input's .grad.

    Every consumer of an op's output is recorded after it, so when the op's
    closure runs its output gradient is complete and is then released.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad += np.ones_like(loss.data)
    for rec in reversed(tape._records):
        g = rec.out.grad
        if g is None:
            continue
        rec.fn(g)
        rec.out.grad = None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add g into t.grad; g must belong to no other object (see the module docstring)."""
    if not t.requires_grad:
        return
    if t.grad is None:
        # asarray: 0-d ops (scale, stack) hand over NumPy scalars
        t.grad = np.asarray(g).reshape(t.shape)
    else:
        t.grad += g


def _record(tape: Tape | None, out: Tensor, inputs: Sequence[Tensor],
            fn: Callable[[np.ndarray], None]) -> Tensor:
    """Log fn as out's backward when there is a tape and an input needs gradients."""
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, inputs, fn)
    return out


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_matmul(op: str, ad: np.ndarray, bd: np.ndarray, b_inner: int) -> None:
    if ad.ndim not in (2, 3, 4) or bd.ndim not in (2, ad.ndim):
        raise ShapeError(f"unsupported {op} ranks {ad.shape}, {bd.shape}")
    if ad.shape[-1] != bd.shape[b_inner]:
        raise ShapeError(f"{op} inner dims differ: {ad.shape}, {bd.shape}")
    if bd.ndim > 2 and ad.shape[:-2] != bd.shape[:-2]:
        raise ShapeError(f"{op} batch dims differ: {ad.shape}, {bd.shape}")


def _rows(x: np.ndarray) -> np.ndarray:
    """View x as a matrix with one row per index of its leading axes."""
    return x.reshape(math.prod(x.shape[:-1]), x.shape[-1])


def _mm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w; against a shared 2D w, all leading axes of x go through one GEMM."""
    if w.ndim == 2 and x.ndim > 2:
        return (_rows(x) @ w).reshape(*x.shape[:-1], w.shape[-1])
    return x @ w


def _affine(op: str, product: np.ndarray, a: Tensor, b: Tensor, bias: Tensor | None,
            tape: Tape | None, grad_a, grad_b) -> Tensor:
    """Record product (+ bias, added in place) with the given operand gradients."""
    if bias is not None:
        try:
            product += bias.data
        except ValueError as exc:
            raise ShapeError(f"{op} bias shape {bias.shape} does not fit output "
                             f"{product.shape}") from exc

    def fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, grad_a(g))
        if b.requires_grad:
            _accumulate(b, grad_b(g))
        # last: an unreduced bias gradient is g itself
        if bias is not None and bias.requires_grad:
            _accumulate(bias, _reduce_to(g, bias.shape))

    inputs = (a, b) if bias is None else (a, b, bias)
    return _record(tape, Tensor(product), inputs, fn)


def matmul(a: Tensor, b: Tensor, tape: Tape | None = None, *,
           bias: Tensor | None = None) -> Tensor:
    """a @ b (+ bias): a of rank 2-4 against a shared 2D b or a b batched like a."""
    ad, bd = a.data, b.data
    _check_matmul("matmul", ad, bd, -2)

    def grad_b(g: np.ndarray) -> np.ndarray:
        if bd.ndim < ad.ndim:
            return _rows(ad).T @ _rows(g)
        return np.swapaxes(ad, -1, -2) @ g

    return _affine("matmul", _mm(ad, bd), a, b, bias, tape,
                   lambda g: _mm(g, np.swapaxes(bd, -1, -2)), grad_b)


def matmul_t(a: Tensor, b: Tensor, tape: Tape | None = None, *,
             bias: Tensor | None = None) -> Tensor:
    """a @ b^T (+ bias) where b is transposed over its last two axes; ranks as in matmul."""
    ad, bd = a.data, b.data
    _check_matmul("matmul_t", ad, bd, -1)

    def grad_b(g: np.ndarray) -> np.ndarray:
        if bd.ndim < ad.ndim:
            return _rows(g).T @ _rows(ad)
        return np.swapaxes(g, -1, -2) @ ad

    return _affine("matmul_t", _mm(ad, np.swapaxes(bd, -1, -2)), a, b, bias, tape,
                   lambda g: _mm(g, bd), grad_b)


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise a + b with numpy broadcasting."""
    try:
        out = Tensor(a.data + b.data)
    except ValueError as exc:
        raise ShapeError(f"add shapes incompatible: {a.shape} + {b.shape}") from exc

    def fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _reduce_to(g, a.shape))
        if b.requires_grad:
            gb = _reduce_to(g, b.shape)
            # unreduced, both operands would receive g itself: b gets a copy
            _accumulate(b, gb.copy() if a.requires_grad and a.size == b.size == g.size else gb)

    return _record(tape, out, (a, b), fn)


def mul(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    """Elementwise a * b with numpy broadcasting (gating op)."""
    try:
        out = Tensor(a.data * b.data)
    except ValueError as exc:
        raise ShapeError(f"mul shapes incompatible: {a.shape} * {b.shape}") from exc
    ad, bd = a.data, b.data

    def fn(g: np.ndarray) -> None:
        if a.requires_grad:
            _accumulate(a, _reduce_to(g * bd, a.shape))
        if b.requires_grad:
            _accumulate(b, _reduce_to(g * ad, b.shape))

    return _record(tape, out, (a, b), fn)


def scale(a: Tensor, c: float, tape: Tape | None = None) -> Tensor:
    """a * c for a python scalar c."""
    c = float(c)
    return _record(tape, Tensor(a.data * c), (a,), lambda g: _accumulate(a, g * c))


def softmax_rows(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    if np.isnan(x.data).any():
        raise NumericError("softmax input contains NaN")
    y = _softmax_np(x.data)

    def fn(g: np.ndarray) -> None:
        # dx = y * (g - sum(g * y)) along the softmax axis
        dx = np.multiply(g, y, out=np.empty_like(y))
        np.subtract(g, dx.sum(axis=-1, keepdims=True), out=dx)
        dx *= y
        _accumulate(x, dx)

    return _record(tape, Tensor(y), (x,), fn)


def log_softmax_rows(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Log-softmax over the last axis."""
    if np.isnan(x.data).any():
        raise NumericError("log_softmax input contains NaN")
    out_data = _log_softmax_np(x.data)

    def fn(g: np.ndarray) -> None:
        _accumulate(x, g - np.exp(out_data) * g.sum(axis=-1, keepdims=True))

    return _record(tape, Tensor(out_data), (x,), fn)


def _softmax_np(x: np.ndarray) -> np.ndarray:
    # empty_like: at 0-d, x - max would be a NumPy scalar, which out= cannot take
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=np.empty_like(x))
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _log_softmax_np(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def gelu(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Exact GeLU x * Phi(x) with Phi the standard normal CDF via erf."""
    xd = x.data
    # phi = 0.5 * (1 + erf(x / sqrt 2)); empty_like, as at _softmax_np
    phi = np.multiply(xd, _INV_SQRT2, out=np.empty_like(xd))
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5

    def fn(g: np.ndarray) -> None:
        # dx = g * (phi + x * pdf) with pdf = exp(-x*x/2) / sqrt(2 pi)
        dx = np.multiply(xd, -0.5, out=np.empty_like(xd))
        dx *= xd
        np.exp(dx, out=dx)
        dx *= _INV_SQRT_2PI
        dx *= xd
        dx += phi
        dx *= g
        _accumulate(x, dx)

    return _record(tape, Tensor(xd * phi), (x,), fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               tape: Tape | None = None, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if x.data.ndim == 0:
        raise ShapeError("layer_norm needs an axis to normalize, got a 0-d input")
    d = x.data.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match width {d}")
    xd = x.data
    xhat = xd - xd.mean(axis=-1, keepdims=True)
    out = xhat * xhat
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def fn(g: np.ndarray) -> None:
        if x.requires_grad:
            # population-variance layer norm backward:
            # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = g * gain
            dx = g * gain.data
            t = dx * xhat
            m = t.mean(axis=-1, keepdims=True)
            dx -= dx.mean(axis=-1, keepdims=True)
            np.multiply(xhat, m, out=t)
            dx -= t
            dx *= inv
            _accumulate(x, dx)
        if gain.requires_grad:
            _accumulate(gain, _reduce_to(g * xhat, gain.shape))
        if bias.requires_grad:
            _accumulate(bias, _reduce_to(g, bias.shape))

    return _record(tape, Tensor(out), (x, gain, bias), fn)


def embedding_lookup(weight: Tensor, ids: np.ndarray, tape: Tape | None = None) -> Tensor:
    """Gather rows of weight by integer ids; output shape ids.shape + (d,)."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError(f"embedding ids must be integers, got dtype {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= weight.shape[0]):
        raise InvalidIndexError(f"embedding id out of range for table of {weight.shape[0]} rows")

    def fn(g: np.ndarray) -> None:
        dw = np.zeros_like(weight.data)
        np.add.at(dw, ids.reshape(-1), g.reshape(-1, g.shape[-1]))
        _accumulate(weight, dw)

    return _record(tape, Tensor(weight.data[ids]), (weight,), fn)


def select_first(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Pick position 0 of a (batch, seq, d) tensor -> (batch, d)."""
    if x.data.ndim != 3:
        raise ShapeError(f"select_first expects a 3D tensor, got {x.shape}")

    def fn(g: np.ndarray) -> None:
        dx = np.zeros_like(x.data)
        dx[:, 0, :] = g
        _accumulate(x, dx)

    return _record(tape, Tensor(x.data[:, 0, :]), (x,), fn)


def stack(scalars: Sequence[Tensor], shape: tuple[int, ...],
          tape: Tape | None = None) -> Tensor:
    """Pack scalar tensors, in order, into one tensor of the given shape."""
    out = Tensor(np.array([s.data for s in scalars], dtype=np.float64).reshape(shape))

    def fn(g: np.ndarray) -> None:
        for s, gs in zip(scalars, g.reshape(-1)):
            _accumulate(s, gs)

    return _record(tape, out, scalars, fn)


def split_heads(x: Tensor, width: int, tape: Tape | None = None) -> Tensor:
    """(batch, seq, heads * width) -> (batch, heads, seq, width); head h owns column block h."""
    b, n, cols = x.shape
    if width < 1 or cols % width:
        raise ShapeError(f"{cols} columns do not split into heads of width {width}")
    out = Tensor(x.data.reshape(b, n, cols // width, width).transpose(0, 2, 1, 3))
    return _record(tape, out, (x,), lambda g: _accumulate(
        x, g.transpose(0, 2, 1, 3).reshape(b, n, cols)))


def merge_heads(x: Tensor, tape: Tape | None = None) -> Tensor:
    """(batch, heads, seq, width) -> (batch, seq, heads * width); inverse of split_heads."""
    b, heads, n, width = x.shape
    out = Tensor(x.data.transpose(0, 2, 1, 3).reshape(b, n, heads * width))
    return _record(tape, out, (x,), lambda g: _accumulate(
        x, np.ascontiguousarray(g.reshape(b, n, heads, width).transpose(0, 2, 1, 3))))


def sum_all(x: Tensor, tape: Tape | None = None) -> Tensor:
    """Sum every element down to a scalar tensor."""
    return _record(tape, Tensor(x.data.sum()), (x,),
                   lambda g: _accumulate(x, np.broadcast_to(g, x.shape).copy()))
