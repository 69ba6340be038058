"""Dense float64 tensors with reverse-mode automatic differentiation.

Operations record onto an explicit :class:`Tape` while one is active and
any input requires gradients. ``Tape.backward(loss)`` replays the recorded
entries in reverse, accumulating each leaf's gradient exactly once per
use; intermediate gradients live only inside the replay and the tape is
cleared afterwards. Evaluation without an active tape never records, so
read-only forward passes are side-effect free.

Broadcasting in elementwise ops follows numpy's trailing-axis rule; the
backward pass sums gradient over broadcast axes. This covers the
documented uses (scalar against array, row-vector over a matrix,
``(B,N,1)`` stats over ``(B,N,P)`` patches) and nothing subtler.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, DimensionError
from .rng import Rng

_active_tape: "Tape | None" = None


class Tensor:
    """A shaped float64 array, optionally carrying a gradient slot.

    ``requires_grad`` leaves (parameters) keep their ``grad`` across a
    backward pass; tensors produced by operations are non-leaf and their
    gradients are released once used.
    """

    __slots__ = ("data", "requires_grad", "grad", "is_leaf")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.is_leaf = True

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class Tape:
    """Ordered record of operations for one reverse sweep.

    Use as a context manager around the forward pass of a training step::

        with Tape() as tape:
            loss = ...
        tape.backward(loss)
    """

    def __init__(self):
        self.entries: list[tuple[tuple[Tensor, ...], Tensor, object]] = []

    def __enter__(self):
        global _active_tape
        if _active_tape is not None:
            raise ContractError("a tape is already active; training is single-threaded")
        _active_tape = self
        return self

    def __exit__(self, *exc):
        global _active_tape
        _active_tape = None
        return False

    def record(self, inputs: tuple[Tensor, ...], output: Tensor, backward) -> None:
        output.is_leaf = False
        self.entries.append((inputs, output, backward))

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

        Gradients accumulate into existing ``grad`` arrays; optimizers are
        expected to clear them after each step. The tape is emptied.
        """
        if loss.data.ndim != 0 and loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not self.entries:
            raise ContractError("backward on an empty tape")
        # stored gradient arrays are never mutated in place (accumulation
        # allocates), so backward rules may return views of their input
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for inputs, output, backward_fn in reversed(self.entries):
            g_out = grads.pop(id(output), None)
            if g_out is None:
                continue
            for tensor, g in zip(inputs, backward_fn(g_out)):
                if g is None or not tensor.requires_grad:
                    continue
                if tensor.is_leaf:
                    if tensor.grad is None:
                        tensor.grad = np.zeros_like(tensor.data)
                    tensor.grad += g
                else:
                    key = id(tensor)
                    grads[key] = grads[key] + g if key in grads else g
        self.entries.clear()


def _record(inputs: tuple[Tensor, ...], out_data: np.ndarray, backward) -> Tensor:
    needs = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs and _active_tape is not None:
        _active_tape.record(inputs, out, backward)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` after a broadcast forward op."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ts) in enumerate(zip(g.shape, shape)) if ts == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    for da, db in zip(a.shape[::-1], b.shape[::-1]):
        if da != db and da != 1 and db != 1:
            raise DimensionError(op, a.shape, b.shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    return _record(
        (a, b),
        a.data + b.data,
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    return _record(
        (a, b),
        a.data - b.data,
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    return _record(
        (a, b),
        a.data * b.data,
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("div", a, b)
    return _record(
        (a, b),
        a.data / b.data,
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def sqrt(a: Tensor) -> Tensor:
    root = np.sqrt(a.data)
    return _record((a,), root, lambda g: (g * 0.5 / root,))


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    return _record((a,), e, lambda g: (g * e,))


def log(a: Tensor) -> Tensor:
    return _record((a,), np.log(a.data), lambda g: (g / a.data,))


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """Elementwise max with a constant; zero gradient where clamped."""
    keep = a.data > floor
    return _record((a,), np.where(keep, a.data, floor), lambda g: (g * keep,))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh form."""
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(inner)

    def backward(g):
        sech2 = 1.0 - t * t
        d = 0.5 * (1.0 + t) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * x * x)
        return (g * d,)

    return _record((a,), 0.5 * x * (1.0 + t), backward)


# ---------------------------------------------------------------------------
# linear algebra and structure


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused x @ w + b for a 2D input and a row-vector bias."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise DimensionError("affine", x.shape, w.shape, b.shape)
    out = x.data @ w.data
    out += b.data
    return _record(
        (x, w, b),
        out,
        lambda g: (g @ w.data.T, x.data.T @ g, g.sum(axis=0)),
    )


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != a.size:
        raise DimensionError("reshape", a.shape, shape)
    old = a.shape
    return _record((a,), a.data.reshape(shape), lambda g: (g.reshape(old),))


def _zero_pad(data: np.ndarray, axis: int, before: int, after: int) -> np.ndarray:
    """np.pad replacement without its double-write overhead."""
    shape = list(data.shape)
    shape[axis] += before + after
    out = np.empty(shape, dtype=data.dtype)
    sl = [slice(None)] * data.ndim
    if before:
        sl[axis] = slice(0, before)
        out[tuple(sl)] = 0.0
    sl[axis] = slice(before, before + data.shape[axis])
    out[tuple(sl)] = data
    if after:
        sl[axis] = slice(before + data.shape[axis], None)
        out[tuple(sl)] = 0.0
    return out


def pad_axis(a: Tensor, axis: int, count: int) -> Tensor:
    """Append ``count`` zeros along ``axis``."""
    if count < 0:
        raise ContractError(f"pad_axis: negative count {count}")
    if count == 0:
        return _record((a,), a.data.copy(), lambda g: (g,))
    keep = a.shape[axis]

    def backward(g):
        sl = [slice(None)] * g.ndim
        sl[axis] = slice(0, keep)
        return (g[tuple(sl)],)

    return _record((a,), _zero_pad(a.data, axis, 0, count), backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Keep ``length`` entries along ``axis`` starting at ``start``."""
    if not (0 <= start and start + length <= a.shape[axis]):
        raise DimensionError("narrow", a.shape, (start, length))
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, start + length)
    after = a.shape[axis] - start - length

    def backward(g):
        return (_zero_pad(g, axis, start, after),)

    return _record((a,), a.data[tuple(sl)].copy(), backward)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Stack two tensors along axis 0."""
    if a.shape[1:] != b.shape[1:]:
        raise DimensionError("concat_rows", a.shape, b.shape)
    split = a.shape[0]

    def backward(g):
        return (g[:split], g[split:])

    return _record((a, b), np.concatenate([a.data, b.data], axis=0), backward)


# ---------------------------------------------------------------------------
# reductions


def sum_all(a: Tensor) -> Tensor:
    return _record((a,), np.asarray(a.data.sum()), lambda g: (np.broadcast_to(g, a.shape).copy(),))


def sum_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _record((a,), a.data.sum(axis=axis, keepdims=keepdims), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.size

    def backward(g):
        return (np.broadcast_to(g / n, a.shape).copy(),)

    return _record((a,), np.asarray(a.data.mean()), backward)


def mean_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    n = a.shape[axis]

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / n, a.shape).copy(),)

    return _record((a,), a.data.mean(axis=axis, keepdims=keepdims), backward)


STANDARDIZE_EPS = 1e-5


def standardize(a: Tensor) -> Tensor:
    """Zero mean, unit variance over the last axis; no learned parameters.

    Fused so that backward keeps only the output ``y`` and the inverse
    std, and builds the input gradient in one buffer::

        dx = inv_std * (g - mean(g) - y * mean(g * y))
    """
    d = a.shape[-1]
    out = a.data - np.einsum("...i->...", a.data)[..., None] / d
    var = np.einsum("...i,...i->...", out, out)[..., None] / d
    inv_std = 1.0 / np.sqrt(var + STANDARDIZE_EPS)
    out *= inv_std

    def backward(g):
        dx = out * (np.einsum("...i,...i->...", g, out)[..., None] / -d)
        dx += g
        dx -= np.einsum("...i->...", g)[..., None] / d
        dx *= inv_std
        return (dx,)

    return _record((a,), out, backward)


def squared_error(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared difference over all elements."""
    if a.shape != b.shape:
        raise DimensionError("squared_error", a.shape, b.shape)
    d = sub(a, b)
    return mean_all(mul(d, d))


# ---------------------------------------------------------------------------
# stochastic


def dropout(a: Tensor, p: float, rng: Rng | None, train: bool) -> Tensor:
    """Bernoulli dropout scaled by 1/(1-p); identity when not training."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout probability {p} outside [0, 1)")
    if not train or p == 0.0:
        return _record((a,), a.data.copy(), lambda g: (g,))
    if rng is None:
        raise ContractError("train-mode dropout needs an rng stream")
    scale = 1.0 / (1.0 - p)
    mask = np.where(rng.bernoulli(p, a.shape), 0.0, scale)
    return _record((a,), a.data * mask, lambda g: (g * mask,))


def masked_fill_rows(a: Tensor, mask: np.ndarray, fill: Tensor) -> Tensor:
    """Replace whole rows of the middle axis with a learnable vector.

    ``a`` is (B, N, D), ``mask`` is (B, N) with 1 selecting replaced
    positions, ``fill`` is the (D,) replacement. The fill's gradient is
    the gradient sum over all replaced positions.
    """
    if a.data.ndim != 3 or mask.shape != a.shape[:2] or fill.shape != (a.shape[2],):
        raise DimensionError("masked_fill_rows", a.shape, mask.shape, fill.shape)
    gate = mask.astype(bool)[:, :, None]

    def backward(g):
        return (np.where(gate, 0.0, g), g[gate[:, :, 0]].sum(axis=0))

    return _record((a, fill), np.where(gate, fill.data, a.data), backward)
