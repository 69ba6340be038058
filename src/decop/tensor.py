"""Dense float64 tensors with reverse-mode automatic differentiation.

Operations record onto an explicit :class:`Tape` while one is active and
any input requires gradients. ``Tape.backward(loss)`` replays the recorded
entries in reverse, accumulating each leaf's gradient exactly once per
use; intermediate gradients live only inside the replay. An entry holds
no tensor, only the arrays its backward rule reads, and the sweep drops
each entry as it passes it, so an activation lives only while a forward
caller or a backward rule still holds it. Evaluation without an active
tape never records. It still numbers each op output that needs a
gradient, and :func:`window_partition` points such an output's ``data``
at its padded layout; the values are unchanged, and a leaf is never
touched.

Broadcasting in elementwise ops follows numpy's trailing-axis rule; the
backward pass sums gradient over broadcast axes. This covers the
documented uses (scalar against array, row-vector over a matrix,
``(B,N,1)`` stats over ``(B,N,P)`` patches) and nothing subtler.
"""

from __future__ import annotations

import ctypes
import itertools
import math

import numpy as np

from .errors import ContractError, DimensionError
from .rng import Rng

_active_tape: "Tape | None" = None
# node numbers are never reused, so a tensor recorded on an earlier tape
# cannot stand for a node of the current one
_node_numbers = itertools.count()

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Keep freed arrays in the process heap for the next step to reuse.

    glibc serves large blocks with their own ``mmap`` and unmaps them on
    free, and trims free memory off the top of the heap. A training step
    frees and reallocates the same multi-megabyte temporaries every time,
    so each one would come back as freshly zeroed pages, faulted in one
    at a time. Blocks up to 32 MiB (glibc's largest mmap threshold) now
    come from the heap, and the heap is trimmed only past 1 GiB of free
    memory. Elsewhere (no ``mallopt``) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


_keep_freed_memory()

# Elementwise chains run over consecutive slices of this many elements, so
# that a slice's intermediates (256 KB per float64 array) stay in a core's
# L2 cache between the calls of the chain. A whole-array call would stream
# every intermediate through memory once per call instead.
BLOCK = 32768


def _blocks(n: int, step: int = BLOCK):
    """Slices covering ``range(n)`` in order, ``step`` elements at a time.

    Private, like every helper here: a public function of this module is
    a tensor op.
    """
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


# Float64 arrays of at least this many bytes are cut from blocks of a few
# interchangeable sizes: _SIZES_PER_OCTAVE evenly spaced sizes in each
# range (2^k, 2^(k+1)] bytes.
_ROUND_FROM = 1 << 20
_SIZES_PER_OCTAVE = 4


def _empty(shape) -> np.ndarray:
    """An uninitialized C-contiguous float64 array of ``shape``.

    A large one is a view of a block rounded up to the next of the sizes
    above. The encoder's arrays come in a few nearly equal sizes (the
    latent and each window size's padded layout: 43, 44 and 45 patch
    slots at the benchmark shape), and the heap keeps freed blocks (see
    :func:`_keep_freed_memory`). Without rounding, a freed block 2 %
    too small for the next request stays a hole and the heap grows; with
    it, all three sizes take one block size, and any freed one serves.
    """
    n = math.prod(shape)
    nbytes = 8 * n
    if nbytes < _ROUND_FROM:
        return np.empty(shape)
    step = (1 << (nbytes - 1).bit_length()) // (2 * _SIZES_PER_OCTAVE)
    return np.empty(-(-nbytes // step) * step // 8)[:n].reshape(shape)


class Tensor:
    """A shaped float64 array, optionally carrying a gradient slot.

    ``requires_grad`` leaves (parameters) keep their ``grad`` across a
    backward pass. An operation's output that needs a gradient carries a
    ``node`` number, with or without a tape; a tape records the node for
    it, and its gradient is released once used. A leaf has no node.

    ``recompute``, when set, writes the tensor's values bit for bit into
    a given C-contiguous array of its shape (any other target is a
    :class:`ContractError`), so that a backward rule can rebuild them
    instead of keeping them from the forward pass. :func:`embed` and
    :func:`gelu` set it to the very function that wrote their output, and
    :func:`window_partition` passes it on to its layout.
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "recompute")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node: int | None = None
        self.recompute = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size


class Tape:
    """Ordered record of operations for one reverse sweep.

    Use as a context manager around the forward pass of a training step::

        with Tape() as tape:
            loss = ...
        tape.backward(loss)

    Each entry is ``(refs, node, backward)``. ``refs`` names the inputs:
    a recorded output by its node number, a leaf that needs a gradient by
    reference, and a constant by ``None``. The tape holds no other tensor,
    so an op's output is freed once the caller drops it, unless a backward
    rule captured its data.
    """

    def __init__(self):
        self.entries: list[tuple[tuple[Tensor | int | None, ...], int, object]] = []

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
        output.node = next(_node_numbers)
        refs = tuple(
            t.node if t.node is not None else t if t.requires_grad else None for t in inputs
        )
        self.entries.append((refs, output.node, backward))

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

        Gradients accumulate into existing ``grad`` arrays; optimizers are
        expected to clear them after each step. Each entry is dropped as
        the sweep passes it, so the arrays its backward rule captured are
        freed before any earlier entry runs. The tape ends empty.
        """
        if loss.data.ndim != 0 and loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not self.entries:
            raise ContractError("backward on an empty tape")
        grads: dict[int | None, np.ndarray] = {loss.node: np.ones_like(loss.data)}
        entries = self.entries
        while entries:
            _run_entry(grads, *entries.pop())


def _run_entry(grads: dict[int | None, np.ndarray], refs, node: int, backward_fn) -> None:
    """Apply one entry's backward rule and accumulate what it returns.

    A function of its own, so that none of its arrays stays bound while
    the next entry runs.

    Ownership follows one rule: a gradient array is writeable exactly when
    the sweep owns its memory, so that a write into it changes no other
    array. A backward rule may write into its incoming gradient ``g`` only
    when ``g.flags.writeable``, and returns, for each input, ``None`` or
    one of, in that input's shape:

    - an array it allocated in this call
    - a view of ``g``
    - a read-only array, such as a reduction's broadcast view

    A writeable result whose memory block appears more than once among
    the results of one call (``add``'s ``(g, g)``, ``concat_rows``' two
    slices) is stored as a read-only view, so neither input writes into
    the other's gradient.

    A second contribution is added in place into the stored gradient when
    that is writeable, else into the returned one when that is writeable
    and C-contiguous (a view of another layout would carry that layout
    on), else into a new array. Either way the sum is ``stored +
    returned`` element for element, and the addition commutes, so the
    bits are the same.
    """
    if node not in grads:
        return
    results = [
        (ref, g) for ref, g in zip(refs, backward_fn(grads.pop(node))) if ref is not None and g is not None
    ]
    blocks = [g if g.base is None else g.base for _, g in results]
    for (ref, g), block in zip(results, blocks):
        if g.flags.writeable and sum(b is block for b in blocks) > 1:
            g = g.view()
            g.flags.writeable = False
        if isinstance(ref, Tensor):
            if ref.grad is None:
                ref.grad = np.zeros_like(ref.data)
            ref.grad += g
            continue
        acc = grads.get(ref)
        if acc is None:
            grads[ref] = g
            continue
        if acc.flags.writeable:
            acc += g
        elif g.flags.writeable and g.flags.c_contiguous:
            g += acc
            grads[ref] = g
        else:
            grads[ref] = np.add(acc, g, out=_empty(acc.shape))


def _record(inputs: tuple[Tensor, ...], out_data: np.ndarray, backward) -> Tensor:
    needs = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs)
    if needs and _active_tape is not None:
        _active_tape.record(inputs, out, backward)
    elif needs:
        out.node = next(_node_numbers)
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
#
# Here and below, backward rules capture shapes and arrays, never tensors,
# so that a rule keeps alive only the data it reads.


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    sa, sb = a.shape, b.shape
    return _record((a, b), a.data + b.data, lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    sa, sb = a.shape, b.shape
    return _record((a, b), a.data - b.data, lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; an operand's data is kept only for the other's gradient."""
    _check_broadcast("mul", a, b)
    sa, sb = a.shape, b.shape
    x = a.data if b.requires_grad else None
    y = b.data if a.requires_grad else None

    def backward(g):
        return (
            None if y is None else _unbroadcast(g * y, sa),
            None if x is None else _unbroadcast(g * x, sb),
        )

    return _record((a, b), a.data * b.data, backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient; the numerator is kept only for the divisor's gradient."""
    _check_broadcast("div", a, b)
    sa, sb = a.shape, b.shape
    x = a.data if b.requires_grad else None
    y = b.data

    def backward(g):
        return (
            _unbroadcast(g / y, sa),
            None if x is None else _unbroadcast(-g * x / (y * y), sb),
        )

    return _record((a, b), a.data / b.data, backward)


def sqrt(a: Tensor) -> Tensor:
    root = np.sqrt(a.data)
    return _record((a,), root, lambda g: (g * 0.5 / root,))


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    return _record((a,), e, lambda g: (g * e,))


def log(a: Tensor) -> Tensor:
    x = a.data
    return _record((a,), np.log(x), lambda g: (g / x,))


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """Elementwise max with a constant; zero gradient where clamped."""
    keep = a.data > floor
    return _record((a,), np.where(keep, a.data, floor), lambda g: (g * keep,))


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu_tanh(xs: np.ndarray, ts: np.ndarray) -> None:
    """``ts = tanh(c * (xs + 0.044715 * (xs * xs * xs)))``, in that order."""
    np.multiply(xs, xs, out=ts)
    ts *= xs
    ts *= 0.044715
    ts += xs
    ts *= _GELU_C
    np.tanh(ts, out=ts)


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh form; only the input is kept.

    Forward and backward run block by block; each element sees the plain
    expressions' operations in their order, so the bits do not change.
    One writer fills the output and is its ``recompute``, as
    :func:`embed`'s is, and backward recomputes each block's tanh before
    its slope.
    """
    x = a.data
    flat_x = x.reshape(-1)

    def write(target):
        if target.shape != x.shape or not target.flags.c_contiguous:
            raise ContractError(f"gelu writes into a C-contiguous array of shape {x.shape}")
        flat_out = target.reshape(-1)
        t = np.empty(min(x.size, BLOCK))
        for s in _blocks(x.size):
            # out = 0.5 * x * (1 + t)
            xs, ts, outs = flat_x[s], t[: s.stop - s.start], flat_out[s]
            _gelu_tanh(xs, ts)
            np.multiply(0.5, xs, out=outs)
            np.add(1.0, ts, out=ts)
            outs *= ts

    def backward(g):
        # g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * c * (1 + 3 * 0.044715 * x * x)),
        # each product and sum in that order
        flat_g = g.reshape(-1)
        slope = _empty(x.shape)
        flat_slope = slope.reshape(-1)
        t = np.empty(min(x.size, BLOCK))
        buf = np.empty(min(x.size, BLOCK))
        for s in _blocks(x.size):
            xs, ts, ss, b = flat_x[s], t[: s.stop - s.start], flat_slope[s], buf[: s.stop - s.start]
            _gelu_tanh(xs, ts)
            np.multiply(ts, ts, out=b)
            np.subtract(1.0, b, out=b)
            np.multiply(0.5, xs, out=ss)
            ss *= b
            ss *= _GELU_C
            np.multiply(3 * 0.044715, xs, out=b)
            b *= xs
            b += 1.0
            ss *= b
            np.add(1.0, ts, out=b)
            b *= 0.5
            ss += b
            ss *= flat_g[s]
        return (slope,)

    out = _empty(x.shape)
    write(out)
    hidden = _record((a,), out, backward)
    hidden.recompute = write
    return hidden


# ---------------------------------------------------------------------------
# linear algebra and structure


# numpy hands a row-major ``a @ b`` to OpenBLAS as the column-major product
# ``bᵀ·aᵀ``, so ``a`` is the operand that dgemm packs, and OpenBLAS packs
# all of it into per-thread buffers whose touched pages stay resident for
# the life of the process. A product whose ``a`` holds more than two of
# these runs in row slices of about this many bytes of ``a`` each.
_PACK_BYTES = 1 << 20
# OpenBLAS runs a product of at most this many multiply-accumulates
# (rows * K * N) through its small-matrix kernel, whose sums differ from
# the blocked kernel's in the last bit for some shapes (a slice of 1,302
# rows of (64, 12) does; one of 1,303 does not), so every slice stays
# above it.
_SMALL_KERNEL_MACS = 1_000_000
# Each call packs all of ``b`` again, which costs about as much as a few
# dozen rows of the product, so a slice keeps at least this many rows. In
# slices of 43 rows, the forecast head's (256, 2752) @ (2752, 96) took a
# quarter to a half longer than whole.
_MIN_SLICE_ROWS = 512


def _matmul_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``np.matmul(a, b, out=out)``, in nearly equal slices of ``a``'s rows.

    An output row reads only its own row of ``a``, and every slice runs
    OpenBLAS's blocked kernel, so the bits are those of the whole product.
    A one-column product is a matrix-vector product, whose bits depend on
    the row count, so it stays whole.
    """
    rows, inner = a.shape
    cols = b.shape[1]
    slices = 1
    if 8 * rows * inner > 2 * _PACK_BYTES and cols > 1:
        fewest_rows = max(_MIN_SLICE_ROWS, _SMALL_KERNEL_MACS // (inner * cols) + 1)
        slices = max(1, min(-(-8 * rows * inner // _PACK_BYTES), rows // fewest_rows))
    for i in range(slices):
        s = slice(rows * i // slices, rows * (i + 1) // slices)
        np.matmul(a[s], b, out=out[s])


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused x @ w + b for a 2D input and a row-vector bias.

    Every product reaches OpenBLAS through :func:`_matmul_rows`: the
    input and the incoming gradient in slices of their rows, and the
    weight gradient ``xᵀ·g`` in slices of ``xᵀ``'s rows, that is, of the
    input's columns, so each sum over the batch keeps its order.

    An input whose ``recompute`` is set is not kept: backward rebuilds it
    for the weight gradient and lets it go again.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise DimensionError("affine", x.shape, w.shape, b.shape)
    xd, wd = x.data, w.data
    out = _empty((xd.shape[0], wd.shape[1]))
    _matmul_rows(xd, wd, out)
    out += b.data
    rebuild, x_shape = x.recompute, x.shape
    if rebuild is not None:
        xd = None

    def backward(g):
        # the input is let go before its gradient takes a block of its own
        nonlocal xd
        if rebuild is not None:
            xd = _empty(x_shape)
            rebuild(xd)
        gw = np.empty(wd.shape)
        _matmul_rows(xd.T, g, gw)
        xd = None
        gx = _empty((g.shape[0], wd.shape[0]))
        _matmul_rows(g, wd.T, gx)
        return gx, gw, g.sum(axis=0)

    return _record((x, w, b), out, backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape)) != a.size:
        raise DimensionError("reshape", a.shape, shape)
    old = a.shape
    return _record((a,), a.data.reshape(shape), lambda g: (g.reshape(old),))


def take_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` along axis 0, as a view of ``a``."""
    if not 0 <= start <= stop <= a.shape[0]:
        raise DimensionError("take_rows", a.shape, (start, stop))
    shape = a.shape

    def backward(g):
        full = np.zeros(shape)
        full[start:stop] = g
        return (full,)

    return _record((a,), a.data[start:stop], backward)


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


# A reduction's backward returns a read-only view of its small incoming
# gradient broadcast to the input's shape; nothing full-size is written.


def sum_all(a: Tensor) -> Tensor:
    shape = a.shape
    return _record((a,), np.asarray(a.data.sum()), lambda g: (np.broadcast_to(g, shape),))


def sum_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    shape = a.shape

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

    return _record((a,), a.data.sum(axis=axis, keepdims=keepdims), backward)


def mean_all(a: Tensor) -> Tensor:
    shape, n = a.shape, a.size
    return _record((a,), np.asarray(a.data.mean()), lambda g: (np.broadcast_to(g / n, shape),))


def mean_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    shape, n = a.shape, a.shape[axis]

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / n, shape),)

    return _record((a,), a.data.mean(axis=axis, keepdims=keepdims), backward)


STANDARDIZE_EPS = 1e-5


def standardize(a: Tensor) -> Tensor:
    """Zero mean, unit variance over the last axis; no learned parameters.

    Fused so that backward keeps only the output ``y`` and the inverse
    std, and builds the input gradient in one buffer::

        dx = inv_std * (g - mean(g) - y * mean(g * y))

    That buffer is the incoming gradient itself when the sweep owns it
    (see :func:`_run_entry`), since both means are read from it first; the
    output, which a caller may still hold, is never written.
    """
    d = a.shape[-1]
    out = _empty(a.shape)
    np.subtract(a.data, np.einsum("...i->...", a.data)[..., None] / d, out=out)
    var = np.einsum("...i,...i->...", out, out)[..., None] / d
    inv_std = 1.0 / np.sqrt(var + STANDARDIZE_EPS)
    out *= inv_std

    def backward(g):
        c = np.einsum("...i,...i->...", g, out)[..., None] / -d
        mean = np.einsum("...i->...", g)[..., None] / d
        dx = g if g.flags.writeable and g.flags.c_contiguous else _empty(g.shape)
        # in blocks of leading rows (a 1-D input is one row), so that y * c
        # takes a buffer of one block; g + y * c commutes, so the bits are
        # those of dx = y * c; dx += g
        y2, g2, c2, mean2, inv2, dx2 = np.atleast_2d(out, g, c, mean, inv_std, dx)
        rows = max(1, BLOCK // math.prod(g2.shape[1:]))
        buf = np.empty((min(rows, len(g2)),) + g2.shape[1:])
        for s in _blocks(len(g2), rows):
            t = buf[: s.stop - s.start]
            np.multiply(y2[s], c2[s], out=t)
            np.add(g2[s], t, out=dx2[s])
            dx2[s] -= mean2[s]
            dx2[s] *= inv2[s]
        return (dx,)

    return _record((a,), out, backward)


def squared_error(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared difference over all elements."""
    if a.shape != b.shape:
        raise DimensionError("squared_error", a.shape, b.shape)
    d = sub(a, b)
    return mean_all(mul(d, d))


# ---------------------------------------------------------------------------
# encoder glue: embed writes the encoder's input, projection to positions,
# in one op, and _pad_into writes every padded layout; each block op
# writes its output in one pass, so a block allocates no pad, slice or
# dropout copies beside the learner's own arrays


def embed(
    patches: Tensor, w: Tensor, b: Tensor, pos: Tensor, mask: np.ndarray | None = None, fill: Tensor | None = None
) -> Tensor:
    """The encoder's input: (B, N, P) patches to (B, N, D) latents.

    Each patch is projected (``patches @ w + b``), the rows that the
    (B, N) ``mask`` selects with 1 are swapped for the (D,) vector
    ``fill``, and the (N, D) positional table ``pos`` is added. The
    fill's gradient is the gradient sum over all replaced rows.

    One writer fills the output and is its ``recompute``, so a rebuild
    has the forward's bits by construction. It writes one whole
    :func:`_matmul_rows` product into its C-contiguous target and adds
    the bias, swap and positions in place, so the latents are those of
    one whole product. Backward zeroes the masked rows of the incoming
    gradient itself when the sweep owns it (see :func:`_run_entry`).
    """
    if patches.data.ndim != 3 or w.data.ndim != 2:
        raise DimensionError("embed", patches.shape, w.shape)
    batch, n, p = patches.shape
    d = w.shape[1]
    if w.shape[0] != p or b.shape != (d,) or pos.shape != (n, d):
        raise DimensionError("embed", patches.shape, w.shape, b.shape, pos.shape)
    if mask is not None and (mask.shape != (batch, n) or fill is None or fill.shape != (d,)):
        raise DimensionError("embed", patches.shape, mask.shape, () if fill is None else fill.shape)
    xd, wd, bd, posd = patches.data.reshape(batch * n, p), w.data, b.data, pos.data
    rows = None if mask is None else mask.astype(bool)
    fill_d = None if fill is None else fill.data

    def write(target):
        if target.shape != (batch, n, d) or not target.flags.c_contiguous:
            raise ContractError(f"embed writes into a C-contiguous array of shape {(batch, n, d)}")
        _matmul_rows(xd, wd, target.reshape(batch * n, d))
        target += bd
        if rows is not None:
            target[rows] = fill_d
        target += posd

    def backward(g):
        sums = (g.sum(axis=0),)
        if rows is not None:
            sums += (g[rows].sum(axis=0),)
            if not (g.flags.writeable and g.flags.c_contiguous):
                copy = _empty(g.shape)
                np.copyto(copy, g)
                g = copy
            g[rows] = 0.0
        gz = g.reshape(batch * n, d)
        gw = np.empty(wd.shape)
        _matmul_rows(xd.T, gz, gw)
        gx = _empty(xd.shape)
        _matmul_rows(gz, wd.T, gx)
        return (gx.reshape(batch, n, p), gw, gz.sum(axis=0)) + sums

    out = _empty((batch, n, d))
    write(out)
    inputs = (patches, w, b, pos) if rows is None else (patches, w, b, pos, fill)
    latents = _record(inputs, out, backward)
    latents.recompute = write
    return latents


def _pad_into(src: np.ndarray, full: np.ndarray) -> None:
    """Write (B, n, D) ``src`` into ``full[:, :n]`` and zero ``full[:, n:]``.

    Batch rows go last first, in groups of about ``BLOCK`` elements of
    ``full``: a row's padded place starts past every earlier row's place
    in ``src``, so ``src`` may also be rows at the front of ``full``'s own
    memory (numpy buffers a group that overlaps its source).
    """
    n = src.shape[1]
    rows = max(1, BLOCK // math.prod(full.shape[1:]))
    for s in reversed(list(_blocks(len(src), rows))):
        full[s, :n] = src[s]
        full[s, n:] = 0.0


def window_partition(z: Tensor, window: int) -> Tensor:
    """Group patches into windows: (B, N, D) -> (B * ceil(N/W), W * D).

    The patches are copied once into the output, whose patch axis is
    zero-padded up to a multiple of the window size. The ``data`` of an
    input that an operation made (one with a node, with or without a
    tape) then becomes the output's first ``n`` patch slots: the same
    values, so the input's own array is freed unless something else holds
    it. A leaf's ``data`` is never replaced.

    An input that can be rebuilt (``recompute``) gives the output a
    rebuild too: its input's, written at the head of the layout's block
    and then padded in place.
    """
    if z.data.ndim != 3:
        raise DimensionError("window_partition", z.shape, (window,))
    b, n, d = z.shape
    groups = -(-n // window)
    out = _empty((b * groups, window * d))
    padded = out.reshape(b, groups * window, d)
    _pad_into(z.data, padded)
    padded_shape = padded.shape
    windows = _record((z,), out, lambda g: (g.reshape(padded_shape)[:, :n],))
    if z.node is not None:
        z.data = padded[:, :n]
    rebuild_input = z.recompute
    if rebuild_input is not None:

        def rebuild(target):
            if not target.flags.c_contiguous:
                raise ContractError("window_partition rebuilds into a C-contiguous array")
            head = target.reshape(-1)[: b * n * d].reshape(b, n, d)
            rebuild_input(head)
            _pad_into(head, target.reshape(padded_shape))

        windows.recompute = rebuild
    return windows


def window_merge(z: Tensor, batch: int, n: int, dim: int) -> Tensor:
    """Inverse of :func:`window_partition`: the first ``n`` patches, as a view.

    Backward pads the gradient with :func:`_pad_into` into the incoming
    gradient's own block when the sweep owns the gradient (see
    :func:`_run_entry`) and the block has room for the padded layout
    (block sizes are rounded up, see :func:`_empty`); otherwise into a
    new array.
    """
    if z.size % (batch * dim) or z.size // (batch * dim) < n:
        raise DimensionError("window_merge", z.shape, (batch, n, dim))
    full = z.data.reshape(batch, -1, dim)
    full_shape, flat_shape, size = full.shape, z.shape, z.size

    def backward(g):
        block = g.base if g.flags.writeable and g.flags.c_contiguous else None
        if block is not None and block.nbytes >= 8 * size and g.ctypes.data == block.ctypes.data:
            g_full = block[:size].reshape(full_shape)
        else:
            g_full = _empty(full_shape)
        _pad_into(g, g_full)
        return (g_full.reshape(flat_shape),)

    return _record((z,), full[:, :n], backward)


def dropout_add(a: Tensor, b: Tensor, p: float, rng: Rng | None, train: bool) -> Tensor:
    """``a + dropout(b)`` with Bernoulli dropout scaled by 1/(1-p), over a leading batch axis.

    Dropout is the identity when not training or at ``p == 0``; the sum
    is then the only array written.
    """
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout probability {p} outside [0, 1)")
    if a.shape != b.shape or not a.shape:
        raise DimensionError("dropout_add", a.shape, b.shape)
    out = _empty(b.shape)
    if not train or p == 0.0:
        np.add(a.data, b.data, out=out)
        return _record((a, b), out, lambda g: (g, g))
    if rng is None:
        raise ContractError("train-mode dropout needs an rng stream")
    # a 1-byte keep mask; keep * scale equals where(drop, 0, scale), so
    # both products match the float-mask form bit for bit. Both run in
    # blocks of whole batch rows.
    scale = 1.0 / (1.0 - p)
    keep = rng.bernoulli(p, b.shape)
    np.logical_not(keep, out=keep)
    rows = max(1, BLOCK // max(1, math.prod(b.shape[1:])))
    for s in _blocks(b.shape[0], rows):
        outs = out[s]
        np.multiply(keep[s], scale, out=outs)
        outs *= b.data[s]
        outs += a.data[s]

    def backward(g):
        gb = _empty(g.shape)
        for s in _blocks(g.shape[0], rows):
            gbs = gb[s]
            np.multiply(keep[s], scale, out=gbs)
            gbs *= g[s]
        return (g, gb)

    return _record((a, b), out, backward)
