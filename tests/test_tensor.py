"""Forward contracts and gradient correctness of every autodiff primitive."""

import contextlib
import inspect
import math
import weakref

import numpy as np
import pytest

from conftest import assert_grad_close, central_diff
from decop import tensor as T
from decop.errors import ContractError, DimensionError
from decop.rng import Rng, fnv1a64
from decop.tensor import Tape, Tensor


def run_backward(build):
    with Tape() as tape:
        loss = build()
    tape.backward(loss)


# ---------------------------------------------------------------------------
# forward examples


def test_matmul_identity_case():
    a = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    eye = Tensor(np.eye(3))
    assert np.array_equal(T.affine(a, eye, Tensor(np.zeros(3))).data, a.data)
    b = Tensor(np.arange(6.0).reshape(3, 2))
    assert np.allclose(T.affine(a, b, Tensor(np.zeros(2))).data, a.data @ b.data)


def test_mean_axis_rows():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(T.mean_axis(x, axis=1).data, [1.5, 3.5])


def test_dropout_p_zero_is_exact_identity():
    a = Tensor(np.linspace(1, 3, 12).reshape(3, 4))
    x = Tensor(np.linspace(-2, 2, 12).reshape(3, 4))
    out = T.dropout_add(a, x, 0.0, Rng(1), train=True)
    assert np.array_equal(out.data, a.data + x.data)


def test_dropout_eval_mode_is_identity():
    a = Tensor(np.full((4, 4), 0.5))
    x = Tensor(np.ones((4, 4)))
    out = T.dropout_add(a, x, 0.5, None, train=False)
    assert np.array_equal(out.data, a.data + x.data)


def test_dropout_mask_expectation():
    # mean of dropout(1, p) over many draws stays within 3 standard errors of 1
    p = 0.3
    n = 40_000
    out = T.dropout_add(Tensor(np.zeros(n)), Tensor(np.ones(n)), p, Rng(8), train=True)
    scale = 1.0 / (1.0 - p)
    se = np.sqrt(p * (1 - p) / n) * scale
    assert abs(out.data.mean() - 1.0) < 3 * se


def test_shape_mismatch_names_operation():
    with pytest.raises(DimensionError, match="affine"):
        T.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.zeros(3)))
    with pytest.raises(DimensionError, match="add"):
        T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))
    # dropout runs over a leading batch axis, which a 0-d value lacks
    with pytest.raises(DimensionError, match="dropout_add"):
        T.dropout_add(Tensor(np.ones(())), Tensor(np.ones(())), 0.5, Rng(1), train=True)


def test_broadcast_row_vector_over_rows():
    m = Tensor(np.zeros((3, 4)))
    v = Tensor(np.arange(4.0))
    out = T.add(m, v)
    assert np.array_equal(out.data, np.tile(np.arange(4.0), (3, 1)))


# ---------------------------------------------------------------------------
# backward contracts


def test_sum_gradient_is_ones():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    run_backward(lambda: T.sum_all(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_non_scalar_loss_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, x)
    with pytest.raises(ContractError, match="scalar"):
        tape.backward(y)


def test_backward_clears_tape_and_releases_intermediates():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, x)
        loss = T.sum_all(y)
    tape.backward(loss)
    assert tape.entries == []
    assert y.grad is None and loss.grad is None
    assert x.grad is not None


def test_output_no_backward_reads_is_freed_while_the_tape_is_active():
    x = Tensor(np.ones((4, 5)), requires_grad=True)
    with Tape() as tape:
        y = T.add(x, x)
        loss = T.sum_all(y)
        alive = weakref.ref(y.data)
        del y
        assert alive() is None
    tape.backward(loss)
    assert np.array_equal(x.grad, np.full((4, 5), 2.0))


def test_mul_by_constant_keeps_no_reference_to_the_other_operand():
    p = Tensor(np.arange(6.0), requires_grad=True)
    with Tape() as tape:
        x = T.add(p, p)
        loss = T.sum_all(T.mul(x, Tensor(3.0)))
        alive = weakref.ref(x.data)
        del x
        assert alive() is None
    tape.backward(loss)
    assert np.array_equal(p.grad, np.full(6, 6.0))


def test_sweep_frees_later_entries_before_earlier_ones_run():
    # exp keeps its output for its backward; by the time the sweep reaches
    # the earlier probe entry, exp's entry and that output must be gone
    p = Tensor(np.linspace(0.0, 1.0, 8), requires_grad=True)
    freed = []

    def probe(g):
        freed.append(captured() is None)
        return (g * 2.0,)

    with Tape() as tape:
        h = Tensor(p.data * 2.0, requires_grad=True)
        tape.record((p,), h, probe)
        e = T.exp(h)
        captured = weakref.ref(e.data)
        loss = T.sum_all(e)
        del e, h
    assert captured() is not None
    tape.backward(loss)
    assert freed == [True]
    assert tape.entries == []
    assert np.allclose(p.grad, 2.0 * np.exp(2.0 * np.linspace(0.0, 1.0, 8)))


def test_grad_accumulates_across_backwards():
    x = Tensor(np.ones(2), requires_grad=True)
    for _ in range(2):
        run_backward(lambda: T.sum_all(x))
    assert np.array_equal(x.grad, [2.0, 2.0])


def test_empty_tape_rejected():
    with Tape() as tape:
        pass
    with pytest.raises(ContractError, match="empty"):
        tape.backward(Tensor(0.0))


def test_nested_tape_rejected():
    with Tape():
        with pytest.raises(ContractError, match="already active"):
            with Tape():
                pass


def test_mse_through_two_layer_mlp_matches_finite_differences():
    # the spec's composed sanity case: random 4x8 input, 2-layer net, MSE loss
    rng = Rng(2024)
    x = rng.normal((4, 8))
    target = rng.normal((4, 3))
    w1 = Tensor(rng.normal((8, 5)) * 0.5, requires_grad=True)
    b1 = Tensor(rng.normal(5) * 0.1, requires_grad=True)
    w2 = Tensor(rng.normal((5, 3)) * 0.5, requires_grad=True)
    b2 = Tensor(rng.normal(3) * 0.1, requires_grad=True)
    params = {"w1": w1, "b1": b1, "w2": w2, "b2": b2}

    def loss_tensor():
        h = T.gelu(T.affine(Tensor(x), w1, b1))
        return T.squared_error(T.affine(h, w2, b2), Tensor(target))

    run_backward(loss_tensor)
    for name, p in params.items():
        def numeric(values, p=p):
            keep = p.data.copy()
            p.data = values
            out = float(loss_tensor().data)
            p.data = keep
            return out

        assert_grad_close(p.grad, central_diff(numeric, p.data.copy()), name)


# ---------------------------------------------------------------------------
# per-primitive gradient sweep


def _fd_check(op_name, build, leaves):
    run_backward(build)
    for i, leaf in enumerate(leaves):
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)

        def numeric_sum(values, leaf=leaf):
            keep = leaf.data.copy()
            leaf.data = values
            out = float(np.sum(build().data))
            leaf.data = keep
            return out

        assert_grad_close(analytic, central_diff(numeric_sum, leaf.data.copy()), f"{op_name}[{i}]")


def _sumified(op):
    return lambda *tensors: T.sum_all(op(*tensors))


@pytest.mark.parametrize(
    "name, op, shapes",
    [
        ("add", T.add, [(3, 4), (3, 4)]),
        ("add_broadcast", T.add, [(3, 4), (4,)]),
        ("add_scalar", T.add, [(3, 4), ()]),
        ("sub", T.sub, [(3, 4), (3, 4)]),
        ("sub_broadcast", T.sub, [(2, 3, 4), (2, 3, 1)]),
        ("mul", T.mul, [(3, 4), (3, 4)]),
        ("mul_broadcast", T.mul, [(2, 3, 4), (3, 4)]),
        ("div", T.div, [(3, 4), (3, 4)]),
    ],
)
def test_primitive_gradients(name, op, shapes):
    rng = Rng(fnv1a64(name))
    leaves = [Tensor(rng.normal(s) + (2.5 if name == "div" else 0.0), requires_grad=True) for s in shapes]
    _fd_check(name, lambda: T.sum_all(op(*leaves)), leaves)


@pytest.mark.parametrize(
    "name, build_op",
    [
        ("sqrt", lambda x: T.sqrt(x)),
        ("exp", lambda x: T.exp(x)),
        ("log", lambda x: T.log(x)),
        ("gelu", lambda x: T.gelu(x)),
        ("clamp_min", lambda x: T.clamp_min(x, 0.5)),
        ("reshape", lambda x: T.reshape(x, (4, 3))),
        ("window_partition", lambda x: T.window_partition(T.reshape(x, (1, 3, 4)), 2)),
        ("sum_axis", lambda x: T.sum_axis(x, 1)),
        ("mean_axis", lambda x: T.mean_axis(x, 0)),
        ("mean_all", lambda x: T.mean_all(x)),
    ],
)
def test_unary_gradients(name, build_op):
    rng = Rng(fnv1a64(name))
    x = Tensor(np.abs(rng.normal((3, 4))) + 1.2, requires_grad=True)
    _fd_check(name, lambda: T.sum_all(build_op(x)), [x])


def test_gelu_gradient_on_negative_inputs():
    # GELU's slope dips below zero left of x = -0.75 and is 0.5 at the origin
    values = [-4.0, -3.0, -2.0, -1.5, -1.0, -0.75, -0.5, -0.1, -1e-3, 0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 4.0]
    x = Tensor(np.array(values).reshape(4, 4), requires_grad=True)
    _fd_check("gelu", lambda: T.sum_all(T.gelu(x)), [x])


def test_gelu_matches_pow_form_within_rounding():
    x = np.concatenate([
        Rng(41).normal(200_000) * 3.0,
        np.linspace(-30.0, 30.0, 10_001),
        [0.0, -0.0, 1e-300, -1e-300],
    ])
    c = np.sqrt(2.0 / np.pi)
    out = T.gelu(Tensor(x)).data
    assert np.array_equal(out, 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * (x * x * x)))))
    pow_form = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))
    assert np.abs(out - pow_form).max() <= 1e-15


@pytest.mark.parametrize(
    "shape",
    [(3264, 256), (512, 512), (1024, 256), (), (1,), (T.BLOCK - 1,), (T.BLOCK,), (3, T.BLOCK // 3 + 1)],
)
def test_gelu_backward_matches_the_plain_expression_bit_for_bit(shape):
    # forward too; the shapes straddle the kernels' block boundaries
    rng = Rng(fnv1a64(f"gelu-backward-{shape}"))
    x = rng.normal(shape) * 3.0
    g = rng.normal(shape)
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    sech2 = 1.0 - t * t
    expected = g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * c * (1.0 + 3 * 0.044715 * x * x))
    a = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = T.gelu(a)
        loss = T.sum_all(T.mul(out, Tensor(g)))
    tape.backward(loss)
    assert np.array_equal(out.data, 0.5 * x * (1.0 + t))
    assert np.array_equal(a.grad, expected)


def test_dropout_gradient_with_pinned_mask():
    a = Tensor(Rng(4).normal((6, 5)), requires_grad=True)
    x = Tensor(Rng(5).normal((6, 5)), requires_grad=True)

    def build():
        out = T.dropout_add(a, x, 0.4, Rng(77), train=True)
        return T.sum_all(T.mul(out, out))

    _fd_check("dropout_add", build, [a, x])


def test_squared_error_gradient():
    a = Tensor(Rng(6).normal((4, 3)), requires_grad=True)
    b = Tensor(Rng(7).normal((4, 3)), requires_grad=True)
    _fd_check("squared_error", lambda: T.squared_error(a, b), [a, b])


def test_determinism_identical_outputs_and_gradients():
    def one_run():
        rng = Rng(31)
        x = Tensor(rng.normal((5, 4)), requires_grad=True)
        w = Tensor(rng.normal((4, 4)), requires_grad=True)
        with Tape() as tape:
            hidden = T.gelu(T.affine(x, w, Tensor(np.zeros(4))))
            out = T.dropout_add(hidden, hidden, 0.3, rng.child("drop"), train=True)
            loss = T.mean_all(T.mul(out, out))
        tape.backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first, second = one_run(), one_run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_finite_outputs_on_finite_inputs():
    rng = Rng(17)
    x = Tensor(rng.normal((8, 8)) * 5)
    for out in (T.gelu(x), T.exp(T.mul(x, Tensor(0.1))), T.sqrt(T.add(T.mul(x, x), Tensor(1e-5)))):
        assert np.isfinite(out.data).all()


def test_clamp_min_flattens_below_floor():
    x = Tensor(np.array([0.2, 0.7, -1.0]), requires_grad=True)
    run_backward(lambda: T.sum_all(T.clamp_min(x, 0.5)))
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])
    assert np.array_equal(T.clamp_min(x, 0.5).data, [0.5, 0.7, 0.5])


def test_affine_gradient_and_shapes():
    rng = Rng(fnv1a64("affine"))
    x = Tensor(rng.normal((5, 3)), requires_grad=True)
    w = Tensor(rng.normal((3, 4)), requires_grad=True)
    b = Tensor(rng.normal(4), requires_grad=True)
    assert np.allclose(T.affine(x, w, b).data, x.data @ w.data + b.data)
    _fd_check("affine", lambda: T.sum_all(T.affine(x, w, b)), [x, w, b])
    with pytest.raises(DimensionError, match="affine"):
        T.affine(x, w, Tensor(np.zeros(5)))


def _embed_operands(masked):
    rng = Rng(fnv1a64("embed"))
    patches = Tensor(rng.normal((2, 4, 3)), requires_grad=True)
    w = Tensor(rng.normal((3, 5)), requires_grad=True)
    b = Tensor(rng.normal(5), requires_grad=True)
    pos = Tensor(rng.normal((4, 5)), requires_grad=True)
    fill = Tensor(rng.normal(5), requires_grad=True)
    mask = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0]]) if masked else None
    return patches, w, b, pos, mask, fill


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_embed_forward_and_gradient(masked):
    patches, w, b, pos, mask, fill = _embed_operands(masked)
    out = T.embed(patches, w, b, pos, mask, fill if masked else None)
    projected = patches.data @ w.data + b.data + pos.data
    if masked:
        assert np.array_equal(out.data[0, 0], fill.data + pos.data[0])
        assert np.array_equal(out.data[1, 1], fill.data + pos.data[1])
        keep = mask == 0
        assert np.allclose(out.data[keep], projected[keep])
    else:
        assert np.allclose(out.data, projected)

    def build():
        out = T.embed(patches, w, b, pos, mask, fill if masked else None)
        return T.sum_all(T.mul(out, out))

    # without a mask the fill is no input, and its gradient stays zero
    _fd_check("embed", build, [patches, w, b, pos, fill])


def test_embed_names_itself_for_each_malformed_operand():
    patches, w, b, pos, mask, fill = _embed_operands(masked=True)
    cases = {
        "patches not 3-D": (Tensor(patches.data[0]), w, b, pos),
        "weight not 2-D": (patches, Tensor(w.data[0]), b, pos),
        "weight rows": (patches, Tensor(w.data[:2]), b, pos),
        "bias": (patches, w, Tensor(b.data[:4]), pos),
        "positions": (patches, w, b, Tensor(pos.data[:3])),
        "position width": (patches, w, b, Tensor(pos.data[:, :4])),
        "mask shape": (patches, w, b, pos, mask[:, :3], fill),
        "mask without fill": (patches, w, b, pos, mask),
        "fill shape": (patches, w, b, pos, mask, Tensor(fill.data[:4])),
    }
    for case, operands in cases.items():
        with pytest.raises(DimensionError, match="embed"):
            T.embed(*operands)
            pytest.fail(case)


def test_window_merge_gradient_and_values():
    # batch 2, 5 patches of width 3 in windows of 2: 3 groups, one pad patch
    x = Tensor(np.arange(36.0).reshape(6, 6), requires_grad=True)
    out = T.window_merge(x, 2, 5, 3)
    assert np.array_equal(out.data, x.data.reshape(2, 6, 3)[:, :5])

    def build():
        out = T.window_merge(x, 2, 5, 3)
        return T.sum_all(T.mul(out, out))

    _fd_check("window_merge", build, [x])
    run_backward(build)
    assert np.array_equal(x.grad.reshape(2, 6, 3)[:, 5], np.zeros((2, 3)))


def test_take_rows_gradient_and_values():
    x = Tensor(Rng(fnv1a64("take_rows")).normal((6, 3)), requires_grad=True)
    assert np.array_equal(T.take_rows(x, 2, 5).data, x.data[2:5])

    def build():
        out = T.take_rows(x, 2, 5)
        return T.sum_all(T.mul(out, out))

    _fd_check("take_rows", build, [x])


def test_concat_rows_gradient_and_values():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.zeros((4, 3)), requires_grad=True)
    out = T.concat_rows(a, b)
    assert out.shape == (6, 3)
    def build():
        out = T.concat_rows(a, b)
        return T.sum_all(T.mul(out, out))

    _fd_check("concat", build, [a, b])


def test_standardize_rows_have_zero_mean_and_unit_variance():
    rng = Rng(fnv1a64("standardize"))
    x = Tensor(rng.normal((3, 4, 8)) * 3.0 + 1.5)
    out = T.standardize(x).data
    centred = x.data - x.data.mean(axis=-1, keepdims=True)
    expected = centred / np.sqrt(x.data.var(axis=-1, keepdims=True) + T.STANDARDIZE_EPS)
    assert np.allclose(out, expected, rtol=1e-12, atol=1e-12)
    assert np.abs(out.mean(axis=-1)).max() < 1e-12
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-5)
    # a constant row has zero variance: eps keeps it finite and zero
    flat = T.standardize(Tensor(np.full((2, 5), 7.0))).data
    assert np.array_equal(flat, np.zeros((2, 5)))


def test_standardize_gradient():
    rng = Rng(fnv1a64("standardize-grad"))
    x = Tensor(rng.normal((2, 3, 5)) * 2.0 + 0.7, requires_grad=True)
    weights = Tensor(rng.normal((2, 3, 5)))
    _fd_check("standardize", lambda: T.sum_all(T.mul(T.standardize(x), weights)), [x])
    x.grad = None
    def build_sq():
        out = T.mul(T.standardize(x), weights)
        return T.sum_all(T.mul(out, out))

    _fd_check("standardize_sq", build_sq, [x])


def test_standardize_backward_leaves_incoming_gradient_intact():
    # add hands the same gradient array to both inputs; a backward rule
    # that wrote into it would corrupt the second standardize's input grad
    rng = Rng(fnv1a64("standardize-shared"))
    x = Tensor(rng.normal((4, 6)), requires_grad=True)
    weights = Tensor(rng.normal((4, 6)))

    def build():
        both = T.add(T.standardize(x), T.standardize(T.mul(x, x)))
        return T.sum_all(T.mul(both, weights))

    _fd_check("standardize_shared", build, [x])


# ---------------------------------------------------------------------------
# in-place accumulation in the sweep


def test_sweep_adds_into_a_gradient_array_only_it_holds():
    # h feeds two ops; the first contribution the sweep stores is an array
    # nothing else holds, so the second one is added into it in place
    p = Tensor(np.arange(4.0), requires_grad=True)
    stored, received = [], []

    def first_contribution(g):
        out = g * 2.0
        stored.append(weakref.ref(out))
        return (out,)

    def probe(g):
        received.append(g is stored[0]())
        return (g,)

    with Tape() as tape:
        h = Tensor(p.data.copy(), requires_grad=True)
        tape.record((p,), h, probe)
        other = T.mul(h, Tensor(3.0))
        y = Tensor(h.data * 2.0, requires_grad=True)
        tape.record((h,), y, first_contribution)
        loss = T.add(T.sum_all(y), T.sum_all(other))
    tape.backward(loss)
    assert received == [True]
    assert np.array_equal(p.grad, np.full(4, 5.0))


@pytest.mark.parametrize("through_view", [False, True], ids=["owned", "view"])
def test_gradient_shared_by_two_inputs_is_not_added_into(through_view):
    # add's backward returns one array for both of its inputs. When u gets
    # a second contribution later in the sweep, v's gradient (the same
    # array, or the base of u's view of it) must stay as it was.
    rng = Rng(fnv1a64("shared-grad"))
    x = Tensor(rng.normal((2, 3) if through_view else (4, 3)), requires_grad=True)
    w = Tensor(rng.normal((4, 3)), requires_grad=True)
    c = Tensor(rng.normal(x.shape))
    k = Tensor(rng.normal((4, 3)))
    rest = Tensor(rng.normal((2, 3)))

    def build():
        u = T.mul(x, x)
        v = T.mul(w, w)
        other_use = T.mul(u, c)
        if through_view:
            # concat_rows hands u a view of the array add gives both inputs
            u = T.concat_rows(u, rest)
        y = T.add(u, v)
        return T.add(T.sum_all(T.mul(y, k)), T.sum_all(other_use))

    _fd_check("shared", build, [x, w])


def test_dropout_add_of_one_tensor_with_itself_matches_finite_differences():
    # dropout_add(h, h) gives h two contributions; the first is the very
    # array add hands to e as well, so adding the second into it in place
    # would change e's gradient
    rng = Rng(fnv1a64("dropout-self"))
    x = Tensor(rng.normal((6, 5)), requires_grad=True)
    w = Tensor(rng.normal((6, 5)), requires_grad=True)
    k = Tensor(rng.normal((6, 5)))

    def build():
        h = T.mul(x, x)
        e = T.mul(w, w)
        d = T.dropout_add(h, h, 0.4, Rng(77), train=True)
        return T.sum_all(T.mul(T.add(d, e), k))

    _fd_check("dropout_add_self", build, [x, w])


def _check_dropout_add_bits(shape):
    p, seed = 0.4, fnv1a64("dropout-bits")
    scale = 1.0 / (1.0 - p)
    values = Rng(seed).normal(int(np.prod(shape))) * 10.0
    values[:10] = [0.0, -0.0, -1.5, 1e300, -1e300, 3e299, 5e-324, -5e-324, 7.25, -0.1]
    a = Tensor(values.reshape(shape), requires_grad=True)
    b = Tensor(values[::-1].reshape(shape), requires_grad=True)
    g = np.roll(values, 5).reshape(shape)
    drop = Rng(seed).bernoulli(p, shape)
    assert drop.any() and not drop.all()

    with Tape() as tape:
        out = T.dropout_add(a, b, p, Rng(seed), train=True)
    _, _, backward = tape.entries[-1]
    _, gb = backward(g)

    float_mask = np.where(drop, 0.0, scale)
    assert np.array_equal(out.data.view(np.uint64), (b.data * float_mask + a.data).view(np.uint64))
    assert np.array_equal(gb.view(np.uint64), (g * float_mask).view(np.uint64))
    kept = [c.cell_contents for c in backward.__closure__ if isinstance(c.cell_contents, np.ndarray)]
    assert [m.itemsize for m in kept] == [1]


def test_dropout_add_matches_the_float_mask_form_bit_for_bit():
    _check_dropout_add_bits((8, 16))


@pytest.mark.parametrize("shape", [(9, 5, T.BLOCK // 40), (3, T.BLOCK + 1), (T.BLOCK + 1, 1)])
def test_dropout_add_bits_hold_across_row_blocks(shape):
    # several blocks of rows, the last one short; rows wider than a block
    _check_dropout_add_bits(shape)


# ---------------------------------------------------------------------------
# block sizes of large arrays


@pytest.mark.parametrize("batch", [256, 512])
def test_nearly_equal_latents_take_one_block_size(batch):
    # the latent and the two padded window layouts of the benchmark shape
    arrays = [T._empty((batch, slots, 64)) for slots in (43, 44, 45)]
    for a, slots in zip(arrays, (43, 44, 45)):
        assert a.shape == (batch, slots, 64)
        assert a.dtype == np.float64 and a.flags["C_CONTIGUOUS"]
        assert a.base is not None and a.base.base is None
    sizes = {a.base.nbytes for a in arrays}
    assert len(sizes) == 1
    # four sizes per power of two: 12 MiB and 6 MiB blocks
    assert sizes == {(6 << 20) * batch // 256}


def test_small_arrays_and_exact_block_sizes_are_not_padded():
    small = T._empty((127, 1024))
    assert small.base is None and small.shape == (127, 1024)
    exact = T._empty((5, 1 << 17))
    assert exact.base.nbytes == exact.nbytes == 5 << 20


def test_sweep_adds_into_a_rounded_gradient_only_it_holds():
    # a rounded gradient is a view of its block; when nothing else views
    # the block, the second contribution is added into it in place
    shape = (256, 43, 64)
    p = Tensor(np.ones(shape), requires_grad=True)
    stored, received = [], []

    def first_contribution(g):
        out = T._empty(g.shape)
        np.multiply(g, 2.0, out=out)
        stored.append(weakref.ref(out.base))
        return (out,)

    def probe(g):
        received.append(g.base is stored[0]())
        return (g,)

    with Tape() as tape:
        h = Tensor(p.data.copy(), requires_grad=True)
        tape.record((p,), h, probe)
        other = T.mul(h, Tensor(3.0))
        y = Tensor(h.data * 2.0, requires_grad=True)
        tape.record((h,), y, first_contribution)
        loss = T.add(T.sum_all(y), T.sum_all(other))
    tape.backward(loss)
    assert received == [True]
    assert np.array_equal(p.grad, np.full(shape, 5.0))


# ---------------------------------------------------------------------------
# rules that write into an array only the sweep or the rule holds


def _broadcast_then_returned(read_only):
    """h gets a read-only broadcast from mean_axis, then an array that a rule
    returns, writeable or read-only; returns p's gradient and whether the sum
    went into that array."""
    rng = Rng(fnv1a64("broadcast-then-returned"))
    p = Tensor(rng.normal((4, 5, 3)), requires_grad=True)
    w = Tensor(rng.normal((4, 3)))
    k = rng.normal((4, 5, 3))
    returned, received = [], []

    def second_use(g):
        out = g * k
        out.flags.writeable = not read_only
        returned.append((out, out.copy()) if read_only else (weakref.ref(out), None))
        return (out,)

    def probe(g):
        out, _ = returned[0]
        received.append(g is (out if read_only else out()))
        return (g,)

    with Tape() as tape:
        h = Tensor(p.data.copy(), requires_grad=True)
        tape.record((p,), h, probe)
        y = Tensor(h.data.copy(), requires_grad=True)
        tape.record((h,), y, second_use)
        loss = T.add(T.sum_all(y), T.sum_all(T.mul(T.mean_axis(h, axis=1), w)))
    tape.backward(loss)
    expected = np.broadcast_to((w.data / 5)[:, None, :], k.shape) + k
    assert np.array_equal(p.grad, expected)
    if read_only:
        out, values = returned[0]
        assert np.array_equal(out, values)
    return p.grad, received == [True]


def test_stored_broadcast_is_added_into_a_returned_gradient_only_the_sweep_holds():
    # the stored broadcast is read-only, so the sum goes into the returned
    # array when it is writeable (the sweep owns it), and into a new array
    # when it is read-only, which stays as it was; both sums have the same
    # bits
    in_place, into_owned = _broadcast_then_returned(read_only=False)
    allocated, into_read_only = _broadcast_then_returned(read_only=True)
    assert into_owned and not into_read_only
    assert np.array_equal(in_place.view(np.uint64), allocated.view(np.uint64))


def test_gradient_handed_to_two_inputs_is_never_added_into():
    # add's backward hands u and v one array while each already holds a
    # read-only broadcast from mean_axis; adding u's broadcast into that
    # array would change v's gradient too
    rng = Rng(fnv1a64("shared-incoming"))
    x = Tensor(rng.normal((3, 4, 2)), requires_grad=True)
    w = Tensor(rng.normal((3, 4, 2)), requires_grad=True)
    k = Tensor(rng.normal((3, 4, 2)))
    c = Tensor(rng.normal((3, 2)))

    def build():
        u = T.mul(x, x)
        v = T.mul(w, w)
        y = T.add(u, v)
        pooled = T.add(T.mean_axis(u, axis=1), T.mul(T.mean_axis(v, axis=1), c))
        return T.add(T.sum_all(T.mul(y, k)), T.sum_all(T.mul(pooled, c)))

    _fd_check("shared_incoming", build, [x, w])


@pytest.mark.parametrize(
    "batch, n, dim, window, room",
    [(64, 43, 64, 5, True), (1024, 4, 32, 3, False)],
    ids=["room", "no-room"],
)
def test_window_merge_pads_a_gradient_it_owns_in_place_with_the_same_bits(batch, n, dim, window, room):
    # 43 patches in windows of 5 take 45 slots, which fit the incoming
    # gradient's rounded block; 11 batch rows move per slice, so the 64 rows
    # take six slices, the last one short. A 1 MiB gradient takes an exact
    # 1 MiB block, which cannot hold its padded layout of 6 slots for 4.
    slots = -(-n // window) * window
    z = Tensor(np.zeros((batch * slots // window, window * dim)), requires_grad=True)
    with Tape() as tape:
        T.window_merge(z, batch, n, dim)
    backward = tape.entries[-1][2]
    values = Rng(fnv1a64("merge-in-place")).normal((batch, n, dim))
    blocks = []

    def gradient():
        g = T._empty(values.shape)
        np.copyto(g, values)
        blocks.append(weakref.ref(g.base))
        return g

    (in_place,) = backward(gradient())
    # a read-only view of the same block: the sweep does not own it
    held = gradient()
    read_only = held.view()
    read_only.flags.writeable = False
    (allocated,) = backward(read_only)
    assert (in_place.base is blocks[0]()) == room
    assert allocated.base is not blocks[1]()
    assert np.array_equal(held, values)
    expected = np.zeros((batch, slots, dim))
    expected[:, :n] = values
    for g_full in (in_place, allocated):
        assert np.array_equal(g_full.reshape(expected.shape).view(np.uint64), expected.view(np.uint64))


def test_window_merge_pads_in_place_when_every_rule_is_wrapped(pass_through_rules):
    # the wrapper holds the incoming gradient while window_merge runs, as a
    # tracer or a debugger would; the sweep still owns it, so the padded
    # gradient is still a view of the incoming block
    batch, n, dim, window = 64, 43, 64, 5
    slots = -(-n // window) * window
    values = Rng(fnv1a64("merge-wrapped")).normal((batch, n, dim))
    blocks, received = [], []

    def upstream(g):
        out = T._empty(values.shape)
        np.copyto(out, values)
        blocks.append(weakref.ref(out.base))
        return (out,)

    def probe(g):
        received.append(g)
        return (g,)

    p = Tensor(np.zeros((batch * slots // window, window * dim)), requires_grad=True)
    with Tape() as tape:
        h = Tensor(p.data.copy(), requires_grad=True)
        tape.record((p,), h, probe)
        merged = T.window_merge(h, batch, n, dim)
        y = Tensor(merged.data.copy(), requires_grad=True)
        tape.record((merged,), y, upstream)
        loss = T.sum_all(y)
    tape.backward(loss)
    (g_full,) = received
    assert g_full.base is blocks[0]()
    expected = np.zeros((batch, slots, dim))
    expected[:, :n] = values
    assert np.array_equal(g_full.reshape(expected.shape).view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize(
    "batch, n, slots, dim",
    [(64, 43, 45, 64), (64, 44, 44, 64), (7, 3, 4, 2)],
    ids=["partial-last-group", "no-pad-slots", "one-group"],
)
@pytest.mark.parametrize("in_place", [False, True], ids=["separate", "front-of-block"])
def test_pad_into_has_the_bits_of_a_copy_and_a_zero_fill(batch, n, slots, dim, in_place):
    # 45 slots of 64 take 11 batch rows per group, so 64 rows leave a last
    # group of 9; 7 rows of 4 slots of 2 fit one group, whose rows overlap
    # their source in place
    values = Rng(fnv1a64("pad-into")).normal((batch, n, dim))
    block = np.full(batch * slots * dim, np.nan)
    if in_place:
        src = block[: values.size].reshape(values.shape)
        src[...] = values
    else:
        src = values.copy()
    T._pad_into(src, block.reshape(batch, slots, dim))
    expected = np.zeros((batch, slots, dim))
    expected[:, :n] = values
    assert np.array_equal(block.view(np.uint64), expected.reshape(-1).view(np.uint64))


def _standardize_gradient(owned):
    """The input gradient of standardize and whether it was built in the
    incoming gradient, which the rule above returns writeable (owned) or
    read-only. The caller keeps the output, whose values must not change."""
    rng = Rng(fnv1a64("standardize-in-place"))
    p = Tensor(rng.normal((4, 6, 8)) * 2.0 + 0.5, requires_grad=True)
    w = rng.normal((4, 6, 8))
    incoming, received = [], []

    def weigh(g):
        out = g * w
        out.flags.writeable = owned
        incoming.append(weakref.ref(out))
        return (out,)

    def probe(g):
        received.append(g)
        return (g,)

    with Tape() as tape:
        h = Tensor(p.data.copy(), requires_grad=True)
        tape.record((p,), h, probe)
        y = T.standardize(h)
        values = y.data.copy()
        z = Tensor(y.data * w, requires_grad=True)
        tape.record((y,), z, weigh)
        loss = T.sum_all(z)
    tape.backward(loss)
    assert np.array_equal(y.data.view(np.uint64), values.view(np.uint64))
    return p.grad, received[0] is incoming[0]()


def test_standardize_builds_its_input_gradient_in_an_owned_incoming_gradient_only():
    in_place, into_owned = _standardize_gradient(owned=True)
    allocated, into_read_only = _standardize_gradient(owned=False)
    assert into_owned and not into_read_only
    assert np.array_equal(in_place.view(np.uint64), allocated.view(np.uint64))


def test_window_partition_replaces_the_data_of_an_op_output_only():
    rng = Rng(fnv1a64("partition-data"))
    leaf = Tensor(rng.normal((2, 5, 3)), requires_grad=True)
    data = leaf.data
    for tape in (Tape(), contextlib.nullcontext()):
        with tape:
            T.window_partition(leaf, 2)
            assert leaf.data is data and leaf.data.flags.c_contiguous
            z = T.mul(leaf, Tensor(2.0))
            own, values = weakref.ref(z.data), z.data.copy()
            windows = T.window_partition(z, 2)
            # the input's values now live in the output's first 5 of 6
            # slots, with or without a tape
            assert own() is None
            assert np.array_equal(z.data, values) and np.shares_memory(z.data, windows.data)


# ---------------------------------------------------------------------------
# the backward-rule contract: a rule writes into its incoming gradient only
# when it is writeable, since a read-only one is not the sweep's to write


class _RuleTape(Tape):
    """A tape that also keeps each entry's input shapes, output shape and rule."""

    def __init__(self):
        super().__init__()
        self.rules = []

    def record(self, inputs, output, backward):
        super().record(inputs, output, backward)
        self.rules.append((tuple(t.shape for t in inputs), output.shape, backward))


def _x(*shape, seed=1):
    """A leaf of positive values, so that sqrt, log and a divisor are defined."""
    return Tensor(Rng(seed).uniform(shape) + 0.5, requires_grad=True)


_MASK = np.array([[1, 0, 0, 1, 0], [0, 0, 1, 0, 0]], dtype=np.float64)

# every public op, on inputs that all need a gradient; window_merge's
# incoming gradient has room in its block for the padded layout
_RULE_CASES = [
    ("add", lambda: T.add(_x(3, 4), _x(3, 4, seed=2))),
    ("sub", lambda: T.sub(_x(3, 4), _x(4, seed=2))),
    ("mul", lambda: T.mul(_x(3, 4), _x(3, 4, seed=2))),
    ("div", lambda: T.div(_x(3, 4), _x(3, 1, seed=2))),
    ("sqrt", lambda: T.sqrt(_x(3, 4))),
    ("exp", lambda: T.exp(_x(3, 4))),
    ("log", lambda: T.log(_x(3, 4))),
    ("clamp_min", lambda: T.clamp_min(_x(3, 4), 1.0)),
    ("gelu", lambda: T.gelu(_x(3, 4))),
    ("affine", lambda: T.affine(_x(5, 3), _x(3, 4, seed=2), _x(4, seed=3))),
    ("reshape", lambda: T.reshape(_x(3, 4), (2, 6))),
    ("take_rows", lambda: T.take_rows(_x(5, 3), 1, 4)),
    ("concat_rows", lambda: T.concat_rows(_x(2, 3), _x(3, 3, seed=2))),
    ("sum_all", lambda: T.sum_all(_x(3, 4))),
    ("sum_axis", lambda: T.sum_axis(_x(3, 4, 2), 1)),
    ("mean_all", lambda: T.mean_all(_x(3, 4))),
    ("mean_axis", lambda: T.mean_axis(_x(3, 4, 2), 1, keepdims=True)),
    ("standardize", lambda: T.standardize(_x(3, 4, 8))),
    ("squared_error", lambda: T.squared_error(_x(3, 4), _x(3, 4, seed=2))),
    ("embed", lambda: T.embed(_x(2, 5, 3), _x(3, 4, seed=2), _x(4, seed=3), _x(5, 4, seed=4))),
    ("embed", lambda: T.embed(_x(2, 5, 3), _x(3, 4, seed=2), _x(4, seed=3), _x(5, 4, seed=4), _MASK, _x(4, seed=5))),
    ("window_partition", lambda: T.window_partition(_x(2, 5, 3), 2)),
    ("window_merge", lambda: T.window_merge(_x(64 * 9, 5 * 64), 64, 43, 64)),
    ("dropout_add", lambda: T.dropout_add(_x(4, 5), _x(4, 5, seed=2), 0.3, Rng(7), train=True)),
    ("dropout_add", lambda: T.dropout_add(_x(4, 5), _x(4, 5, seed=2), 0.3, None, train=False)),
]


def test_every_public_op_has_a_rule_case():
    public = {
        name
        for name, f in vars(T).items()
        if inspect.isfunction(f) and f.__module__ == T.__name__ and not name.startswith("_")
    }
    assert public == {name for name, _ in _RULE_CASES}


@pytest.mark.parametrize("build", [build for _, build in _RULE_CASES], ids=[name for name, _ in _RULE_CASES])
def test_rule_given_a_read_only_gradient_returns_the_bits_of_an_owned_one(build):
    # each rule runs once on a read-only incoming gradient and once, on a
    # second recording, on a writeable copy; writing into the read-only one
    # would raise. Each gradient comes back in its input's shape, since the
    # sweep adds a second contribution without broadcasting
    results = []
    for writeable in (False, True):
        tape = _RuleTape()
        with tape:
            build()
        returned = []
        for i, (input_shapes, shape, backward) in enumerate(tape.rules):
            g = T._empty(shape)
            np.copyto(g, Rng(fnv1a64(f"rule-contract-{i}")).normal(math.prod(shape)).reshape(shape))
            # a rule that wrote into the block under a read-only view would
            # also change what it must not, so the block is read-only too
            for a in (g, g.base):
                if a is not None:
                    a.flags.writeable = writeable
            grads = backward(g)
            assert len(grads) == len(input_shapes)
            for input_shape, grad in zip(input_shapes, grads):
                assert grad is None or np.shape(grad) == input_shape
            returned.append(grads)
        results.append(returned)
    for from_read_only, from_owned in zip(*results):
        assert len(from_read_only) == len(from_owned)
        for a, b in zip(from_read_only, from_owned):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


# ---------------------------------------------------------------------------
# the affine's products in row slices

# (rows, fan_in, fan_out): the benchmark's affines on full batches of
# pretrain-sine and finetune-forecast, on the 187-window val batch and on
# the 79-window train batch; then the first row count whose 64-wide input
# is sliced (three slices of 1,365 or 1,366 rows), and a (64, 2) product
# that stays whole because two slices of it would fall to the
# small-matrix kernel (one slice of 7,812 rows would).
_AFFINE_SHAPES = [
    *[(rows, k, n) for rows in (22016, 11008, 16082, 6794) for k, n in ((12, 64), (64, 12))],
    *[(rows, 128, 128) for rows in (11264, 5632, 8228, 3476)],
    *[(rows, 320, 320) for rows in (4608, 2304, 3366, 1422)],
    (4097, 64, 12),
    (15625, 64, 2),
]


@pytest.mark.parametrize("rows, fan_in, fan_out", _AFFINE_SHAPES)
def test_affine_in_row_slices_has_the_bits_of_whole_products(rows, fan_in, fan_out):
    rng = Rng(fnv1a64("affine-slices"))
    x = Tensor(rng.normal((rows, fan_in)), requires_grad=True)
    w = Tensor(rng.normal((fan_in, fan_out)), requires_grad=True)
    b = Tensor(rng.normal(fan_out), requires_grad=True)
    g = rng.normal((rows, fan_out))
    with Tape() as tape:
        out = T.affine(x, w, b)
    gx, gw, _ = tape.entries[-1][2](g)
    for got, want in ((out.data, x.data @ w.data + b.data), (gx, g @ w.data.T), (gw, x.data.T @ g)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "rows, fan_in, fan_out, forward, weight, backward",
    [
        (22016, 64, 12, 11, 1, 3), (22016, 12, 64, 3, 1, 11), (1024, 256, 256, 1, 1, 1),
        (256, 2752, 96, 1, 5, 1), (40000, 64, 1, 1, 1, 1),
    ],
    ids=["head", "projection", "small", "few-rows", "one-column"],
)
def test_affine_hands_openblas_about_a_mebibyte_of_rows_per_product(
    monkeypatch, rows, fan_in, fan_out, forward, weight, backward
):
    # a 2 MiB operand, as in classify-mlp, stays whole, and so do the
    # forecast head's 256 rows and a matrix-vector product; the weight
    # gradient is sliced over xᵀ's rows only where there are enough of
    # them, as in the forecast head's 2,752; every sliced call stays
    # above the small-matrix kernel
    calls = []
    matmul = np.matmul

    def spy(a, b, out):
        calls.append(a.shape)
        return matmul(a, b, out=out)

    x = Tensor(np.ones((rows, fan_in)), requires_grad=True)
    w = Tensor(np.ones((fan_in, fan_out)), requires_grad=True)
    monkeypatch.setattr(np, "matmul", spy)
    with Tape() as tape:
        T.affine(x, w, Tensor(np.zeros(fan_out)))
    tape.entries[-1][2](np.ones((rows, fan_out)))
    monkeypatch.undo()
    assert len(calls) == forward + weight + backward
    groups = (
        (calls[:forward], rows, fan_out),
        (calls[forward : forward + weight], fan_in, fan_out),
        (calls[forward + weight :], rows, fan_in),
    )
    for shapes, total, width in groups:
        assert sum(r for r, _ in shapes) == total
        if len(shapes) > 1:
            # about a mebibyte each, unless that would take slices under
            # the fewest rows a slice may hold (the head's 550 rows of xᵀ)
            assert all(8 * r * k <= T._PACK_BYTES or r < 2 * T._MIN_SLICE_ROWS for r, k in shapes)
            assert all(r >= T._MIN_SLICE_ROWS and r * k * width > T._SMALL_KERNEL_MACS for r, k in shapes)
