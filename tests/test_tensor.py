"""Forward contracts and gradient correctness of every autodiff primitive."""

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
    x = Tensor(np.linspace(-2, 2, 12).reshape(3, 4))
    out = T.dropout(x, 0.0, Rng(1), train=True)
    assert np.array_equal(out.data, x.data)


def test_dropout_eval_mode_is_identity():
    x = Tensor(np.ones((4, 4)))
    assert np.array_equal(T.dropout(x, 0.5, None, train=False).data, x.data)


def test_dropout_mask_expectation():
    # mean of dropout(1, p) over many draws stays within 3 standard errors of 1
    p = 0.3
    n = 40_000
    out = T.dropout(Tensor(np.ones(n)), p, Rng(8), train=True)
    scale = 1.0 / (1.0 - p)
    se = np.sqrt(p * (1 - p) / n) * scale
    assert abs(out.data.mean() - 1.0) < 3 * se


def test_shape_mismatch_names_operation():
    with pytest.raises(DimensionError, match="affine"):
        T.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), Tensor(np.zeros(3)))
    with pytest.raises(DimensionError, match="add"):
        T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))


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
        ("pad_axis", lambda x: T.pad_axis(x, 1, 3)),
        ("sum_axis", lambda x: T.sum_axis(x, 1)),
        ("mean_axis", lambda x: T.mean_axis(x, 0)),
        ("mean_all", lambda x: T.mean_all(x)),
    ],
)
def test_unary_gradients(name, build_op):
    rng = Rng(fnv1a64(name))
    x = Tensor(np.abs(rng.normal((3, 4))) + 1.2, requires_grad=True)
    _fd_check(name, lambda: T.sum_all(build_op(x)), [x])


def test_dropout_gradient_with_pinned_mask():
    x = Tensor(Rng(5).normal((6, 5)), requires_grad=True)

    def build():
        out = T.dropout(x, 0.4, Rng(77), train=True)
        return T.sum_all(T.mul(out, out))

    _fd_check("dropout", build, [x])


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
            out = T.dropout(hidden, 0.3, rng.child("drop"), train=True)
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


def test_masked_fill_rows_forward_and_gradient():
    rng = Rng(fnv1a64("masked_fill"))
    z = Tensor(rng.normal((2, 4, 3)), requires_grad=True)
    fill = Tensor(rng.normal(3), requires_grad=True)
    mask = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0]])
    out = T.masked_fill_rows(z, mask, fill)
    assert np.array_equal(out.data[0, 0], fill.data)
    assert np.array_equal(out.data[0, 1], z.data[0, 1])
    def build():
        out = T.masked_fill_rows(z, mask, fill)
        return T.sum_all(T.mul(out, out))

    _fd_check("masked_fill", build, [z, fill])


def test_narrow_gradient_and_values():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    out = T.narrow(x, 1, 1, 2)
    assert np.array_equal(out.data, x.data[:, 1:3])
    def build():
        out = T.narrow(x, 1, 1, 2)
        return T.sum_all(T.mul(out, out))

    _fd_check("narrow", build, [x])


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
