"""Adam update contract: hand-checked step, sign property, errors; the training loop."""

import numpy as np
import pytest

from decop import tensor as T
from decop.errors import ContractError, NumericError
from decop.optim import Adam, train_epoch
from decop.rng import Rng
from decop.tensor import BLOCK, Tensor


def test_zero_gradient_leaves_parameter_unchanged():
    p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.5, -2.0])
    assert opt.t == 1


def test_constant_gradient_moves_against_its_sign():
    p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=1e-2)
    for _ in range(50):
        p.grad = np.array([1.0, -3.0])
        opt.step()
    assert p.data[0] < 0 < p.data[1]


def test_first_step_magnitude_matches_hand_evaluation():
    # m=0.1, v=0.001; bias correction gives m_hat=v_hat=1,
    # so the step is lr / (1 + eps) with eps inside the sqrt denominator
    p = Tensor(np.array(1.0), requires_grad=True)
    opt = Adam({"p": p}, lr=1e-4)
    p.grad = np.array(1.0)
    opt.step()
    expected = 1.0 - 1e-4 * 1.0 / (np.sqrt(1.0) + 1e-8)
    assert abs(float(p.data) - expected) < 1e-12
    assert abs(float(p.data) - (1.0 - 1e-4)) < 1e-10


@pytest.mark.parametrize("shape", [(), (1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (3, BLOCK // 2 + 5)])
def test_blocked_step_matches_the_plain_expression_bit_for_bit(shape):
    rng = Rng(sum(shape) + 17)
    p = Tensor(rng.normal(shape), requires_grad=True)
    opt = Adam({"p": p, "blend": Tensor(np.array(0.25), requires_grad=True)}, lr=3e-3)
    data, m, v = p.data.copy(), np.zeros(shape), np.zeros(shape)
    b1, b2 = Adam.beta1, Adam.beta2
    for t in range(1, 5):
        g = rng.normal(shape) * 10.0 ** (t - 2)
        p.grad = g.copy()
        opt.params["blend"].grad = np.array(0.5)
        opt.step()
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        data = data - 3e-3 * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + Adam.eps)
        assert np.array_equal(p.data, data), t
        assert np.array_equal(opt.m["p"], m) and np.array_equal(opt.v["p"], v), t


def test_non_contiguous_parameter_is_a_contract_error():
    p = Tensor(np.zeros((3, 4)).T, requires_grad=True)
    with pytest.raises(ContractError, match="'p' is not a C-contiguous array"):
        Adam({"p": p})


def test_missing_grad_is_a_contract_error():
    p = Tensor(np.zeros(3), requires_grad=True)
    q = Tensor(np.zeros(3), requires_grad=True)
    opt = Adam({"p": p, "q": q})
    p.grad = np.ones(3)
    with pytest.raises(ContractError, match="'q'"):
        opt.step()


def test_step_clears_gradients_and_counts():
    p = Tensor(np.zeros(2), requires_grad=True)
    opt = Adam({"p": p})
    for t in range(1, 4):
        p.grad = np.ones(2)
        opt.step()
        assert opt.t == t
        assert p.grad is None


def test_moment_shapes_match_parameters():
    p = Tensor(np.zeros((3, 4)), requires_grad=True)
    opt = Adam({"p": p})
    assert opt.m["p"].shape == (3, 4)
    assert opt.v["p"].shape == (3, 4)


def test_train_epoch_rejects_non_finite_loss_before_stepping():
    p = Tensor(np.ones(3), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)

    def nan_loss(weights):
        return (T.sum_all(T.mul(p, Tensor(weights))),)

    with pytest.raises(NumericError, match="non-finite loss at epoch 3, batch 1"):
        train_epoch([([0.0, 0.0, 0.0],), ([1.0, np.nan, 1.0],)], nan_loss, opt, 3)
    # the finite first batch stepped; the non-finite second did not
    assert opt.t == 1 and p.grad is None
    assert np.array_equal(p.data, np.ones(3))

    opt = Adam({"p": p}, lr=0.1)
    with pytest.raises(NumericError, match="non-finite loss at epoch 3, batch 0"):
        train_epoch([([1.0, np.nan, 1.0],)], nan_loss, opt, 3)
    assert np.array_equal(p.data, np.ones(3)) and p.grad is None and opt.t == 0

    def square(_):
        return (T.sum_all(T.mul(p, p)),)

    assert train_epoch([(None,)], square, opt, 1) == (3.0,)
    assert opt.t == 1 and p.grad is None
    assert np.allclose(p.data, 0.9)


def test_train_epoch_averages_the_loss_and_other_scalars():
    p = Tensor(np.array(2.0), requires_grad=True)
    opt = Adam({"p": p}, lr=0.0)

    def forward(scale):
        return T.mul(p, Tensor(scale)), Tensor(scale), Tensor(-scale)

    assert train_epoch([(1.0,), (2.0,), (6.0,)], forward, opt, 1) == (6.0, 3.0, -3.0)
    assert opt.t == 3
