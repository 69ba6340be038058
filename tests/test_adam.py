"""Adam update contract: hand-checked step, sign property, errors; the train step."""

import numpy as np
import pytest

from decop import tensor as T
from decop.errors import ContractError, NumericError
from decop.optim import Adam, train_step
from decop.tensor import Tape, Tensor


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


def test_train_step_rejects_non_finite_loss_before_stepping():
    p = Tensor(np.ones(3), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    with Tape() as tape:
        loss = T.sum_all(T.mul(p, Tensor([1.0, np.nan, 1.0])))
    with pytest.raises(NumericError, match="non-finite loss at epoch 3, batch 7"):
        train_step(tape, loss, opt, 3, 7)
    assert np.array_equal(p.data, np.ones(3)) and p.grad is None and opt.t == 0

    with Tape() as tape:
        loss = T.sum_all(T.mul(p, p))
    assert train_step(tape, loss, opt, 1, 0) == 3.0
    assert opt.t == 1 and p.grad is None
    assert np.allclose(p.data, 0.9)
