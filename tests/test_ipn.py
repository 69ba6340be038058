"""Blended patch/instance normalization: hand values, inversions, invariances."""

import numpy as np
import pytest

from conftest import assert_grad_close, central_diff
from decop import ipn
from decop import tensor as T
from decop.data import patchify_batch
from decop.errors import ContractError
from decop.rng import Rng
from decop.tensor import Tape, Tensor


def _stats(windows, blend, patch=4, stride=4):
    patches = Tensor(patchify_batch(windows, patch, stride))
    return patches, ipn.compute_stats(patches, Tensor(windows), Tensor(blend))


def test_constant_series_gives_constant_stats_and_zero_output():
    windows = np.full((2, 12), 3.25)
    for blend in (0.0, 0.3, 1.0):
        patches, stats = _stats(windows, blend)
        assert np.allclose(stats.patch_mean.data, 3.25)
        assert np.allclose(stats.instance_mean.data, 3.25)
        assert np.allclose(stats.patch_var.data, 0.0)
        assert np.allclose(stats.instance_var.data, 0.0)
        out = ipn.normalize(patches, stats)
        assert np.allclose(out.data, 0.0)
        assert stats.clamp_count == stats.var.size


def test_blend_zero_equals_instance_stats_exactly():
    windows = Rng(1).normal((3, 16))
    patches, stats = _stats(windows, 0.0)
    inst_mean = windows.mean(axis=1)
    inst_var = windows.var(axis=1)
    assert np.array_equal(stats.mean.data, np.tile(inst_mean[:, None], (1, stats.mean.shape[1])))
    assert np.array_equal(stats.var.data, np.tile(inst_var[:, None], (1, stats.var.shape[1])))
    # and normalization reduces to plain instance normalization
    out = ipn.normalize(patches, stats)
    expected = (patchify_batch(windows, 4, 4) - inst_mean[:, None, None]) / np.sqrt(
        inst_var[:, None, None] + ipn.EPS
    )
    assert np.array_equal(out.data, expected)


def test_hand_blended_values():
    # patch [1,2,3,4] against instance stats (0, 1) at blend 0.5:
    # mean = 0.5*0 + 0.5*2.5 = 1.25, var = 0.5*1 + 0.5*1.25 = 1.125
    patches = Tensor(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
    windows = Tensor(np.array([[-1.0, 1.0]]) * 1.0)  # mean 0, variance 1
    stats = ipn.compute_stats(patches, windows, Tensor(0.5))
    assert np.isclose(stats.patch_mean.data[0, 0], 2.5)
    assert np.isclose(stats.patch_var.data[0, 0], 1.25)
    assert np.isclose(stats.instance_mean.data[0, 0], 0.0)
    assert np.isclose(stats.instance_var.data[0, 0], 1.0)
    assert np.isclose(stats.mean.data[0, 0], 1.25)
    assert np.isclose(stats.var.data[0, 0], 1.125)


def test_blend_one_normalizes_each_patch_to_zero_mean_unit_spread():
    windows = Rng(2).normal((4, 24)) * 3 + 1
    patches, stats = _stats(windows, 1.0, patch=6, stride=6)
    out = ipn.normalize(patches, stats).data
    per_patch_mean = out.mean(axis=2)
    assert np.abs(per_patch_mean).max() < 1e-10
    ratio = stats.patch_var.data / (stats.patch_var.data + ipn.EPS)
    assert np.allclose(out.var(axis=2), ratio, atol=1e-10)


def test_blend_one_invariant_to_per_patch_shifts():
    windows = Rng(3).normal((1, 20))
    patches, stats = _stats(windows, 1.0, patch=5, stride=5)
    base = ipn.normalize(patches, stats).data
    shifts = np.array([10.0, -3.0, 0.5, 100.0, 7.0])[None, :, None]
    shifted_patches = Tensor(patches.data + shifts)
    # instance stats change too, but at blend 1 they never enter
    shifted_windows = Tensor(windows + 1.23)
    stats2 = ipn.compute_stats(shifted_patches, shifted_windows, Tensor(1.0))
    assert np.allclose(ipn.normalize(shifted_patches, stats2).data, base, atol=1e-9)


def test_blend_zero_invariant_to_global_shift():
    windows = Rng(4).normal((2, 16))
    patches, stats = _stats(windows, 0.0)
    base = ipn.normalize(patches, stats).data
    patches2, stats2 = _stats(windows + 42.0, 0.0)
    assert np.allclose(ipn.normalize(patches2, stats2).data, base, atol=1e-9)


def test_patchwise_round_trip_identity():
    windows = Rng(5).normal((3, 28)) * 2 + 5
    patches, stats = _stats(windows, 0.35, patch=7, stride=7)
    normalized = ipn.normalize(patches, stats)
    back = ipn.denormalize(normalized, stats, "patchwise")
    assert np.abs(back.data - patches.data).max() < 1e-9


def test_instance_denormalize_of_zeros_returns_instance_mean():
    windows = Rng(6).normal((2, 16)) + 3
    _, stats = _stats(windows, 0.2)
    out = ipn.denormalize(Tensor(np.zeros((2, 5))), stats, "instance")
    assert np.allclose(out.data, windows.mean(axis=1, keepdims=True), atol=1e-12)


def test_instance_denormalize_hand_example():
    # values [1, -1] with instance stats (2, 4): 1*2 + 2 = 4, -1*2 + 2 = 0
    stats = ipn.NormStats(
        patch_mean=Tensor(np.zeros((1, 1))),
        patch_var=Tensor(np.zeros((1, 1))),
        instance_mean=Tensor(np.array([[2.0]])),
        instance_var=Tensor(np.array([[4.0]])),
        mean=Tensor(np.zeros((1, 1))),
        var=Tensor(np.ones((1, 1))),
        eps=ipn.EPS,
        clamp_count=0,
    )
    out = ipn.denormalize(Tensor(np.array([[1.0, -1.0]])), stats, "instance")
    assert np.allclose(out.data, [[4.0, 0.0]], atol=1e-4)


def test_denormalize_rejects_misaligned_stats_and_bad_mode():
    windows = Rng(7).normal((2, 16))
    _, stats = _stats(windows, 0.5)
    with pytest.raises(ContractError):
        ipn.denormalize(Tensor(np.zeros((3, 4, 4))), stats, "patchwise")
    with pytest.raises(ContractError):
        ipn.denormalize(Tensor(np.zeros((2, 4))), stats, "sideways")


def test_blend_endpoints_reproduce_pure_normalizations():
    windows = Rng(8).normal((2, 24))
    raw = patchify_batch(windows, 6, 6)
    for blend, pure in ((0.0, "instance"), (1.0, "patch")):
        patches, stats = _stats(windows, blend, patch=6, stride=6)
        out = ipn.normalize(patches, stats).data
        if pure == "instance":
            mean = windows.mean(axis=1)[:, None, None]
            var = windows.var(axis=1)[:, None, None]
        else:
            mean = raw.mean(axis=2, keepdims=True)
            var = raw.var(axis=2, keepdims=True)
        var = np.maximum(var, ipn.EPS)
        assert np.allclose(out, (raw - mean) / np.sqrt(var + ipn.EPS), atol=1e-12)


def test_blend_gradient_matches_finite_differences():
    windows = Rng(9).normal((3, 24))
    target = Rng(10).normal((3, 5, 6))
    blend = Tensor(np.asarray(0.3), requires_grad=True)

    def loss_value():
        patches = Tensor(patchify_batch(windows, 6, 6))
        stats = ipn.compute_stats(patches, Tensor(windows), blend)
        normalized = ipn.normalize(patches, stats)
        return T.squared_error(normalized, Tensor(target))

    with Tape() as tape:
        loss = loss_value()
    tape.backward(loss)

    def numeric(value):
        blend.data = value
        out = float(loss_value().data)
        blend.data = np.asarray(0.3)
        return out

    assert_grad_close(blend.grad, central_diff(numeric, np.asarray(0.3)), "blend")


def test_blend_gradient_through_patchwise_denormalization():
    windows = Rng(11).normal((2, 16))
    blend = Tensor(np.asarray(0.65), requires_grad=True)
    values = Rng(12).normal((2, 5, 4))

    def loss_value():
        patches = Tensor(patchify_batch(windows, 4, 4))
        stats = ipn.compute_stats(patches, Tensor(windows), blend)
        out = ipn.denormalize(Tensor(values), stats, "patchwise")
        return T.mean_all(T.mul(out, out))

    with Tape() as tape:
        loss = loss_value()
    tape.backward(loss)

    def numeric(value):
        blend.data = value
        out = float(loss_value().data)
        blend.data = np.asarray(0.65)
        return out

    assert_grad_close(blend.grad, central_diff(numeric, np.asarray(0.65)), "blend-denorm")


def test_negative_blend_clamps_variance_and_counts_events():
    # blend far outside [0,1] can push blended variance negative
    windows = np.concatenate([np.zeros((1, 8)), np.ones((1, 8)) * 4], axis=1)
    patches = Tensor(patchify_batch(windows, 4, 4))
    stats = ipn.compute_stats(patches, Tensor(windows), Tensor(3.0))
    assert stats.clamp_count > 0
    assert (stats.var.data >= ipn.EPS).all()
    out = ipn.normalize(patches, stats)
    assert np.isfinite(out.data).all()
