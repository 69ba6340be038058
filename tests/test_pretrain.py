"""Masking, reconstruction loss gating, loss combination, and the epoch loop."""

import platform
import tracemalloc

import numpy as np
import pytest

from conftest import grad_of
from decop import pretrain
from decop import tensor as T
from decop.config import RunConfig
from decop.data import Dataset, patchify_batch, synthetic_sine
from decop.errors import ConfigError, ContractError
from decop.model import ModelDims, ModelState
from decop.optim import Adam, train_epoch
from decop.pretrain import (
    BatchOutput,
    pretrain_batch,
    random_masks,
    recon_loss,
    reconstruction_head,
    run_pretraining,
    total_loss,
)
from decop.rng import Rng
from decop.tensor import Tensor


def _tiny_model(lookback=32, patch=4, d=6, windows=(2, 3), learner="linear", dropout=0.0):
    dims = ModelDims(lookback, patch, patch, d, windows, learner)
    return ModelState(dims, dropout=dropout, blend_init=0.01, rng=Rng(77))


# ---------------------------------------------------------------------------
# masking


def test_zero_ratio_masks_nothing():
    assert random_masks(1, 40, 0.0, Rng(1))[0].sum() == 0


@pytest.mark.parametrize("ratio,draws", [(0.0, False), (0.02, False), (0.4, True)])
def test_masks_draw_one_uniform_block_or_nothing(ratio, draws):
    # k = int(ratio * 40): 0, 0 and 16; only k >= 1 advances the stream,
    # by exactly one (batch, n_patches) uniform draw
    stream, twin = Rng(1), Rng(1)
    random_masks(3, 40, ratio, stream)
    if draws:
        twin.uniform((3, 40))
    assert np.array_equal(stream.words(4), twin.words(4))


def test_mask_count_is_floor_of_ratio():
    mask = random_masks(1, 43, 0.4, Rng(2))[0]
    assert mask.sum() == 17
    assert set(np.unique(mask)) <= {0.0, 1.0}


def test_mask_determinism_at_same_stream_position():
    first = random_masks(1, 20, 0.5, Rng(3))[0]
    assert np.array_equal(first, random_masks(1, 20, 0.5, Rng(3))[0])


def test_mask_positions_vary_across_draws():
    stream = Rng(4)
    draws = {tuple(random_masks(1, 30, 0.3, stream)[0]) for _ in range(8)}
    assert len(draws) > 1


# ---------------------------------------------------------------------------
# reconstruction head and loss


def test_zero_encoding_predicts_bias():
    z = Tensor(np.zeros((2, 3, 4)))
    out = reconstruction_head(z, Tensor(np.zeros((4, 5))), Tensor(np.arange(5.0)))
    assert np.array_equal(out.data, np.tile(np.arange(5.0), (2, 3, 1)))


def test_identity_head_passes_encoding_through():
    z = Tensor(Rng(5).normal((1, 3, 4)))
    out = reconstruction_head(z, Tensor(np.eye(4)), Tensor(np.zeros(4)))
    assert np.allclose(out.data, z.data)


def test_head_hand_product():
    z = np.array([[[1.0, 2.0]]])
    w = np.array([[1.0, 0.0, 1.0], [0.0, 2.0, -1.0]])
    out = reconstruction_head(Tensor(z), Tensor(w), Tensor(np.zeros(3)))
    assert np.array_equal(out.data, [[[1.0, 4.0, -1.0]]])


def test_perfect_reconstruction_has_zero_loss():
    x = Tensor(Rng(6).normal((2, 4, 3)))
    mask = np.ones((2, 4))
    assert float(recon_loss(x, x, mask).data) == 0.0


def test_single_masked_patch_hand_value():
    # one masked patch with error [1, -1]: (1 + 1) / 2 elements = 1
    target = Tensor(np.zeros((1, 2, 2)))
    pred = Tensor(np.array([[[1.0, -1.0], [9.0, 9.0]]]))
    mask = np.array([[1.0, 0.0]])
    assert float(recon_loss(target, pred, mask).data) == 1.0


def test_unmasked_patches_are_gated_out():
    rng = Rng(7)
    target = Tensor(rng.normal((2, 5, 3)))
    pred = rng.normal((2, 5, 3))
    mask = np.zeros((2, 5))
    mask[0, 1] = mask[1, 4] = 1.0
    base = float(recon_loss(target, Tensor(pred), mask).data)
    perturbed = pred.copy()
    perturbed[mask == 0.0] += rng.normal(perturbed[mask == 0.0].shape) * 100
    assert float(recon_loss(target, Tensor(perturbed), mask).data) == base


def test_empty_mask_is_a_contract_error():
    x = Tensor(np.ones((1, 2, 2)))
    with pytest.raises(ContractError, match="at least one masked patch"):
        recon_loss(x, Tensor(np.zeros((1, 2, 2))), np.zeros((1, 2)))


def test_total_loss_arithmetic():
    assert float(total_loss(Tensor(0.5), Tensor(0.3), 0.1).data) == pytest.approx(0.53)
    assert float(total_loss(Tensor(0.5), Tensor(0.3), 0.0).data) == 0.5


def test_total_gradient_is_sum_of_branch_gradients(monkeypatch):
    model = _tiny_model()
    windows = Rng(8).normal((3, 32))
    params = model.pretrain_parameters()
    cfg = RunConfig(mask_ratio=0.4, contrastive_weight=0.25, seed=1)
    masks = np.stack([random_masks(1, model.dims.n_patches, 0.4, Rng(9))[0] for _ in range(3)])
    # pretrain_batch draws its masks through the module attribute
    monkeypatch.setattr(pretrain, "random_masks", lambda *_: masks)

    def run(select):
        def build():
            out = pretrain_batch(model, windows, cfg, None, None, train=False)
            return select(out)

        return grad_of(build, params)

    g_recon = run(lambda o: o.recon)
    g_cl = run(lambda o: o.contrastive)
    g_total = run(lambda o: o.total)
    for name in params:
        combined = g_recon[name] + cfg.contrastive_weight * g_cl[name]
        assert np.allclose(g_total[name], combined, atol=1e-12), name


def test_both_views_receive_gradients_when_weighted():
    model = _tiny_model()
    windows = Rng(10).normal((2, 32))
    cfg = RunConfig(contrastive_weight=0.5, seed=2)
    params = model.pretrain_parameters()
    grads = grad_of(
        lambda: pretrain_batch(model, windows, cfg, Rng(11), None, train=False).contrastive,
        params,
    )
    assert sum(np.abs(g).sum() for g in grads.values()) > 0


def _toy_dataset(rows=160, channels=2, seed=1):
    values = synthetic_sine(rows, channels, seed, periods=(8.0, 12.0), noise_scale=0.1)
    mean = values[: int(rows * 0.8)].mean(axis=0)
    std = values[: int(rows * 0.8)].std(axis=0)
    standardized = (values - mean) / std
    return Dataset("toy", standardized, (int(rows * 0.8), int(rows * 0.9), rows))


def test_pretraining_reduces_loss_on_toy_data():
    model = _tiny_model(lookback=24, patch=4, d=8, windows=(2, 3))
    cfg = RunConfig(epochs=6, batch_size=16, lr=3e-3, seed=5)
    history, best = run_pretraining(model, _toy_dataset(), cfg)
    assert history[-1].total < history[0].total
    assert set(best) == set(model.snapshot())


def test_constant_dataset_with_zero_weight_fits_instantly():
    values = np.full((120, 1), 7.0)
    ds = Dataset("const", np.zeros_like(values), (96, 108, 120))
    model = _tiny_model(lookback=16, patch=4, d=4, windows=(1,))
    cfg = RunConfig(epochs=5, batch_size=16, lr=3e-2, contrastive_weight=0.0, seed=6)
    history, _ = run_pretraining(model, ds, cfg)
    assert history[-1].recon < 1e-3
    assert history[-1].recon < 0.05 * history[0].recon


def test_invalid_config_is_rejected_before_any_parameter_moves():
    model = _tiny_model(lookback=24, patch=4, d=8, windows=(2, 3))
    before = model.snapshot()
    cfg = RunConfig(epochs=1, batch_size=16, lr=3e-3, mask_ratio=1.0, seed=5)
    with pytest.raises(ConfigError, match="mask_ratio"):
        run_pretraining(model, _toy_dataset(), cfg)
    after = model.snapshot()
    for name in before:
        assert np.array_equal(before[name], after[name]), name


@pytest.mark.parametrize("ratio", [0.0, 0.02])
def test_mask_ratio_that_masks_no_patch_is_rejected_before_any_parameter_moves(ratio):
    # lookback 24, patch = stride = 4: 7 patches, and int(0.02 * 7) == 0
    model = _tiny_model(lookback=24, patch=4, d=8, windows=(2, 3))
    before = model.snapshot()
    cfg = RunConfig(epochs=1, batch_size=16, lr=3e-3, mask_ratio=ratio, seed=5)
    with pytest.raises(ConfigError, match="masks no patch of 7"):
        run_pretraining(model, _toy_dataset(), cfg)
    after = model.snapshot()
    for name in before:
        assert np.array_equal(before[name], after[name]), name


def test_identical_seeds_identical_trajectories():
    def run():
        model = _tiny_model(lookback=24, patch=4, d=6)
        cfg = RunConfig(epochs=2, batch_size=8, seed=9)
        history, _ = run_pretraining(model, _toy_dataset(seed=3), cfg)
        return [(m.recon, m.contrastive, m.total) for m in history]

    assert run() == run()


def test_nonfinite_loss_aborts_with_batch_diagnostic():
    from decop.errors import NumericError
    from decop.pretrain import pretrain_epoch

    model = _tiny_model(lookback=16, patch=4, d=4, windows=(1,))
    model.proj_w.data[...] = np.nan
    ds = _toy_dataset(rows=80)
    cfg = RunConfig(epochs=1, batch_size=8, seed=10)
    streams = {name: Rng(10).child(name) for name in ("shuffle", "mask", "dropout")}
    with pytest.raises(NumericError, match="batch 0"):
        pretrain_epoch(model, ds, cfg, Adam(model.pretrain_parameters()), 1, streams)


def test_mask_token_substitution_happens_after_projection():
    # masked positions carry the token, not a zeroed patch
    from decop.model import encode_patches

    model = _tiny_model(lookback=16, patch=4, d=4, windows=(1,))
    for block in model.blocks:
        for p in block.params.values():
            p.data[...] = 0.0
    windows = Rng(12).normal((1, 16))
    patches = Tensor(patchify_batch(windows, 4, 4))
    mask = np.zeros((1, model.dims.n_patches))
    mask[0, 2] = 1.0
    out, _ = encode_patches(model, patches, train=False, rng=None, mask=mask)
    expected_masked = model.mask_token.data + model.pos.data[2]
    assert np.allclose(out.data[0, 2], expected_masked)


def _acceptance_batch():
    """The acceptance config at batch 64, a fresh model and one batch of windows."""
    cfg = RunConfig(lookback=512, patch_size=12, stride=12, model_dim=64, windows=(2, 5), batch_size=64)
    model = ModelState(cfg.dims(), cfg.dropout, cfg.blend_init, Rng(3))
    windows = synthetic_sine(64 + 512, 1, seed=4)[:, 0]
    return cfg, model, np.stack([windows[i : i + 512] for i in range(64)])


def _acceptance_step():
    """One pretraining step at the acceptance shape, batch 64; returns (step, model)."""
    cfg, model, x = _acceptance_batch()
    optimizer = Adam(model.pretrain_parameters(), lr=cfg.lr)
    streams = {name: Rng(5).child(name) for name in ("mask", "dropout")}

    def forward(x):
        return (pretrain_batch(model, x, cfg, streams["mask"], streams["dropout"]).total,)

    return lambda: train_epoch([(x,)], forward, optimizer, 1), model


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_warm_training_step_reuses_freed_memory():
    # decop.tensor keeps freed arrays in the heap, so once the first steps
    # have sized it, a step faults in (almost) no fresh pages
    import resource

    step, _ = _acceptance_step()
    faults = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step()
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert faults[-1] < 100, faults


def _warm_peak_in_activations(run, model):
    """``run``'s second call's traced peak, in (2B, N, D) float64 activations."""
    run()
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (2 * 64 * model.dims.n_patches * model.dims.model_dim * 8)


def _warm_step_peak_in_activations():
    return _warm_peak_in_activations(*_acceptance_step())


def test_warm_training_step_peak_memory_is_bounded_in_activations():
    # the tape keeps only the arrays backward rules read, dropout keeps a
    # 1-byte mask, no frame holds a finished block's arrays and the sweep
    # adds a second gradient contribution in place, so a step's peak stays
    # near six (2B, N, D) float64 activations. A float mask, stale frame
    # references and allocating sums peak near ten; a tape that keeps
    # every op's inputs and outputs until the sweep ends, near sixteen
    peak = _warm_step_peak_in_activations()
    assert peak <= 7, peak


def test_warm_training_step_holds_at_most_six_activations():
    # window_partition frees its input's own array, the reduction rules
    # return broadcast views, the sweep adds into an incoming gradient it
    # owns, window_merge pads its gradient in place, and the alignment loss
    # runs before the reconstruction head so no frame holds the
    # pre-residual: the step peaked near 5.6 activations, not 6.7. The
    # first block's learner now rebuilds its input in backward instead of
    # keeping it, and the batch's view arrays are let go before the
    # encoder runs, so the step peaks near 4.5, and a bound of five fails
    # if the layout is kept again
    peak = _warm_step_peak_in_activations()
    assert peak <= 5, peak


def test_warm_training_step_holds_at_most_six_activations_with_every_rule_wrapped(pass_through_rules):
    # a wrapper holds each incoming gradient while its rule runs, as a
    # tracer or a debugger would; the in-place paths go by the writeable
    # flag, not by who else holds the array, so the peak does not move
    peak = _warm_step_peak_in_activations()
    assert peak <= 5, peak


def test_pass_without_a_tape_holds_at_most_four_activations():
    # the val objective's pass: each block's input is an alias of its
    # padded layout, tape or not, so no block holds both (5.2 activations
    # when it did); the pass peaks near 3.7
    cfg, model, x = _acceptance_batch()
    peak = _warm_peak_in_activations(lambda: pretrain_batch(model, x, cfg, Rng(5), None, train=False), model)
    assert peak <= 4, peak
