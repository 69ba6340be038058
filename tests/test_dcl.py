"""Windowed encoder: shapes, locality, residuals, parameter accounting."""

import weakref

import numpy as np
import pytest

from decop import dcl
from decop import tensor as T
from decop.model import ModelDims, ModelState, _latents, encode_patches
from decop.rng import Rng
from decop.tensor import Tape, Tensor


def _dims(**kw):
    """Encoder dims; the patching fields are placeholders the blocks never read."""
    base = dict(lookback=1, patch_size=1, stride=1, model_dim=4, windows=(2,), learner="linear")
    base.update(kw)
    return ModelDims(**base)


def _zero_block(dims, window):
    block = dcl.init_block(dims, window, Rng(0))
    for p in block.params.values():
        p.data[...] = 0.0
    return block


# ---------------------------------------------------------------------------
# projection: with every block zeroed and in eval mode, the encoder is the
# identity, so model.encode_patches returns patches @ proj_w + proj_b + pos


def _encode_projection(patches, proj_w, proj_b, pos):
    _, n, p = patches.shape
    d = proj_w.shape[1]
    model = ModelState(ModelDims(p, p, p, d, (1,), "linear"), dropout=0.1, blend_init=0.01, rng=Rng(0))
    assert model.dims.n_patches == n
    for name, tensor in (("proj_w", proj_w), ("proj_b", proj_b), ("pos", pos)):
        getattr(model, name).data[...] = tensor
    for block in model.blocks:
        for tensor in block.params.values():
            tensor.data[...] = 0.0
    out, _ = encode_patches(model, Tensor(patches), train=False, rng=None)
    return out.data


def test_zero_projection_gives_zero_latents():
    out = _encode_projection(np.ones((2, 2, 5)), np.zeros((5, 4)), np.zeros(4), np.zeros((2, 4)))
    assert np.array_equal(out, np.zeros((2, 2, 4)))


def test_identity_projection_passes_patches_through():
    patches = Rng(1).normal((2, 2, 4))
    out = _encode_projection(patches, np.eye(4), np.zeros(4), np.zeros((2, 4)))
    assert np.array_equal(out, patches)


def test_projection_hand_product():
    p = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    w = np.array([[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 2.0], [1.0, 1.0, 0.0, 0.0]])
    b = np.array([0.5, -1.0, 0.0, 2.0])
    pos = np.array([[0.25, 0.0, -0.5, 1.0], [-0.25, 0.5, 0.0, -1.0]])
    # p @ w = [[4, 5, 2, 4], [10, 11, 8, 10]]
    want = np.array([[4.75, 4.0, 1.5, 7.0], [10.25, 10.5, 8.0, 11.0]])
    assert np.array_equal(_encode_projection(p[None], w, b, pos)[0], want)


# ---------------------------------------------------------------------------
# window grouping


def test_partition_pads_to_window_multiple():
    z = Tensor(Rng(2).normal((1, 5, 4)))
    flat = T.window_partition(z, 2)
    assert flat.shape == (3, 8)
    assert np.array_equal(flat.data[2, 4:], np.zeros(4))  # padded patch


def test_window_one_keeps_layout():
    z = Tensor(Rng(3).normal((2, 5, 4)))
    flat = T.window_partition(z, 1)
    assert flat.shape == (10, 4)
    assert np.array_equal(flat.data.reshape(2, 5, 4), z.data)


def test_window_covering_everything_is_single_group():
    z = Tensor(Rng(4).normal((2, 5, 4)))
    flat = T.window_partition(z, 7)
    assert flat.shape == (2, 28)


def test_merge_inverts_partition():
    z = Tensor(Rng(5).normal((3, 7, 4)))
    for window in (1, 2, 3, 7, 10):
        back = T.window_merge(T.window_partition(z, window), 3, 7, 4)
        assert np.array_equal(back.data, z.data)


# ---------------------------------------------------------------------------
# blocks


def test_zero_learner_block_is_pure_residual():
    dims = _dims(windows=(2,))
    block = _zero_block(dims, 2)
    z = Tensor(Rng(6).normal((2, 5, 4)))
    out, pre = dcl.block_forward(z, block, 0.0, train=False, rng=None)
    assert np.array_equal(out.data, z.data)
    assert np.array_equal(pre.data, np.zeros_like(z.data))


def _sensitivity(block, n=8, d=3, h=1e-6):
    """Finite-difference sensitivity matrix between output and input patches."""
    rng = Rng(7)
    base = rng.normal((1, n, d))

    def forward(x):
        out, _ = dcl.block_forward(Tensor(x), block, 0.0, train=False, rng=None)
        return out.data[0]

    sens = np.zeros((n, n))
    for j in range(n):
        for e in range(d):
            up, down = base.copy(), base.copy()
            up[0, j, e] += h
            down[0, j, e] -= h
            diff = (forward(up) - forward(down)) / (2 * h)
            sens[:, j] += np.abs(diff).sum(axis=1)
    return sens


@pytest.mark.parametrize("window", [1, 2, 5, 8])
def test_single_block_locality_is_window_diagonal(window):
    dims = _dims(model_dim=3, windows=(window,), learner="linear")
    block = dcl.init_block(dims, window, Rng(8))
    sens = _sensitivity(block, n=8, d=3)
    for i in range(8):
        for j in range(8):
            same_window = i // window == j // window
            if not same_window:
                assert sens[i, j] < 1e-10, (i, j)
    # residual guarantees the diagonal is live
    assert (np.diag(sens) > 0).all()


def test_global_window_mlp_touches_every_patch():
    dims = _dims(model_dim=3, windows=(8,), learner="mlp")
    block = dcl.init_block(dims, 8, Rng(9))
    sens = _sensitivity(block, n=8, d=3)
    assert (sens > 1e-8).all()


def test_two_block_composition_reaches_more_than_either_alone():
    dims = _dims(model_dim=3, windows=(2, 5), learner="linear")
    blocks = [dcl.init_block(dims, w, Rng(10 + w)) for w in (2, 5)]
    n, d, h = 8, 3, 1e-6
    base = Rng(11).normal((1, n, d))

    def reach(fwd):
        sens = np.zeros((n, n))
        for j in range(n):
            for e in range(d):
                up, down = base.copy(), base.copy()
                up[0, j, e] += h
                down[0, j, e] -= h
                diff = (fwd(up) - fwd(down)) / (2 * h)
                sens[:, j] += np.abs(diff).sum(axis=1)
        return sens > 1e-10

    def single(block):
        return lambda x: dcl.block_forward(Tensor(x), block, 0.0, False, None)[0].data[0]

    def composed(x):
        out, _ = dcl.encoder_forward(Tensor(x), blocks, 0.0, False, None)
        return out.data[0]

    r2, r5, rc = reach(single(blocks[0])), reach(single(blocks[1])), reach(composed)
    assert rc.sum() > r2.sum()
    assert rc.sum() > r5.sum()
    # composition covers the union and at least one bridged pair beyond it
    assert (rc | r2 | r5).sum() == rc.sum()
    # patch 0 reaches outside its width-2 window via the width-5 stage
    assert rc[0, 3] and not r2[0, 3]


def _gelu_reference(h):
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (h + 0.044715 * (h * h * h)))
    slope = 0.5 * (1.0 + t) + 0.5 * h * (1.0 - t * t) * c * (1.0 + 3 * 0.044715 * h * h)
    return 0.5 * h * (1.0 + t), slope


def _block_reference(z, params, learner, window, drop_mask, g_out):
    """The unfused block in plain numpy: pad, reshape, learner, slice, residual.

    Returns the output and the gradients of sum(out * g_out) with respect
    to the input and every learner parameter.
    """
    b, n, d = z.shape
    groups = -(-n // window)
    padded = np.concatenate([z, np.zeros((b, groups * window - n, d))], axis=1)
    flat = padded.reshape(b * groups, window * d)
    if learner == "linear":
        y = flat @ params["w"] + params["b"]
    else:
        hidden, slope = _gelu_reference(flat @ params["w1"] + params["b1"])
        y = hidden @ params["w2"] + params["b2"]
    mixed = y.reshape(b, groups * window, d)[:, :n]
    out = mixed + z * drop_mask

    g_y = np.concatenate([g_out, np.zeros((b, groups * window - n, d))], axis=1)
    g_y = g_y.reshape(y.shape)
    grads = {}
    if learner == "linear":
        grads["w"], grads["b"] = flat.T @ g_y, g_y.sum(axis=0)
        g_flat = g_y @ params["w"].T
    else:
        grads["w2"], grads["b2"] = hidden.T @ g_y, g_y.sum(axis=0)
        g_h = (g_y @ params["w2"].T) * slope
        grads["w1"], grads["b1"] = flat.T @ g_h, g_h.sum(axis=0)
        g_flat = g_h @ params["w1"].T
    grads["z"] = g_out * drop_mask + g_flat.reshape(padded.shape)[:, :n]
    return out, grads


@pytest.mark.parametrize("learner", ["linear", "mlp"])
@pytest.mark.parametrize("n", [6, 7])
def test_block_matches_unfused_reference_bit_for_bit(learner, n):
    # window 3: N = 6 fills two windows exactly, N = 7 pads two patches
    p = 0.3
    dims = _dims(model_dim=4, windows=(3,), learner=learner)
    block = dcl.init_block(dims, 3, Rng(21))
    z = Tensor(Rng(22).normal((5, n, 4)), requires_grad=True)
    g_out = Rng(23).normal((5, n, 4))
    with Tape() as tape:
        out, _ = dcl.block_forward(z, block, p, train=True, rng=Rng(24))
        loss = T.sum_all(T.mul(out, Tensor(g_out)))
    tape.backward(loss)

    drop_mask = np.where(Rng(24).bernoulli(p, z.shape), 0.0, 1.0 / (1.0 - p))
    params = {name: t.data for name, t in block.params.items()}
    want, want_grads = _block_reference(z.data, params, learner, 3, drop_mask, g_out)
    assert np.array_equal(out.data, want)
    assert np.array_equal(z.grad, want_grads.pop("z"))
    for name, grad in want_grads.items():
        assert np.array_equal(block.params[name].grad, grad), name


def test_encoder_single_zero_block_is_identity():
    dims = _dims(windows=(3,))
    blocks = [_zero_block(dims, 3)]
    z = Tensor(Rng(12).normal((2, 6, 4)))
    out, pre = dcl.encoder_forward(z, blocks, 0.0, train=False, rng=None)
    assert np.array_equal(out.data, z.data)
    assert np.array_equal(pre.data, np.zeros_like(z.data))


def test_encoder_is_deterministic_under_seed():
    dims = _dims(windows=(2, 4))

    def run():
        blocks = [dcl.init_block(dims, w, Rng(13)) for w in (2, 4)]
        z = Tensor(Rng(14).normal((2, 6, 4)))
        out, _ = dcl.encoder_forward(z, blocks, 0.2, train=True, rng=Rng(15))
        return out.data

    assert np.array_equal(run(), run())


def test_residual_is_small_at_documented_init_scale():
    dims = _dims(model_dim=16, windows=(4,), learner="linear")
    block = dcl.init_block(dims, 4, Rng(16))
    z = Tensor(Rng(17).normal((4, 12, 16)))
    out, _ = dcl.block_forward(z, block, 0.0, train=False, rng=None)
    drift = np.linalg.norm(out.data - z.data) / np.linalg.norm(z.data)
    assert drift < 1.0


# ---------------------------------------------------------------------------
# configuration and accounting


def test_linear_block_parameter_formula():
    dims = _dims(model_dim=6, windows=(3,), learner="linear")
    block = dcl.init_block(dims, 3, Rng(18))
    actual = sum(p.size for p in block.params.values())
    width = 3 * 6
    assert actual == width * width + width


def test_mlp_block_parameter_formula():
    dims = _dims(model_dim=4, windows=(2,), learner="mlp", hidden_mult=2)
    block = dcl.init_block(dims, 2, Rng(19))
    actual = sum(p.size for p in block.params.values())
    width, hidden = 8, 16
    assert actual == width * hidden + hidden + hidden * width + width


def test_init_weights_respect_fan_in_bound():
    dims = _dims(model_dim=8, windows=(4,), learner="linear")
    block = dcl.init_block(dims, 4, Rng(20))
    bound = 1.0 / np.sqrt(32)
    assert np.abs(block.params["w"].data).max() <= bound


# ---------------------------------------------------------------------------
# the first block's learner rebuilds its input in backward instead of
# keeping it; the rebuild must give the forward's layout bit for bit


def _acceptance_model(learner="linear", dropout=0.1):
    # L=512, P=S=12, D=64, windows 2 and 5: 43 patches, the benchmark shape
    dims = ModelDims(512, 12, 12, 64, (2, 5), learner)
    return ModelState(dims, dropout=dropout, blend_init=0.01, rng=Rng(31))


def _acceptance_batch(batch, masked):
    patches = Tensor(Rng(32).normal((batch, 43, 12)))
    mask = None
    if masked:
        mask = np.zeros((batch, 43))
        mask[:, ::3] = 1.0
    return patches, mask


# 2 rows run whole, under the small-matrix kernel, as the forward does; 158
# rows (the 79-window last batch of a pretrain-sine epoch, doubled) is
# where slices of a fixed size would leave a last slice under it; 512 is a
# full doubled batch
@pytest.mark.parametrize("batch", [2, 158, 512])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_rebuilt_first_layout_has_the_bits_of_the_forward(batch, masked, monkeypatch):
    model = _acceptance_model()
    patches, mask = _acceptance_batch(batch, masked)
    calls = []
    matmul = np.matmul

    def spy(a, b, out):
        calls.append(a.shape[0] * a.shape[1] * b.shape[1])
        return matmul(a, b, out=out)

    with Tape():
        z = _latents(model, patches, mask)
        windows = T.window_partition(z, model.blocks[0].window)
        rebuilt = np.full(windows.shape, np.nan)
        monkeypatch.setattr(np, "matmul", spy)
        windows.recompute(rebuilt)
        monkeypatch.undo()
    assert np.array_equal(rebuilt.view(np.uint64), windows.data.view(np.uint64))
    assert sum(calls) == batch * 43 * 12 * 64
    if sum(calls) > T._SMALL_KERNEL_MACS:
        assert min(calls) > T._SMALL_KERNEL_MACS
    else:
        assert len(calls) == 1


@pytest.mark.parametrize("learner", ["linear", "mlp"])
def test_rebuilding_the_first_layout_changes_no_gradient_bit(learner, monkeypatch):
    def gradients():
        model = _acceptance_model(learner)
        patches, mask = _acceptance_batch(158, masked=True)
        with Tape() as tape:
            out, _ = encode_patches(model, patches, True, Rng(33), mask)
            loss = T.sum_all(T.mul(out, Tensor(Rng(34).normal(out.shape))))
        tape.backward(loss)
        return {name: p.grad for name, p in model.pretrain_parameters().items() if p.grad is not None}

    rebuilt = gradients()
    # without the rebuild, the first learner keeps its input as every
    # other affine does
    monkeypatch.setattr(T, "_rebuild_positions", lambda *args: None)
    kept = gradients()
    assert rebuilt.keys() == kept.keys()
    for name in kept:
        assert np.array_equal(rebuilt[name].view(np.uint64), kept[name].view(np.uint64)), name


@pytest.mark.parametrize("learner", ["linear", "mlp"])
def test_first_layout_is_let_go_when_the_forward_pass_returns(learner, monkeypatch):
    model = _acceptance_model(learner)
    patches, mask = _acceptance_batch(4, masked=True)
    layouts = []
    partition = T.window_partition

    def spy(z, window):
        windows = partition(z, window)
        owner = windows.data if windows.data.base is None else windows.data.base
        layouts.append(weakref.ref(owner))
        return windows

    monkeypatch.setattr(T, "window_partition", spy)
    with Tape() as tape:
        out, pre = encode_patches(model, patches, True, Rng(35), mask)
        first, last = layouts
        # the last block's learner keeps its input for its weight gradient;
        # the first block's rebuilds it, so nothing holds it any more
        assert first() is None and last() is not None
        loss = T.sum_all(out)
    tape.backward(loss)
    assert model.blocks[0].params["w" if learner == "linear" else "w1"].grad is not None
