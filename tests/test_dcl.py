"""Windowed encoder: shapes, locality, residuals, parameter accounting."""

import numpy as np
import pytest

from decop import dcl
from decop.dcl import DclBlock, DclConfig
from decop.model import ModelDims, ModelState, encode_patches
from decop.rng import Rng
from decop.tensor import Tensor


def _cfg(**kw):
    base = dict(model_dim=4, windows=(2,), learner="linear", dropout=0.0, hidden_mult=1)
    base.update(kw)
    return DclConfig(**base)


def _zero_block(cfg, window):
    block = dcl.init_block(cfg, window, Rng(0))
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
    flat, groups = dcl.window_partition(z, 2)
    assert groups == 3
    assert flat.shape == (3, 8)
    assert np.array_equal(flat.data[2, 4:], np.zeros(4))  # padded patch


def test_window_one_keeps_layout():
    z = Tensor(Rng(3).normal((2, 5, 4)))
    flat, groups = dcl.window_partition(z, 1)
    assert groups == 5
    assert np.array_equal(flat.data.reshape(2, 5, 4), z.data)


def test_window_covering_everything_is_single_group():
    z = Tensor(Rng(4).normal((2, 5, 4)))
    flat, groups = dcl.window_partition(z, 7)
    assert groups == 1
    assert flat.shape == (2, 28)


def test_merge_inverts_partition():
    z = Tensor(Rng(5).normal((3, 7, 4)))
    for window in (1, 2, 3, 7, 10):
        flat, groups = dcl.window_partition(z, window)
        back = dcl.window_merge(flat, 3, groups, window, 7, 4)
        assert np.array_equal(back.data, z.data)


# ---------------------------------------------------------------------------
# blocks


def test_zero_learner_block_is_pure_residual():
    cfg = _cfg(windows=(2,))
    block = _zero_block(cfg, 2)
    z = Tensor(Rng(6).normal((2, 5, 4)))
    out, pre = dcl.block_forward(z, block, cfg, train=False, rng=None)
    assert np.array_equal(out.data, z.data)
    assert np.array_equal(pre.data, np.zeros_like(z.data))


def _sensitivity(block, cfg, n=8, d=3, h=1e-6):
    """Finite-difference sensitivity matrix between output and input patches."""
    rng = Rng(7)
    base = rng.normal((1, n, d))

    def forward(x):
        out, _ = dcl.block_forward(Tensor(x), block, cfg, train=False, rng=None)
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
    cfg = _cfg(model_dim=3, windows=(window,), learner="linear")
    block = dcl.init_block(cfg, window, Rng(8))
    sens = _sensitivity(block, cfg, n=8, d=3)
    for i in range(8):
        for j in range(8):
            same_window = i // window == j // window
            if not same_window:
                assert sens[i, j] < 1e-10, (i, j)
    # residual guarantees the diagonal is live
    assert (np.diag(sens) > 0).all()


def test_global_window_mlp_touches_every_patch():
    cfg = _cfg(model_dim=3, windows=(8,), learner="mlp")
    block = dcl.init_block(cfg, 8, Rng(9))
    sens = _sensitivity(block, cfg, n=8, d=3)
    assert (sens > 1e-8).all()


def test_two_block_composition_reaches_more_than_either_alone():
    cfg = _cfg(model_dim=3, windows=(2, 5), learner="linear")
    blocks = [dcl.init_block(cfg, w, Rng(10 + w)) for w in (2, 5)]
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
        return lambda x: dcl.block_forward(Tensor(x), block, cfg, False, None)[0].data[0]

    def composed(x):
        out, _ = dcl.encoder_forward(Tensor(x), blocks, cfg, False, None)
        return out.data[0]

    r2, r5, rc = reach(single(blocks[0])), reach(single(blocks[1])), reach(composed)
    assert rc.sum() > r2.sum()
    assert rc.sum() > r5.sum()
    # composition covers the union and at least one bridged pair beyond it
    assert (rc | r2 | r5).sum() == rc.sum()
    # patch 0 reaches outside its width-2 window via the width-5 stage
    assert rc[0, 3] and not r2[0, 3]


def test_encoder_single_zero_block_is_identity():
    cfg = _cfg(windows=(3,))
    blocks = [_zero_block(cfg, 3)]
    z = Tensor(Rng(12).normal((2, 6, 4)))
    out, pre = dcl.encoder_forward(z, blocks, cfg, train=False, rng=None)
    assert np.array_equal(out.data, z.data)
    assert np.array_equal(pre.data, np.zeros_like(z.data))


def test_encoder_is_deterministic_under_seed():
    cfg = _cfg(windows=(2, 4), dropout=0.2)

    def run():
        blocks = [dcl.init_block(cfg, w, Rng(13)) for w in (2, 4)]
        z = Tensor(Rng(14).normal((2, 6, 4)))
        out, _ = dcl.encoder_forward(z, blocks, cfg, train=True, rng=Rng(15))
        return out.data

    assert np.array_equal(run(), run())


def test_residual_is_small_at_documented_init_scale():
    cfg = _cfg(model_dim=16, windows=(4,), learner="linear")
    block = dcl.init_block(cfg, 4, Rng(16))
    z = Tensor(Rng(17).normal((4, 12, 16)))
    out, _ = dcl.block_forward(z, block, cfg, train=False, rng=None)
    drift = np.linalg.norm(out.data - z.data) / np.linalg.norm(z.data)
    assert drift < 1.0


# ---------------------------------------------------------------------------
# configuration and accounting


def test_linear_block_parameter_formula():
    cfg = _cfg(model_dim=6, windows=(3,), learner="linear")
    block = dcl.init_block(cfg, 3, Rng(18))
    actual = sum(p.size for p in block.params.values())
    width = 3 * 6
    assert actual == width * width + width
    assert actual == dcl.block_param_count(cfg, 3)


def test_mlp_block_parameter_formula():
    cfg = _cfg(model_dim=4, windows=(2,), learner="mlp", hidden_mult=2)
    block = dcl.init_block(cfg, 2, Rng(19))
    actual = sum(p.size for p in block.params.values())
    width, hidden = 8, 16
    assert actual == width * hidden + hidden + hidden * width + width
    assert actual == dcl.block_param_count(cfg, 2)


def test_init_weights_respect_fan_in_bound():
    cfg = _cfg(model_dim=8, windows=(4,), learner="linear")
    block = dcl.init_block(cfg, 4, Rng(20))
    bound = 1.0 / np.sqrt(32)
    assert np.abs(block.params["w"].data).max() <= bound
