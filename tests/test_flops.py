"""Analytic accounting against hand enumeration and actual tensors."""

import numpy as np
import pytest

from decop import flops
from decop.model import ModelDims, ModelState
from decop.rng import Rng


def test_toy_config_matches_manual_enumeration():
    # D=2, P=S=2, L=4 -> N=3, one width-1 linear block
    dims = ModelDims(lookback=4, patch_size=2, stride=2, model_dim=2, windows=(1,), learner="linear")
    assert dims.n_patches == 3
    # projection 2*2+2=6, positions 3*2=6, blend 1, block (1*2)^2+2=6,
    # mask token 2, reconstruction head 2*2+2=6 -> 27 total
    assert flops.pretrain_report(dims, 1).params == 27
    # per channel: projection 3*2*2=12, block 3 groups * 4 = 12, head 12 -> 36
    report = flops.pretrain_report(dims, n_channels=1)
    assert report.macs_per_channel == 36
    assert report.flops == 72
    # forecast stage with horizon 2: encoder 24 + head 3*2*2=12 -> 36 MACs,
    # params 6+6+1+6 + (3*2*2+2)=14 -> 33
    fin = flops.finetune_report(dims, 1, "forecast", horizon=2)
    assert fin.macs_per_channel == 36
    assert fin.params == 33


def test_parameter_count_matches_real_model():
    # the only check that the counts match the tensors a built model holds
    for learner in ("linear", "mlp"):
        dims = ModelDims(64, 8, 8, 16, (2, 4), learner, hidden_mult=2)
        model = ModelState(dims, dropout=0.1, blend_init=0.01, rng=Rng(1))
        actual = sum(p.size for p in model.pretrain_parameters().values())
        assert flops.pretrain_report(dims, 1).params == actual
        for task, horizon, classes in (("forecast", 12, 0), ("classify", 0, 3)):
            model.heads.clear()
            model.add_head(task, horizon or classes, Rng(2))
            encoder_and_head = sum(p.size for p in model.finetune_parameters().values())
            assert flops.finetune_report(dims, 1, task, horizon, classes).params == encoder_and_head


@pytest.mark.parametrize("learner", ["linear", "mlp"])
def test_macs_are_the_affine_products_of_one_forward(learner, monkeypatch):
    from decop import finetune, pretrain, tensor
    from decop.config import RunConfig

    # the patch projection is embed's product; every other layer is an affine
    products = []
    real_affine, real_embed = tensor.affine, tensor.embed

    def counting_affine(x, w, b):
        products.append(x.shape[0] * w.shape[0] * w.shape[1])
        return real_affine(x, w, b)

    def counting_embed(patches, w, *args):
        products.append(patches.shape[0] * patches.shape[1] * w.shape[0] * w.shape[1])
        return real_embed(patches, w, *args)

    monkeypatch.setattr(tensor, "affine", counting_affine)
    monkeypatch.setattr(tensor, "embed", counting_embed)
    dims = ModelDims(40, 6, 4, 8, (2, 3), learner, hidden_mult=2)
    model = ModelState(dims, dropout=0.1, blend_init=0.01, rng=Rng(3))
    window = Rng(4).normal((1, 40))
    # pretraining encodes the window and its positive view as one batch of two
    cfg = RunConfig(lookback=40, patch_size=6, stride=4, model_dim=8, windows=(2, 3), mask_ratio=0.5)
    pretrain.pretrain_batch(model, window, cfg, Rng(5), None, train=False)
    assert sum(products) == 2 * flops.pretrain_report(dims, 1).macs_per_channel
    for task, horizon, classes, forward in (
        ("forecast", 5, 0, finetune.forecast_forward),
        ("classify", 0, 3, finetune.classify_forward),
    ):
        model.add_head(task, horizon or classes, Rng(6))
        products.clear()
        forward(model, window, False, None)
        assert sum(products) == flops.finetune_report(dims, 1, task, horizon, classes).macs_per_channel


def test_doubling_width_scales_linear_blocks_quadratically():
    def block_params(model_dim):
        # one block's parameters: the count with two blocks less the count with one
        two = ModelDims(64, 8, 8, model_dim, (2, 2), "linear")
        one = ModelDims(64, 8, 8, model_dim, (2,), "linear")
        return flops.pretrain_report(two, 1).params - flops.pretrain_report(one, 1).params

    ratio = block_params(256) / block_params(128)
    assert abs(ratio - 4.0) < 0.04


def test_acceptance_config_counts_are_pinned():
    # L=512, P=S=12, D=64, windows 2,5, horizon 96, three channels
    dims = ModelDims(512, 12, 12, 64, (2, 5), "linear")
    pre = flops.pretrain_report(dims, 3)
    assert (pre.params, pre.macs_per_channel, pre.flops) == (123_661, 1_348_096, 8_088_576)
    fin = flops.finetune_report(dims, 3, "forecast", horizon=96)
    assert (fin.params, fin.macs_per_channel, fin.flops) == (387_105, 1_579_264, 9_475_584)


def test_channel_count_multiplies_instance_flops():
    dims = ModelDims(96, 12, 12, 32, (2, 5), "linear")
    one = flops.pretrain_report(dims, 1)
    seven = flops.pretrain_report(dims, 7)
    assert seven.macs == 7 * one.macs
    assert seven.macs_per_channel == one.macs_per_channel


def test_format_report_mentions_stage_and_counts():
    dims = ModelDims(16, 4, 4, 4, (1,), "linear")
    text = flops.format_report("pretrain", flops.pretrain_report(dims, 2))
    assert "[pretrain]" in text and "parameters" in text and "FLOPs" in text
