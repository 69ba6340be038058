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
    assert flops.pretrain_param_count(dims) == 27
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
    dims = ModelDims(64, 8, 8, 16, (2, 4), "mlp", hidden_mult=2)
    model = ModelState(dims, dropout=0.1, blend_init=0.01, rng=Rng(1))
    actual = sum(p.size for p in model.pretrain_parameters().values())
    assert flops.pretrain_param_count(dims) == actual
    model.add_head("forecast", 12, Rng(2))
    encoder_and_head = sum(p.size for p in model.finetune_parameters().values())
    assert flops.finetune_param_count(dims, "forecast", horizon=12) == encoder_and_head


def test_doubling_width_scales_linear_blocks_quadratically():
    from decop.dcl import DclConfig, block_param_count

    small = DclConfig(model_dim=128, windows=(2,), learner="linear")
    large = DclConfig(model_dim=256, windows=(2,), learner="linear")
    ratio = block_param_count(large, 2) / block_param_count(small, 2)
    assert abs(ratio - 4.0) < 0.04


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
