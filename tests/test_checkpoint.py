"""Checkpoint round-trips, structural guards, and config parsing."""

import os

import numpy as np
import pytest

from decop import checkpoint
from decop.config import echo_config, load_config, parse_config_text
from decop.errors import CheckpointError, ConfigError
from decop.model import ModelDims, ModelState
from decop.rng import Rng


def _model(patch=8, seed=3, **kw):
    dims = ModelDims(kw.pop("lookback", 32), patch, patch, kw.pop("d", 6), kw.pop("windows", (2,)), "linear")
    return ModelState(dims, dropout=0.0, blend_init=0.01, rng=Rng(seed))


def test_save_load_save_is_byte_identical(tmp_path):
    model = _model()
    model.add_forecast_head(4, Rng(4))
    first = str(tmp_path / "a.decop")
    second = str(tmp_path / "b.decop")
    checkpoint.save(first, model)
    fresh = _model(seed=99)
    checkpoint.load(first, fresh)
    checkpoint.save(second, fresh)
    assert open(first, "rb").read() == open(second, "rb").read()


def test_load_restores_values_at_float32_precision(tmp_path):
    model = _model()
    path = str(tmp_path / "m.decop")
    checkpoint.save(path, model)
    fresh = _model(seed=99)
    checkpoint.load(path, fresh)
    for name, p in model.all_parameters().items():
        narrowed = p.data.astype(np.float32).astype(np.float64)
        assert np.array_equal(fresh.all_parameters()[name].data, narrowed), name


def test_structural_mismatch_lists_both_sides(tmp_path):
    model = _model(patch=8)
    path = str(tmp_path / "m.decop")
    checkpoint.save(path, model)
    other = ModelState(
        ModelDims(32, 4, 4, 6, (2,), "linear"), dropout=0.0, blend_init=0.01, rng=Rng(1)
    )
    with pytest.raises(CheckpointError) as err:
        checkpoint.load(path, other)
    assert "patch_size" in str(err.value)
    assert "checkpoint='8'" in str(err.value) and "run='4'" in str(err.value)


def test_missing_checkpoint_file(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        checkpoint.load(str(tmp_path / "nope.decop"), _model())


def test_requires_heads_when_asked(tmp_path):
    model = _model()
    path = str(tmp_path / "enc.decop")
    checkpoint.save(path, model)
    with pytest.raises(CheckpointError, match="head"):
        checkpoint.load(path, _model(seed=5), require_heads=True)


def test_head_parameters_round_trip(tmp_path):
    model = _model()
    model.add_classify_head(3, Rng(6))
    path = str(tmp_path / "cls.decop")
    checkpoint.save(path, model)
    fresh = _model(seed=9)
    checkpoint.load(path, fresh, require_heads=True)
    assert "classify_w" in fresh.heads
    assert fresh.heads["classify_w"].data.shape == (6, 3)


def test_serialized_value_count_matches_analytic_params(tmp_path):
    from decop import flops

    model = _model()
    path = str(tmp_path / "m.decop")
    checkpoint.save(path, model)
    blob = open(path, "rb").read()
    payload = blob.split(b"END-HEADER\n", 1)[1]
    assert len(payload) == 4 * flops.pretrain_param_count(model.dims)


def test_corrupt_payload_detected(tmp_path):
    model = _model()
    path = str(tmp_path / "m.decop")
    checkpoint.save(path, model)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        checkpoint.load(path, _model(seed=9))


def test_single_byte_header_mutations_load_or_raise_checkpoint_error(tmp_path):
    path = str(tmp_path / "m.decop")
    checkpoint.save(path, _model())
    blob = open(path, "rb").read()
    header_end = blob.index(b"END-HEADER\n") + len(b"END-HEADER\n")
    target = _model(seed=9)
    mutated = str(tmp_path / "mutated.decop")
    rejected = 0
    for pos in range(header_end):
        for byte in (b" ", b"x", b"9", b"=", b"-", b"\n", b"\xff"):
            if blob[pos : pos + 1] == byte:
                continue
            with open(mutated, "wb") as fh:
                fh.write(blob[:pos] + byte + blob[pos + 1 :])
            try:
                checkpoint.load(mutated, target)
            except CheckpointError:
                rejected += 1
    assert rejected > 0


# ---------------------------------------------------------------------------
# config files


def test_config_defaults_and_overrides():
    cfg = parse_config_text("lookback = 128\nwindows = 1,3\nlr = 2e-4\n# comment\n")
    assert cfg.lookback == 128
    assert cfg.windows == (1, 3)
    assert cfg.lr == 2e-4
    assert cfg.patch_size == 12  # untouched default


def test_unknown_field_is_named():
    with pytest.raises(ConfigError, match="turbo"):
        parse_config_text("turbo = 9\n")


def test_bad_value_is_named():
    with pytest.raises(ConfigError, match="lookback"):
        parse_config_text("lookback = many\n")


@pytest.mark.parametrize(
    "text",
    [
        "task = juggle",
        "stride = 20\npatch_size = 12",
        "keep_fraction = 0.0",
        "mask_ratio = 1.0",
        "windows = 5,2",
        "split_ratios = 0.5,0.2,0.2",
        "horizon = 0",
    ],
)
def test_validation_rejects(text):
    with pytest.raises(ConfigError):
        parse_config_text(text + "\n")


def test_echo_contains_every_field():
    cfg = parse_config_text("lookback = 64\npatch_size = 8\nstride = 8\n")
    echo = echo_config(cfg)
    from dataclasses import fields

    for f in fields(cfg):
        assert f.name in echo
    # echo parses back to the same configuration
    assert parse_config_text(echo) == cfg


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "none.cfg"))
