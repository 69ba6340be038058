"""End-to-end command-line runs on small synthetic data."""

import math
import os
import random
import shutil
import warnings
from dataclasses import fields

import numpy as np
import pytest

from decop.cli import main
from decop.config import RunConfig
from decop.data import synthetic_sine, synthetic_two_class, write_csv


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "toy.csv"
    write_csv(str(data), synthetic_sine(420, 2, seed=5, periods=(12.0, 18.0)))
    return tmp_path, str(data)


def _config(tmp_path, data_path, out_name, **overrides):
    fields = {
        "dataset": data_path,
        "dataset_name": "toy",
        "lookback": 48,
        "horizon": 12,
        "patch_size": 8,
        "stride": 8,
        "model_dim": 8,
        "windows": "1,2",
        "epochs": 2,
        "batch_size": 32,
        "lr": "1e-3",
        "split_ratios": "0.6,0.2,0.2",
        "seed": 11,
        "out_dir": str(tmp_path / out_name),
    }
    fields.update(overrides)
    path = tmp_path / f"{out_name}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()), encoding="utf-8")
    return str(path)


def test_missing_dataset_file_names_the_path(tmp_path, capsys):
    cfg = _config(tmp_path, str(tmp_path / "absent.csv"), "run")
    code = main(["pretrain", "--config", cfg])
    captured = capsys.readouterr()
    assert code != 0
    assert "decop:error:config" in captured.err
    assert "absent.csv" in captured.err
    assert captured.err.count("\n") == 1


def test_pretrain_writes_roundtrippable_checkpoint(workspace):
    tmp_path, data = workspace
    cfg = _config(tmp_path, data, "pre")
    assert main(["pretrain", "--config", cfg]) == 0
    out = tmp_path / "pre"
    assert (out / "ckpt_final.decop").exists()
    assert (out / "ckpt_best.decop").exists()
    assert (out / "pretrain_metrics.csv").exists()
    assert (out / "config_echo.txt").exists()

    from decop import checkpoint
    from decop.config import load_config
    from decop.model import ModelState
    from decop.rng import Rng

    run_cfg = load_config(cfg)
    model = ModelState(run_cfg.dims(), run_cfg.dropout, run_cfg.blend_init, Rng(0))
    checkpoint.load(str(out / "ckpt_final.decop"), model)
    resaved = str(out / "resaved.decop")
    checkpoint.save(resaved, model)
    assert open(resaved, "rb").read() == open(out / "ckpt_final.decop", "rb").read()


def test_two_identical_runs_are_byte_identical(workspace):
    tmp_path, data = workspace
    first = _config(tmp_path, data, "runA")
    second = _config(tmp_path, data, "runB", out_dir=str(tmp_path / "runB"))
    assert main(["pretrain", "--config", first]) == 0
    assert main(["pretrain", "--config", second]) == 0
    a = (tmp_path / "runA" / "pretrain_metrics.csv").read_bytes()
    b = (tmp_path / "runB" / "pretrain_metrics.csv").read_bytes()
    assert a == b
    ca = (tmp_path / "runA" / "ckpt_final.decop").read_bytes()
    cb = (tmp_path / "runB" / "ckpt_final.decop").read_bytes()
    assert ca == cb


def test_finetune_and_eval_report_forecast_metrics(workspace, capsys):
    tmp_path, data = workspace
    pre_cfg = _config(tmp_path, data, "pre2")
    assert main(["pretrain", "--config", pre_cfg]) == 0
    fin_cfg = _config(tmp_path, data, "fin", epochs=2)
    ckpt = str(tmp_path / "pre2" / "ckpt_best.decop")
    assert main(["finetune", "--config", fin_cfg, "--checkpoint", ckpt]) == 0
    report = (tmp_path / "fin" / "report.txt").read_text()
    assert report.startswith("mse=")
    assert "mae=" in report

    eval_cfg = _config(tmp_path, data, "ev")
    finetuned = str(tmp_path / "fin" / "ckpt_finetuned.decop")
    assert main(["eval", "--config", eval_cfg, "--checkpoint", finetuned]) == 0
    assert (tmp_path / "ev" / "report.txt").read_text().startswith("mse=")


def test_structural_mismatch_is_reported(workspace, capsys):
    tmp_path, data = workspace
    pre_cfg = _config(tmp_path, data, "pre3")
    assert main(["pretrain", "--config", pre_cfg]) == 0
    bad_cfg = _config(tmp_path, data, "bad", patch_size=6, stride=6)
    code = main(["finetune", "--config", bad_cfg, "--checkpoint", str(tmp_path / "pre3" / "ckpt_best.decop")])
    captured = capsys.readouterr()
    assert code != 0
    assert "decop:error:checkpoint" in captured.err
    assert "patch_size" in captured.err


def test_cross_dataset_finetune_completes(workspace):
    tmp_path, data = workspace
    other = tmp_path / "other.csv"
    write_csv(str(other), synthetic_sine(420, 3, seed=31, periods=(10.0, 14.0, 22.0)))
    pre_cfg = _config(tmp_path, data, "pre4")
    assert main(["pretrain", "--config", pre_cfg]) == 0
    fin_cfg = _config(tmp_path, str(other), "fin4")
    ckpt = str(tmp_path / "pre4" / "ckpt_best.decop")
    assert main(["finetune", "--config", fin_cfg, "--checkpoint", ckpt]) == 0
    report = (tmp_path / "fin4" / "report.txt").read_text()
    mse = float(report.splitlines()[0].split("=")[1])
    assert np.isfinite(mse)


def test_filter_viz_schema_and_identity_filter(workspace):
    tmp_path, data = workspace
    cfg = _config(tmp_path, data, "viz", keep_fraction="1.0")
    out = str(tmp_path / "viz" / "filter_viz.csv")
    assert main(["filter-viz", "--config", cfg, "--channel", "1", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "t,anchor,denoised,noise"
    assert len(lines) == 1 + 48  # header + one row per look-back point
    noise = np.array([float(ln.split(",")[3]) for ln in lines[1:]])
    assert np.abs(noise).max() < 1e-8


def test_filter_viz_channel_out_of_range(workspace, capsys):
    tmp_path, data = workspace
    cfg = _config(tmp_path, data, "viz2")
    assert main(["filter-viz", "--config", cfg, "--channel", "7"]) != 0
    assert "channel 7" in capsys.readouterr().err


def test_flops_prints_both_stages(workspace, capsys):
    tmp_path, data = workspace
    cfg = _config(tmp_path, data, "fl")
    assert main(["flops", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "[pretrain]" in text and "[finetune]" in text
    assert "2 channels" in text


def test_pretrain_windows_carry_no_horizon(tmp_path):
    # a 150-row train split holds 96-row pretraining windows, though not
    # the 192 rows of a fine-tuning window with horizon 96
    data = tmp_path / "short.csv"
    write_csv(str(data), synthetic_sine(300, 2, seed=5))
    cfg = _config(
        tmp_path, str(data), "pre96", lookback=96, horizon=96, split_ratios="0.5,0.2,0.3"
    )
    assert main(["pretrain", "--config", cfg]) == 0
    assert (tmp_path / "pre96" / "ckpt_best.decop").exists()


def test_synth_command_writes_loadable_csv(tmp_path):
    out = str(tmp_path / "synthetic.csv")
    assert main(["synth", "--out", out, "--rows", "200", "--channels", "2", "--seed", "3"]) == 0
    from decop.data import DatasetSpec, load_csv

    ds = load_csv(out, DatasetSpec("synthetic", out))
    assert ds.values.shape[0] == 200 and ds.n_channels == 2


def test_invalid_config_field_is_named(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("windows = 5,2\n", encoding="utf-8")
    assert main(["pretrain", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "decop:error:config" in err and "windows" in err


def test_classification_finetune_via_cli(tmp_path, capsys):
    from decop.data import synthetic_two_class

    data = tmp_path / "cls.csv"
    values, labels = synthetic_two_class(600, 1, seed=9, segment=100)
    write_csv(str(data), values, labels)
    cfg = _config(
        tmp_path, str(data), "cls",
        task="classify", classes=2, lookback=32, patch_size=8, stride=8,
        windows="2,2", learner="mlp", epochs=3, lr="3e-3",
    )
    assert main(["finetune", "--config", cfg]) == 0
    report = (tmp_path / "cls" / "report.txt").read_text()
    keys = {line.split("=")[0] for line in report.strip().splitlines()}
    assert keys == {"acc", "precision", "recall", "f1"}
    acc = float(report.splitlines()[0].split("=")[1])
    assert 0.0 <= acc <= 100.0


# ---------------------------------------------------------------------------
# mutation: a corrupted checkpoint, CSV or config ends in one error line


def _assert_one_error_line(code, capsys, category) -> str:
    err = capsys.readouterr().err
    assert code != 0
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert err.startswith(f"decop:error:{category}: "), err
    return err


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("mutation")
    data = tmp_path / "toy.csv"
    write_csv(str(data), synthetic_sine(420, 2, seed=5, periods=(12.0, 18.0)))
    cfg = _config(tmp_path, str(data), "pre", epochs=1)
    assert main(["pretrain", "--config", cfg]) == 0
    return tmp_path, str(data), (tmp_path / "pre" / "ckpt_final.decop").read_bytes()


def _set_payload_float(value):
    def corrupt(blob):
        start = blob.index(b"END-HEADER\n") + len(b"END-HEADER\n")
        return blob[:start] + np.float32(value).astype("<f4").tobytes() + blob[start + 4:]

    return corrupt


CHECKPOINT_MUTATIONS = {
    "header-line-without-space": lambda b: b.replace(b"config lookback=48", b"configlookback=48", 1),
    "config-line-without-equals": lambda b: b.replace(b"config stride=8", b"config stride8", 1),
    "param-line-without-shape": lambda b: b.replace(b"param blend f32 scalar", b"param blend", 1),
    "shape-not-an-integer": lambda b: b.replace(b"param proj_w f32 8x8", b"param proj_w f32 8xQ", 1),
    "negative-shape": lambda b: b.replace(b"param proj_b f32 8", b"param proj_b f32 -8", 1),
    "non-utf8-header": lambda b: b.replace(b"param pos", b"param p\xffos", 1),
    "nan-in-payload": _set_payload_float(np.nan),
    "inf-in-payload": _set_payload_float(np.inf),
    "truncated-payload": lambda b: b[:-6],
    "trailing-bytes": lambda b: b + b"\0\0\0\0",
    "missing-end-marker": lambda b: b.replace(b"END-HEADER\n", b"END-HEADER ", 1),
    "wrong-magic": lambda b: b.replace(b"DECOP-CKPT v2", b"DECOP-CKPT v9", 1),
}


@pytest.mark.parametrize("name", sorted(CHECKPOINT_MUTATIONS))
def test_corrupt_checkpoint_is_one_checkpoint_error(pretrained, capsys, name):
    tmp_path, data, blob = pretrained
    corrupted = CHECKPOINT_MUTATIONS[name](blob)
    assert corrupted != blob
    ckpt = tmp_path / f"{name}.decop"
    ckpt.write_bytes(corrupted)
    cfg = _config(tmp_path, data, f"fin-{name}", epochs=1)
    code = main(["finetune", "--config", cfg, "--checkpoint", str(ckpt)])
    _assert_one_error_line(code, capsys, "checkpoint")


def test_v1_finetuned_checkpoint_is_one_checkpoint_error(pretrained, capsys):
    tmp_path, data, _ = pretrained
    cfg = _config(tmp_path, data, "fin-v1", epochs=1)
    assert main(["finetune", "--config", cfg]) == 0
    capsys.readouterr()
    blob = (tmp_path / "fin-v1" / "ckpt_finetuned.decop").read_bytes()
    v1 = tmp_path / "finetuned-v1.decop"
    v1.write_bytes(blob.replace(b"DECOP-CKPT v2", b"DECOP-CKPT v1", 1))
    code = main(["eval", "--config", cfg, "--checkpoint", str(v1)])
    assert "not a DECOP-CKPT v2 file" in _assert_one_error_line(code, capsys, "checkpoint")


@pytest.mark.parametrize(
    "labels, message",
    [
        (np.array([0, 3] * 200), "row 3, column 'label'"),
        (np.array([0, -1] * 200), "row 3, column 'label'"),
        (None, "no 'label' column"),
        (np.array([0, 1.5, 1, 0.9] * 100), "row 3, column 'label': not an integer: '1.5'"),
        (np.array([0, 1e300] * 200), "row 3, column 'label': not an integer: '1e+300'"),
    ],
    ids=[
        "label-too-large", "label-negative", "no-label-column", "label-fractional",
        "label-beyond-int64",
    ],
)
def test_bad_classification_labels_are_one_data_error(tmp_path, capsys, labels, message):
    from decop.data import synthetic_two_class

    data = tmp_path / "labels.csv"
    write_csv(str(data), synthetic_two_class(400, 1, seed=9, segment=100)[0], labels)
    cfg = _config(
        tmp_path, str(data), "cls-bad", task="classify", classes=2, lookback=32,
        patch_size=8, stride=8, windows="2,2", epochs=1,
    )
    err = _assert_one_error_line(main(["finetune", "--config", cfg]), capsys, "data")
    assert message in err


def test_split_too_short_for_one_window_is_one_data_error(tmp_path, capsys):
    data = tmp_path / "short.csv"
    write_csv(str(data), synthetic_sine(120, 2, seed=5))
    cfg = _config(tmp_path, str(data), "short", lookback=96, split_ratios="0.7,0.1,0.2")
    err = _assert_one_error_line(main(["pretrain", "--config", cfg]), capsys, "data")
    assert "split 'train' has 84 rows" in err
    assert not list((tmp_path / "short").glob("ckpt_*.decop"))


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_data_error_leaves_no_out_dir(tmp_path, capsys, command):
    # the data are checked before out_dir and config_echo.txt are written
    data = tmp_path / "short.csv"
    write_csv(str(data), synthetic_sine(120, 2, seed=5))
    cfg = _config(tmp_path, str(data), "short", lookback=96, split_ratios="0.7,0.1,0.2")
    err = _assert_one_error_line(main([command, "--config", cfg]), capsys, "data")
    assert "split 'train' has 84 rows" in err
    assert not (tmp_path / "short").exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_empty_out_dir_is_one_config_error_and_writes_nothing(workspace, monkeypatch, capsys, command):
    # an empty out_dir would put the checkpoints, metrics CSVs and
    # config_echo.txt into the working directory
    tmp_path, data = workspace
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    cfg = _config(tmp_path, data, "empty-out", out_dir="", epochs=1)
    err = _assert_one_error_line(main([command, "--config", cfg]), capsys, "config")
    assert "out_dir" in err
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_non_finite_csv_cell_is_one_data_error(pretrained, capsys, cell):
    tmp_path, data, _ = pretrained
    lines = open(data, encoding="utf-8").read().splitlines()
    cells = lines[7].split(",")
    cells[1] = cell
    lines[7] = ",".join(cells)
    bad = tmp_path / f"cell-{cell}.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = _config(tmp_path, str(bad), f"csv-{cell}", epochs=1)
    err = _assert_one_error_line(main(["pretrain", "--config", cfg]), capsys, "data")
    assert "row 8, column 'ch1'" in err and repr(cell) in err


def test_huge_csv_cell_is_one_data_error_naming_the_channel(pretrained, capsys):
    tmp_path, data, _ = pretrained
    lines = open(data, encoding="utf-8").read().splitlines()
    cells = lines[7].split(",")
    cells[1] = "1e200"
    lines[7] = ",".join(cells)
    bad = tmp_path / "cell-huge.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = _config(tmp_path, str(bad), "csv-huge", epochs=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["pretrain", "--config", cfg])
    err = _assert_one_error_line(code, capsys, "data")
    assert "column 'ch1': too large to standardize" in err
    assert not (tmp_path / "csv-huge").exists()


def test_repeated_channel_name_is_one_data_error(pretrained, capsys):
    tmp_path, data, _ = pretrained
    lines = open(data, encoding="utf-8").read().splitlines()
    lines[0] = lines[0].replace("ch1", " CH0")
    bad = tmp_path / "repeated.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["pretrain", "--config", _config(tmp_path, str(bad), "repeated", epochs=1)])
    err = _assert_one_error_line(code, capsys, "data")
    assert "column 2 repeats the name of column 1: 'CH0'" in err


def test_non_utf8_csv_is_one_data_error(pretrained, capsys):
    tmp_path, data, _ = pretrained
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(open(data, "rb").read().replace(b"ch0", b"ch\xe90", 1))
    code = main(["pretrain", "--config", _config(tmp_path, str(bad), "latin1", epochs=1)])
    _assert_one_error_line(code, capsys, "data")


@pytest.mark.parametrize(
    "overrides",
    [
        {"patience": "-1"}, {"patience": "0"}, {"lr": "fast"}, {"lr": "nan"}, {"blend_init": "inf"},
        {"split_ratios": "1.2,-0.1,-0.1"}, {"split_ratios": "0.7,0.4,-0.1"},
    ],
    ids=[
        "patience-negative", "patience-zero", "lr-not-numeric", "lr-nan", "blend-init-inf",
        "split-ratio-above-one", "split-ratio-negative",
    ],
)
def test_bad_config_field_is_one_config_error(pretrained, capsys, overrides):
    tmp_path, data, _ = pretrained
    cfg = _config(tmp_path, data, "badfield", **overrides)
    code = main(["finetune", "--config", cfg])
    assert next(iter(overrides)) in _assert_one_error_line(code, capsys, "config")
    assert code == 2
    assert not (tmp_path / "badfield").exists()


def test_mask_ratio_that_masks_no_patch_is_one_config_error(workspace, capsys):
    # lookback 48, patch = stride = 8: 7 patches, and int(0.1 * 7) == 0
    tmp_path, data = workspace
    cfg = _config(tmp_path, data, "nomask", mask_ratio="0.1")
    code = main(["pretrain", "--config", cfg])
    err = _assert_one_error_line(code, capsys, "config")
    assert code == 2 and "mask_ratio" in err
    assert not (tmp_path / "nomask").exists()


def test_mask_ratio_is_a_pretraining_rule_only(workspace, capsys):
    # lookback 48, patch = stride = 8: ratio 0.1 masks none of 7 patches,
    # which matters only to pretraining; fine-tuning never masks
    tmp_path, data = workspace
    cfg = _config(tmp_path, data, "ft-nomask", mask_ratio="0.1")
    assert main(["finetune", "--config", cfg]) == 0
    assert (tmp_path / "ft-nomask" / "report.txt").exists()
    capsys.readouterr()
    cfg = _config(tmp_path, data, "pre-nomask", mask_ratio="0.1")
    code = main(["pretrain", "--config", cfg])
    assert "mask_ratio" in _assert_one_error_line(code, capsys, "config")
    assert not (tmp_path / "pre-nomask").exists()


def test_flops_with_missing_dataset_is_one_config_error(tmp_path, capsys):
    cfg = _config(tmp_path, str(tmp_path / "absent.csv"), "fl-absent")
    code = main(["flops", "--config", cfg])
    assert "absent.csv" in _assert_one_error_line(code, capsys, "config")


def test_non_utf8_config_is_one_config_error(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(b"dataset_name = caf\xe9\n")
    code = main(["pretrain", "--config", str(bad)])
    _assert_one_error_line(code, capsys, "config")


def test_config_with_byte_order_mark_loads(workspace, capsys):
    tmp_path, data = workspace
    cfg = _config(tmp_path, data, "bom")
    assert main(["flops", "--config", cfg]) == 0
    plain = capsys.readouterr().out
    marked = tmp_path / "marked.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + open(cfg, "rb").read())
    assert main(["flops", "--config", str(marked)]) == 0
    assert capsys.readouterr().out == plain


# ---------------------------------------------------------------------------
# a checkpoint head that does not fit the run is one checkpoint error at load


@pytest.fixture(scope="module")
def finetuned(tmp_path_factory):
    from decop.data import synthetic_two_class

    tmp_path = tmp_path_factory.mktemp("heads")
    sine = tmp_path / "toy.csv"
    write_csv(str(sine), synthetic_sine(420, 2, seed=5, periods=(12.0, 18.0)))
    assert main(["finetune", "--config", _config(tmp_path, str(sine), "fc", epochs=1)]) == 0
    two_class = tmp_path / "cls.csv"
    write_csv(str(two_class), *synthetic_two_class(600, 1, seed=9, segment=100))
    cls_cfg = _config(tmp_path, str(two_class), "cls", task="classify", classes=2, epochs=1)
    assert main(["finetune", "--config", cls_cfg]) == 0
    return tmp_path, str(sine), str(two_class)


@pytest.mark.parametrize(
    "command, source, overrides, message",
    [
        ("eval", "cls", {"task": "classify", "classes": 3}, "head.classify_w has shape (8, 2), model expects (8, 3)"),
        ("eval", "fc", {"horizon": 6}, "head.forecast_w has shape (56, 12), model expects (56, 6)"),
        ("finetune", "fc", {"horizon": 6}, "head.forecast_w has shape (56, 12), model expects (56, 6)"),
        ("finetune", "cls", {}, "unknown parameter head.classify_w"),
    ],
    ids=["eval-other-classes", "eval-other-horizon", "finetune-other-horizon", "forecast-from-classify"],
)
def test_head_that_does_not_fit_the_run_is_one_checkpoint_error(
    finetuned, capsys, command, source, overrides, message
):
    tmp_path, sine, two_class = finetuned
    capsys.readouterr()
    data = two_class if overrides.get("task") == "classify" else sine
    out = f"{command}-{source}-{len(overrides)}"
    cfg = _config(tmp_path, data, out, epochs=1, **overrides)
    ckpt = str(tmp_path / source / "ckpt_finetuned.decop")
    code = main([command, "--config", cfg, "--checkpoint", ckpt])
    assert message in _assert_one_error_line(code, capsys, "checkpoint")
    assert code == 3
    assert not (tmp_path / out).exists()


def test_eval_of_a_pretrained_checkpoint_names_the_missing_head(pretrained, capsys):
    tmp_path, data, blob = pretrained
    ckpt = tmp_path / "encoder-only.decop"
    ckpt.write_bytes(blob)
    cfg = _config(tmp_path, data, "ev-encoder-only")
    code = main(["eval", "--config", cfg, "--checkpoint", str(ckpt)])
    assert "missing parameters: ['head.forecast_w', 'head.forecast_b']" in _assert_one_error_line(
        code, capsys, "checkpoint"
    )
    assert not (tmp_path / "ev-encoder-only").exists()


@pytest.mark.parametrize(
    "flags", [["--rows", "-5"], ["--channels", "-2"], ["--channels", "0"], ["--rows", "0"]],
    ids=["rows-negative", "channels-negative", "channels-zero", "rows-zero"],
)
def test_synth_size_below_one_is_one_config_error(tmp_path, capsys, flags):
    out = tmp_path / "synth" / "data.csv"
    code = main(["synth", "--out", str(out)] + flags)
    assert "--rows and --channels must be at least 1" in _assert_one_error_line(code, capsys, "config")
    assert code == 2
    assert not (tmp_path / "synth").exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
@pytest.mark.parametrize("case", ["header-only", "empty-train-ratio"])
def test_empty_train_split_is_one_data_error(workspace, capsys, command, case):
    # the channel statistics come from the train rows; none is a data error,
    # not a NaN mean (and its RuntimeWarnings) first
    tmp_path, data = workspace
    if case == "header-only":
        data = tmp_path / "header-only.csv"
        data.write_text("ch0,ch1\n", encoding="utf-8")
        cfg = _config(tmp_path, str(data), "empty-train")
    else:
        cfg = _config(tmp_path, data, "empty-train", split_ratios="0,0.5,0.5")
    code = main([command, "--config", cfg])
    assert "split 'train' has 0 of" in _assert_one_error_line(code, capsys, "data")
    assert code == 3
    assert not (tmp_path / "empty-train").exists()


# every size here needs more than 2**47 bytes, more than a 64-bit process
# can map, so none of them is allocated whatever the overcommit setting
@pytest.mark.parametrize(
    "command, overrides",
    [
        ("pretrain", {"model_dim": 2**45}),
        ("pretrain", {"lookback": 2**50}),
        ("pretrain", {"windows": f"1,{2**40}"}),
        ("pretrain", {"windows": f"1,{2**63}"}),
        ("finetune", {"horizon": 2**45}),
    ],
    ids=["model-dim", "lookback", "window", "window-past-int64", "horizon"],
)
def test_size_that_cannot_be_allocated_is_one_config_error(workspace, capsys, command, overrides):
    tmp_path, data = workspace
    cfg = _config(tmp_path, data, "too-big", **overrides)
    code = main([command, "--config", cfg])
    assert "do not fit in memory" in _assert_one_error_line(code, capsys, "config")
    assert code == 2
    assert not (tmp_path / "too-big").exists()


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("pretrain", {"lr": "1e308"}),
        ("pretrain", {"contrastive_weight": "1e308"}),
        ("finetune", {"blend_init": "-1e308"}),
    ],
    ids=["lr", "contrastive-weight", "blend-init"],
)
def test_float_overflow_in_a_run_is_one_numeric_error(workspace, capsys, command, overrides):
    # finite but huge values overflow float64 in the first step; the run
    # stops there, without a numpy warning or an inf carried on
    tmp_path, data = workspace
    cfg = _config(tmp_path, data, "overflow", **overrides)
    code = main([command, "--config", cfg])
    assert "overflow" in _assert_one_error_line(code, capsys, "numeric")
    assert code == 3
    assert not (tmp_path / "overflow").exists()


@pytest.mark.parametrize(
    "flags",
    [["--rows", str(2**50)], ["--rows", str(2**62)], ["--channels", str(2**62)], ["--kind", "two-class", "--rows", str(2**50)]],
    ids=["rows", "rows-beyond-any-shape", "channels-beyond-any-shape", "two-class-rows"],
)
def test_synth_size_that_cannot_be_allocated_is_one_config_error(tmp_path, capsys, flags):
    out = tmp_path / "data.csv"
    code = main(["synth", "--out", str(out)] + flags)
    assert "do not fit in memory" in _assert_one_error_line(code, capsys, "config")
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--out", "x.csv", "--rows", "abc"], "argument --rows: invalid int value: 'abc'"),
        (["finetune", "--config"], "decop finetune: argument --config: expected one argument"),
        ([], "decop: the following arguments are required: command"),
    ],
    ids=["rows-not-an-integer", "config-without-value", "no-command"],
)
def test_bad_command_line_is_one_config_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    assert message in _assert_one_error_line(code, capsys, "config")
    assert code == 2
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["synth", "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: decop synth")


# ---------------------------------------------------------------------------
# a seeded sweep of config-text mutations through the command line

# both paths are relative to the sweep's directory, so a truncated dataset
# or out_dir line still names a place inside it
_SWEEP_FIELDS = {
    "dataset": "toy.csv", "dataset_name": "toy", "lookback": "48", "horizon": "12",
    "patch_size": "8", "stride": "8", "model_dim": "8", "windows": "1,2", "epochs": "1",
    "batch_size": "32", "lr": "1e-3", "dropout": "0.1", "keep_fraction": "0.3",
    "contrastive_weight": "0.1", "blend_init": "0.01", "mask_ratio": "0.4",
    "split_ratios": "0.6,0.2,0.2", "patience": "2", "seed": "11", "out_dir": "sweep",
}
_SWEEP_TUPLES = ("windows", "split_ratios")
_SWEEP_NUMBERS = [k for k in _SWEEP_FIELDS if k not in ("dataset", "dataset_name", "out_dir")]
_SWEEP_INTS = {f.name for f in fields(RunConfig) if f.type in ("int", "tuple[int, ...]")}
# (for an int field, for a float field); every huge size is past what a
# 64-bit process can map, so none is allocated
_SWEEP_VALUES = {
    "huge": (("1" + "0" * 30, str(2**63)), ("1e308", "-1e308", "1e300")),
    "tiny": (("0", "-1"), ("5e-324", "1e-300", "0", "-0.0")),
    "not-a-number": (("abc", "1.5", "0x10", ""), ("abc", "1.2.3", "nan", "-inf", "")),
}


def _with_value(lines, key, value):
    return [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in lines]


def _truncated_line(rng, lines):
    i = rng.randrange(len(lines))
    return lines[:i] + [lines[i][: rng.randrange(len(lines[i]))]] + lines[i + 1 :], False


def _duplicated_line(rng, lines):
    i = rng.randrange(len(lines))
    return lines + [lines[i]], True


def _unknown_key(rng, lines):
    return lines + [f"{rng.choice(['turbo', 'Lookback', 'model-dim', 'window', 'lr2'])} = 1"], True


def _empty_tuple_item(rng, lines):
    key = rng.choice(_SWEEP_TUPLES)
    items = _SWEEP_FIELDS[key].split(",")
    items.insert(rng.randrange(len(items) + 1), rng.choice(["", " "]))
    return _with_value(lines, key, ",".join(items)), True


def _extra_tuple_item(rng, lines):
    key = rng.choice(_SWEEP_TUPLES)
    return _with_value(lines, key, f"{_SWEEP_FIELDS[key]},{rng.choice(['2', '3', '0', '0.0'])}"), False


def _number(kind):
    def mutate(rng, lines):
        # a huge epoch count is a long run, not a bad input
        key = rng.choice([k for k in _SWEEP_NUMBERS if not (kind == "huge" and k == "epochs")])
        value = rng.choice(_SWEEP_VALUES[kind][key not in _SWEEP_INTS])
        if key in _SWEEP_TUPLES:
            items = _SWEEP_FIELDS[key].split(",")
            items[rng.randrange(len(items))] = value
            value = ",".join(items)
        return _with_value(lines, key, value), False

    mutate.__name__ = f"_{kind}_number"
    return mutate


_SWEEP_MUTATIONS = (
    _truncated_line, _duplicated_line, _unknown_key, _empty_tuple_item, _extra_tuple_item,
    _number("huge"), _number("tiny"), _number("not-a-number"),
)


def test_config_mutation_sweep_ends_in_exit_0_or_one_error_line(tmp_path, monkeypatch, capsys):
    # every mutated config ends in exit 0 with nothing on stderr, or in
    # exactly one decop:error: line and no traceback; a duplicated line, an
    # unknown key and an empty tuple item are each a config error
    monkeypatch.chdir(tmp_path)
    write_csv("toy.csv", synthetic_sine(420, 2, seed=5, periods=(12.0, 18.0)))
    base = [f"{key} = {value}" for key, value in _SWEEP_FIELDS.items()]
    rng = random.Random(20261019)
    problems = []
    for case in range(120):
        mutate = _SWEEP_MUTATIONS[case % len(_SWEEP_MUTATIONS)]
        lines, must_fail = mutate(rng, base)
        command = rng.choice(["pretrain", "finetune"])
        with open("case.cfg", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        try:
            code = main([command, "--config", "case.cfg"])
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code == 0:
            ok = err == "" and not must_fail
        else:
            ok = isinstance(code, int) and err.count("\n") == 1 and err.startswith("decop:error:")
            ok = ok and (not must_fail or (code == 2 and err.startswith("decop:error:config: ")))
        if not ok:
            changed = [line for line in lines if line not in base] or lines[-1:]
            problems.append(f"{case} {mutate.__name__} {command} {changed}: exit {code}, stderr {err!r}")
    assert not problems, "\n".join(problems)


# ---------------------------------------------------------------------------
# a seeded sweep of CSV-text mutations through the command line

_CSV_CELLS = {
    "huge": ("1e308", "-1e308", "1e200", "9.9e307", "1" + "0" * 400),
    "tiny": ("5e-324", "-5e-324", "1e-300", "-0.0", "0"),
    "not-a-number": ("abc", "", " ", "1.2.3", "nan", "-inf", "1e400", "0x10", "\ufeff1.5", "1e"),
}


def _csv_truncated_row(rng, lines):
    i = rng.randrange(1, len(lines))
    return lines[:i] + [lines[i][: rng.randrange(len(lines[i]))]] + lines[i + 1 :], False


def _csv_truncated_file(rng, lines):
    text = "\n".join(lines)
    return text[: rng.randrange(len(text))].split("\n"), False


def _csv_duplicated_row(rng, lines):
    # the header again as a row, or a data row twice
    i = rng.randrange(len(lines))
    at = rng.randrange(1, len(lines) + 1)
    return lines[:at] + [lines[i]] + lines[at:], i == 0


def _csv_duplicated_name(rng, lines):
    names = lines[0].split(",")
    i, j = rng.sample(range(len(names)), 2)
    names[j] = rng.choice([names[i], names[i].upper(), f" {names[i]} "])
    return [",".join(names)] + lines[1:], True


def _csv_renamed_column(rng, lines):
    names = lines[0].split(",")
    names[rng.randrange(len(names))] = rng.choice(["", "date", "label", "Label", "x y", "ch9", "é"])
    return [",".join(names)] + lines[1:], False


def _csv_byte_order_mark(rng, lines):
    # a leading mark is ignored; one inside the file is part of a cell
    i = rng.choice([0, rng.randrange(1, len(lines))])
    return lines[:i] + ["\ufeff" + lines[i]] + lines[i + 1 :], i > 0


def _csv_line_endings(rng, lines):
    # CRLF endings and blank lines are allowed
    i = rng.randrange(1, len(lines) + 1)
    return rng.choice([[line + "\r" for line in lines], lines[:i] + ["", ""] + lines[i:]]), False


def _csv_cell(kind):
    # a huge cell is a data error in any row: in a train row it overflows
    # the channel statistics, in a val or test row it scales past
    # data.MAX_STANDARDIZED, and in a label column it is not an integer
    def mutate(rng, lines):
        i = rng.randrange(1, len(lines))
        cells = lines[i].split(",")
        cells[rng.randrange(len(cells))] = rng.choice(_CSV_CELLS[kind])
        return lines[:i] + [",".join(cells)] + lines[i + 1 :], kind == "huge"

    mutate.__name__ = f"_csv_{kind}_cell"
    return mutate


_CSV_MUTATIONS = (
    _csv_truncated_row, _csv_truncated_file, _csv_duplicated_row, _csv_duplicated_name,
    _csv_renamed_column, _csv_byte_order_mark, _csv_line_endings, _csv_cell("huge"),
    _csv_cell("tiny"), _csv_cell("not-a-number"),
)


def _non_finite_outputs(out_dir) -> list[str]:
    """Numbers in a run's metrics CSVs and report that are not finite."""
    bad = []
    for path in sorted(out_dir.glob("*.csv")) + sorted(out_dir.glob("report.txt")):
        for token in path.read_text(encoding="utf-8").replace("=", ",").replace("\n", ",").split(","):
            try:
                value = float(token)
            except ValueError:
                continue
            if not np.isfinite(value):
                bad.append(f"{path.name}: {token}")
    return bad


def test_csv_mutation_sweep_ends_in_exit_0_or_one_error_line(tmp_path, monkeypatch, capsys):
    # every mutated CSV ends in exit 0 with finite outputs and nothing on
    # stderr, or in exactly one decop:error: line, with no traceback and no
    # warning; a repeated column name, a mark inside the file and a huge cell
    # are each a data error
    monkeypatch.chdir(tmp_path)
    sine, two_class = tmp_path / "sine.csv", tmp_path / "two-class.csv"
    write_csv(str(sine), synthetic_sine(420, 2, seed=5, periods=(12.0, 18.0)))
    write_csv(str(two_class), *synthetic_two_class(420, 2, seed=5, segment=32))
    base = {path: path.read_text(encoding="utf-8").splitlines() for path in (sine, two_class)}
    runs = [
        (command, source, tmp_path / name, _config(tmp_path, "case.csv", name, epochs=1, **overrides))
        for command, source, name, overrides in (
            ("pretrain", sine, "pretrain", {}),
            ("finetune", sine, "forecast", {}),
            ("finetune", two_class, "classify", {"task": "classify", "classes": 2, "horizon": 0}),
        )
    ]
    rng = random.Random(20261019)
    problems = []
    for case in range(120):
        mutate = _CSV_MUTATIONS[case % len(_CSV_MUTATIONS)]
        command, source, out_dir, cfg = runs[case // len(_CSV_MUTATIONS) % len(runs)]
        lines, must_fail = mutate(rng, base[source])
        (tmp_path / "case.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        shutil.rmtree(out_dir, ignore_errors=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main([command, "--config", cfg])
            except Exception as exc:
                code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code == 0:
            ok = err == "" and not must_fail and not _non_finite_outputs(out_dir)
        else:
            ok = isinstance(code, int) and err.count("\n") == 1 and err.startswith("decop:error:")
            ok = ok and (not must_fail or err.startswith("decop:error:data: "))
        if not ok or caught:
            changed = [line for line in lines if line not in base[source]][:2] or lines[-1:]
            problems.append(
                f"{case} {mutate.__name__} {command} {source.name} {changed}: exit {code}, "
                f"stderr {err!r}, warnings {[str(w.message) for w in caught]}, "
                f"non-finite {_non_finite_outputs(out_dir) if code == 0 else []}"
            )
    assert not problems, "\n".join(problems)


# ---------------------------------------------------------------------------
# a seeded sweep of checkpoint-byte mutations through the command line

_CKPT_MARKER = "END-HEADER\n"


def _ckpt_bytes(lines, payload):
    return ("\n".join(lines) + "\n" + _CKPT_MARKER).encode("utf-8") + payload


def _ckpt_params(lines):
    """(line index, value count) of each parameter line, in payload order."""
    params = []
    for i, line in enumerate(lines):
        if line.startswith("param "):
            shape = line.rsplit(" ", 1)[1]
            params.append((i, 1 if shape == "scalar" else math.prod(int(d) for d in shape.split("x"))))
    return params


def _ckpt_truncated(rng, lines, payload):
    # cut where a section ends: the magic line, a header line, the marker
    # or a parameter's values; or one byte before, or at the start
    ends, at = [0], 0
    for line in lines:
        at += len(line.encode("utf-8")) + 1
        ends.append(at)
    at += len(_CKPT_MARKER)
    ends.append(at)
    for _, count in _ckpt_params(lines):
        at += 4 * count
        ends.append(at)
    cut = rng.choice(ends[:-1])
    cut = max(0, cut - rng.choice([0, 1]))
    return _ckpt_bytes(lines, payload)[:cut], True


def _ckpt_duplicated_line(rng, lines, payload):
    line = rng.choice(lines + ["END-HEADER"])
    at = rng.randrange(1, len(lines) + 1)
    return _ckpt_bytes(lines[:at] + [line] + lines[at:], payload), True


def _ckpt_unknown_line(rng, lines, payload):
    line = rng.choice([
        "config turbo=9", "config Lookback=48", "config", "param extra f32 2", "param", "comment x",
        "", " ",
    ])
    at = rng.randrange(1, len(lines) + 1)
    return _ckpt_bytes(lines[:at] + [line] + lines[at:], payload), True


def _ckpt_magic(rng, lines, payload):
    magic = rng.choice([
        "DECOP-CKPT v1", "DECOP-CKPT v3", "DECOP-CKPT v0", "DECOP-CKPT v20", "DECOP-CKPT v2 ",
        "decop-ckpt v2", "DECOP-CKPT", "\ufeffDECOP-CKPT v2",
    ])
    return _ckpt_bytes([magic] + lines[1:], payload), True


def _ckpt_shape(rng, lines, payload):
    i, _ = rng.choice(_ckpt_params(lines))
    head, shape = lines[i].rsplit(" ", 1)
    dims = shape.split("x")
    bad = rng.choice([
        "x".join(reversed(dims)) if len(set(dims)) > 1 else shape + "x1", shape + "x1", "1x" + shape,
        "0", "", "-8", "8.0", "8xx8", "\u0668", "9" * 30, "1" if shape == "scalar" else "scalar",
    ])
    return _ckpt_bytes(lines[:i] + [f"{head} {bad}"] + lines[i + 1 :], payload), True


# little-endian float32 words: quiet, signalling and negative NaN, both
# infinities; the largest finite values and others; denormals and zeros
_CKPT_WORDS = {
    "non-finite": (b"\x00\x00\xc0\x7f", b"\x01\x00\x80\x7f", b"\x00\x00\xc0\xff", b"\x00\x00\x80\x7f",
                   b"\x00\x00\x80\xff"),
    "huge": tuple(np.array(v, dtype="<f4").tobytes() for v in (3.4028235e38, -3.4028235e38, 1e38, 1e30)),
    "tiny": tuple(np.array(v, dtype="<f4").tobytes() for v in (1e-45, -1e-45, 1e-38, -0.0)),
}


def _ckpt_value(kind):
    def mutate(rng, lines, payload):
        k = rng.randrange(len(payload) // 4)
        word = rng.choice(_CKPT_WORDS[kind])
        return _ckpt_bytes(lines, payload[: 4 * k] + word + payload[4 * k + 4 :]), kind == "non-finite"

    mutate.__name__ = f"_ckpt_{kind}_value"
    return mutate


def _ckpt_trailing_bytes(rng, lines, payload):
    extra = rng.choice([b"\0", b"\0\0\0\0", b"\n", b"\xff" * 3, payload[:8]])
    return _ckpt_bytes(lines, payload) + extra, True


_CKPT_MUTATIONS = (
    _ckpt_truncated, _ckpt_duplicated_line, _ckpt_unknown_line, _ckpt_magic, _ckpt_shape,
    _ckpt_value("non-finite"), _ckpt_value("huge"), _ckpt_value("tiny"), _ckpt_trailing_bytes,
)


def test_checkpoint_mutation_sweep_ends_in_exit_0_or_one_error_line(pretrained, tmp_path, capsys):
    # every mutated checkpoint ends in exit 0 with finite outputs and nothing
    # on stderr, or in exactly one decop:error: line, with no traceback, no
    # warning and no out_dir; a mutation that breaks the format, or a
    # non-finite value, is a checkpoint error
    _, data, pretrained_blob = pretrained
    assert main(["finetune", "--config", _config(tmp_path, data, "source", epochs=1)]) == 0
    capsys.readouterr()
    finetuned_blob = (tmp_path / "source" / "ckpt_finetuned.decop").read_bytes()
    sources = {}
    for name, blob in (("pretrained", pretrained_blob), ("finetuned", finetuned_blob)):
        head, payload = blob.split(_CKPT_MARKER.encode("utf-8"), 1)
        lines = head.decode("utf-8").splitlines()
        assert _ckpt_bytes(lines, payload) == blob
        sources[name] = lines, payload
    runs = [
        (command, source, tmp_path / name, _config(tmp_path, data, name, epochs=1))
        for command, source, name in (
            ("finetune", "pretrained", "finetune-pretrained"),
            ("eval", "finetuned", "eval-finetuned"),
            ("finetune", "finetuned", "finetune-finetuned"),
        )
    ]
    ckpt = tmp_path / "case.decop"
    rng = random.Random(20261019)
    problems = []
    for case in range(108):
        mutate = _CKPT_MUTATIONS[case % len(_CKPT_MUTATIONS)]
        command, source, out_dir, cfg = runs[case // len(_CKPT_MUTATIONS) % len(runs)]
        blob, must_fail = mutate(rng, *sources[source])
        ckpt.write_bytes(blob)
        shutil.rmtree(out_dir, ignore_errors=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main([command, "--config", cfg, "--checkpoint", str(ckpt)])
            except Exception as exc:
                code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code == 0:
            ok = err == "" and not must_fail and not _non_finite_outputs(out_dir)
        else:
            ok = isinstance(code, int) and err.count("\n") == 1 and err.startswith("decop:error:")
            ok = ok and not out_dir.exists()
            ok = ok and (not must_fail or err.startswith("decop:error:checkpoint: "))
        if not ok or caught:
            original = _ckpt_bytes(*sources[source])
            same = [a == b for a, b in zip(blob, original)]
            at = same.index(False) if False in same else len(same)
            problems.append(
                f"{case} {mutate.__name__} {command} {source}: first change at byte {at} "
                f"({blob[at:at + 24]!r}), length {len(blob)} of {len(original)}: exit {code}, "
                f"stderr {err!r}, warnings {[str(w.message) for w in caught]}, "
                f"non-finite {_non_finite_outputs(out_dir) if code == 0 else []}"
            )
    assert not problems, "\n".join(problems)
