"""End-to-end command-line runs on small synthetic data."""

import os

import numpy as np
import pytest

from decop.cli import main
from decop.data import synthetic_sine, write_csv


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


def test_synth_command_writes_loadable_csv(tmp_path):
    out = str(tmp_path / "synthetic.csv")
    assert main(["synth", "--out", out, "--rows", "200", "--channels", "2", "--seed", "3"]) == 0
    from decop.data import DatasetSpec, load_csv

    ds = load_csv(out, DatasetSpec("synthetic", out))
    assert ds.length == 200 and ds.n_channels == 2


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
    assert "fine-tune" in _assert_one_error_line(code, capsys, "checkpoint")


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


def test_non_utf8_csv_is_one_data_error(pretrained, capsys):
    tmp_path, data, _ = pretrained
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(open(data, "rb").read().replace(b"ch0", b"ch\xe90", 1))
    code = main(["pretrain", "--config", _config(tmp_path, str(bad), "latin1", epochs=1)])
    _assert_one_error_line(code, capsys, "data")


@pytest.mark.parametrize(
    "overrides",
    [{"patience": "-1"}, {"patience": "0"}, {"lr": "fast"}, {"lr": "nan"}, {"blend_init": "inf"}],
    ids=["patience-negative", "patience-zero", "lr-not-numeric", "lr-nan", "blend-init-inf"],
)
def test_bad_config_field_is_one_config_error(pretrained, capsys, overrides):
    tmp_path, data, _ = pretrained
    cfg = _config(tmp_path, data, "badfield", **overrides)
    code = main(["finetune", "--config", cfg])
    _assert_one_error_line(code, capsys, "config")
    assert code == 2


def test_non_utf8_config_is_one_config_error(tmp_path, capsys):
    bad = tmp_path / "latin1.cfg"
    bad.write_bytes(b"dataset_name = caf\xe9\n")
    code = main(["pretrain", "--config", str(bad)])
    _assert_one_error_line(code, capsys, "config")
