"""Command-line entry points.

Commands::

    decop pretrain   --config cfg        pretrain; write checkpoints + metrics
    decop finetune   --config cfg --checkpoint ckpt   fine-tune + test report
    decop eval       --config cfg --checkpoint ckpt   evaluate a finetuned model
    decop flops      --config cfg        analytic parameter/FLOPs report
    decop filter-viz --config cfg --channel i         write (t, anchor, denoised, noise)
    decop synth      --out path          write a bundled synthetic dataset CSV

Exit code 0 on success. On failure, stderr carries one line of the form
``decop:error:<category>: <message>`` where category is one of config,
data, shape, contract, checkpoint, numeric, io.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import checkpoint, flops, icm
from .checkpoint import atomic_write_text
from .config import RunConfig, echo_config, load_config
from .data import (
    Dataset,
    DatasetSpec,
    load_csv,
    sample_windows,
    split_columns,
    synthetic_sine,
    synthetic_two_class,
    unpatchify_batch,
    write_csv,
)
from .errors import ConfigError, DecopError
from .finetune import evaluate, run_finetuning
from .model import ModelState, normalize_windows
from .pretrain import run_pretraining
from .rng import Rng


def _load_dataset(cfg: RunConfig) -> Dataset:
    if not cfg.dataset:
        raise ConfigError("field 'dataset' is required for this command")
    if not os.path.exists(cfg.dataset):
        raise ConfigError(f"dataset file not found: {cfg.dataset}")
    min_rows = cfg.lookback + (cfg.horizon if cfg.task == "forecast" else 0)
    classes = cfg.classes if cfg.task == "classify" else 0
    spec = DatasetSpec(cfg.dataset_name, cfg.dataset, min_rows, cfg.split_ratios, classes)
    return load_csv(cfg.dataset, spec)


def _build_model(cfg: RunConfig) -> ModelState:
    return ModelState(cfg.dims(), cfg.dropout, cfg.blend_init, Rng(cfg.seed))


def _write_metrics_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def cmd_pretrain(cfg: RunConfig) -> int:
    dataset = _load_dataset(cfg)
    model = _build_model(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    atomic_write_text(os.path.join(cfg.out_dir, "config_echo.txt"), echo_config(cfg))
    history, best = run_pretraining(model, dataset, cfg)
    _write_metrics_csv(
        os.path.join(cfg.out_dir, "pretrain_metrics.csv"),
        ["epoch", "recon_loss", "contrastive_loss", "total_loss"],
        [[m.epoch, m.recon, m.contrastive, m.total] for m in history],
    )
    _write_metrics_csv(
        os.path.join(cfg.out_dir, "pretrain_timing.csv"),
        ["epoch", "seconds"],
        [[m.epoch, m.seconds] for m in history],
    )
    checkpoint.save(os.path.join(cfg.out_dir, "ckpt_final.decop"), model)
    final = model.snapshot()
    model.restore(best)
    checkpoint.save(os.path.join(cfg.out_dir, "ckpt_best.decop"), model)
    model.restore(final)
    print(f"pretrained {cfg.epochs} epochs; final loss {history[-1].total:.6f}")
    print(f"checkpoints written under {cfg.out_dir}")
    return 0


def _report_text(metrics) -> str:
    return "".join(f"{key}={value:.10g}\n" for key, value in metrics.as_dict().items())


def cmd_finetune(cfg: RunConfig, ckpt_path: str | None) -> int:
    dataset = _load_dataset(cfg)
    model = _build_model(cfg)
    if ckpt_path is not None:
        checkpoint.load(ckpt_path, model)
    os.makedirs(cfg.out_dir, exist_ok=True)
    atomic_write_text(os.path.join(cfg.out_dir, "config_echo.txt"), echo_config(cfg))
    history, test_metrics = run_finetuning(model, dataset, cfg)
    rows = []
    for m in history:
        row = [m.epoch, m.train_loss] + [m.val.as_dict()[k] for k in sorted(m.val.as_dict())]
        rows.append(row)
    val_keys = sorted(history[0].val.as_dict()) if history else []
    _write_metrics_csv(
        os.path.join(cfg.out_dir, "finetune_metrics.csv"),
        ["epoch", "train_loss"] + [f"val_{k}" for k in val_keys],
        rows,
    )
    _write_metrics_csv(
        os.path.join(cfg.out_dir, "finetune_timing.csv"),
        ["epoch", "seconds"],
        [[m.epoch, m.seconds] for m in history],
    )
    checkpoint.save(os.path.join(cfg.out_dir, "ckpt_finetuned.decop"), model)
    atomic_write_text(os.path.join(cfg.out_dir, "report.txt"), _report_text(test_metrics))
    print(_report_text(test_metrics), end="")
    return 0


def cmd_eval(cfg: RunConfig, ckpt_path: str) -> int:
    dataset = _load_dataset(cfg)
    model = _build_model(cfg)
    checkpoint.load(ckpt_path, model, require_heads=True)
    metrics = evaluate(model, dataset, cfg, "test")
    os.makedirs(cfg.out_dir, exist_ok=True)
    atomic_write_text(os.path.join(cfg.out_dir, "report.txt"), _report_text(metrics))
    print(_report_text(metrics), end="")
    return 0


def cmd_flops(cfg: RunConfig) -> int:
    dims = cfg.dims()
    n_channels = 1
    if cfg.dataset and os.path.exists(cfg.dataset):
        with open(cfg.dataset, "r", encoding="utf-8", errors="replace") as fh:
            n_channels = len(split_columns(fh.readline().rstrip("\n").split(","))[0])
    pre = flops.pretrain_report(dims, n_channels)
    fin = flops.finetune_report(dims, n_channels, cfg.task, cfg.horizon, cfg.classes)
    print(flops.format_report("pretrain", pre))
    print(flops.format_report("finetune", fin))
    return 0


def cmd_filter_viz(cfg: RunConfig, channel: int, out_path: str | None) -> int:
    dataset = _load_dataset(cfg)
    if not 0 <= channel < dataset.n_channels:
        raise ConfigError(f"channel {channel} out of range [0, {dataset.n_channels})")
    # samples are position-major, channel-minor: the first window of channel c is samples[c]
    window = sample_windows(dataset, cfg.lookback, 0, "test")[channel].x[None, :]

    normalized, _ = normalize_windows(_build_model(cfg), window)
    anchor = unpatchify_batch(normalized.data, cfg.stride, cfg.lookback)
    denoised = icm.generate_positive_views(anchor, icm.FilterConfig(cfg.keep_fraction, cfg.lookback))
    noise = anchor - denoised

    rows = [[t, anchor[0, t], denoised[0, t], noise[0, t]] for t in range(cfg.lookback)]
    path = out_path or os.path.join(cfg.out_dir, "filter_viz.csv")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    _write_metrics_csv(path, ["t", "anchor", "denoised", "noise"], rows)
    print(f"wrote {path}")
    return 0


def cmd_synth(out_path: str, kind: str, rows: int, channels: int, seed: int) -> int:
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    if kind == "sine":
        write_csv(out_path, synthetic_sine(rows, channels, seed))
    else:
        values, labels = synthetic_two_class(rows, channels, seed)
        write_csv(out_path, values, labels)
    print(f"wrote {out_path}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="decop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="path to a key=value config file")
        return p

    with_config(sub.add_parser("pretrain", help="self-supervised pretraining"))
    ft = with_config(sub.add_parser("finetune", help="supervised fine-tuning + test report"))
    ft.add_argument("--checkpoint", default=None, help="pretrained checkpoint to start from")
    ev = with_config(sub.add_parser("eval", help="evaluate a finetuned checkpoint"))
    ev.add_argument("--checkpoint", required=True)
    with_config(sub.add_parser("flops", help="analytic parameter and FLOPs report"))
    fv = with_config(sub.add_parser("filter-viz", help="write anchor/denoised/noise CSV"))
    fv.add_argument("--channel", type=int, default=0)
    fv.add_argument("--out", default=None)
    sy = sub.add_parser("synth", help="write a synthetic dataset CSV")
    sy.add_argument("--out", required=True)
    sy.add_argument("--kind", choices=("sine", "two-class"), default="sine")
    sy.add_argument("--rows", type=int, default=5000)
    sy.add_argument("--channels", type=int, default=3)
    sy.add_argument("--seed", type=int, default=7)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "pretrain":
            return cmd_pretrain(load_config(args.config))
        if args.command == "finetune":
            return cmd_finetune(load_config(args.config), args.checkpoint)
        if args.command == "eval":
            return cmd_eval(load_config(args.config), args.checkpoint)
        if args.command == "flops":
            return cmd_flops(load_config(args.config))
        if args.command == "filter-viz":
            return cmd_filter_viz(load_config(args.config), args.channel, args.out)
        if args.command == "synth":
            return cmd_synth(args.out, args.kind, args.rows, args.channels, args.seed)
        raise ConfigError(f"unknown command {args.command}")
    except DecopError as exc:
        print(f"decop:error:{exc.category}: {exc}", file=sys.stderr)
        return 2 if exc.category == "config" else 3
    except OSError as exc:
        print(f"decop:error:io: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
