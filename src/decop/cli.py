"""Command-line entry points.

Commands::

    decop pretrain   --config cfg        pretrain; write checkpoints + metrics
    decop finetune   --config cfg --checkpoint ckpt   fine-tune + test report
    decop eval       --config cfg --checkpoint ckpt   evaluate a finetuned model
    decop flops      --config cfg        analytic parameter/FLOPs report
    decop filter-viz --config cfg --channel i         write (t, anchor, denoised, noise)
    decop synth      --out path          write a bundled synthetic dataset CSV

Exit code 0 on success. On failure, stderr carries one line of the form
``decop:error:<category>: <message>``, category one of config (a bad
command line too), data, shape, contract, checkpoint, numeric, io.
``pretrain`` and ``finetune`` write ``out_dir`` only after their stage
returns, so a failed run leaves none.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import checkpoint, flops
from .checkpoint import atomic_write_text
from .config import RunConfig, echo_config, load_config
from .data import (
    Dataset,
    DatasetSpec,
    load_csv,
    sample_windows,
    synthetic_sine,
    synthetic_two_class,
    write_csv,
)
from .errors import ConfigError, DecopError
from .finetune import add_task_head, evaluate, run_finetuning
from .model import ModelState
from .pretrain import positive_views, run_pretraining
from .rng import Rng


def _load_dataset(cfg: RunConfig) -> Dataset:
    """Load the run's CSV; each stage checks the windows it reads."""
    if not cfg.dataset:
        raise ConfigError("field 'dataset' is required for this command")
    if not os.path.exists(cfg.dataset):
        raise ConfigError(f"dataset file not found: {cfg.dataset}")
    classes = cfg.classes if cfg.task == "classify" else 0
    spec = DatasetSpec(cfg.dataset_name, cfg.dataset, ratios=cfg.split_ratios, classes=classes)
    return load_csv(cfg.dataset, spec)


def _build_model(cfg: RunConfig) -> ModelState:
    return ModelState(cfg.dims(), cfg.dropout, cfg.blend_init, Rng(cfg.seed))


def _write_metrics_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _write_history(cfg: RunConfig, stage: str, columns: list[str], history: list, values: list[list]) -> None:
    """Write ``config_echo.txt``, ``<stage>_metrics.csv`` (a ``values`` row per epoch), ``<stage>_timing.csv``."""
    atomic_write_text(os.path.join(cfg.out_dir, "config_echo.txt"), echo_config(cfg))
    timing = [[m.seconds] for m in history]
    for name, header, rows in (("metrics", columns, values), ("timing", ["seconds"], timing)):
        path = os.path.join(cfg.out_dir, f"{stage}_{name}.csv")
        _write_metrics_csv(path, ["epoch"] + header, [[m.epoch] + row for m, row in zip(history, rows)])


def _write_report(cfg: RunConfig, metrics) -> None:
    """Write ``report.txt`` and print it."""
    text = "".join(f"{key}={value:.10g}\n" for key, value in metrics.as_dict().items())
    atomic_write_text(os.path.join(cfg.out_dir, "report.txt"), text)
    print(text, end="")


def cmd_pretrain(cfg: RunConfig) -> int:
    dataset = _load_dataset(cfg)
    model = _build_model(cfg)
    history, best = run_pretraining(model, dataset, cfg)
    columns = ["recon_loss", "contrastive_loss", "total_loss"]
    _write_history(cfg, "pretrain", columns, history, [[m.recon, m.contrastive, m.total] for m in history])
    checkpoint.save(os.path.join(cfg.out_dir, "ckpt_final.decop"), model)
    model.restore(best)
    checkpoint.save(os.path.join(cfg.out_dir, "ckpt_best.decop"), model)
    print(f"pretrained {cfg.epochs} epochs; final loss {history[-1].total:.6f}")
    print(f"checkpoints written under {cfg.out_dir}")
    return 0


def cmd_finetune(cfg: RunConfig, ckpt_path: str | None) -> int:
    dataset = _load_dataset(cfg)
    model = _build_model(cfg)
    add_task_head(model, cfg)
    if ckpt_path is not None:
        checkpoint.load(ckpt_path, model)
    history, test_metrics = run_finetuning(model, dataset, cfg)
    val_keys = sorted(history[0].val.as_dict()) if history else []
    columns = ["train_loss"] + [f"val_{k}" for k in val_keys]
    rows = [[m.train_loss] + [m.val.as_dict()[k] for k in val_keys] for m in history]
    _write_history(cfg, "finetune", columns, history, rows)
    checkpoint.save(os.path.join(cfg.out_dir, "ckpt_finetuned.decop"), model)
    _write_report(cfg, test_metrics)
    return 0


def cmd_eval(cfg: RunConfig, ckpt_path: str) -> int:
    dataset = _load_dataset(cfg)
    model = _build_model(cfg)
    add_task_head(model, cfg)
    checkpoint.load(ckpt_path, model, require_heads=True)
    _write_report(cfg, evaluate(model, dataset, cfg, "test"))
    return 0


def cmd_flops(cfg: RunConfig) -> int:
    dims = cfg.dims()
    n_channels = _load_dataset(cfg).n_channels if cfg.dataset else 1
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

    _, anchor, denoised = positive_views(_build_model(cfg), window, cfg.keep_fraction)
    noise = anchor - denoised

    rows = [[t, anchor[0, t], denoised[0, t], noise[0, t]] for t in range(cfg.lookback)]
    path = out_path or os.path.join(cfg.out_dir, "filter_viz.csv")
    _write_metrics_csv(path, ["t", "anchor", "denoised", "noise"], rows)
    print(f"wrote {path}")
    return 0


def cmd_synth(out_path: str, kind: str, rows: int, channels: int, seed: int) -> int:
    if rows < 1 or channels < 1:
        raise ConfigError(f"--rows and --channels must be at least 1, got {rows} and {channels}")
    if rows * channels > sys.maxsize // 8:
        # more bytes than any numpy shape can hold (numpy would raise ValueError)
        raise ConfigError(f"--rows x --channels = {rows} x {channels} values do not fit in memory")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    if kind == "sine":
        write_csv(out_path, synthetic_sine(rows, channels, seed))
    else:
        values, labels = synthetic_two_class(rows, channels, seed)
        write_csv(out_path, values, labels)
    print(f"wrote {out_path}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one config error line, not argparse's usage text
        raise ConfigError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="decop", description=__doc__.splitlines()[0])
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
    try:
        args = _parser().parse_args(argv)
        # a float overflow or invalid operation ends the run as one numeric
        # error, instead of an inf or NaN that shows up later
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _run(args)
    except DecopError as exc:
        print(f"decop:error:{exc.category}: {exc}", file=sys.stderr)
        return 2 if exc.category == "config" else 3
    except FloatingPointError as exc:
        print(f"decop:error:numeric: float arithmetic failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"decop:error:io: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        # a size in the config or on the command line that no memory can hold
        print(f"decop:error:config: the run's sizes do not fit in memory: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    # the parser admits only its own commands
    if args.command == "synth":
        return cmd_synth(args.out, args.kind, args.rows, args.channels, args.seed)
    cfg = load_config(args.config)
    if args.command == "pretrain":
        return cmd_pretrain(cfg)
    if args.command == "finetune":
        return cmd_finetune(cfg, args.checkpoint)
    if args.command == "eval":
        return cmd_eval(cfg, args.checkpoint)
    if args.command == "filter-viz":
        return cmd_filter_viz(cfg, args.channel, args.out)
    return cmd_flops(cfg)


if __name__ == "__main__":
    sys.exit(main())
