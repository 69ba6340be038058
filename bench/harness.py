"""Workloads and the closed-loop training phase of the decop benchmark.

A phase builds its workload from the seed, then drives the library's own
training entry point (``run_pretraining`` or ``run_finetuning``) in this
process: one training job, each step starting when the previous one has
finished. Probes wrapped around library calls from outside read the clock
once per optimizer step (at the end of ``Adam.step``), keep every step's
loss, and time epochs and evaluations.

A phase always completes its workload's quality epochs, whose losses and
validation numbers depend only on the seed, then keeps training until its
time is spent and stops at the next step boundary.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import statistics
import struct
import time
from dataclasses import dataclass, field, replace

import numpy as np

from decop import checkpoint, data, finetune, flops, pretrain
from decop import tensor as T
from decop.config import RunConfig
from decop.errors import DecopError
from decop.finetune import FinetuneConfig
from decop.model import ModelState
from decop.optim import Adam
from decop.pretrain import PretrainConfig
from decop.rng import Rng
from decop.tensor import Tape, Tensor
from tracer import Patches, Tracer

_clock = time.perf_counter

TRAIN_SEED = 42
# set-up is repeated and its median reported, so one slow repetition
# does not move setup_s
SETUP_REPEATS = 5
# forward-only validation passes for eval_samples_per_s: one after every
# epoch, spread over the run, and more after training up to this count
MIN_EVAL_PASSES = 3
# train_samples_per_s is the median throughput over stretches of this many
# consecutive timed steps, so that a burst of slow steps does not move it
THROUGHPUT_STRETCH = 10
# training ends at the deadline, never at the epoch count
EPOCH_CAP = 1_000_000
# and, untraced, not before this many timed steps, so that p90 has ten
# beyond it; a traced run reports no p90 and stops at its deadline
MIN_TIMED_STEPS = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "windows/s",
    "step_ms_p50": "ms",
    "epoch_s": "s",
    "eval_samples_per_s": "windows/s",
    "peak_rss_mb": "MB",
    "final_train_loss": "loss",
    "val_loss": "loss",
}


@dataclass(frozen=True)
class Workload:
    name: str
    data_kind: str  # "sine" or "two-class"
    stage: str  # "pretrain" or "finetune"
    cfg: RunConfig
    quality_epochs: int
    # epoch_s is the median of these epochs (first, last; 1-based), the
    # same epochs in every run, so that how many epochs a run completes
    # on a fast or slow host does not change what epoch_s measures
    epoch_window: tuple[int, int]
    from_checkpoint: bool = False
    rows: int = 5000
    channels: int = 3

    @property
    def min_epochs(self) -> int:
        """Epochs every run completes, whatever its deadline."""
        return max(self.quality_epochs, self.epoch_window[1])


# acceptance config of the repository's benchmark (ROADMAP)
_ACCEPTANCE = dict(
    lookback=512, patch_size=12, stride=12, model_dim=64, windows=(2, 5), learner="linear",
    batch_size=256, mask_ratio=0.4, keep_fraction=0.3, contrastive_weight=0.1,
    split_ratios=(0.5, 0.2, 0.3), seed=TRAIN_SEED,
)

WORKLOADS = {
    # doubled 512-row batch: views, alignment loss, masks, dropout and the
    # pad/narrow/concat copies all run; narrow matmuls, so copies dominate
    "pretrain-sine": Workload(
        "pretrain-sine", "sine", "pretrain", RunConfig(dataset_name="sine", **_ACCEPTANCE), 2,
        epoch_window=(2, 4),
    ),
    # no views and no patch mask; single batch, wide head affine, tape-free
    # eval every epoch, and the only checkpoint round trip
    "finetune-forecast": Workload(
        "finetune-forecast", "sine", "finetune",
        RunConfig(dataset_name="sine", task="forecast", horizon=96, **_ACCEPTANCE), 3,
        epoch_window=(2, 7), from_checkpoint=True,
    ),
    # GELU-MLP learners 256 and 512 wide: matmul-, elementwise- and
    # optimizer-bound steps
    "classify-mlp": Workload(
        "classify-mlp", "two-class", "finetune",
        RunConfig(
            dataset_name="two-class", task="classify", classes=2, lookback=512, patch_size=8,
            stride=8, model_dim=64, windows=(4, 8), learner="mlp", batch_size=64,
            split_ratios=(0.5, 0.2, 0.3), seed=TRAIN_SEED,
        ),
        1,
        epoch_window=(1, 1),
    ),
}


def tiny(workload: Workload) -> Workload:
    """The same workload on a few hundred rows and a small model."""
    cfg = replace(
        workload.cfg, lookback=48, patch_size=8, stride=8, model_dim=8, horizon=8,
        batch_size=16, lr=1e-3,
    )
    return replace(workload, cfg=cfg, rows=400)


# ---------------------------------------------------------------------------
# set-up


def pretrain_config(cfg: RunConfig) -> PretrainConfig:
    return PretrainConfig(
        epochs=EPOCH_CAP, batch_size=cfg.batch_size, lr=cfg.lr, mask_ratio=cfg.mask_ratio,
        contrastive_weight=cfg.contrastive_weight, keep_fraction=cfg.keep_fraction, seed=cfg.seed,
    )


def finetune_config(cfg: RunConfig) -> FinetuneConfig:
    # patience never ends a timed run early
    return FinetuneConfig(
        task=cfg.task, horizon=cfg.horizon, classes=cfg.classes, epochs=EPOCH_CAP,
        batch_size=cfg.batch_size, lr=cfg.lr, patience=EPOCH_CAP, seed=cfg.seed,
    )


def horizon_of(workload: Workload) -> int:
    return workload.cfg.horizon if workload.stage == "finetune" and workload.cfg.task == "forecast" else 0


def build(workload: Workload, seed: int, workdir: str) -> tuple[data.Dataset, ModelState]:
    """Generate the CSV from the seed, load it, and build the model.

    The program sees only the CSV. Library calls go through their modules
    so that a tracer's wrappers see them.
    """
    cfg = workload.cfg
    path = os.path.join(workdir, f"{workload.data_kind}.csv")
    if workload.data_kind == "sine":
        data.write_csv(path, data.synthetic_sine(workload.rows, workload.channels, seed))
    else:
        data.write_csv(path, *data.synthetic_two_class(workload.rows, workload.channels, seed))
    spec = data.DatasetSpec(
        cfg.dataset_name, path, min_rows=cfg.lookback + horizon_of(workload), ratios=cfg.split_ratios
    )
    dataset = data.load_csv(path, spec)
    model = ModelState(cfg.dims(), cfg.dropout, cfg.blend_init, Rng(cfg.seed))
    if workload.from_checkpoint:
        ckpt = os.path.join(workdir, "start.decop")
        checkpoint.save(ckpt, model)
        model = ModelState(cfg.dims(), cfg.dropout, cfg.blend_init, Rng(cfg.seed))
        checkpoint.load(ckpt, model)
    return dataset, model


# ---------------------------------------------------------------------------
# probes and the training phase


class StopRun(Exception):
    """Raised at a step boundary once the phase's time is spent."""


@dataclass
class Epoch:
    end_step: int
    seconds: float
    train_loss: float


@dataclass
class Phase:
    workload: Workload
    setup_seconds: list[float] = field(default_factory=list)
    adam_init_seconds: float = 0.0
    step_ends: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    epoch_starts: list[int] = field(default_factory=list)
    epochs: list[Epoch] = field(default_factory=list)
    # (seconds, windows) per forward-only validation pass
    eval_passes: list[tuple[float, int]] = field(default_factory=list)
    eval_batches: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    naive_mse: float = math.nan
    train_windows: int = 0

    # -- derived --------------------------------------------------------------

    def timed_steps(self) -> list[int]:
        """Full-batch steps, without the run's first and each epoch's first.

        The first step of the run warms up (DFT tables, BLAS); an epoch's
        first step also pays for sampling and the previous evaluation.
        """
        full = self.train_windows // self.workload.cfg.batch_size
        bounds = self.epoch_starts + [len(self.step_ends)]
        return [
            i
            for start, end in zip(bounds, bounds[1:])
            for i in range(start + 1, min(start + full, end))
        ]

    def step_seconds(self) -> list[float]:
        return [self.step_ends[i] - self.step_ends[i - 1] for i in self.timed_steps()]

    def quality_steps(self) -> int:
        q = self.workload.quality_epochs
        return self.epochs[q - 1].end_step if len(self.epochs) >= q else 0

    def loss_digest(self) -> str:
        return digest(self.losses[: self.quality_steps()])

    @property
    def attempted(self) -> int:
        return len(self.step_ends) + self.eval_batches


def digest(losses: list[float]) -> str:
    return hashlib.sha256(struct.pack(f"<{len(losses)}d", *losses)).hexdigest()


def _val_objective(workload: Workload, dataset, model, phase: Phase) -> float:
    """The training objective on the val split, forward-only and tape-free.

    Pretraining draws its patch masks from a stream of its own, so the
    training streams are untouched and the value repeats exactly.
    """
    cfg = workload.cfg
    samples = data.sample_windows(dataset, cfg.lookback, horizon_of(workload), "val")
    mask_stream = Rng(cfg.seed).child("bench-val-mask")
    pre_cfg = pretrain_config(cfg)
    total = 0.0
    count = 0
    started = _clock()
    for x, y, labels in data.batches(samples, cfg.batch_size):
        phase.eval_batches += 1
        if workload.stage == "pretrain":
            out = pretrain.pretrain_batch(model, x, pre_cfg, mask_stream, None, train=False)
            loss = out.total
        elif cfg.task == "forecast":
            loss = T.squared_error(finetune.forecast_forward(model, x, False, None), Tensor(y))
        else:
            loss = finetune.cross_entropy(finetune.classify_forward(model, x, False, None), labels)
        value = float(loss.data)
        if not math.isfinite(value):
            phase.failed += 1
        total += value * x.shape[0]
        count += x.shape[0]
    if workload.stage == "pretrain":
        phase.eval_passes.append((_clock() - started, count))
    return total / count


def _naive_mse(workload: Workload, dataset) -> float:
    """Last-value forecast error on the val windows the model is scored on."""
    cfg = workload.cfg
    samples = data.sample_windows(dataset, cfg.lookback, cfg.horizon, "val")
    errors = [np.mean((s.y - s.x[-1]) ** 2) for s in samples]
    return float(np.mean(errors))


def run_phase(
    workload: Workload,
    seed: int,
    seconds: float,
    workdir: str,
    tracer: Tracer | None = None,
) -> Phase:
    """Set up, train until the deadline, then top up the validation passes."""
    phase = Phase(workload)
    cfg = workload.cfg
    with Patches() as patches:
        if tracer is not None:
            tracer.install(patches)
        for _ in range(SETUP_REPEATS):
            started = _clock()
            dataset, model = build(workload, seed, workdir)
            phase.setup_seconds.append(_clock() - started)
        phase.train_windows = (
            data.count_positions(dataset, cfg.lookback, horizon_of(workload), "train")
            * dataset.n_channels
        )
        if workload.stage == "finetune" and cfg.task == "forecast":
            phase.naive_mse = _naive_mse(workload, dataset)
        min_timed_steps = MIN_TIMED_STEPS if tracer is None else 0
        _install_probes(patches, phase, dataset, model, seconds, min_timed_steps)
        try:
            if workload.stage == "pretrain":
                pretrain.run_pretraining(model, dataset, pretrain_config(cfg))
            else:
                finetune.run_finetuning(model, dataset, finetune_config(cfg))
        except StopRun:
            pass
        except DecopError as exc:
            phase.failed += 1
            phase.errors.append(f"decop:error:{exc.category}: {exc}")
            return phase
        while len(phase.eval_passes) < MIN_EVAL_PASSES:
            if workload.stage == "pretrain":
                _val_objective(workload, dataset, model, phase)
            else:
                finetune.evaluate(model, dataset, finetune_config(cfg), "val")
    return phase


def _install_probes(
    patches: Patches, phase: Phase, dataset, model, seconds: float, min_timed_steps: int
) -> None:
    workload = phase.workload
    cfg = workload.cfg
    deadline = [math.inf]

    def step(optimizer, _step=Adam.step):
        _step(optimizer)
        now = _clock()
        phase.step_ends.append(now)
        if (
            now >= deadline[0]
            and len(phase.epochs) >= workload.min_epochs
            and len(phase.timed_steps()) >= min_timed_steps
        ):
            raise StopRun

    def adam_init(optimizer, *args, _init=Adam.__init__, **kwargs):
        started = _clock()
        _init(optimizer, *args, **kwargs)
        phase.adam_init_seconds += _clock() - started
        deadline[0] = _clock() + seconds

    def backward(tape, loss, _backward=Tape.backward):
        phase.losses.append(float(loss.data))
        _backward(tape, loss)

    def epoch(*args, _epoch, **kwargs):
        phase.epoch_starts.append(len(phase.step_ends))
        started = _clock()
        result = _epoch(*args, **kwargs)
        seconds_taken = _clock() - started
        loss = result.total if workload.stage == "pretrain" else result.train_loss
        phase.epochs.append(Epoch(len(phase.step_ends), seconds_taken, loss))
        quality = len(phase.epochs) == workload.quality_epochs
        # fine-tuning evaluates after every epoch by itself; pretraining
        # gets the same cadence from the benchmark's val pass
        if workload.stage == "pretrain" or quality:
            val_loss = _val_objective(workload, dataset, model, phase)
        if quality:
            phase.quality["final_train_loss"] = loss
            phase.quality["val_loss"] = val_loss
            if workload.stage == "finetune":
                key = "val_mse" if cfg.task == "forecast" else "val_f1"
                phase.quality[key] = getattr(result.val, key.removeprefix("val_"))
        return result

    def evaluate(model_, dataset_, fin_cfg, split, _evaluate=finetune.evaluate):
        windows = (
            data.count_positions(dataset_, cfg.lookback, horizon_of(workload), split)
            * dataset_.n_channels
        )
        batches = -(-windows // fin_cfg.batch_size)
        phase.eval_batches += batches
        started = _clock()
        metrics = _evaluate(model_, dataset_, fin_cfg, split)
        phase.eval_passes.append((_clock() - started, windows))
        if not all(math.isfinite(v) for v in metrics.as_dict().values()):
            phase.failed += batches
        return metrics

    patches.set(Adam, "step", step)
    patches.set(Adam, "__init__", adam_init)
    patches.set(Tape, "backward", backward)
    if workload.stage == "pretrain":
        patches.set(pretrain, "pretrain_epoch", functools.partial(epoch, _epoch=pretrain.pretrain_epoch))
    else:
        patches.set(finetune, "finetune_epoch", functools.partial(epoch, _epoch=finetune.finetune_epoch))
        patches.set(finetune, "evaluate", evaluate)


# ---------------------------------------------------------------------------
# checks and metrics


def checks(phase: Phase) -> list[tuple[str, bool, str]]:
    """Output checks: (name, passed, detail). Each failure counts as failed."""
    workload = phase.workload
    finite = all(math.isfinite(v) for v in phase.losses) and not phase.errors
    out = [("losses_finite", finite, f"{len(phase.losses)} step losses")]
    if workload.stage == "pretrain":
        # first and last tenth of the quality epochs' steps: a stretch of
        # training that does not depend on machine speed
        q = phase.quality_steps()
        k = max(1, q // 10)
        head = statistics.fmean(phase.losses[:k]) if q else math.nan
        tail = statistics.fmean(phase.losses[q - k : q]) if q else math.nan
        out.append(("pretrain_loss_falls", tail < head, f"first {k} steps {head:.6g} -> last {k} {tail:.6g}"))
    if workload.stage == "finetune" and workload.cfg.task == "forecast":
        mse = phase.quality.get("val_mse", math.nan)
        out.append((
            "val_mse_beats_naive", mse < phase.naive_mse,
            f"val MSE {mse:.6g} vs last-value {phase.naive_mse:.6g}",
        ))
    return out


def p90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def end_to_end(phase: Phase, import_seconds: float, peak_rss_mb: float) -> dict[str, float]:
    steps = phase.step_seconds()
    batch = phase.workload.cfg.batch_size
    evals = [windows / seconds for seconds, windows in phase.eval_passes]
    stretches = [steps[i : i + THROUGHPUT_STRETCH] for i in range(0, len(steps), THROUGHPUT_STRETCH)]
    first, last = phase.workload.epoch_window
    epochs = phase.epochs[first - 1 : last]
    nan = math.nan
    return {
        "setup_s": import_seconds + statistics.median(phase.setup_seconds) + phase.adam_init_seconds,
        "train_samples_per_s": statistics.median(batch * len(s) / sum(s) for s in stretches) if steps else nan,
        "step_ms_p50": statistics.median(steps) * 1e3 if steps else nan,
        "epoch_s": statistics.median(e.seconds for e in epochs) if epochs else nan,
        "eval_samples_per_s": statistics.median(evals) if evals else nan,
        "peak_rss_mb": peak_rss_mb,
        "final_train_loss": phase.quality.get("final_train_loss", nan),
        "val_loss": phase.quality.get("val_loss", nan),
    }


def affine_macs_per_step(workload: Workload) -> int:
    """Affine multiply-accumulates of one full batch, from ``flops.py``.

    The per-channel-sample forward MACs are exactly the affine products;
    pretraining runs both views as one doubled batch.
    """
    cfg = workload.cfg
    dims = cfg.dims()
    if workload.stage == "pretrain":
        return flops.pretrain_report(dims, 1).macs_per_channel * 2 * cfg.batch_size
    report = flops.finetune_report(dims, 1, cfg.task, cfg.horizon, cfg.classes)
    return report.macs_per_channel * cfg.batch_size
