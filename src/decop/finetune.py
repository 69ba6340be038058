"""Task heads, supervised fine-tuning, and evaluation metrics.

Both heads read the encoder output standardized per patch over the model
dimension (zero mean, unit variance, no learned parameters). Masked
pretraining grows the scale of the encoder output (on the acceptance
config its RMS on validation windows goes from 0.85 to 1.29); a freshly
initialised head reading it raw sees its initial noise and every Adam
step grow by the same factor, and fine-tuning from a pretrained encoder
then starts behind a random one. Standardizing makes the head's input
scale independent of pretraining.

Forecasting flattens the standardized patch grid into one affine map
onto the horizon and maps predictions back through the window's
instance statistics. Classification mean-pools the standardized patches
into an affine map onto class scores, trained with softmax
cross-entropy. Fine-tuning updates the full model (encoder and head).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import RunConfig
from .data import Dataset, batches, require_window, sample_windows
from .errors import ContractError
from .ipn import denormalize
from .model import ModelState, encode_patches, normalize_windows
from .optim import Adam, train_epoch
from .rng import Rng
from .tensor import Tensor


# former stage-config name, kept for callers that build it by keyword
# (bench/harness.py)
FinetuneConfig = RunConfig


@dataclass
class Metrics:
    mse: float | None = None
    mae: float | None = None
    acc: float | None = None
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None

    def as_dict(self) -> dict[str, float]:
        return {k: v for k, v in self.__dict__.items() if v is not None}


def forecast_forward(model: ModelState, windows: np.ndarray, train: bool, rng: Rng | None) -> Tensor:
    """(B, L) look-backs -> (B, F) predictions on the standardized scale.

    The head reads every patch's encoding standardized over the model
    dimension, so its input scale does not depend on how far pretraining
    grew the encoder output.
    """
    if "forecast_w" not in model.heads:
        raise ContractError("model has no forecast head; call add_task_head first")
    patches, stats = normalize_windows(model, windows)
    b, n, _ = patches.shape
    # the encoder's output and pre-residual go unnamed, so this frame
    # holds neither while the head runs
    flat = T.reshape(
        T.standardize(encode_patches(model, patches, train, rng)[0]), (b, n * model.dims.model_dim)
    )
    normed_pred = T.affine(flat, model.heads["forecast_w"], model.heads["forecast_b"])
    return denormalize(normed_pred, stats)


def classify_forward(model: ModelState, windows: np.ndarray, train: bool, rng: Rng | None) -> Tensor:
    """(B, L) look-backs -> (B, C) class scores; argmax is the prediction.

    Patches are standardized over the model dimension before pooling, for
    the same reason as in :func:`forecast_forward`.
    """
    if "classify_w" not in model.heads:
        raise ContractError("model has no classification head; call add_task_head first")
    patches, _ = normalize_windows(model, windows)
    pooled = T.mean_axis(T.standardize(encode_patches(model, patches, train, rng)[0]), axis=1)
    return T.affine(pooled, model.heads["classify_w"], model.heads["classify_b"])


def cross_entropy(scores: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy with a detached max shift for stability."""
    b, c = scores.shape
    shifted = T.sub(scores, Tensor(scores.data.max(axis=1, keepdims=True)))
    log_norm = T.log(T.sum_axis(T.exp(shifted), axis=1))
    onehot = np.zeros((b, c))
    onehot[np.arange(b), labels] = 1.0
    picked = T.sum_axis(T.mul(shifted, Tensor(onehot)), axis=1)
    return T.mean_all(T.sub(log_norm, picked))


def compute_metrics(preds: np.ndarray, targets: np.ndarray, task: str, classes: int = 0) -> Metrics:
    """Forecast: MSE and MAE. Classification: accuracy and macro P/R/F1 over ``classes`` classes.

    Classification metrics are percentages; a class with no predicted (or
    no true) examples contributes 0 to the macro averages.
    """
    if preds.shape[0] != targets.shape[0]:
        raise ContractError(f"metrics: {preds.shape[0]} predictions vs {targets.shape[0]} targets")
    if task == "forecast":
        if preds.shape != targets.shape:
            raise ContractError(f"metrics: prediction shape {preds.shape} vs target {targets.shape}")
        err = preds - targets
        return Metrics(mse=float(np.mean(err * err)), mae=float(np.mean(np.abs(err))))
    if task != "classify":
        raise ContractError(f"unknown task '{task}'")
    precision = np.zeros(classes)
    recall = np.zeros(classes)
    f1 = np.zeros(classes)
    for c in range(classes):
        tp = int(np.sum((preds == c) & (targets == c)))
        fp = int(np.sum((preds == c) & (targets != c)))
        fn = int(np.sum((preds != c) & (targets == c)))
        precision[c] = tp / (tp + fp) if tp + fp else 0.0
        recall[c] = tp / (tp + fn) if tp + fn else 0.0
        denom = precision[c] + recall[c]
        f1[c] = 2 * precision[c] * recall[c] / denom if denom else 0.0
    return Metrics(
        acc=float(np.mean(preds == targets) * 100.0),
        precision=float(precision.mean() * 100.0),
        recall=float(recall.mean() * 100.0),
        f1=float(f1.mean() * 100.0),
    )


def add_task_head(model: ModelState, cfg: RunConfig) -> None:
    """Give ``model`` the head ``cfg.task`` trains, drawn from ``Rng(cfg.seed)``, unless it has one."""
    if f"{cfg.task}_w" not in model.heads:
        model.add_head(cfg.task, cfg.horizon if cfg.task == "forecast" else cfg.classes, Rng(cfg.seed))


def target_horizon(cfg: RunConfig) -> int:
    """Rows a window carries past its look-back: the horizon when forecasting."""
    return cfg.horizon if cfg.task == "forecast" else 0


def evaluate(model: ModelState, dataset: Dataset, cfg: RunConfig, split: str) -> Metrics:
    """Metrics over a whole split in eval mode (no dropout, no tape)."""
    windows = sample_windows(dataset, model.dims.lookback, target_horizon(cfg), split)
    preds, targets = [], []
    for x, y, labels in batches(windows, cfg.batch_size):
        if cfg.task == "forecast":
            preds.append(forecast_forward(model, x, False, None).data)
            targets.append(y)
        else:
            scores = classify_forward(model, x, False, None).data
            preds.append(scores.argmax(axis=1))
            targets.append(labels)
    return compute_metrics(
        np.concatenate(preds), np.concatenate(targets), cfg.task, classes=cfg.classes
    )


@dataclass
class FinetuneEpochMetrics:
    epoch: int
    train_loss: float
    val: Metrics
    seconds: float


def finetune_epoch(
    model: ModelState,
    dataset: Dataset,
    cfg: RunConfig,
    optimizer: Adam,
    epoch: int,
    streams: dict[str, Rng],
) -> FinetuneEpochMetrics:
    started = time.perf_counter()
    windows = sample_windows(dataset, model.dims.lookback, target_horizon(cfg), "train", streams["shuffle"])

    def forward(x, y, labels):
        if cfg.task == "forecast":
            return (T.squared_error(forecast_forward(model, x, True, streams["dropout"]), Tensor(y)),)
        return (cross_entropy(classify_forward(model, x, True, streams["dropout"]), labels),)

    (train_loss,) = train_epoch(batches(windows, cfg.batch_size), forward, optimizer, epoch)
    val = evaluate(model, dataset, cfg, "val")
    return FinetuneEpochMetrics(epoch, train_loss, val, time.perf_counter() - started)


def run_finetuning(
    model: ModelState, dataset: Dataset, cfg: RunConfig
) -> tuple[list[FinetuneEpochMetrics], Metrics]:
    """Fine-tune with validation-based selection and patience.

    Restores the best-validation parameters, then reports test metrics.
    A split too short for one window is a ``SizeError`` before a head is
    added.
    """
    cfg.validate()
    for split in ("train", "val", "test"):
        require_window(dataset, model.dims.lookback, target_horizon(cfg), split)
    root = Rng(cfg.seed)
    streams = {name: root.child(name) for name in ("shuffle", "dropout")}
    add_task_head(model, cfg)
    optimizer = Adam(model.finetune_parameters(), lr=cfg.lr)
    history: list[FinetuneEpochMetrics] = []
    best = model.snapshot()
    best_value = np.inf
    stale = 0
    for epoch in range(1, cfg.epochs + 1):
        metrics = finetune_epoch(model, dataset, cfg, optimizer, epoch, streams)
        history.append(metrics)
        # lower is better: MSE for forecasting, negated F1 for classification
        value = metrics.val.mse if cfg.task == "forecast" else -metrics.val.f1
        if value < best_value:
            best_value = value
            best = model.snapshot()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    model.restore(best)
    return history, evaluate(model, dataset, cfg, "test")
