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
from .data import Dataset, batches, sample_windows
from .errors import ContractError
from .ipn import denormalize
from .model import ModelState, encode_patches, normalize_windows
from .optim import Adam, train_step
from .rng import Rng
from .tensor import Tape, Tensor


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
        raise ContractError("model has no forecast head; call add_forecast_head first")
    patches, stats = normalize_windows(model, windows)
    encoded, _ = encode_patches(model, patches, train, rng)
    b, n, d = encoded.shape
    flat = T.reshape(T.standardize(encoded), (b, n * d))
    normed_pred = T.affine(flat, model.heads["forecast_w"], model.heads["forecast_b"])
    return denormalize(normed_pred, stats, "instance")


def classify_forward(model: ModelState, windows: np.ndarray, train: bool, rng: Rng | None) -> Tensor:
    """(B, L) look-backs -> (B, C) class scores; argmax is the prediction.

    Patches are standardized over the model dimension before pooling, for
    the same reason as in :func:`forecast_forward`.
    """
    if "classify_w" not in model.heads:
        raise ContractError("model has no classification head; call add_classify_head first")
    patches, _ = normalize_windows(model, windows)
    encoded, _ = encode_patches(model, patches, train, rng)
    pooled = T.mean_axis(T.standardize(encoded), axis=1)
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
    """Forecast: MSE and MAE. Classification: accuracy and macro P/R/F1.

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
    n_classes = classes or int(max(preds.max(), targets.max())) + 1
    precision = np.zeros(n_classes)
    recall = np.zeros(n_classes)
    f1 = np.zeros(n_classes)
    for c in range(n_classes):
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


def evaluate(model: ModelState, dataset: Dataset, cfg: RunConfig, split: str) -> Metrics:
    """Metrics over a whole split in eval mode (no dropout, no tape)."""
    horizon = cfg.horizon if cfg.task == "forecast" else 0
    samples = sample_windows(dataset, model.dims.lookback, horizon, split)
    preds, targets = [], []
    for x, y, labels in batches(samples, cfg.batch_size):
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


def selection_value(metrics: Metrics, task: str) -> float:
    """Lower is better: MSE for forecasting, negated F1 for classification."""
    return metrics.mse if task == "forecast" else -metrics.f1


def finetune_epoch(
    model: ModelState,
    dataset: Dataset,
    cfg: RunConfig,
    optimizer: Adam,
    epoch: int,
    streams: dict[str, Rng],
) -> FinetuneEpochMetrics:
    started = time.perf_counter()
    horizon = cfg.horizon if cfg.task == "forecast" else 0
    samples = sample_windows(dataset, model.dims.lookback, horizon, "train", streams["shuffle"])
    loss_sum = 0.0
    n_batches = 0
    for index, (x, y, labels) in enumerate(batches(samples, cfg.batch_size)):
        with Tape() as tape:
            if cfg.task == "forecast":
                pred = forecast_forward(model, x, True, streams["dropout"])
                loss = T.squared_error(pred, Tensor(y))
            else:
                scores = classify_forward(model, x, True, streams["dropout"])
                loss = cross_entropy(scores, labels)
        loss_sum += train_step(tape, loss, optimizer, epoch, index)
        n_batches += 1
    val = evaluate(model, dataset, cfg, "val")
    return FinetuneEpochMetrics(epoch, loss_sum / n_batches, val, time.perf_counter() - started)


def run_finetuning(
    model: ModelState, dataset: Dataset, cfg: RunConfig
) -> tuple[list[FinetuneEpochMetrics], Metrics]:
    """Fine-tune with validation-based selection and patience.

    Restores the best-validation parameters, then reports test metrics.
    """
    cfg.validate()
    root = Rng(cfg.seed)
    streams = {name: root.child(name) for name in ("shuffle", "dropout")}
    if cfg.task == "forecast" and "forecast_w" not in model.heads:
        model.add_forecast_head(cfg.horizon, root)
    if cfg.task == "classify" and "classify_w" not in model.heads:
        model.add_classify_head(cfg.classes, root)
    optimizer = Adam(model.finetune_parameters(), lr=cfg.lr)
    history: list[FinetuneEpochMetrics] = []
    best = model.snapshot()
    best_value = np.inf
    stale = 0
    for epoch in range(1, cfg.epochs + 1):
        metrics = finetune_epoch(model, dataset, cfg, optimizer, epoch, streams)
        history.append(metrics)
        value = selection_value(metrics.val, cfg.task)
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
