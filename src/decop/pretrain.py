"""Masked-patch pretraining loop.

Per batch: normalize, generate denoised positive views in the frequency
domain, draw one random patch mask per sample (shared by both views),
encode both views with masked latents swapped for the mask token, then
optimize masked reconstruction of both views plus the weighted alignment
loss with Adam.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import icm, ipn
from . import tensor as T
from .config import RunConfig
from .data import Dataset, batches, patchify_batch, sample_windows, unpatchify_batch
from .icm import ContrastiveDiagnostics, FilterConfig
from .model import ModelState, encode_patches, normalize_windows
from .optim import Adam, train_step
from .rng import Rng
from .tensor import Tape, Tensor


# former stage-config name, kept for callers that build it by keyword
# (bench/harness.py, tests/test_acceptance.py)
PretrainConfig = RunConfig


@dataclass
class EpochMetrics:
    epoch: int
    recon: float
    contrastive: float
    total: float
    seconds: float


def random_masks(batch: int, n_patches: int, ratio: float, stream: Rng) -> np.ndarray:
    """Per-sample masks, exactly floor(ratio * N) ones in each row.

    One uniform draw per (sample, patch); each row masks the positions of
    its k smallest uniforms (ties resolve toward the lower index), which
    is a uniform k-subset and costs a single stream advance per batch.
    """
    k = int(ratio * n_patches)
    mask = np.zeros((batch, n_patches), dtype=np.float64)
    if k:
        u = stream.uniform((batch, n_patches))
        picked = np.argsort(u, axis=1, kind="stable")[:, :k]
        mask[np.repeat(np.arange(batch), k), picked.reshape(-1)] = 1.0
    return mask


def reconstruction_head(z: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """(B, N, D) encodings -> (B, N, P) patch predictions."""
    bb, n, d = z.shape
    flat = T.affine(T.reshape(z, (bb * n, d)), w, b)
    return T.reshape(flat, (bb, n, w.shape[1]))


def recon_loss(target: Tensor, pred: Tensor, mask: np.ndarray) -> Tensor:
    """Mean squared error over masked patch elements only.

    Zero (with a warning) when nothing is masked.
    """
    masked_elements = mask.sum() * target.shape[2]
    if masked_elements == 0:
        import warnings

        warnings.warn("reconstruction loss over an empty mask is defined as 0")
        return Tensor(0.0)
    gate = Tensor(mask.reshape(*mask.shape, 1))
    diff = T.sub(target, pred)
    gated = T.mul(T.mul(diff, diff), gate)
    return T.div(T.sum_all(gated), Tensor(float(masked_elements)))


def total_loss(recon: Tensor, contrastive: Tensor, weight: float) -> Tensor:
    return T.add(recon, T.mul(Tensor(weight), contrastive))


@dataclass
class BatchOutput:
    recon: Tensor
    contrastive: Tensor
    total: Tensor
    diagnostics: ContrastiveDiagnostics = field(default_factory=ContrastiveDiagnostics)


def pretrain_batch(
    model: ModelState,
    windows: np.ndarray,
    cfg: RunConfig,
    mask_stream: Rng | None,
    dropout_stream: Rng | None,
    train: bool = True,
    masks: np.ndarray | None = None,
    views: np.ndarray | None = None,
) -> BatchOutput:
    """Forward pass of one pretraining batch; loss tensors stay on the tape.

    ``masks`` and ``views`` can be pinned for gradient checking; normally
    they are drawn here (masks) or computed from the batch (views).
    """
    dims = model.dims
    anchor_patches, _ = normalize_windows(model, windows)

    if views is None:
        series = unpatchify_batch(anchor_patches.data, dims.stride, dims.lookback)
        views = icm.generate_positive_views(series, FilterConfig(cfg.keep_fraction, dims.lookback))
    pair_patches = Tensor(patchify_batch(views, dims.patch_size, dims.stride))

    if masks is None:
        masks = random_masks(windows.shape[0], dims.n_patches, cfg.mask_ratio, mask_stream)

    # both views share every parameter and the same masks, so they run as
    # one doubled batch; per-view quantities are recovered by row splits
    batch = windows.shape[0]
    both = T.concat_rows(anchor_patches, pair_patches)
    both_masks = np.concatenate([masks, masks], axis=0)
    encoded, pre = encode_patches(model, both, train, dropout_stream, both_masks)
    preds = reconstruction_head(encoded, model.recon_w, model.recon_b)

    # same mask count in both halves, so the combined masked mean equals
    # the average of the two per-view reconstruction losses
    recon = recon_loss(both, preds, both_masks)
    diagnostics = ContrastiveDiagnostics()
    contrastive = icm.contrastive_loss(
        T.narrow(pre, 0, 0, batch), T.narrow(pre, 0, batch, batch), diagnostics
    )
    return BatchOutput(
        recon, contrastive, total_loss(recon, contrastive, cfg.contrastive_weight), diagnostics
    )


def pretrain_epoch(
    model: ModelState,
    dataset: Dataset,
    cfg: RunConfig,
    optimizer: Adam,
    epoch: int,
    streams: dict[str, Rng],
) -> EpochMetrics:
    """One full pass over the training split, per the framework loop."""
    started = time.perf_counter()
    samples = sample_windows(dataset, model.dims.lookback, 0, "train", streams["shuffle"])
    sums = np.zeros(3)
    n_batches = 0
    for index, (x, _, _) in enumerate(batches(samples, cfg.batch_size)):
        with Tape() as tape:
            out = pretrain_batch(model, x, cfg, streams["mask"], streams["dropout"])
        total = train_step(tape, out.total, optimizer, epoch, index)
        sums += (float(out.recon.data), float(out.contrastive.data), total)
        n_batches += 1
    recon, contrastive, total = sums / n_batches
    return EpochMetrics(epoch, recon, contrastive, total, time.perf_counter() - started)


def run_pretraining(
    model: ModelState,
    dataset: Dataset,
    cfg: RunConfig,
) -> tuple[list[EpochMetrics], dict[str, np.ndarray]]:
    """Full pretraining; returns per-epoch metrics and the best snapshot.

    Best means lowest epoch-mean training loss.
    """
    cfg.validate()
    root = Rng(cfg.seed)
    streams = {name: root.child(name) for name in ("shuffle", "mask", "dropout")}
    optimizer = Adam(model.pretrain_parameters(), lr=cfg.lr)
    history: list[EpochMetrics] = []
    best_loss = np.inf
    best = model.snapshot()
    for epoch in range(1, cfg.epochs + 1):
        metrics = pretrain_epoch(model, dataset, cfg, optimizer, epoch, streams)
        history.append(metrics)
        if metrics.total < best_loss:
            best_loss = metrics.total
            best = model.snapshot()
    return history, best
