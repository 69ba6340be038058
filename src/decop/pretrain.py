"""Masked-patch pretraining loop.

Per batch: normalize, generate denoised positive views in the frequency
domain, draw one random patch mask per sample (shared by both views),
encode both views with masked latents swapped for the mask token, then
optimize masked reconstruction of both views plus the weighted alignment
loss with Adam.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import icm
from . import tensor as T
from .config import RunConfig
from .data import Dataset, batches, patchify_batch, sample_windows, unpatchify_batch
from .errors import ConfigError, ContractError
from .model import ModelState, encode_patches, normalize_windows
from .optim import Adam, train_epoch
from .rng import Rng
from .tensor import Tensor


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

    One uniform draw per (sample, patch); each row masks its k smallest
    uniforms (:func:`icm.lowest`), a uniform k-subset for one stream
    advance per batch. A ratio that masks nothing draws nothing.
    """
    k = int(ratio * n_patches)
    if not k:
        return np.zeros((batch, n_patches))
    return icm.lowest(stream.uniform((batch, n_patches)), k).astype(np.float64)


def reconstruction_head(z: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """(B, N, D) encodings -> (B, N, P) patch predictions."""
    bb, n, d = z.shape
    flat = T.affine(T.reshape(z, (bb * n, d)), w, b)
    return T.reshape(flat, (bb, n, w.shape[1]))


def recon_loss(target: Tensor, pred: Tensor, mask: np.ndarray) -> Tensor:
    """Mean squared error over masked patch elements only.

    An empty mask is a :class:`ContractError`: the loss is undefined there.
    """
    masked_elements = mask.sum() * target.shape[2]
    if masked_elements == 0:
        raise ContractError("reconstruction loss needs at least one masked patch")
    gate = Tensor(mask.reshape(*mask.shape, 1))
    diff = T.sub(target, pred)
    gated = T.mul(T.mul(diff, diff), gate)
    return T.div(T.sum_all(gated), Tensor(float(masked_elements)))


def total_loss(recon: Tensor, contrastive: Tensor, weight: float) -> Tensor:
    return T.add(recon, T.mul(Tensor(weight), contrastive))


def positive_views(
    model: ModelState, windows: np.ndarray, keep_fraction: float
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """IPN-normalized (B, N, P) anchor patches, their (B, L) series and its denoised views."""
    dims = model.dims
    patches, _ = normalize_windows(model, windows)
    series = unpatchify_batch(patches.data, dims.stride, dims.lookback)
    return patches, series, icm.generate_positive_views(series, keep_fraction)


@dataclass
class BatchOutput:
    recon: Tensor
    contrastive: Tensor
    total: Tensor


def pretrain_batch(
    model: ModelState,
    windows: np.ndarray,
    cfg: RunConfig,
    mask_stream: Rng | None,
    dropout_stream: Rng | None,
    train: bool = True,
) -> BatchOutput:
    """Forward pass of one pretraining batch; loss tensors stay on the tape.

    The masks are drawn here and the views computed from the batch.
    """
    dims = model.dims
    anchor_patches, series, views = positive_views(model, windows, cfg.keep_fraction)
    pair_patches = Tensor(patchify_batch(views, dims.patch_size, dims.stride))
    masks = random_masks(windows.shape[0], dims.n_patches, cfg.mask_ratio, mask_stream)

    # both views share every parameter and the same masks, so they run as
    # one doubled batch; the alignment loss pairs row i with row B + i.
    # The halves are copies, so they, the series and the views are let go
    # before the encoder runs
    both = T.concat_rows(anchor_patches, pair_patches)
    del series, views, anchor_patches, pair_patches
    both_masks = np.concatenate([masks, masks], axis=0)
    encoded, pre = encode_patches(model, both, train, dropout_stream, both_masks)
    contrastive = icm.contrastive_loss(pre)
    # the alignment loss is the pre-residual's only reader, so it is not
    # held while the reconstruction head runs
    del pre
    preds = reconstruction_head(encoded, model.recon_w, model.recon_b)

    # same mask count in both halves, so the combined masked mean equals
    # the average of the two per-view reconstruction losses
    recon = recon_loss(both, preds, both_masks)
    return BatchOutput(recon, contrastive, total_loss(recon, contrastive, cfg.contrastive_weight))


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
    windows = sample_windows(dataset, model.dims.lookback, 0, "train", streams["shuffle"])

    def forward(x, _y, _labels):
        out = pretrain_batch(model, x, cfg, streams["mask"], streams["dropout"])
        return out.total, out.recon, out.contrastive

    total, recon, contrastive = train_epoch(batches(windows, cfg.batch_size), forward, optimizer, epoch)
    return EpochMetrics(epoch, recon, contrastive, total, time.perf_counter() - started)


def run_pretraining(
    model: ModelState,
    dataset: Dataset,
    cfg: RunConfig,
) -> tuple[list[EpochMetrics], dict[str, np.ndarray]]:
    """Full pretraining; returns per-epoch metrics and the best snapshot.

    Best means lowest epoch-mean training loss. A train split too short
    for one window is a ``SizeError`` from :func:`sample_windows`.
    """
    cfg.validate()
    # pretraining reconstructs the masked patches, so it needs at least one
    n_patches = model.dims.n_patches
    if int(cfg.mask_ratio * n_patches) < 1:
        raise ConfigError(f"mask_ratio {cfg.mask_ratio} masks no patch of {n_patches}")
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
