"""Analytic parameter and FLOPs accounting.

Convention, documented once and used everywhere: a multiply-accumulate
counts as 2 FLOPs; counts are for a single forward pass of the encoder
pipeline on one multivariate instance, i.e. one look-back window across
all of a dataset's channels (channel independence makes this M identical
univariate passes). Frequency-domain view generation is data
preparation, not model compute, and is excluded. The pretrain stage runs
projection, the encoder blocks, and the patch reconstruction head; the
fine-tune stage swaps the reconstruction head for the task head.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dcl import block_param_count
from .model import ModelDims


@dataclass
class StageReport:
    params: int
    macs_per_channel: int
    n_channels: int

    @property
    def macs(self) -> int:
        return self.macs_per_channel * self.n_channels

    @property
    def flops(self) -> int:
        return 2 * self.macs


def _groups(n: int, window: int) -> int:
    return -(-n // window)


def encoder_param_count(dims: ModelDims) -> int:
    total = dims.patch_size * dims.model_dim + dims.model_dim  # projection
    total += dims.n_patches * dims.model_dim  # positional table
    total += 1  # normalization blend
    for w in dims.windows:
        total += block_param_count(dims, w)
    return total


def pretrain_param_count(dims: ModelDims) -> int:
    total = encoder_param_count(dims)
    total += dims.model_dim  # mask token
    total += dims.model_dim * dims.patch_size + dims.patch_size  # reconstruction head
    return total


def finetune_param_count(dims: ModelDims, task: str, horizon: int = 0, classes: int = 0) -> int:
    total = encoder_param_count(dims)
    if task == "forecast":
        total += dims.n_patches * dims.model_dim * horizon + horizon
    else:
        total += dims.model_dim * classes + classes
    return total


def _encoder_macs(dims: ModelDims) -> int:
    n, d, p = dims.n_patches, dims.model_dim, dims.patch_size
    macs = n * p * d  # projection
    for w in dims.windows:
        width = w * d
        if dims.learner == "linear":
            macs += _groups(n, w) * width * width
        else:
            macs += _groups(n, w) * 2 * dims.hidden_mult * width * width
    return macs


def pretrain_report(dims: ModelDims, n_channels: int) -> StageReport:
    macs = _encoder_macs(dims) + dims.n_patches * dims.model_dim * dims.patch_size
    return StageReport(pretrain_param_count(dims), macs, n_channels)


def finetune_report(
    dims: ModelDims, n_channels: int, task: str, horizon: int = 0, classes: int = 0
) -> StageReport:
    macs = _encoder_macs(dims)
    if task == "forecast":
        macs += dims.n_patches * dims.model_dim * horizon
    else:
        macs += dims.model_dim * classes
    return StageReport(finetune_param_count(dims, task, horizon, classes), macs, n_channels)


def format_report(stage: str, report: StageReport) -> str:
    lines = [
        f"[{stage}] parameters: {report.params:,}",
        f"[{stage}] forward MACs per channel-sample: {report.macs_per_channel:,}",
        f"[{stage}] forward MACs per instance ({report.n_channels} channels): {report.macs:,}",
        f"[{stage}] forward FLOPs per instance (2 per MAC): {report.flops:,}",
    ]
    return "\n".join(lines)
