"""Analytic parameter and FLOPs accounting.

Convention, documented once and used everywhere: a multiply-accumulate
counts as 2 FLOPs; counts are for a single forward pass of the encoder
pipeline on one multivariate instance, i.e. one look-back window across
all of a dataset's channels (channel independence makes this M identical
univariate passes). Frequency-domain view generation is data
preparation, not model compute, and is excluded. The pretrain stage runs
projection, the encoder blocks, and the patch reconstruction head; the
fine-tune stage swaps the reconstruction head for the task head.

Both counts read one list of the affine layers a univariate pass runs,
as ``(rows, fan_in, fan_out)``: a layer holds ``fan_in * fan_out +
fan_out`` parameters and costs ``rows * fan_in * fan_out`` MACs.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _encoder_layers(dims: ModelDims) -> list[tuple[int, int, int]]:
    """The patch projection, then each block's learner on its windows."""
    n, d = dims.n_patches, dims.model_dim
    layers = [(n, dims.patch_size, d)]
    for w in dims.windows:
        groups, width = -(-n // w), w * d
        if dims.learner == "linear":
            layers.append((groups, width, width))
        else:
            hidden = dims.hidden_mult * width
            layers += [(groups, width, hidden), (groups, hidden, width)]
    return layers


def _report(
    dims: ModelDims, head: tuple[int, int, int], n_channels: int, extra_params: int = 0
) -> StageReport:
    layers = _encoder_layers(dims) + [head]
    # the positional table and the normalization blend are not affine weights
    params = dims.n_patches * dims.model_dim + 1 + extra_params
    params += sum(fan_in * fan_out + fan_out for _, fan_in, fan_out in layers)
    macs = sum(rows * fan_in * fan_out for rows, fan_in, fan_out in layers)
    return StageReport(params, macs, n_channels)


def pretrain_report(dims: ModelDims, n_channels: int) -> StageReport:
    """Encoder, per-patch reconstruction head and the mask token."""
    head = (dims.n_patches, dims.model_dim, dims.patch_size)
    return _report(dims, head, n_channels, extra_params=dims.model_dim)


def finetune_report(
    dims: ModelDims, n_channels: int, task: str, horizon: int = 0, classes: int = 0
) -> StageReport:
    """Encoder and task head: flattened patches to horizon, or pooled patches to classes."""
    if task == "forecast":
        head = (1, dims.n_patches * dims.model_dim, horizon)
    else:
        head = (1, dims.model_dim, classes)
    return _report(dims, head, n_channels)


def format_report(stage: str, report: StageReport) -> str:
    lines = [
        f"[{stage}] parameters: {report.params:,}",
        f"[{stage}] forward MACs per channel-sample: {report.macs_per_channel:,}",
        f"[{stage}] forward MACs per instance ({report.n_channels} channels): {report.macs:,}",
        f"[{stage}] forward FLOPs per instance (2 per MAC): {report.flops:,}",
    ]
    return "\n".join(lines)
