"""Hierarchical windowed encoder.

Patches are linearly projected into a latent space, tagged with a
learnable positional table, then passed through a stack of blocks. Each
block groups consecutive patches into fixed-size windows, flattens every
window into one vector, transforms it with a shared learner (affine, or
a two-layer GELU MLP), unfolds back, and adds a dropout residual of its
input. Window sizes grow across blocks, so locality widens gradually
until the last block can span the whole patch axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .rng import Rng
from .tensor import Tensor


@dataclass
class DclConfig:
    """Encoder settings; RunConfig.validate checks every value."""

    model_dim: int
    windows: tuple[int, ...]
    learner: str = "linear"
    dropout: float = 0.1
    hidden_mult: int = 1


@dataclass
class DclBlock:
    """Learner parameters for one window size."""

    window: int
    params: dict[str, Tensor] = field(default_factory=dict)


def _uniform_init(rng: Rng, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform_range(-bound, bound, shape)


def init_block(cfg: DclConfig, window: int, rng: Rng) -> DclBlock:
    """Fresh learner parameters, uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    width = window * cfg.model_dim
    block = DclBlock(window)
    if cfg.learner == "linear":
        block.params["w"] = Tensor(_uniform_init(rng, (width, width), width), requires_grad=True)
        block.params["b"] = Tensor(_uniform_init(rng, (width,), width), requires_grad=True)
    else:
        hidden = cfg.hidden_mult * width
        block.params["w1"] = Tensor(_uniform_init(rng, (width, hidden), width), requires_grad=True)
        block.params["b1"] = Tensor(_uniform_init(rng, (hidden,), width), requires_grad=True)
        block.params["w2"] = Tensor(_uniform_init(rng, (hidden, width), hidden), requires_grad=True)
        block.params["b2"] = Tensor(_uniform_init(rng, (width,), hidden), requires_grad=True)
    return block


def block_param_count(cfg, window: int) -> int:
    """Learner parameters of one block; ``cfg`` is a DclConfig or ModelDims."""
    width = window * cfg.model_dim
    if cfg.learner == "linear":
        return width * width + width
    hidden = cfg.hidden_mult * width
    return width * hidden + hidden + hidden * width + width


def window_partition(z: Tensor, window: int) -> tuple[Tensor, int]:
    """Group patches into windows: (B, N, D) -> (B * ceil(N/W), W * D).

    The patch axis is zero-padded up to a multiple of the window size;
    returns the padded group count per batch row for the inverse.
    """
    b, n, d = z.shape
    groups = -(-n // window)
    padded = T.pad_axis(z, axis=1, count=groups * window - n)
    return T.reshape(padded, (b * groups, window * d)), groups


def window_merge(z: Tensor, batch: int, groups: int, window: int, n: int, dim: int) -> Tensor:
    """Inverse of :func:`window_partition`, truncating the padding."""
    full = T.reshape(z, (batch, groups * window, dim))
    return T.narrow(full, 1, 0, n)


def apply_learner(flat: Tensor, block: DclBlock, cfg: DclConfig) -> Tensor:
    if cfg.learner == "linear":
        return T.affine(flat, block.params["w"], block.params["b"])
    hidden = T.gelu(T.affine(flat, block.params["w1"], block.params["b1"]))
    return T.affine(hidden, block.params["w2"], block.params["b2"])


def block_forward(
    z: Tensor, block: DclBlock, cfg: DclConfig, train: bool, rng: Rng | None
) -> tuple[Tensor, Tensor]:
    """One encoder block; returns (residual output, pre-residual output)."""
    b, n, d = z.shape
    flat, groups = window_partition(z, block.window)
    mixed = window_merge(apply_learner(flat, block, cfg), b, groups, block.window, n, d)
    out = T.add(mixed, T.dropout(z, cfg.dropout, rng, train))
    return out, mixed


def encoder_forward(
    z: Tensor, blocks: list[DclBlock], cfg: DclConfig, train: bool, rng: Rng | None
) -> tuple[Tensor, Tensor]:
    """Run all blocks; returns (final output, last block's pre-residual).

    The pre-residual representation of the deepest block is what the
    alignment loss compares across a positive pair.
    """
    pre = z
    for block in blocks:
        z, pre = block_forward(z, block, cfg, train, rng)
    return z, pre
