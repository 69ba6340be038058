"""Hierarchical windowed encoder.

Patches are linearly projected into a latent space, tagged with a
learnable positional table, then passed through a stack of blocks. Each
block groups consecutive patches into fixed-size windows, flattens every
window into one vector, transforms it with a shared learner (affine, or
a two-layer GELU MLP), unfolds back, and adds a dropout residual of its
input. Window sizes grow across blocks, but the windows of a block do
not overlap, so a patch reaches only the windows it shares on the way
up: at windows 2,5 over 43 patches, one patch reaches 3 to 10 patches,
not the whole patch axis (ROADMAP item 15).

``init_block`` reads ``model_dim``, ``learner`` and ``hidden_mult`` from
``ModelDims``; the forward functions take the plain dropout probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .rng import Rng
from .tensor import Tensor

if TYPE_CHECKING:
    from .model import ModelDims


@dataclass
class DclBlock:
    """Learner parameters for one window size."""

    window: int
    params: dict[str, Tensor] = field(default_factory=dict)


def _uniform_init(rng: Rng, shape, fan_in: int) -> np.ndarray:
    # math.sqrt takes any int; np.sqrt fails on one past int64 (a window of
    # 2**63 in a config), and both round the same float the same way
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform_range(-bound, bound, shape)


def init_block(dims: ModelDims, window: int, rng: Rng) -> DclBlock:
    """Fresh learner parameters, uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    width = window * dims.model_dim
    block = DclBlock(window)
    if dims.learner == "linear":
        block.params["w"] = Tensor(_uniform_init(rng, (width, width), width), requires_grad=True)
        block.params["b"] = Tensor(_uniform_init(rng, (width,), width), requires_grad=True)
    else:
        hidden = dims.hidden_mult * width
        block.params["w1"] = Tensor(_uniform_init(rng, (width, hidden), width), requires_grad=True)
        block.params["b1"] = Tensor(_uniform_init(rng, (hidden,), width), requires_grad=True)
        block.params["w2"] = Tensor(_uniform_init(rng, (hidden, width), hidden), requires_grad=True)
        block.params["b2"] = Tensor(_uniform_init(rng, (width,), hidden), requires_grad=True)
    return block


def apply_learner(flat: Tensor, block: DclBlock) -> Tensor:
    """The block's affine if it holds ``w``, else its two-layer GELU MLP."""
    if "w" in block.params:
        return T.affine(flat, block.params["w"], block.params["b"])
    hidden = T.gelu(T.affine(flat, block.params["w1"], block.params["b1"]))
    return T.affine(hidden, block.params["w2"], block.params["b2"])


def block_forward(
    z: Tensor, block: DclBlock, dropout: float, train: bool, rng: Rng | None
) -> tuple[Tensor, Tensor]:
    """One encoder block; returns (residual output, pre-residual output)."""
    b, n, d = z.shape
    flat = T.window_partition(z, block.window)
    mixed = T.window_merge(apply_learner(flat, block), b, n, d)
    return T.dropout_add(mixed, z, dropout, rng, train), mixed


def encoder_forward(
    z: Tensor, blocks: list[DclBlock], dropout: float, train: bool, rng: Rng | None
) -> tuple[Tensor, Tensor]:
    """Run all blocks; returns (final output, last block's pre-residual).

    The pre-residual representation of the deepest block is what the
    alignment loss compares across a positive pair.
    """
    # no earlier block's pre-residual stays bound while a later block runs
    for block in blocks[:-1]:
        z = block_forward(z, block, dropout, train, rng)[0]
    return block_forward(z, blocks[-1], dropout, train, rng)
