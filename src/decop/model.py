"""Learnable state and the shared encode pipeline.

One :class:`ModelState` owns every parameter of the encoder side:
patch projection, positional table, normalization blend, mask token,
encoder blocks, and the patch reconstruction head. Task heads are
created at fine-tuning time and registered alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dcl, ipn
from . import tensor as T
from .data import n_patches_for, patchify_batch
from .dcl import _uniform_init
from .rng import Rng
from .tensor import Tensor


@dataclass
class ModelDims:
    """Structural fields; checkpoints must agree on all of them."""

    lookback: int
    patch_size: int
    stride: int
    model_dim: int
    windows: tuple[int, ...]
    learner: str
    hidden_mult: int = 1

    @property
    def n_patches(self) -> int:
        return n_patches_for(self.lookback, self.patch_size, self.stride)


class ModelState:
    """Named parameters plus the encoder's dims and dropout probability."""

    def __init__(self, dims: ModelDims, dropout: float, blend_init: float, rng: Rng):
        self.dims = dims
        self.dropout = dropout
        d, p, n = dims.model_dim, dims.patch_size, dims.n_patches
        init = rng.child("init")
        self.proj_w = Tensor(_uniform_init(init, (p, d), p), requires_grad=True)
        self.proj_b = Tensor(_uniform_init(init, (d,), p), requires_grad=True)
        self.pos = Tensor(init.uniform_range(-0.02, 0.02, (n, d)), requires_grad=True)
        self.mask_token = Tensor(init.uniform_range(-0.02, 0.02, (d,)), requires_grad=True)
        self.blend = Tensor(np.asarray(blend_init), requires_grad=True)
        self.blocks = [dcl.init_block(dims, w, init) for w in dims.windows]
        self.recon_w = Tensor(_uniform_init(init, (d, p), d), requires_grad=True)
        self.recon_b = Tensor(_uniform_init(init, (p,), d), requires_grad=True)
        self.heads: dict[str, Tensor] = {}

    # -- parameter registries -------------------------------------------------

    def encoder_parameters(self) -> dict[str, Tensor]:
        params = {
            "proj_w": self.proj_w,
            "proj_b": self.proj_b,
            "pos": self.pos,
            "blend": self.blend,
        }
        for i, block in enumerate(self.blocks):
            for key, tensor in block.params.items():
                params[f"block{i}.{key}"] = tensor
        return params

    def pretrain_parameters(self) -> dict[str, Tensor]:
        params = self.encoder_parameters()
        params["mask_token"] = self.mask_token
        params["recon_w"] = self.recon_w
        params["recon_b"] = self.recon_b
        return params

    def all_parameters(self) -> dict[str, Tensor]:
        return {**self.pretrain_parameters(), **self.finetune_parameters()}

    def finetune_parameters(self) -> dict[str, Tensor]:
        """Everything on the fine-tuning path: encoder plus task head."""
        params = self.encoder_parameters()
        for name, tensor in self.heads.items():
            params[f"head.{name}"] = tensor
        return params

    def add_head(self, task: str, size: int, rng: Rng) -> None:
        """Map the flattened patches (forecast) or one pooled patch (classify) onto ``size`` outputs."""
        width = self.dims.model_dim * (self.dims.n_patches if task == "forecast" else 1)
        init = rng.child("init-head")
        self.heads[f"{task}_w"] = Tensor(_uniform_init(init, (width, size), width), requires_grad=True)
        self.heads[f"{task}_b"] = Tensor(_uniform_init(init, (size,), width), requires_grad=True)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.all_parameters().items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, p in self.all_parameters().items():
            p.data[...] = snap[name]


# ---------------------------------------------------------------------------
# shared pipeline pieces


def normalize_windows(model: ModelState, windows: np.ndarray) -> tuple[Tensor, ipn.NormStats]:
    """Patch a (B, L) batch and normalize it; returns patches and stats."""
    raw = patchify_batch(windows, model.dims.patch_size, model.dims.stride)
    patches = Tensor(raw)
    stats = ipn.compute_stats(patches, Tensor(windows), model.blend)
    return ipn.normalize(patches, stats), stats


def encode_patches(
    model: ModelState,
    patches: Tensor,
    train: bool,
    rng: Rng | None,
    mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Project (optionally mask-substitute) and run the encoder stack.

    ``mask`` is (B, N) with 1 marking patches whose latents are swapped
    for the mask token. The swap happens after projection, so input
    statistics never see the mask pattern, and before the positional
    table, so masked positions keep their position tag.

    The first block's input comes from :func:`tensor.embed`, which sets
    its ``recompute``, so the first block's learner reruns the projection
    in backward instead of keeping its input (the recomputation of Chen
    et al., 2016).
    """
    fill = None if mask is None else model.mask_token
    # the first block's input goes unnamed, so this frame does not hold it
    # while the blocks run
    return dcl.encoder_forward(
        T.embed(patches, model.proj_w, model.proj_b, model.pos, mask, fill),
        model.blocks, model.dropout, train, rng,
    )
