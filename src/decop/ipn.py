"""Instance-wise patch normalization.

Each patch is normalized with statistics that blend its own mean and
variance against the whole window's, controlled by one learnable scalar:
blend 0 is pure instance normalization, blend 1 is pure per-patch
normalization. The blended variance can go negative for blends outside
[0, 1], so it is clamped at ``eps`` before use and the clamp events are
surfaced as a diagnostic counter.

All outputs are tensor-graph values: gradients flow to the blend
parameter through both normalization and patch-wise denormalization.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .errors import ContractError
from .tensor import Tensor

EPS = 1e-5


@dataclass
class NormStats:
    """Per-batch normalization statistics.

    Shapes, for a (B, N, P) patch batch over (B, L) windows:
    patch mean and variance (B, N); instance mean and variance (B, 1);
    blended mean (B, N); blended variance (B, N), clamped at ``eps``;
    ``clamp_count`` is the number of clamped entries in this batch.
    """

    patch_mean: Tensor
    patch_var: Tensor
    instance_mean: Tensor
    instance_var: Tensor
    mean: Tensor
    var: Tensor
    eps: float
    clamp_count: int


def compute_stats(patches: Tensor, windows: Tensor, blend: Tensor, eps: float = EPS) -> NormStats:
    """Blend patch-level and instance-level statistics.

    ``patches`` is (B, N, P) cut from the (B, L) ``windows``; instance
    statistics come from the raw windows so padding never skews them.
    Variances are population variances (divisor P and L).
    """
    patch_mean = T.mean_axis(patches, axis=2)
    centered = T.sub(patches, T.reshape(patch_mean, (*patch_mean.shape, 1)))
    patch_var = T.mean_axis(T.mul(centered, centered), axis=2)

    inst_mean = T.mean_axis(windows, axis=1, keepdims=True)
    inst_centered = T.sub(windows, inst_mean)
    inst_var = T.mean_axis(T.mul(inst_centered, inst_centered), axis=1, keepdims=True)

    one_minus = T.sub(Tensor(1.0), blend)
    mean = T.add(T.mul(one_minus, inst_mean), T.mul(blend, patch_mean))
    var_raw = T.add(T.mul(one_minus, inst_var), T.mul(blend, patch_var))
    clamp_count = int((var_raw.data <= eps).sum())
    var = T.clamp_min(var_raw, eps)
    return NormStats(patch_mean, patch_var, inst_mean, inst_var, mean, var, eps, clamp_count)


def normalize(patches: Tensor, stats: NormStats) -> Tensor:
    """Shift and scale each patch by its blended statistics."""
    mean = T.reshape(stats.mean, (*stats.mean.shape, 1))
    denom = T.sqrt(T.add(T.reshape(stats.var, (*stats.var.shape, 1)), Tensor(stats.eps)))
    return T.div(T.sub(patches, mean), denom)


def denormalize(values: Tensor, stats: NormStats, mode: str) -> Tensor:
    """Map normalized values back to the input scale.

    ``patchwise`` inverts :func:`normalize` per patch. ``instance`` uses
    the window-level statistics only, which is the inversion applied to
    forecast horizons whose patches never existed.
    """
    if mode == "patchwise":
        if values.shape[:2] != stats.mean.shape:
            raise ContractError(
                f"patchwise denormalize: values {values.shape} do not align with stats {stats.mean.shape}"
            )
        mean = T.reshape(stats.mean, (*stats.mean.shape, 1))
        denom = T.sqrt(T.add(T.reshape(stats.var, (*stats.var.shape, 1)), Tensor(stats.eps)))
        return T.add(T.mul(values, denom), mean)
    if mode == "instance":
        if values.shape[0] != stats.instance_mean.shape[0]:
            raise ContractError(
                f"instance denormalize: batch {values.shape[0]} vs stats {stats.instance_mean.shape[0]}"
            )
        denom = T.sqrt(T.add(stats.instance_var, Tensor(stats.eps)))
        return T.add(T.mul(values, denom), stats.instance_mean)
    raise ContractError(f"unknown denormalize mode '{mode}'")
