"""Frequency-filtered positive views and the instance alignment loss.

View generation: take the one-sided spectrum of each normalized window,
keep the globally salient bins (largest batch-mean amplitude), then drop
each instance's low-amplitude bins unless globally protected; both passes
select by order statistic (:func:`lowest`). Inverting the masked spectrum
yields a denoised twin of the window; the views are data, built outside
the gradient graph. The spectrum is numpy's one-sided real FFT, a complex
(B, L//2 + 1) array; synthesis is its inverse told L, since an odd and an
even length share that width. A window shorter than 2 has no maskable bin
and is refused.

The alignment loss compares the two encodings of a pair: average over the
patch axis, L2-normalize, and penalize 1 minus the mean cosine. There are
no negative pairs.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .tensor import Tensor

# below this norm an averaged representation counts as zero (orthogonal)
ZERO_NORM = 1e-12


def lowest(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the ``k`` lowest values along the last axis.

    Every value below the exact k-th order statistic, then its ties toward
    the lower index until ``k`` are taken: a stable sort's first ``k``.
    """
    if k == 0:
        return np.zeros(values.shape, dtype=bool)
    kth = np.partition(values, k - 1, axis=-1)[..., k - 1 : k]
    below, ties = values < kth, values == kth
    room = k - below.sum(axis=-1, keepdims=True)
    return below | (ties & (np.cumsum(ties, axis=-1) <= room))


def build_fmask(coeffs: np.ndarray, keep_fraction: float) -> np.ndarray:
    """Binary keep-mask over bins [0, L//2) per window.

    Of the ``half = L // 2`` maskable bins, the global pass protects the
    ``int(keep_fraction * half)`` with the largest batch-mean amplitude
    everywhere. The instance pass drops each window's
    ``int((1 - keep_fraction) * half)`` smallest-amplitude bins unless
    protected. Both pick bins with :func:`lowest` and its tie rule. Bin
    L//2 (present in the one-sided spectrum; the Nyquist bin for even L)
    is outside the maskable range and always survives.
    """
    half = coeffs.shape[1] - 1
    n_keep = int(keep_fraction * half)
    n_drop = int((1.0 - keep_fraction) * half)
    if n_keep == 0 and n_drop == half:
        raise ConfigError("filter would drop every bin; increase the keep fraction")
    amps = np.abs(coeffs[:, :half])
    protected = lowest(-amps.mean(axis=0), n_keep)
    return np.where(lowest(amps, n_drop) & ~protected, 0.0, 1.0)


def generate_positive_views(windows: np.ndarray, keep_fraction: float) -> np.ndarray:
    """Denoised twin for each normalized (B, L) window in the batch."""
    coeffs = np.fft.rfft(windows, axis=1)
    mask = build_fmask(coeffs, keep_fraction)
    coeffs[:, : mask.shape[1]] *= mask
    return np.fft.irfft(coeffs, n=windows.shape[1], axis=1)


def contrastive_loss(pre: Tensor) -> Tensor:
    """Alignment loss 1 - mean cosine between patch-averaged encodings.

    ``pre`` stacks the (B, N, D) encodings of both views under the same
    parameters, anchors in rows [0, B) and their pairs in rows [B, 2B);
    gradients flow through both halves. The stack is pooled and
    normalized once, then split. The value lies in [0, 2].
    """
    rows = pre.shape[0]
    if pre.data.ndim != 3 or rows % 2:
        raise ContractError(f"contrastive loss needs a (2B, N, D) stack of pairs, got {pre.shape}")
    pooled = T.mean_axis(pre, axis=1)
    norm = T.sqrt(T.sum_axis(T.mul(pooled, pooled), axis=1, keepdims=True))
    unit = T.div(pooled, T.clamp_min(norm, ZERO_NORM))
    half = rows // 2
    cosines = T.sum_axis(T.mul(T.take_rows(unit, 0, half), T.take_rows(unit, half, rows)), axis=1)
    return T.sub(Tensor(1.0), T.mean_all(cosines))
