"""Frequency-filtered positive views and the instance alignment loss.

View generation: take the one-sided spectrum of each normalized window,
keep the globally salient bins (largest batch-mean amplitude), then drop
each instance's low-amplitude bins unless globally protected. Inverting
the masked spectrum yields a denoised twin of the window. This runs on
plain arrays, outside the gradient graph: the views are data. A spectrum
is the bare complex (B, L//2 + 1) array, so synthesis takes L as an
argument; the mask reads only ``keep_fraction`` and the spectrum's width.

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


def dft_forward(windows: np.ndarray) -> np.ndarray:
    """One-sided DFT of each row, (B, L//2 + 1) complex: X[k] = sum_t x[t] exp(-2 pi i k t / L)."""
    windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    length = windows.shape[1]
    if length < 2:
        raise ContractError(f"dft needs window length >= 2, got {length}")
    return np.fft.rfft(windows, axis=1)


def dft_inverse(coeffs: np.ndarray, length: int) -> np.ndarray:
    """Real length-``length`` signal from a one-sided spectrum, assuming conjugate symmetry.

    The imaginary parts of the DC and (even L) Nyquist bins are ignored.
    """
    return np.fft.irfft(coeffs, n=length, axis=1)


def build_fmask(coeffs: np.ndarray, keep_fraction: float) -> np.ndarray:
    """Binary keep-mask over bins [0, L//2) per window.

    Of the ``half = L // 2`` maskable bins, the global pass protects the
    ``int(keep_fraction * half)`` with the largest batch-mean amplitude
    everywhere. The instance pass drops each window's
    ``int((1 - keep_fraction) * half)`` smallest-amplitude bins unless
    protected. Ties resolve toward the lower bin index. Bin L//2 (present
    in the one-sided spectrum; the Nyquist bin for even L) is outside the
    maskable range and always survives.
    """
    half = coeffs.shape[1] - 1
    n_keep = int(keep_fraction * half)
    n_drop = int((1.0 - keep_fraction) * half)
    if n_keep == 0 and n_drop == half:
        raise ConfigError("filter would drop every bin; increase the keep fraction")
    amps = np.abs(coeffs[:, :half])
    batch_mean = amps.mean(axis=0)
    protected = np.zeros(half, dtype=bool)
    if n_keep:
        order = np.argsort(-batch_mean, kind="stable")
        protected[order[:n_keep]] = True
    mask = np.ones(amps.shape, dtype=np.float64)
    if n_drop:
        low = np.argsort(amps, axis=1, kind="stable")[:, :n_drop]
        rows = np.repeat(np.arange(amps.shape[0]), n_drop)
        cols = low.reshape(-1)
        droppable = ~protected[cols]
        mask[rows[droppable], cols[droppable]] = 0.0
    return mask


def apply_and_invert(coeffs: np.ndarray, mask: np.ndarray, length: int) -> np.ndarray:
    """Zero the masked bins and synthesize the denoised length-``length`` windows."""
    coeffs = coeffs.copy()
    coeffs[:, : mask.shape[1]] *= mask
    return dft_inverse(coeffs, length)


def generate_positive_views(windows: np.ndarray, keep_fraction: float) -> np.ndarray:
    """Denoised twin for each normalized (B, L) window in the batch."""
    coeffs = dft_forward(windows)
    return apply_and_invert(coeffs, build_fmask(coeffs, keep_fraction), np.shape(windows)[-1])


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
