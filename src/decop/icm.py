"""Frequency-filtered positive views and the instance alignment loss.

View generation: take the one-sided spectrum of each normalized window,
keep the globally salient bins (largest batch-mean amplitude), then drop
each instance's low-amplitude bins unless globally protected. Inverting
the masked spectrum yields a denoised twin of the window. This runs on
plain arrays, outside the gradient graph: the views are data.

The alignment loss compares the two encodings of a pair: average over the
patch axis, L2-normalize, and penalize 1 minus the mean cosine. There are
no negative pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError
from .tensor import Tensor

# below this norm an averaged representation counts as zero (orthogonal)
ZERO_NORM = 1e-12


@dataclass
class FilterConfig:
    """Retention fraction and the bin budgets it induces for one window length.

    RunConfig.validate checks both values (``keep_fraction`` in (0, 1],
    ``lookback`` >= 2).
    """

    keep_fraction: float
    length: int

    @property
    def half(self) -> int:
        """Number of maskable bins: indices [0, L // 2)."""
        return self.length // 2

    @property
    def n_keep(self) -> int:
        return int(self.keep_fraction * self.half)

    @property
    def n_drop(self) -> int:
        return int((1.0 - self.keep_fraction) * self.half)


@dataclass
class Spectrum:
    """One-sided DFT coefficients per window: (B, L//2 + 1) complex."""

    coeffs: np.ndarray
    length: int

    @property
    def amplitude(self) -> np.ndarray:
        return np.abs(self.coeffs)


def dft_forward(windows: np.ndarray) -> Spectrum:
    """One-sided DFT of each row: X[k] = sum_t x[t] exp(-2 pi i k t / L)."""
    windows = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    length = windows.shape[1]
    if length < 2:
        raise ContractError(f"dft needs window length >= 2, got {length}")
    return Spectrum(np.fft.rfft(windows, axis=1), length)


def dft_inverse(spec: Spectrum) -> np.ndarray:
    """Real signal from a one-sided spectrum, assuming conjugate symmetry.

    The imaginary parts of the DC and (even L) Nyquist bins are ignored.
    """
    return np.fft.irfft(spec.coeffs, n=spec.length, axis=1)


def build_fmask(spec: Spectrum, cfg: FilterConfig) -> np.ndarray:
    """Binary keep-mask over bins [0, L//2) per window.

    Global pass: the ``n_keep`` bins with the largest batch-mean amplitude
    are protected everywhere. Instance pass: each window's ``n_drop``
    smallest-amplitude bins are dropped unless protected. Ties resolve
    toward the lower bin index. Bin L//2 (present in the one-sided
    spectrum; the Nyquist bin for even L) is outside the maskable range
    and always survives.
    """
    if cfg.length != spec.length:
        raise ContractError(f"filter config is for length {cfg.length}, spectrum has {spec.length}")
    if cfg.n_keep == 0 and cfg.n_drop == cfg.half:
        raise ConfigError("filter would drop every bin; increase the keep fraction")
    amps = spec.amplitude[:, : cfg.half]
    batch_mean = amps.mean(axis=0)
    protected = np.zeros(cfg.half, dtype=bool)
    if cfg.n_keep:
        order = np.argsort(-batch_mean, kind="stable")
        protected[order[: cfg.n_keep]] = True
    mask = np.ones(amps.shape, dtype=np.float64)
    if cfg.n_drop:
        low = np.argsort(amps, axis=1, kind="stable")[:, : cfg.n_drop]
        rows = np.repeat(np.arange(amps.shape[0]), cfg.n_drop)
        cols = low.reshape(-1)
        droppable = ~protected[cols]
        mask[rows[droppable], cols[droppable]] = 0.0
    return mask


def apply_and_invert(spec: Spectrum, mask: np.ndarray) -> np.ndarray:
    """Zero the masked bins and synthesize the denoised windows."""
    coeffs = spec.coeffs.copy()
    coeffs[:, : mask.shape[1]] *= mask
    return dft_inverse(Spectrum(coeffs, spec.length))


def generate_positive_views(windows: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """Denoised twin for each normalized window in the batch."""
    spec = dft_forward(windows)
    return apply_and_invert(spec, build_fmask(spec, cfg))


class ContrastiveDiagnostics:
    """Counts degenerate (zero-norm) averaged representations."""

    def __init__(self):
        self.zero_norm_pairs = 0


def contrastive_loss(
    z_anchor: Tensor, z_pair: Tensor, diagnostics: ContrastiveDiagnostics | None = None
) -> Tensor:
    """Alignment loss 1 - mean cosine between patch-averaged encodings.

    Inputs are (B, N, D) encodings of the two views under the same
    parameters; gradients flow through both. The value lies in [0, 2].
    """
    if z_anchor.shape != z_pair.shape:
        raise ContractError(f"contrastive pair shapes differ: {z_anchor.shape} vs {z_pair.shape}")

    def pooled_unit(z: Tensor) -> Tensor:
        pooled = T.mean_axis(z, axis=1)
        norm = T.sqrt(T.sum_axis(T.mul(pooled, pooled), axis=1, keepdims=True))
        if diagnostics is not None:
            diagnostics.zero_norm_pairs += int((norm.data < ZERO_NORM).sum())
        return T.div(pooled, T.clamp_min(norm, ZERO_NORM))

    cosines = T.sum_axis(T.mul(pooled_unit(z_anchor), pooled_unit(z_pair)), axis=1)
    return T.sub(Tensor(1.0), T.mean_all(cosines))
