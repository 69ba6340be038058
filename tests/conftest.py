"""Shared oracles and helpers for the test suite."""

import numpy as np
import pytest

from decop.rng import Rng
from decop.tensor import Tape


def central_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f(x)
        flat[i] = keep - h
        down = f(x)
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, context: str = ""):
    """Spec tolerance: rel err < 1e-4, abs < 1e-7 where |analytic| < 1e-4."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    assert analytic.shape == numeric.shape
    small = np.abs(analytic) < 1e-4
    abs_err = np.abs(analytic - numeric)
    rel_err = abs_err / np.maximum(np.abs(analytic), 1e-300)
    ok = np.where(small, abs_err < 1e-7, rel_err < 1e-4)
    if not ok.all():
        worst = np.unravel_index(np.argmax(np.where(small, abs_err, rel_err)), ok.shape)
        raise AssertionError(
            f"{context}: gradient mismatch at {worst}: analytic={analytic[worst]:.3e} "
            f"numeric={numeric[worst]:.3e}"
        )


def grad_of(build_loss, params: dict):
    """Run backward once and return {name: grad array} for leaf params."""
    for p in params.values():
        p.grad = None
    with Tape() as tape:
        loss = build_loss()
    tape.backward(loss)
    return {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
            for name, p in params.items()}


def naive_dft(x: np.ndarray) -> np.ndarray:
    """Independent one-sided DFT oracle: per-bin exponential inner products."""
    x = np.asarray(x, dtype=np.float64)
    length = x.shape[-1]
    t = np.arange(length)
    bins = length // 2 + 1
    out = np.empty(x.shape[:-1] + (bins,), dtype=np.complex128)
    for k in range(bins):
        out[..., k] = x @ np.exp(-2j * np.pi * k * t / length)
    return out


def naive_idft(coeffs: np.ndarray, length: int) -> np.ndarray:
    """Synthesis oracle from a one-sided spectrum by explicit conjugate fill."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    full = np.zeros(coeffs.shape[:-1] + (length,), dtype=np.complex128)
    bins = length // 2 + 1
    full[..., :bins] = coeffs
    for k in range(1, (length + 1) // 2):
        full[..., length - k] = np.conj(coeffs[..., k])
    t = np.arange(length)
    out = np.empty(coeffs.shape[:-1] + (length,), dtype=np.complex128)
    for n in range(length):
        out[..., n] = full @ np.exp(2j * np.pi * np.arange(length) * n / length) / length
    return out.real


@pytest.fixture
def rng():
    return Rng(20240611)


@pytest.fixture
def pass_through_rules(monkeypatch):
    """Record every backward rule wrapped in a function that passes its
    incoming gradient on, as a tracer that times each rule does. The
    wrapper's parameter is one more reference to that gradient."""
    record = Tape.record

    def wrapped(tape, inputs, output, backward):
        def pass_through(g):
            return backward(g)

        record(tape, inputs, output, pass_through)

    monkeypatch.setattr(Tape, "record", wrapped)
