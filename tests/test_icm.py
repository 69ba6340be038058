"""Frequency filtering against a naive transform oracle; alignment loss values."""

import numpy as np
import pytest

from conftest import naive_dft, naive_idft
from decop import icm
from decop import tensor as T
from decop.errors import ContractError
from decop.icm import ContrastiveDiagnostics, FilterConfig, Spectrum
from decop.rng import Rng
from decop.tensor import Tape, Tensor


# ---------------------------------------------------------------------------
# transform


def test_impulse_has_flat_unit_spectrum():
    x = np.zeros((1, 32))
    x[0, 0] = 1.0
    spec = icm.dft_forward(x)
    assert np.allclose(spec.amplitude, 1.0, atol=1e-12)


def test_pure_cosine_concentrates_at_its_bin():
    length = 64
    t = np.arange(length)
    x = np.cos(2 * np.pi * t * 4 / length)[None, :]
    amp = icm.dft_forward(x).amplitude[0]
    assert np.isclose(amp[4], length / 2, atol=1e-9)
    others = np.delete(amp, 4)
    assert others.max() < 1e-9


def test_scalar_oracle_agreement_small_length():
    # fully scalar cross-check of the python oracle itself at L=16
    import cmath

    x = Rng(21).normal(16)
    want = [sum(x[t] * cmath.exp(-2j * cmath.pi * k * t / 16) for t in range(16)) for k in range(9)]
    got = naive_dft(x)
    assert np.allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("length", [2, 3, 16, 100, 511, 512])
def test_forward_matches_naive_oracle(length):
    x = Rng(31).normal((3, length))
    assert np.abs(icm.dft_forward(x).coeffs - naive_dft(x)).max() < 1e-8


@pytest.mark.parametrize("length", [2, 3, 16, 100, 511, 512])
def test_round_trip_recovers_signal(length):
    x = Rng(32).normal((2, length))
    spec = icm.dft_forward(x)
    assert np.abs(icm.dft_inverse(spec) - x).max() < 1e-8


@pytest.mark.parametrize("length", [20, 21])  # odd L has no Nyquist bin
def test_inverse_matches_naive_synthesis_oracle(length):
    x = Rng(33).normal((1, length))
    spec = icm.dft_forward(x)
    mask = np.ones(length // 2)
    mask[[3, 7]] = 0.0
    ours = icm.apply_and_invert(spec, mask[None, :])
    coeffs = spec.coeffs.copy()
    coeffs[0, : length // 2] *= mask
    assert np.abs(ours - naive_idft(coeffs, length)).max() < 1e-8


def test_linearity():
    rng = Rng(34)
    x, y = rng.normal((1, 48)), rng.normal((1, 48))
    lhs = icm.dft_forward(2.5 * x - 1.25 * y).coeffs
    rhs = 2.5 * icm.dft_forward(x).coeffs - 1.25 * icm.dft_forward(y).coeffs
    assert np.abs(lhs - rhs).max() < 1e-9


@pytest.mark.parametrize("length", [16, 100, 511, 512])
def test_parseval(length):
    x = Rng(35).normal((1, length))[0]
    coeffs = icm.dft_forward(x).coeffs[0]
    weights = np.full(len(coeffs), 2.0)
    weights[0] = 1.0
    if length % 2 == 0:
        weights[-1] = 1.0
    freq_energy = (weights * np.abs(coeffs) ** 2).sum() / length
    time_energy = (x**2).sum()
    assert abs(freq_energy - time_energy) / time_energy < 1e-6


# ---------------------------------------------------------------------------
# mask construction


def test_full_retention_is_identity_filter():
    x = Rng(36).normal((4, 64))
    cfg = FilterConfig(1.0, 64)
    assert cfg.n_keep == 32 and cfg.n_drop == 0
    spec = icm.dft_forward(x)
    mask = icm.build_fmask(spec, cfg)
    assert np.array_equal(mask, np.ones((4, 32)))
    assert np.abs(icm.apply_and_invert(spec, mask) - x).max() < 1e-8


def test_default_retention_budget_for_long_windows():
    cfg = FilterConfig(0.3, 512)
    assert cfg.half == 256
    assert cfg.n_keep == 76
    assert cfg.n_drop == 179


def test_toy_mask_sets_by_brute_force():
    # 3 maskable bins (L=6); two identical windows must agree everywhere
    length = 6
    t = np.arange(length)
    row = 2.0 * np.cos(2 * np.pi * t / 6) + 0.3 * np.cos(2 * np.pi * 2 * t / 6) + 0.05
    x = np.stack([row, row])
    spec = icm.dft_forward(x)
    amps = spec.amplitude[:, :3]
    cfg = FilterConfig(0.4, length)  # n_keep = floor(0.4*3) = 1, n_drop = floor(0.6*3) = 1
    assert cfg.n_keep == 1 and cfg.n_drop == 1

    # brute force on one row: protect the largest-mean bin, drop the
    # smallest per-row bin unless protected
    mean = amps.mean(axis=0)
    protect = int(np.argmax(mean))
    drop = int(np.argmin(amps[0]))
    expected = np.ones(3)
    if drop != protect:
        expected[drop] = 0.0

    mask = icm.build_fmask(spec, cfg)
    assert np.array_equal(mask[0], expected)
    assert np.array_equal(mask[0], mask[1])

    single = icm.build_fmask(Spectrum(spec.coeffs[:1], length), cfg)
    assert np.array_equal(single[0], mask[0])


def test_set_sizes_and_disjointness():
    x = Rng(37).normal((5, 100))
    cfg = FilterConfig(0.3, 100)
    spec = icm.dft_forward(x)
    mask = icm.build_fmask(spec, cfg)
    mean_amp = spec.amplitude[:, : cfg.half].mean(axis=0)
    protected = set(np.argsort(-mean_amp, kind="stable")[: cfg.n_keep].tolist())
    assert len(protected) == cfg.n_keep
    for r in range(5):
        dropped = set(np.flatnonzero(mask[r] == 0.0).tolist())
        assert len(dropped) <= cfg.n_drop
        assert dropped.isdisjoint(protected)


def test_masking_the_only_active_bin_zeroes_the_signal():
    length = 64
    t = np.arange(length)
    x = np.cos(2 * np.pi * 4 * t / length)[None, :]
    spec = icm.dft_forward(x)
    mask = np.ones((1, 32))
    mask[0, 4] = 0.0
    assert np.abs(icm.apply_and_invert(spec, mask)).max() < 1e-8


def test_removed_component_is_nearly_zero_mean():
    # sine plus noise; the dropped low-amplitude bins act like white noise
    rng = Rng(38)
    length = 256
    t = np.arange(length)
    x = np.stack(
        [np.sin(2 * np.pi * t / 24 + rng.uniform() * 6.28) + 0.3 * rng.normal(length) for _ in range(16)]
    )
    denoised = icm.generate_positive_views(x, FilterConfig(0.3, length))
    removed = x - denoised
    ratio = np.abs(removed.mean(axis=1)) / x.std(axis=1)
    assert (ratio < 0.05).mean() >= 0.95


def test_length_mismatch_between_config_and_spectrum():
    spec = icm.dft_forward(Rng(39).normal((1, 32)))
    with pytest.raises(ContractError):
        icm.build_fmask(spec, FilterConfig(0.5, 64))


# ---------------------------------------------------------------------------
# alignment loss


def test_identical_pair_has_zero_loss():
    z = Tensor(Rng(40).normal((3, 5, 8)))
    assert abs(float(icm.contrastive_loss(z, z).data)) < 1e-12


def test_antipodal_pair_has_loss_two():
    z = Tensor(Rng(41).normal((3, 5, 8)))
    flipped = Tensor(-z.data)
    assert abs(float(icm.contrastive_loss(z, flipped).data) - 2.0) < 1e-12


def test_hand_cosine_value():
    # averaged vectors proportional to [1, 0] and [1, 1]: loss = 1 - 1/sqrt(2)
    a = Tensor(np.array([[[2.0, 0.0], [4.0, 0.0]]]))
    b = Tensor(np.array([[[3.0, 3.0], [1.0, 1.0]]]))
    loss = float(icm.contrastive_loss(a, b).data)
    assert np.isclose(loss, 1.0 - 1.0 / np.sqrt(2.0), atol=1e-12)


def test_invariant_to_positive_rescaling():
    rng = Rng(42)
    a = Tensor(rng.normal((4, 6, 8)))
    b = Tensor(rng.normal((4, 6, 8)))
    base = float(icm.contrastive_loss(a, b).data)
    scaled = float(icm.contrastive_loss(Tensor(a.data * 7.5), Tensor(b.data * 0.02)).data)
    assert np.isclose(base, scaled, atol=1e-10)


def test_loss_bounds():
    rng = Rng(43)
    for _ in range(10):
        a, b = Tensor(rng.normal((2, 3, 4))), Tensor(rng.normal((2, 3, 4)))
        val = float(icm.contrastive_loss(a, b).data)
        assert 0.0 <= val <= 2.0


def test_zero_norm_view_counts_as_orthogonal():
    a = Tensor(np.zeros((1, 2, 3)))
    b = Tensor(np.ones((1, 2, 3)))
    diag = ContrastiveDiagnostics()
    loss = float(icm.contrastive_loss(a, b, diag).data)
    assert np.isclose(loss, 1.0, atol=1e-9)
    assert diag.zero_norm_pairs == 1


def test_gradients_flow_through_both_views():
    rng = Rng(44)
    a = Tensor(rng.normal((2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal((2, 3, 4)), requires_grad=True)
    with Tape() as tape:
        loss = icm.contrastive_loss(a, b)
    tape.backward(loss)
    assert a.grad is not None and np.abs(a.grad).sum() > 0
    assert b.grad is not None and np.abs(b.grad).sum() > 0


def test_shape_mismatch_rejected():
    with pytest.raises(ContractError):
        icm.contrastive_loss(Tensor(np.ones((1, 2, 3))), Tensor(np.ones((1, 2, 4))))
