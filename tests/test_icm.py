"""Frequency filtering against a naive transform oracle; alignment loss values."""

import numpy as np
import pytest

from conftest import naive_dft, naive_idft
from decop import icm
from decop import tensor as T
from decop.errors import ConfigError, ContractError
from decop.rng import Rng
from decop.tensor import Tape, Tensor


# ---------------------------------------------------------------------------
# transform


def test_impulse_has_flat_unit_spectrum():
    x = np.zeros((1, 32))
    x[0, 0] = 1.0
    assert np.allclose(np.abs(np.fft.rfft(x, axis=1)), 1.0, atol=1e-12)


def test_pure_cosine_concentrates_at_its_bin():
    length = 64
    t = np.arange(length)
    x = np.cos(2 * np.pi * t * 4 / length)[None, :]
    amp = np.abs(np.fft.rfft(x, axis=1))[0]
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
    assert np.abs(np.fft.rfft(x, axis=1) - naive_dft(x)).max() < 1e-8


@pytest.mark.parametrize("length", [2, 3, 16, 100, 511, 512])
def test_round_trip_recovers_signal(length):
    x = Rng(32).normal((2, length))
    assert np.abs(np.fft.irfft(np.fft.rfft(x, axis=1), n=length, axis=1) - x).max() < 1e-8


@pytest.mark.parametrize("length", [20, 21])  # odd L has no Nyquist bin
def test_inverse_matches_naive_synthesis_oracle(length):
    x = Rng(33).normal((1, length))
    coeffs = np.fft.rfft(x, axis=1)
    coeffs[0, [3, 7]] = 0.0
    ours = np.fft.irfft(coeffs, n=length, axis=1)
    assert np.abs(ours - naive_idft(coeffs, length)).max() < 1e-8


def test_linearity():
    rng = Rng(34)
    x, y = rng.normal((1, 48)), rng.normal((1, 48))
    lhs = np.fft.rfft(2.5 * x - 1.25 * y, axis=1)
    rhs = 2.5 * np.fft.rfft(x, axis=1) - 1.25 * np.fft.rfft(y, axis=1)
    assert np.abs(lhs - rhs).max() < 1e-9


@pytest.mark.parametrize("length", [16, 100, 511, 512])
def test_parseval(length):
    x = Rng(35).normal((1, length))[0]
    coeffs = np.fft.rfft(x)
    weights = np.full(len(coeffs), 2.0)
    weights[0] = 1.0
    if length % 2 == 0:
        weights[-1] = 1.0
    freq_energy = (weights * np.abs(coeffs) ** 2).sum() / length
    time_energy = (x**2).sum()
    assert abs(freq_energy - time_energy) / time_energy < 1e-6


# ---------------------------------------------------------------------------
# k-lowest selection


def _stable_lowest(values, k):
    """Oracle: the first k positions of a stable ascending sort, per row."""
    values = np.atleast_2d(values)
    mask = np.zeros(values.shape, dtype=bool)
    for r, row in enumerate(values):
        mask[r, np.argsort(row, kind="stable")[:k]] = True
    return mask


_rng = Rng(45)
SELECTION_CASES = [
    # rounded to one decimal, so rows hold many ties
    pytest.param(np.round(_rng.normal((7, 19)), 1), id="rounded"),
    pytest.param(np.full((3, 11), 0.25), id="all-equal"),
    # the global pass negates the batch-mean amplitude
    pytest.param(-np.round(_rng.uniform((5, 16)), 1), id="negative"),
    pytest.param(np.round(_rng.normal(23), 1), id="one-row"),
    # the patch masks' shape at the acceptance config
    pytest.param(np.round(_rng.uniform((256, 43)), 1), id="patch-masks"),
    # -0.0 and 0.0 compare equal, so they tie
    pytest.param(np.array([0.0, -0.0, 1.0, 0.0, -0.0, -1.0]), id="signed-zeros"),
]


@pytest.mark.parametrize("values", SELECTION_CASES)
def test_lowest_matches_a_stable_sort(values):
    n = values.shape[-1]
    for k in (0, 1, n // 2, n - 1, n):
        got = icm.lowest(values, k)
        assert got.shape == values.shape and got.dtype == bool
        assert np.array_equal(np.atleast_2d(got), _stable_lowest(values, k)), k
        assert (got.sum(axis=-1) == k).all()


# ---------------------------------------------------------------------------
# mask construction


def test_full_retention_is_identity_filter():
    x = Rng(36).normal((4, 64))
    mask = icm.build_fmask(np.fft.rfft(x, axis=1), 1.0)
    assert np.array_equal(mask, np.ones((4, 32)))
    assert np.abs(icm.generate_positive_views(x, 1.0) - x).max() < 1e-8


def test_default_retention_budget_for_long_windows():
    # L=512 has 256 maskable bins: keep 0.3 protects int(0.3*256) = 76 and
    # drops int(0.7*256) = 179 per window
    row = Rng(40).normal(512)
    mask = icm.build_fmask(np.fft.rfft(np.stack([row, row]), axis=1), 0.3)
    assert mask.shape == (2, 256)
    # identical rows: the batch mean is each row, so no dropped bin is protected
    assert (mask == 0.0).sum(axis=1).tolist() == [179, 179]

    # row 1 dominates the batch mean and protects bins 0..75, which are
    # row 0's smallest; row 0 keeps those and drops only 179 - 76
    rising = np.arange(1.0, 258.0)
    mask = icm.build_fmask(np.stack([rising, 1000.0 * rising[::-1]]), 0.3)
    assert (mask == 0.0).sum(axis=1).tolist() == [179 - 76, 179]
    assert np.array_equal(mask[0, :179], np.r_[np.ones(76), np.zeros(103)])


def test_toy_mask_sets_by_brute_force():
    # 3 maskable bins (L=6); two identical windows must agree everywhere
    length = 6
    t = np.arange(length)
    row = 2.0 * np.cos(2 * np.pi * t / 6) + 0.3 * np.cos(2 * np.pi * 2 * t / 6) + 0.05
    x = np.stack([row, row])
    spec = np.fft.rfft(x, axis=1)
    amps = np.abs(spec[:, :3])
    # keep 0.4: n_keep = floor(0.4*3) = 1, n_drop = floor(0.6*3) = 1

    # brute force on one row: protect the largest-mean bin, drop the
    # smallest per-row bin unless protected
    mean = amps.mean(axis=0)
    protect = int(np.argmax(mean))
    drop = int(np.argmin(amps[0]))
    expected = np.ones(3)
    if drop != protect:
        expected[drop] = 0.0

    mask = icm.build_fmask(spec, 0.4)
    assert np.array_equal(mask[0], expected)
    assert np.array_equal(mask[0], mask[1])

    single = icm.build_fmask(spec[:1], 0.4)
    assert np.array_equal(single[0], mask[0])


def test_set_sizes_and_disjointness():
    x = Rng(37).normal((5, 100))
    half, n_keep, n_drop = 50, 15, 35  # keep 0.3 of L // 2 = 50 maskable bins
    spec = np.fft.rfft(x, axis=1)
    mask = icm.build_fmask(spec, 0.3)
    mean_amp = np.abs(spec[:, :half]).mean(axis=0)
    protected = set(np.argsort(-mean_amp, kind="stable")[:n_keep].tolist())
    assert len(protected) == n_keep
    for r in range(5):
        dropped = set(np.flatnonzero(mask[r] == 0.0).tolist())
        assert len(dropped) <= n_drop
        assert dropped.isdisjoint(protected)


def _argsort_fmask(coeffs, keep_fraction):
    """Oracle: the filter as stable argsorts and an index scatter."""
    half = coeffs.shape[1] - 1
    n_keep, n_drop = int(keep_fraction * half), int((1.0 - keep_fraction) * half)
    amps = np.abs(coeffs[:, :half])
    protected = np.zeros(half, dtype=bool)
    protected[np.argsort(-amps.mean(axis=0), kind="stable")[:n_keep]] = True
    mask = np.ones(amps.shape)
    low = np.argsort(amps, axis=1, kind="stable")[:, :n_drop]
    rows = np.repeat(np.arange(amps.shape[0]), n_drop)
    keep = ~protected[low.reshape(-1)]
    mask[rows[keep], low.reshape(-1)[keep]] = 0.0
    return mask


@pytest.mark.parametrize("shape", [(256, 257), (512, 257), (37, 44), (187, 257)])
@pytest.mark.parametrize("keep_fraction", [0.3, 0.5])
def test_tie_heavy_spectrum_matches_the_argsort_filter(shape, keep_fraction):
    # real spectra rounded to one decimal: many equal amplitudes within a
    # window and equal batch means across bins
    coeffs = np.round(Rng(46).normal(shape), 1)
    assert len(np.unique(np.abs(coeffs))) < coeffs.size // 8
    assert np.array_equal(icm.build_fmask(coeffs, keep_fraction), _argsort_fmask(coeffs, keep_fraction))


def test_masking_the_only_active_bin_zeroes_the_signal():
    length = 64
    t = np.arange(length)
    x = np.cos(2 * np.pi * 4 * t / length)[None, :]
    coeffs = np.fft.rfft(x, axis=1)
    coeffs[0, 4] = 0.0
    assert np.abs(np.fft.irfft(coeffs, n=length, axis=1)).max() < 1e-8


def test_removed_component_is_nearly_zero_mean():
    # sine plus noise; the dropped low-amplitude bins act like white noise
    rng = Rng(38)
    length = 256
    t = np.arange(length)
    x = np.stack(
        [np.sin(2 * np.pi * t / 24 + rng.uniform() * 6.28) + 0.3 * rng.normal(length) for _ in range(16)]
    )
    denoised = icm.generate_positive_views(x, 0.3)
    removed = x - denoised
    ratio = np.abs(removed.mean(axis=1)) / x.std(axis=1)
    assert (ratio < 0.05).mean() >= 0.95


def test_window_too_short_to_filter_is_refused():
    # L = 1 leaves no maskable bin below L // 2
    with pytest.raises(ConfigError):
        icm.generate_positive_views(np.ones((2, 1)), 0.3)


# ---------------------------------------------------------------------------
# alignment loss


def _loss(anchor, pair):
    """The alignment loss of two (B, N, D) encodings, stacked as the encoder runs them."""
    return icm.contrastive_loss(T.concat_rows(anchor, pair))


def test_identical_pair_has_zero_loss():
    z = Tensor(Rng(40).normal((3, 5, 8)))
    assert abs(float(_loss(z, z).data)) < 1e-12


def test_antipodal_pair_has_loss_two():
    z = Tensor(Rng(41).normal((3, 5, 8)))
    flipped = Tensor(-z.data)
    assert abs(float(_loss(z, flipped).data) - 2.0) < 1e-12


def test_hand_cosine_value():
    # averaged vectors proportional to [1, 0] and [1, 1]: loss = 1 - 1/sqrt(2)
    a = Tensor(np.array([[[2.0, 0.0], [4.0, 0.0]]]))
    b = Tensor(np.array([[[3.0, 3.0], [1.0, 1.0]]]))
    loss = float(_loss(a, b).data)
    assert np.isclose(loss, 1.0 - 1.0 / np.sqrt(2.0), atol=1e-12)


def test_invariant_to_positive_rescaling():
    rng = Rng(42)
    a = Tensor(rng.normal((4, 6, 8)))
    b = Tensor(rng.normal((4, 6, 8)))
    base = float(_loss(a, b).data)
    scaled = float(_loss(Tensor(a.data * 7.5), Tensor(b.data * 0.02)).data)
    assert np.isclose(base, scaled, atol=1e-10)


def test_loss_bounds():
    rng = Rng(43)
    for _ in range(10):
        a, b = Tensor(rng.normal((2, 3, 4))), Tensor(rng.normal((2, 3, 4)))
        val = float(_loss(a, b).data)
        assert 0.0 <= val <= 2.0


def test_zero_norm_view_counts_as_orthogonal():
    a = Tensor(np.zeros((1, 2, 3)))
    b = Tensor(np.ones((1, 2, 3)))
    loss = float(_loss(a, b).data)
    assert np.isclose(loss, 1.0, atol=1e-9)


def test_gradients_flow_through_both_views():
    rng = Rng(44)
    a = Tensor(rng.normal((2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal((2, 3, 4)), requires_grad=True)
    with Tape() as tape:
        loss = _loss(a, b)
    tape.backward(loss)
    assert a.grad is not None and np.abs(a.grad).sum() > 0
    assert b.grad is not None and np.abs(b.grad).sum() > 0


def test_shape_mismatch_rejected():
    # an odd row count cannot split into anchors and pairs
    with pytest.raises(ContractError):
        icm.contrastive_loss(Tensor(np.ones((3, 2, 4))))
    with pytest.raises(ContractError):
        icm.contrastive_loss(Tensor(np.ones((2, 4))))
