"""Loading, splitting, windowing, and patch arithmetic."""

import numpy as np
import pytest

from decop.data import (
    Dataset,
    DatasetSpec,
    batches,
    count_positions,
    load_csv,
    n_patches_for,
    patchify,
    patchify_batch,
    sample_windows,
    split_columns,
    synthetic_sine,
    synthetic_two_class,
    unpatchify,
    unpatchify_batch,
    write_csv,
)
from decop.errors import ParseError, SizeError
from decop.rng import Rng


# ---------------------------------------------------------------------------
# patching


def test_patch_count_for_default_forecast_window():
    # L=512, P=S=12: floor(500/12) + 2 = 43 patches, last start 504 -> pad 4
    ps = patchify(np.arange(512.0), 12, 12)
    assert ps.n_patches == 43
    assert ps.pad_count == 4
    assert np.array_equal(ps.patches[-1], np.concatenate([np.arange(504.0, 512.0), [511.0] * 4]))


def test_patch_count_small_window():
    assert n_patches_for(100, 12, 12) == 9


def test_minimal_case_single_stride():
    ps = patchify(np.arange(5.0), 5, 5)
    assert ps.n_patches == 2
    assert ps.pad_count == 5
    assert np.array_equal(ps.patches[1], np.full(5, 4.0))


def test_patch_count_formula_randomized():
    rng = Rng(99)
    for _ in range(300):
        length = 1 + rng.randint_below(600)
        patch = 1 + rng.randint_below(length)
        stride = 1 + rng.randint_below(patch)
        ps = patchify(np.arange(float(length)), patch, stride)
        assert ps.n_patches == (length - patch) // stride + 2
        assert np.array_equal(unpatchify(ps, length), np.arange(float(length)))


def test_patchify_rejects_oversized_patch():
    with pytest.raises(SizeError):
        patchify(np.arange(4.0), 5, 1)


def test_batch_patchify_matches_single():
    xs = Rng(3).normal((4, 50))
    got = patchify_batch(xs, 7, 3)
    for b in range(4):
        assert np.array_equal(got[b], patchify(xs[b], 7, 3).patches)
    assert np.array_equal(unpatchify_batch(got, 3, 50), xs)


# ---------------------------------------------------------------------------
# loading


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_constant_channel_standardizes_to_zero(tmp_path):
    rows = "\n".join(["a,b"] + ["5.0,%f" % i for i in range(10)])
    ds = load_csv(_write(tmp_path, rows), DatasetSpec("toy", "x"))
    assert np.allclose(ds.values[:, 0], 0.0)
    assert ds.channel_std[0] >= 1e-8


def test_parse_error_names_row_and_column(tmp_path):
    lines = ["a,b"] + [f"{i},1" for i in range(3)] + ["oops,1"] + ["9,9"]
    with pytest.raises(ParseError, match="row 5"):
        load_csv(_write(tmp_path, "\n".join(lines)), DatasetSpec("toy", "x"))


def test_too_few_rows_is_a_size_error(tmp_path):
    rows = "\n".join(["a"] + [str(i) for i in range(10)])
    with pytest.raises(SizeError, match="at least 64"):
        load_csv(_write(tmp_path, rows), DatasetSpec("toy", "x", min_rows=64))


def test_date_column_ignored_and_label_column_split_out(tmp_path):
    text = "date,a,label\n" + "\n".join(f"2020-01-{i+1:02d},{i}.5,{i % 2}" for i in range(12))
    ds = load_csv(_write(tmp_path, text), DatasetSpec("toy", "x"))
    assert ds.n_channels == 1
    assert ds.labels is not None
    assert ds.labels.tolist() == [i % 2 for i in range(12)]


def test_split_columns_rule():
    assert split_columns(["Date", "a", " label ", "b"]) == ([1, 3], [2])
    # date counts only as the first column
    assert split_columns(["a", "date"]) == ([0, 1], [])


def test_ett_hourly_protocol_boundaries(tmp_path):
    # same shape as the public hourly transformer file: 17420 rows, 7 channels
    values = synthetic_sine(17420, 7, seed=1)
    path = tmp_path / "etth1.csv"
    write_csv(str(path), values)
    ds = load_csv(str(path), DatasetSpec("ETTh1", str(path)))
    assert ds.length == 17420
    assert ds.n_channels == 7
    assert ds.boundaries == (12 * 30 * 24, 16 * 30 * 24, 20 * 30 * 24)


def test_ratio_protocol_boundaries(tmp_path):
    values = synthetic_sine(1000, 2, seed=2)
    path = tmp_path / "other.csv"
    write_csv(str(path), values)
    ds = load_csv(str(path), DatasetSpec("other", str(path), ratios=(0.6, 0.2, 0.2)))
    assert ds.boundaries == (600, 800, 1000)


def test_standardization_uses_train_stats_only(tmp_path):
    values = np.concatenate([np.zeros((70, 1)), np.full((30, 1), 100.0)])
    path = tmp_path / "shift.csv"
    write_csv(str(path), values)
    ds = load_csv(str(path), DatasetSpec("shift", str(path)))
    assert np.allclose(ds.values[:70, 0], 0.0)
    assert (ds.values[70:, 0] > 1).all()


# ---------------------------------------------------------------------------
# windows


def _toy_dataset(n_rows=40, channels=2, boundaries=None):
    values = np.arange(n_rows * channels, dtype=np.float64).reshape(n_rows, channels)
    boundaries = boundaries or (n_rows, n_rows, n_rows)
    return Dataset("toy", values, boundaries, np.zeros(channels), np.ones(channels))


def test_exact_fit_split_yields_one_position_per_channel():
    ds = _toy_dataset(n_rows=12, channels=3)
    samples = sample_windows(ds, 8, 4, "train")
    assert len(samples) == 3
    assert [s.channel for s in samples] == [0, 1, 2]


def test_position_count_with_slack():
    ds = _toy_dataset(n_rows=12 + 9, channels=3)
    samples = sample_windows(ds, 8, 4, "train")
    assert len(samples) == 10 * 3


def test_zero_horizon_keeps_lookback_only():
    ds = _toy_dataset(n_rows=10, channels=1)
    ds.labels = np.arange(10)
    samples = sample_windows(ds, 6, 0, "train")
    assert all(s.y is None for s in samples)
    assert [s.label for s in samples] == [5, 6, 7, 8, 9]


def test_short_split_is_a_size_error():
    ds = _toy_dataset(n_rows=10, channels=1)
    with pytest.raises(SizeError, match=r"toy: split 'train' has 10 rows, .* = 12"):
        sample_windows(ds, 8, 4, "train")


def test_windows_never_cross_split_boundaries():
    ds = _toy_dataset(n_rows=30, channels=1, boundaries=(18, 24, 30))
    lookback, horizon = 4, 2
    for split in ("train", "val", "test"):
        lo, hi = ds.split_range(split)
        for s in sample_windows(ds, lookback, horizon, split):
            first, last = s.x[0], s.y[-1]
            assert lo <= first and last <= ds.values[hi - 1, 0]
            assert first >= ds.values[lo, 0]


def test_lookback_and_horizon_are_contiguous():
    ds = _toy_dataset(n_rows=20, channels=1)
    s = sample_windows(ds, 5, 3, "train")[0]
    assert np.array_equal(np.concatenate([s.x, s.y]), ds.values[:8, 0])


def test_training_shuffle_is_seeded():
    ds = _toy_dataset(n_rows=30, channels=2)
    a = sample_windows(ds, 5, 2, "train", Rng(5))
    b = sample_windows(ds, 5, 2, "train", Rng(5))
    c = sample_windows(ds, 5, 2, "train", Rng(6))
    key = lambda samples: [(s.channel, s.x[0]) for s in samples]
    assert key(a) == key(b)
    assert key(a) != key(c)


def test_batches_stack_shapes():
    ds = _toy_dataset(n_rows=20, channels=2)
    samples = sample_windows(ds, 5, 3, "train")
    got = list(batches(samples, 7))
    assert got[0][0].shape == (7, 5)
    assert got[0][1].shape == (7, 3)
    assert sum(x.shape[0] for x, _, _ in got) == len(samples)


def test_count_positions_matches_enumeration():
    ds = _toy_dataset(n_rows=25, channels=1, boundaries=(15, 20, 25))
    assert count_positions(ds, 6, 2, "train") == 8
    assert count_positions(ds, 6, 2, "val") == 0
    assert len(sample_windows(ds, 6, 2, "train")) == 8


def test_two_class_synthetic_has_balanced_enough_labels():
    values, labels = synthetic_two_class(512, 2, seed=5)
    assert values.shape == (512, 2)
    assert 0.4 < labels.mean() < 0.6
