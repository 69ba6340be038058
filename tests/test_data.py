"""Loading, splitting, windowing, and patch arithmetic."""

import warnings

import numpy as np
import pytest

from decop.data import (
    MAX_STANDARDIZED,
    Dataset,
    DatasetSpec,
    batches,
    count_positions,
    load_csv,
    n_patches_for,
    patchify_batch,
    sample_windows,
    split_columns,
    synthetic_sine,
    synthetic_two_class,
    unpatchify_batch,
    write_csv,
)
from decop.errors import ParseError, SizeError
from decop.rng import Rng


# ---------------------------------------------------------------------------
# patching


def test_patch_count_for_default_forecast_window():
    # L=512, P=S=12: floor(500/12) + 2 = 43 patches, last start 504 -> pad 4
    patches = patchify_batch(np.arange(512.0)[None], 12, 12)[0]
    assert patches.shape[0] == 43
    # the last patch ends in exactly four copies of the window's last value
    assert np.array_equal(patches[-1], np.concatenate([np.arange(504.0, 512.0), [511.0] * 4]))


def test_patch_count_small_window():
    assert n_patches_for(100, 12, 12) == 9


def test_minimal_case_single_stride():
    patches = patchify_batch(np.arange(5.0)[None], 5, 5)[0]
    assert patches.shape[0] == 2
    # the last patch is five copies of the window's last value
    assert np.array_equal(patches[1], np.full(5, 4.0))


def test_patch_count_formula_randomized():
    rng = Rng(99)
    for _ in range(300):
        length = 1 + int(rng.uniform() * 600)
        patch = 1 + int(rng.uniform() * length)
        stride = 1 + int(rng.uniform() * patch)
        patches = patchify_batch(np.arange(float(length))[None], patch, stride)
        assert patches.shape[1] == (length - patch) // stride + 2
        assert np.array_equal(unpatchify_batch(patches, stride, length)[0], np.arange(float(length)))


def test_patchify_rejects_oversized_patch():
    with pytest.raises(SizeError):
        patchify_batch(np.arange(4.0)[None], 5, 1)


def test_batch_patchify_matches_single():
    # L=50, P=7, S=3: 16 patches over 52 padded points, the last value twice
    xs = Rng(3).normal((4, 50))
    got = patchify_batch(xs, 7, 3)
    assert got.shape == (4, 16, 7) and got.flags["C_CONTIGUOUS"]
    for b in range(4):
        padded = np.concatenate([xs[b], [xs[b, -1]] * 2])
        for i in range(16):
            assert np.array_equal(got[b, i], padded[3 * i : 3 * i + 7])
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
    # a zero std would make the channel NaN; the floor makes it zeros
    assert np.allclose(ds.values[:, 0], 0.0)


def test_parse_error_names_row_and_column(tmp_path):
    lines = ["a,b"] + [f"{i},1" for i in range(3)] + ["oops,1"] + ["9,9"]
    with pytest.raises(ParseError, match="row 5"):
        load_csv(_write(tmp_path, "\n".join(lines)), DatasetSpec("toy", "x"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("ch0,ch1\n1,2\n\n3,4\n5,x\n", "row 5, column 'ch1': not numeric"),
        ("ch0,ch1\n\n1,2\n\n\n3\n", "row 6 has 1 cells"),
        ("\nch0,ch1\n1,2\n\n3,nan\n", "row 5, column 'ch1': not finite"),
        ("ch0,label\n1,0\n\n2,0.5\n", "row 4, column 'label': not an integer"),
    ],
    ids=["cell", "cell-count", "non-finite", "label"],
)
def test_errors_name_the_file_line_after_blank_lines(tmp_path, text, message):
    with pytest.raises(ParseError, match=message):
        load_csv(_write(tmp_path, text), DatasetSpec("toy", "x"))


def test_class_range_error_names_the_file_line_after_blank_lines(tmp_path):
    text = "ch0,label\n" + "\n".join(["1,0", "", "2,1", "", "3,2"]) + "\n"
    with pytest.raises(ParseError, match="row 6, column 'label': 2 is not a class"):
        load_csv(_write(tmp_path, text), DatasetSpec("toy", "x", classes=2))


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


def test_leading_byte_order_mark_is_ignored(tmp_path):
    text = "date,a,b\n" + "\n".join(f"2020-01-{i+1:02d},{i},{2 * i}" for i in range(12))
    plain = load_csv(_write(tmp_path, text), DatasetSpec("toy", "x"))
    marked = load_csv(_write(tmp_path, "\ufeff" + text, "bom.csv"), DatasetSpec("toy", "x"))
    assert marked.n_channels == 2
    assert np.array_equal(marked.values, plain.values)


def test_split_columns_rule():
    assert split_columns(["Date", "a", " label ", "b"], "x.csv") == ([1, 3], [2])
    # date counts only as the first column
    assert split_columns(["a", "date"], "x.csv") == ([0, 1], [])


@pytest.mark.parametrize(
    "header, message",
    [
        ("a,a", "column 2 repeats the name of column 1: 'a'"),
        ("x, A ,b,a", "column 4 repeats the name of column 2: 'a'"),
        ("date,label,b,LABEL", "column 4 repeats the name of column 2: 'LABEL'"),
        ("date,a,Date", "column 3 repeats the name of column 1: 'Date'"),
    ],
)
def test_repeated_column_name_is_a_parse_error(tmp_path, header, message):
    width = header.count(",") + 1
    text = header + "\n" + "\n".join(",".join(["1"] * width) for _ in range(12))
    with pytest.raises(ParseError, match=message):
        load_csv(_write(tmp_path, text), DatasetSpec("toy", "x"))


def _load_quietly(path):
    # a numpy RuntimeWarning raises here, so the check must come before one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return load_csv(path, DatasetSpec("toy", "x"))


@pytest.mark.parametrize("cell", ["1e200", "-1e300", "1.7e308"])
def test_huge_train_cell_is_a_parse_error_naming_the_channel(tmp_path, cell):
    # the train split's std overflows to inf, which used to scale the
    # whole channel to zeros
    rows = [f"{i}.5,{i}" for i in range(12)]
    rows[3] = f"3.5,{cell}"
    with pytest.raises(ParseError, match="column 'b': too large to standardize"):
        _load_quietly(_write(tmp_path, "a,b\n" + "\n".join(rows)))


def test_cell_that_overflows_when_scaled_is_a_parse_error(tmp_path):
    # finite statistics: a constant train channel has the std floor, so a
    # huge test-split cell scales past the float64 range; one that scales
    # to just under MAX_STANDARDIZED loads
    rows = [f"{i}.5,1.0" for i in range(12)]
    rows[11] = "11.5,1e301"
    with pytest.raises(ParseError, match="test split, row 13, column 'b': too large to standardize"):
        _load_quietly(_write(tmp_path, "a,b\n" + "\n".join(rows)))
    rows[11] = "11.5,9e91"
    values = _load_quietly(_write(tmp_path, "a,b\n" + "\n".join(rows))).values
    assert np.isfinite(values).all() and 8e99 < values[11, 1] <= MAX_STANDARDIZED


@pytest.mark.parametrize("row, split", [(8, "val"), (10, "test")])
def test_huge_cell_outside_the_train_split_is_a_parse_error(tmp_path, row, split):
    # the train statistics are finite and so is the scaled cell, but an IPN
    # variance over a look-back that holds it would overflow in the model
    rows = [f"{i}.5,{i}" for i in range(12)]
    rows[row] = f"{row}.5,1e200"
    match = f"{split} split, row {row + 2}, column 'b': too large to standardize: '1e200' scales to"
    with pytest.raises(ParseError, match=match):
        _load_quietly(_write(tmp_path, "a,b\n" + "\n".join(rows)))


def test_ett_hourly_protocol_boundaries(tmp_path):
    # same shape as the public hourly transformer file: 17420 rows, 7 channels
    values = synthetic_sine(17420, 7, seed=1)
    path = tmp_path / "etth1.csv"
    write_csv(str(path), values)
    ds = load_csv(str(path), DatasetSpec("ETTh1", str(path)))
    assert ds.values.shape[0] == 17420
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


def _csv_formatted_value_by_value(values, labels=None):
    # each value through an f-string, each label through str(): the format
    # write_csv keeps
    lines = [",".join([f"ch{m}" for m in range(values.shape[1])] + (["label"] if labels is not None else []))]
    for r in range(values.shape[0]):
        row = ",".join(f"{v:.12g}" for v in values[r])
        if labels is not None:
            row += f",{labels[r]}"
        lines.append(row)
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("with_labels", [False, True], ids=["values", "labels"])
def test_write_csv_bytes_match_the_value_by_value_format(tmp_path, with_labels):
    edge = np.array(
        [[-0.0, 1e-300, 1e300], [123456789012345.0, -1.0 / 3.0, 0.1], [5e-324, -1.7976931348623157e308, 2.5]]
    )
    values = np.concatenate([edge, synthetic_sine(50, 3, seed=6)])
    labels = np.arange(len(values), dtype=np.int64) % 3 - 1 if with_labels else None
    path = tmp_path / "out.csv"
    write_csv(str(path), values, labels)
    assert path.read_bytes() == _csv_formatted_value_by_value(values, labels)
    assert path.read_bytes().splitlines()[1] == b"-0,1e-300,1e+300" + (b",-1" if with_labels else b"")


def test_write_csv_bytes_of_both_bundled_kinds(tmp_path):
    path = tmp_path / "sine.csv"
    sine = synthetic_sine(400, 3, seed=7)
    write_csv(str(path), sine)
    assert path.read_bytes() == _csv_formatted_value_by_value(sine)
    values, labels = synthetic_two_class(400, 2, seed=7)
    write_csv(str(path), values, labels)
    assert path.read_bytes() == _csv_formatted_value_by_value(values, labels)


# ---------------------------------------------------------------------------
# windows


def _toy_dataset(n_rows=40, channels=2, boundaries=None):
    values = np.arange(n_rows * channels, dtype=np.float64).reshape(n_rows, channels)
    boundaries = boundaries or (n_rows, n_rows, n_rows)
    return Dataset("toy", values, boundaries)


def test_exact_fit_split_yields_one_position_per_channel():
    ds = _toy_dataset(n_rows=12, channels=3)
    samples = sample_windows(ds, 8, 4, "train")
    assert len(samples) == 3
    # row r of channel c holds r * channels + c, so x[0] names the channel
    assert [s.x[0] for s in samples] == [0.0, 1.0, 2.0]


def test_position_count_with_slack():
    ds = _toy_dataset(n_rows=12 + 9, channels=3)
    samples = sample_windows(ds, 8, 4, "train")
    assert len(samples) == 10 * 3


def test_zero_horizon_keeps_lookback_only():
    ds = _toy_dataset(n_rows=10, channels=1)
    ds.labels = np.arange(10)
    samples = sample_windows(ds, 6, 0, "train")
    assert all(s.y is None for s in samples)
    _, _, labels = next(batches(samples, len(samples)))
    assert labels.tolist() == [5, 6, 7, 8, 9]


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
    # every value of the toy series is distinct, so x[0] names the
    # window's position and channel
    key = lambda samples: [s.x[0] for s in samples]
    assert key(a) == key(b)
    assert key(a) != key(c)


def _reference_batches(ds, lookback, horizon, order, batch_size):
    """Train windows built one at a time from ``ds.values``, shuffled by ``order``, stacked."""
    n_pos = ds.split_range("train")[1] - lookback - horizon + 1
    windows = []
    for p in range(n_pos):
        for m in range(ds.n_channels):
            x = ds.values[p : p + lookback, m]
            y = ds.values[p + lookback : p + lookback + horizon, m]
            label = ds.labels[p + lookback - 1] if ds.labels is not None and not horizon else None
            windows.append((x, y, label))
    assert len(order) == len(windows)
    shuffled = [windows[i] for i in order]
    for lo in range(0, len(shuffled), batch_size):
        chunk = shuffled[lo : lo + batch_size]
        x = np.stack([w[0] for w in chunk])
        y = np.stack([w[1] for w in chunk]) if horizon else None
        labels = np.array([w[2] for w in chunk], dtype=np.int64) if chunk[0][2] is not None else None
        yield x, y, labels


def test_batches_stack_shapes():
    ds = _toy_dataset(n_rows=20, channels=2)
    samples = sample_windows(ds, 5, 3, "train")
    got = list(batches(samples, 7))
    assert got[0][0].shape == (7, 5)
    assert got[0][1].shape == (7, 3)
    assert sum(x.shape[0] for x, _, _ in got) == len(samples)

    # shuffled batches against a window-by-window reference: a forecast
    # case, and a labelled case without a horizon
    lookback = 6
    for horizon, labelled in ((3, False), (0, True)):
        ds = _toy_dataset(n_rows=40, channels=3, boundaries=(31, 35, 40))
        if labelled:
            ds.labels = (np.arange(40) * 7) % 5
        n = (31 - lookback - horizon + 1) * 3
        got = list(batches(sample_windows(ds, lookback, horizon, "train", Rng(5)), 7))
        want = list(_reference_batches(ds, lookback, horizon, Rng(5).permutation(n), 7))
        assert len(got) == len(want) == -(-n // 7)
        for (x, y, labels), (wx, wy, wlabels) in zip(got, want):
            assert np.array_equal(x, wx) and x.flags["C_CONTIGUOUS"]
            if horizon:
                assert np.array_equal(y, wy) and y.flags["C_CONTIGUOUS"]
            else:
                assert y is None
            if labelled:
                assert labels.dtype == np.int64 and np.array_equal(labels, wlabels)
            else:
                assert labels is None and wlabels is None


def test_count_positions_matches_enumeration():
    ds = _toy_dataset(n_rows=25, channels=1, boundaries=(15, 20, 25))
    assert count_positions(ds, 6, 2, "train") == 8
    assert count_positions(ds, 6, 2, "val") == 0
    assert len(sample_windows(ds, 6, 2, "train")) == 8


def test_two_class_synthetic_has_balanced_enough_labels():
    values, labels = synthetic_two_class(512, 2, seed=5)
    assert values.shape == (512, 2)
    assert 0.4 < labels.mean() < 0.6
