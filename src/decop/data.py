"""CSV loading, splits, standardization, window sampling, and patching.

A dataset is one long multivariate series. Channels are processed
independently downstream: every training sample is a univariate look-back
window from a single channel, optionally paired with a forecast horizon
or a class label.

CSV contract: UTF-8 (a leading byte-order mark is ignored), comma
separated, one header row. A first column named ``date`` is ignored. A
column named ``label`` (anywhere) supplies per-row integer class labels
and is not a channel. Every other column is a numeric channel. No two
columns share a name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, ParseError, SizeError
from .rng import Rng

# z-score guard for constant channels
STD_FLOOR = 1e-8

# Largest magnitude a standardized value may have. IPN squares values and
# sums the squares over a look-back, so a larger one (a huge cell in a val
# or test row, scaled by the train statistics) could overflow float64
# inside the model; below it, a sum of up to 1e108 squares stays finite.
MAX_STANDARDIZED = 1e100

# fixed month-based split for the electricity-transformer corpora, by a name's first four letters
_ROWS_PER_MONTH = {"etth": 30 * 24, "ettm": 30 * 24 * 4}
_ETT_MONTHS = (12, 4, 4)


@dataclass
class DatasetSpec:
    """How to interpret a CSV on disk."""

    name: str
    path: str
    min_rows: int = 0
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)
    # a classify run needs a label column with labels in [0, classes); 0: none needed
    classes: int = 0


@dataclass
class Dataset:
    """A standardized multivariate series with split boundaries.

    ``values`` is T x M, z-scored per channel with statistics from the
    train rows only. ``boundaries`` = (train_end, val_end, test_end) as
    exclusive row indices; split s covers rows [prev boundary, boundary).
    """

    name: str
    values: np.ndarray
    boundaries: tuple[int, int, int]
    labels: np.ndarray | None = None

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def split_range(self, split: str) -> tuple[int, int]:
        train_end, val_end, test_end = self.boundaries
        ranges = {"train": (0, train_end), "val": (train_end, val_end), "test": (val_end, test_end)}
        if split not in ranges:
            raise ContractError(f"unknown split '{split}'")
        return ranges[split]


@dataclass
class WindowSample:
    """One univariate training sample."""

    x: np.ndarray
    y: np.ndarray | None = None


def n_patches_for(length: int, patch_size: int, stride: int) -> int:
    """Patch count for a window: floor((L - P) / S) + 2.

    The +2 accounts for the always-present end pad that completes the
    final patch by replicating the last value.
    """
    if not 0 < patch_size <= length:
        raise SizeError(f"patch size {patch_size} does not fit window length {length}")
    if not 0 < stride <= patch_size:
        raise ContractError(f"stride {stride} must be in (0, patch size {patch_size}]")
    return (length - patch_size) // stride + 2


def patchify_batch(xs: np.ndarray, patch_size: int, stride: int) -> np.ndarray:
    """Patch each row of a (B, L) batch into (B, N, P)."""
    length = xs.shape[1]
    n = n_patches_for(length, patch_size, stride)
    padded_len = (n - 1) * stride + patch_size
    padded = np.concatenate([xs, np.repeat(xs[:, -1:], padded_len - length, axis=1)], axis=1)
    return np.ascontiguousarray(sliding_window_view(padded, patch_size, axis=1)[:, ::stride])


def unpatchify_batch(patches: np.ndarray, stride: int, length: int) -> np.ndarray:
    """Invert :func:`patchify_batch` back to the first ``length`` points.

    The earliest covering patch wins overlaps, so patchify output inverts exactly.
    """
    batch, n, patch_size = patches.shape
    padded_len = (n - 1) * stride + patch_size
    if length > padded_len:
        raise ContractError(f"cannot recover {length} points from {padded_len} padded points")
    out = np.empty((batch, padded_len), dtype=np.float64)
    for i in range(n - 1, -1, -1):
        out[:, i * stride : i * stride + patch_size] = patches[:, i, :]
    return out[:, :length]


# ---------------------------------------------------------------------------
# loading


def _split_boundaries(n_rows: int, spec: DatasetSpec) -> tuple[int, int, int]:
    month = _ROWS_PER_MONTH.get(spec.name.lower()[:4])
    if month:
        train = _ETT_MONTHS[0] * month
        val = train + _ETT_MONTHS[1] * month
        test = val + _ETT_MONTHS[2] * month
        if n_rows < test:
            raise SizeError(
                f"{spec.name}: {n_rows} rows, but the fixed month protocol needs {test}"
            )
        return train, val, test
    r_train, r_val, _ = spec.ratios
    train = int(n_rows * r_train)
    val = train + int(n_rows * r_val)
    return train, val, n_rows


def split_columns(header: list[str], path: str) -> tuple[list[int], list[int]]:
    """Channel and label column indices of a CSV header row.

    A first column named ``date`` is neither; names compare trimmed and
    case-insensitively, and a name given twice is a ``ParseError``.
    """
    names = [name.strip().lower() for name in header]
    for j, name in enumerate(names):
        if name in names[:j]:
            raise ParseError(
                f"{path}: column {j + 1} repeats the name of column {names.index(name) + 1}: "
                f"{header[j].strip()!r}"
            )
    labels = [i for i, name in enumerate(names) if name == "label"]
    channels = [
        i for i, name in enumerate(names) if name != "label" and not (i == 0 and name == "date")
    ]
    return channels, labels


def load_csv(path: str, spec: DatasetSpec) -> Dataset:
    """Load, standardize, and split a dataset CSV.

    Blank lines are skipped, and errors name a row by its line in the
    file. Channel cells must be finite numbers and labels integers. With
    ``spec.classes`` set, a ``label`` column is required and every label
    must lie in ``[0, classes)``. The train split must hold a row, since its
    statistics standardize every channel, and no standardized value may
    exceed :data:`MAX_STANDARDIZED` in magnitude.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    numbered = [(lineno, ln) for lineno, ln in enumerate(lines, start=1) if ln != ""]
    if not numbered:
        raise ParseError(f"{path}: empty file")
    header = numbered[0][1].split(",")
    body = numbered[1:]
    channel_cols, label_cols = split_columns(header, path)
    if not channel_cols:
        raise ParseError(f"{path}: no channel columns")
    if spec.classes and not label_cols:
        raise ParseError(f"{path}: no 'label' column; a classify run needs one")

    n_rows = len(body)
    values = np.empty((n_rows, len(channel_cols)), dtype=np.float64)
    labels = np.empty(n_rows, dtype=np.int64) if label_cols else None
    for r, (lineno, line) in enumerate(body):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(f"{path}: row {lineno} has {len(cells)} cells, header has {len(header)}")
        for j, c in enumerate(channel_cols):
            try:
                values[r, j] = float(cells[c])
            except ValueError:
                raise ParseError(
                    f"{path}: row {lineno}, column '{header[c]}': not numeric: {cells[c]!r}"
                ) from None
        if labels is not None:
            cell = cells[label_cols[0]]
            try:
                label = float(cell)
                if not label.is_integer():
                    raise ValueError(cell)
                # an integral label beyond the int64 range overflows here
                labels[r] = label
            except (ValueError, OverflowError):
                raise ParseError(
                    f"{path}: row {lineno}, column 'label': not an integer: {cell!r}"
                ) from None
    finite = np.isfinite(values)
    if not finite.all():
        r, j = np.argwhere(~finite)[0]
        c = channel_cols[j]
        lineno, line = body[r]
        raise ParseError(
            f"{path}: row {lineno}, column '{header[c]}': not finite: {line.split(',')[c]!r}"
        )
    if spec.classes:
        outside = (labels < 0) | (labels >= spec.classes)
        if outside.any():
            r = int(np.argmax(outside))
            raise ParseError(
                f"{path}: row {body[r][0]}, column 'label': {labels[r]} is not a class in [0, {spec.classes})"
            )

    if spec.min_rows and n_rows < spec.min_rows:
        raise SizeError(f"{path}: {n_rows} usable rows, need at least {spec.min_rows}")

    boundaries = _split_boundaries(n_rows, spec)
    if boundaries[0] == 0:
        raise SizeError(
            f"{spec.name}: split 'train' has 0 of {n_rows} rows, but the channel statistics need one"
        )
    # a huge but finite cell can overflow the statistics or scale past
    # MAX_STANDARDIZED; that is reported once here, not as numpy warnings,
    # a silent channel or an overflow inside the model
    train_rows = values[: boundaries[0]]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train_rows.mean(axis=0)
        std = np.maximum(train_rows.std(axis=0), STD_FLOOR)
        standardized = (values - mean) / std
    bad = ~(np.isfinite(mean) & np.isfinite(std))
    if bad.any():
        j = int(np.argmax(bad))
        raise ParseError(
            f"{path}: column '{header[channel_cols[j]]}': too large to standardize in float64 "
            f"(train mean {mean[j]:.6g}, std {std[j]:.6g})"
        )
    over = np.abs(standardized) > MAX_STANDARDIZED
    if over.any():
        r, j = np.argwhere(over)[0]
        split = "train" if r < boundaries[0] else "val" if r < boundaries[1] else "test"
        c = channel_cols[j]
        lineno, line = body[r]
        raise ParseError(
            f"{path}: {split} split, row {lineno}, column '{header[c]}': too large to standardize: "
            f"{line.split(',')[c]!r} scales to {standardized[r, j]:.6g}, past {MAX_STANDARDIZED:g}"
        )
    return Dataset(spec.name, standardized, boundaries, labels)


# ---------------------------------------------------------------------------
# window sampling


def count_positions(ds: Dataset, lookback: int, horizon: int, split: str) -> int:
    start, end = ds.split_range(split)
    return max(0, (end - start) - (lookback + horizon) + 1)


def require_window(ds: Dataset, lookback: int, horizon: int, split: str) -> int:
    """Window positions in ``split``; a :class:`SizeError` if there is none."""
    n_pos = count_positions(ds, lookback, horizon, split)
    if n_pos == 0:
        start, end = ds.split_range(split)
        raise SizeError(
            f"{ds.name}: split '{split}' has {end - start} rows, but one window needs "
            f"lookback + horizon = {lookback + horizon}"
        )
    return n_pos


@dataclass
class Windows:
    """One split's windows in sampling order, each built when it is read.

    ``view``: the split's rows as (positions, channels, lookback + horizon)
    windows, not copied. Item i is the window at flat index ``order[i]`` =
    position * channels + channel. ``labels``: one per position, or None.
    Iteration reads items until ``order`` raises IndexError.
    """

    view: np.ndarray
    order: np.ndarray
    lookback: int
    labels: np.ndarray | None

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, i: int) -> WindowSample:
        position, channel = divmod(int(self.order[i]), self.view.shape[1])
        window = self.view[position, channel]
        y = window[self.lookback :] if window.shape[0] > self.lookback else None
        return WindowSample(window[: self.lookback], y)


def sample_windows(
    ds: Dataset,
    lookback: int,
    horizon: int,
    split: str,
    shuffle_rng: Rng | None = None,
) -> Windows:
    """All channel-independent windows fully inside one split.

    Position-major, channel-minor order; pass a stream to shuffle for
    training. ``horizon == 0`` yields look-back-only windows, with labels
    attached (taken at the window's last row) when the dataset has them.
    A split too short for one window is a :class:`SizeError`.
    """
    start, end = ds.split_range(split)
    n_pos = require_window(ds, lookback, horizon, split)
    view = sliding_window_view(ds.values[start:end], lookback + horizon, axis=0)
    n = n_pos * ds.n_channels
    order = shuffle_rng.permutation(n) if shuffle_rng is not None else np.arange(n)
    first = start + lookback - 1
    labels = ds.labels[first : first + n_pos] if ds.labels is not None and not horizon else None
    return Windows(view, order, lookback, labels)


def batches(windows: Windows, batch_size: int):
    """Yield consecutive batches, each gathered with one index into the view.

    Each batch is (x: (B, L), y: (B, F) or None, labels: (B,) or None);
    x and y are C-contiguous copies.
    """
    view, lookback = windows.view, windows.lookback
    for lo in range(0, len(windows), batch_size):
        position, channel = np.divmod(windows.order[lo : lo + batch_size], view.shape[1])
        x = view[position, channel, :lookback]
        y = view[position, channel, lookback:] if view.shape[2] > lookback else None
        labels = None if windows.labels is None else windows.labels[position]
        yield x, y, labels


# ---------------------------------------------------------------------------
# bundled synthetic data


def synthetic_sine(
    n_rows: int,
    channels: int,
    seed: int,
    periods: tuple[float, ...] = (24.0, 32.0, 48.0, 60.0),
    noise_scale: float = 0.2,
) -> np.ndarray:
    """Sinusoids with per-channel period/phase/amplitude plus Gaussian noise."""
    rng = Rng(seed).child("synthetic-sine")
    t = np.arange(n_rows, dtype=np.float64)
    out = np.empty((n_rows, channels), dtype=np.float64)
    for m in range(channels):
        period = periods[m % len(periods)]
        phase = rng.uniform() * 2.0 * np.pi
        amplitude = 0.8 + 0.4 * rng.uniform()
        noise = rng.normal(n_rows) * noise_scale * amplitude
        out[:, m] = amplitude * np.sin(2.0 * np.pi * t / period + phase) + noise
    return out


def synthetic_two_class(
    n_rows: int,
    channels: int,
    seed: int,
    segment: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Alternating fast/slow oscillation segments with per-row labels."""
    rng = Rng(seed).child("synthetic-two-class")
    t = np.arange(n_rows, dtype=np.float64)
    labels = ((np.arange(n_rows) // segment) % 2).astype(np.int64)
    out = np.empty((n_rows, channels), dtype=np.float64)
    for m in range(channels):
        phase = rng.uniform() * 2.0 * np.pi
        fast = np.sin(2.0 * np.pi * t / 8.0 + phase)
        slow = 0.4 * np.sin(2.0 * np.pi * t / 40.0 + phase)
        noise = rng.normal(n_rows) * 0.05
        out[:, m] = np.where(labels == 1, fast, slow) + noise
    return out, labels


def write_csv(path: str, values: np.ndarray, labels: np.ndarray | None = None) -> None:
    """Write a dataset CSV in the package's own input format."""
    channels = values.shape[1]
    header = ",".join([f"ch{m}" for m in range(channels)] + (["label"] if labels is not None else []))
    # one %-format per row: the same text as formatting each value with
    # f"{v:.12g}" and each label with str()
    row_format = ",".join(["%.12g"] * channels)
    rows = values.tolist()
    if labels is not None:
        row_format += ",%s"
        rows = [row + [label] for row, label in zip(rows, labels.tolist())]
    row_format += "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(row_format % tuple(row) for row in rows)
