"""CSV loading, splits, standardization, window sampling, and patching.

A dataset is one long multivariate series. Channels are processed
independently downstream: every training sample is a univariate look-back
window from a single channel, optionally paired with a forecast horizon
or a class label.

CSV contract: UTF-8, comma separated, one header row. A first column
named ``date`` is ignored. A column named ``label`` (anywhere) supplies
per-row integer class labels and is not a channel. Every other column is
a numeric channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ParseError, SizeError
from .rng import Rng

# z-score guard for constant channels
STD_FLOOR = 1e-8

# fixed month-based split protocol for the electricity-transformer corpora
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

    def protocol(self) -> str:
        low = self.name.lower()
        if low.startswith("etth"):
            return "etth"
        if low.startswith("ettm"):
            return "ettm"
        return "ratio"


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
    channel_mean: np.ndarray
    channel_std: np.ndarray
    labels: np.ndarray | None = None

    @property
    def length(self) -> int:
        return self.values.shape[0]

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

    channel: int
    x: np.ndarray
    y: np.ndarray | None = None
    label: int | None = None


@dataclass
class PatchSet:
    """Patched view of a look-back window plus the record to invert it."""

    patches: np.ndarray
    patch_size: int
    stride: int
    pad_count: int

    @property
    def n_patches(self) -> int:
        return self.patches.shape[0]


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


def patchify(x: np.ndarray, patch_size: int, stride: int) -> PatchSet:
    """Cut a window into N x P patches, replicating the last value to pad."""
    x = np.asarray(x, dtype=np.float64)
    length = x.shape[0]
    n = n_patches_for(length, patch_size, stride)
    padded_len = (n - 1) * stride + patch_size
    pad_count = padded_len - length
    padded = np.concatenate([x, np.full(pad_count, x[-1])])
    patches = np.empty((n, patch_size), dtype=np.float64)
    for i in range(n):
        patches[i] = padded[i * stride : i * stride + patch_size]
    return PatchSet(patches, patch_size, stride, pad_count)


def unpatchify(ps: PatchSet, length: int) -> np.ndarray:
    """Invert :func:`patchify` back to the first ``length`` points.

    Overlapping positions take the value from the earliest covering
    patch, so patches produced by ``patchify`` invert exactly.
    """
    padded_len = (ps.n_patches - 1) * ps.stride + ps.patch_size
    if length > padded_len:
        raise ContractError(f"cannot recover {length} points from {padded_len} padded points")
    out = np.empty(padded_len, dtype=np.float64)
    for i in range(ps.n_patches - 1, -1, -1):
        out[i * ps.stride : i * ps.stride + ps.patch_size] = ps.patches[i]
    return out[:length]


def patchify_batch(xs: np.ndarray, patch_size: int, stride: int) -> np.ndarray:
    """Patch each row of a (B, L) batch into (B, N, P)."""
    batch, length = xs.shape
    n = n_patches_for(length, patch_size, stride)
    padded_len = (n - 1) * stride + patch_size
    padded = np.concatenate([xs, np.repeat(xs[:, -1:], padded_len - length, axis=1)], axis=1)
    out = np.empty((batch, n, patch_size), dtype=np.float64)
    for i in range(n):
        out[:, i, :] = padded[:, i * stride : i * stride + patch_size]
    return out


def unpatchify_batch(patches: np.ndarray, stride: int, length: int) -> np.ndarray:
    """Invert :func:`patchify_batch`, earliest patch winning overlaps."""
    batch, n, patch_size = patches.shape
    padded_len = (n - 1) * stride + patch_size
    out = np.empty((batch, padded_len), dtype=np.float64)
    for i in range(n - 1, -1, -1):
        out[:, i * stride : i * stride + patch_size] = patches[:, i, :]
    return out[:, :length]


# ---------------------------------------------------------------------------
# loading


def _split_boundaries(n_rows: int, spec: DatasetSpec) -> tuple[int, int, int]:
    protocol = spec.protocol()
    if protocol in _ROWS_PER_MONTH:
        month = _ROWS_PER_MONTH[protocol]
        train = _ETT_MONTHS[0] * month
        val = train + _ETT_MONTHS[1] * month
        test = val + _ETT_MONTHS[2] * month
        if n_rows < test:
            raise SizeError(
                f"{spec.name}: {n_rows} rows, but the fixed month protocol needs {test}"
            )
        return train, val, test
    r_train, r_val, r_test = spec.ratios
    if not np.isclose(r_train + r_val + r_test, 1.0):
        raise ContractError(f"split ratios {spec.ratios} do not sum to 1")
    train = int(n_rows * r_train)
    val = train + int(n_rows * r_val)
    return train, val, n_rows


def split_columns(header: list[str]) -> tuple[list[int], list[int]]:
    """Channel and label column indices of a CSV header row.

    A first column named ``date`` is neither; names compare trimmed and
    case-insensitively.
    """
    names = [name.strip().lower() for name in header]
    labels = [i for i, name in enumerate(names) if name == "label"]
    channels = [
        i for i, name in enumerate(names) if name != "label" and not (i == 0 and name == "date")
    ]
    return channels, labels


def load_csv(path: str, spec: DatasetSpec) -> Dataset:
    """Load, standardize, and split a dataset CSV.

    Rows are numbered from 1 at the header for error reporting. Channel
    cells must be finite numbers and labels integers. With ``spec.classes``
    set, a ``label`` column is required and every label must lie in
    ``[0, classes)``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    lines = [ln for ln in lines if ln != ""]
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split(",")
    channel_cols, label_cols = split_columns(header)
    if not channel_cols:
        raise ParseError(f"{path}: no channel columns")
    if spec.classes and not label_cols:
        raise ParseError(f"{path}: no 'label' column; a classify run needs one")

    n_rows = len(lines) - 1
    values = np.empty((n_rows, len(channel_cols)), dtype=np.float64)
    labels = np.empty(n_rows, dtype=np.int64) if label_cols else None
    for r, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(f"{path}: row {r + 2} has {len(cells)} cells, header has {len(header)}")
        for j, c in enumerate(channel_cols):
            try:
                values[r, j] = float(cells[c])
            except ValueError:
                raise ParseError(
                    f"{path}: row {r + 2}, column '{header[c]}': not numeric: {cells[c]!r}"
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
                    f"{path}: row {r + 2}, column 'label': not an integer: {cell!r}"
                ) from None
    finite = np.isfinite(values)
    if not finite.all():
        r, j = np.argwhere(~finite)[0]
        c = channel_cols[j]
        raise ParseError(
            f"{path}: row {r + 2}, column '{header[c]}': not finite: {lines[r + 1].split(',')[c]!r}"
        )
    if spec.classes:
        outside = (labels < 0) | (labels >= spec.classes)
        if outside.any():
            r = int(np.argmax(outside))
            raise ParseError(
                f"{path}: row {r + 2}, column 'label': {labels[r]} is not a class in [0, {spec.classes})"
            )

    if spec.min_rows and n_rows < spec.min_rows:
        raise SizeError(f"{path}: {n_rows} usable rows, need at least {spec.min_rows}")

    boundaries = _split_boundaries(n_rows, spec)
    train_rows = values[: boundaries[0]]
    mean = train_rows.mean(axis=0)
    std = np.maximum(train_rows.std(axis=0), STD_FLOOR)
    standardized = (values - mean) / std
    return Dataset(spec.name, standardized, boundaries, mean, std, labels)


# ---------------------------------------------------------------------------
# window sampling


def count_positions(ds: Dataset, lookback: int, horizon: int, split: str) -> int:
    start, end = ds.split_range(split)
    return max(0, (end - start) - (lookback + horizon) + 1)


def sample_windows(
    ds: Dataset,
    lookback: int,
    horizon: int,
    split: str,
    shuffle_rng: Rng | None = None,
) -> list[WindowSample]:
    """All channel-independent windows fully inside one split.

    Position-major, channel-minor order; pass a stream to shuffle for
    training. ``horizon == 0`` yields look-back-only windows, with labels
    attached (taken at the window's last row) when the dataset has them.
    A split too short for one window is a :class:`SizeError`.
    """
    start, end = ds.split_range(split)
    n_pos = count_positions(ds, lookback, horizon, split)
    if n_pos == 0:
        raise SizeError(
            f"{ds.name}: split '{split}' has {end - start} rows, but one window needs "
            f"lookback + horizon = {lookback + horizon}"
        )
    samples = []
    for p in range(n_pos):
        lo = start + p
        for m in range(ds.n_channels):
            x = ds.values[lo : lo + lookback, m]
            y = ds.values[lo + lookback : lo + lookback + horizon, m] if horizon else None
            label = int(ds.labels[lo + lookback - 1]) if ds.labels is not None and not horizon else None
            samples.append(WindowSample(m, x, y, label))
    if shuffle_rng is not None:
        order = shuffle_rng.permutation(len(samples))
        samples = [samples[i] for i in order]
    return samples


def batches(samples: list[WindowSample], batch_size: int):
    """Yield consecutive batches as stacked arrays.

    Each batch is (x: (B, L), y: (B, F) or None, labels: (B,) or None).
    """
    for lo in range(0, len(samples), batch_size):
        chunk = samples[lo : lo + batch_size]
        x = np.stack([s.x for s in chunk])
        y = np.stack([s.y for s in chunk]) if chunk[0].y is not None else None
        labels = (
            np.array([s.label for s in chunk], dtype=np.int64)
            if chunk[0].label is not None
            else None
        )
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
    n_rows, channels = values.shape
    header = ",".join([f"ch{m}" for m in range(channels)] + (["label"] if labels is not None else []))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for r in range(n_rows):
            row = ",".join(f"{v:.12g}" for v in values[r])
            if labels is not None:
                row += f",{labels[r]}"
            fh.write(row + "\n")
