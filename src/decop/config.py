"""Flat key=value run configuration.

Files hold one ``key = value`` pair per line; ``#`` starts a comment and
blank lines are skipped; a key given twice is an error. Environment
variables are never consulted. The resolved configuration (defaults
filled in) is echoed to a file next to the run outputs so every consumed
setting is on record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .model import ModelDims


@dataclass
class RunConfig:
    dataset: str = ""
    dataset_name: str = "dataset"
    task: str = "forecast"
    lookback: int = 512
    horizon: int = 96
    classes: int = 2
    patch_size: int = 12
    stride: int = 12
    model_dim: int = 128
    windows: tuple[int, ...] = (2, 5)
    learner: str = "linear"
    hidden_mult: int = 1
    dropout: float = 0.1
    keep_fraction: float = 0.3
    contrastive_weight: float = 0.1
    blend_init: float = 0.01
    mask_ratio: float = 0.4
    lr: float = 1e-4
    epochs: int = 20
    batch_size: int = 64
    patience: int = 5
    seed: int = 42
    split_ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)
    out_dir: str = "runs/default"

    def dims(self) -> ModelDims:
        return ModelDims(**{f.name: getattr(self, f.name) for f in fields(ModelDims)})

    def validate(self) -> "RunConfig":
        def positive(name):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")

        for name in ("patch_size", "stride", "model_dim", "epochs", "batch_size", "lr"):
            positive(name)
        # a frequency-filtered view needs at least two points per window
        if self.lookback < 2:
            raise ConfigError(f"lookback must be >= 2, got {self.lookback}")
        if self.hidden_mult < 1:
            raise ConfigError(f"hidden_mult must be >= 1, got {self.hidden_mult}")
        if self.task not in ("forecast", "classify"):
            raise ConfigError(f"task must be forecast or classify, got '{self.task}'")
        if self.task == "forecast" and self.horizon <= 0:
            raise ConfigError(f"horizon must be positive for forecasting, got {self.horizon}")
        if self.task == "classify" and self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if self.patch_size > self.lookback:
            raise ConfigError(f"patch_size {self.patch_size} exceeds lookback {self.lookback}")
        if not 0 < self.stride <= self.patch_size:
            raise ConfigError(f"stride must be in (0, patch_size], got {self.stride}")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ConfigError(f"keep_fraction must be in (0, 1], got {self.keep_fraction}")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ConfigError(f"mask_ratio must be in [0, 1), got {self.mask_ratio}")
        if self.contrastive_weight < 0:
            raise ConfigError(f"contrastive_weight must be >= 0, got {self.contrastive_weight}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        ratios = self.split_ratios
        if len(ratios) != 3 or abs(sum(ratios) - 1.0) > 1e-9 or not all(0.0 <= r <= 1.0 for r in ratios):
            raise ConfigError(f"split_ratios must be three fractions in [0, 1] summing to 1: {ratios}")
        if not self.windows or any(w < 1 for w in self.windows):
            raise ConfigError(f"windows must be positive integers: {self.windows}")
        if list(self.windows) != sorted(self.windows):
            raise ConfigError(f"windows must be non-decreasing: {self.windows}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.learner not in ("linear", "mlp"):
            raise ConfigError(f"learner must be linear or mlp, got '{self.learner}'")
        # an empty out_dir would put a run's files in the working directory
        if not self.out_dir.strip():
            raise ConfigError("out_dir must name a directory, got an empty value")
        return self


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


# one parser per field annotation of RunConfig (annotations are strings
# under postponed evaluation); defaults come from the dataclass itself.
# An empty item of a tuple fails to parse, like any other bad item.
_PARSERS = {
    "int": int,
    "float": _finite,
    "str": str,
    "tuple[int, ...]": lambda raw: tuple(int(v) for v in raw.split(",")),
    "tuple[float, float, float]": lambda raw: tuple(_finite(v) for v in raw.split(",")),
}
_FIELD_PARSERS = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        return _FIELD_PARSERS[key](raw)
    except ValueError:
        raise ConfigError(f"field '{key}': cannot parse value {raw!r}") from None


def parse_config_text(text: str) -> RunConfig:
    values = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"line {lineno}: unknown field '{key}'")
        if key in first_line:
            raise ConfigError(f"line {lineno}: field '{key}' already given on line {first_line[key]}")
        first_line[key] = lineno
        values[key] = _parse_value(key, raw)
    return RunConfig(**values).validate()


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_config_text(fh.read())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def echo_config(cfg: RunConfig) -> str:
    """Every resolved field, one per line, in declaration order."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
