"""Checkpoint format: text manifest plus raw little-endian float32 payload.

Layout::

    DECOP-CKPT v2\n
    config <key>=<value>\n        (structural fields, fixed order)
    param <name> f32 <d0>x<d1>...\n   (one per parameter, saved order)
    END-HEADER\n
    <payload>                     (parameters concatenated, row-major f32)

Training math is float64; serialization narrows to float32. Loading
widens back, so save -> load -> save is byte-identical. Structural
fields must match the loading run's configuration exactly; channel
count is deliberately not structural (weights are channel independent).

Version 2 marks the head convention: task heads read the encoder output
standardized per patch. Version 1 does not record it, and v1 heads were
trained on the raw encoder output until the heads changed, so a v1 file
loads only when it holds no ``head.*`` parameters (pretrained
checkpoints).
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from .errors import CheckpointError
from .model import ModelDims, ModelState

MAGIC = "DECOP-CKPT v2"
V1_MAGIC = "DECOP-CKPT v1"

_STRUCTURAL = ("lookback", "patch_size", "stride", "model_dim", "windows", "learner", "hidden_mult")


def _dims_items(dims: ModelDims) -> list[tuple[str, str]]:
    out = []
    for key in _STRUCTURAL:
        value = getattr(dims, key)
        if key == "windows":
            value = ",".join(str(w) for w in value)
        out.append((key, str(value)))
    return out


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save(path: str, model: ModelState) -> None:
    params = model.all_parameters()
    header = [MAGIC]
    header += [f"config {k}={v}" for k, v in _dims_items(model.dims)]
    blobs = []
    for name, p in params.items():
        shape = "x".join(str(d) for d in p.data.shape) or "scalar"
        header.append(f"param {name} f32 {shape}")
        blobs.append(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    payload = ("\n".join(header) + "\nEND-HEADER\n").encode("utf-8") + b"".join(blobs)
    atomic_write_bytes(path, payload)


def _parse_shape(text: str, name: str, path: str) -> tuple[int, ...]:
    if text == "scalar":
        return ()
    dims = text.split("x")
    if not all(d.isascii() and d.isdigit() for d in dims):
        raise CheckpointError(f"{path}: parameter {name} has malformed shape {text!r}")
    return tuple(int(d) for d in dims)


def _parse_header(blob: bytes, path: str):
    marker = b"END-HEADER\n"
    cut = blob.find(marker)
    if cut < 0:
        raise CheckpointError(f"{path}: missing END-HEADER marker")
    try:
        lines = blob[:cut].decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: header is not UTF-8 text (byte {exc.start})") from None
    if not lines or lines[0] not in (MAGIC, V1_MAGIC):
        raise CheckpointError(f"{path}: not a {MAGIC} file")
    config: dict[str, str] = {}
    manifest: list[tuple[str, tuple[int, ...]]] = []
    for line in lines[1:]:
        kind, _, rest = line.partition(" ")
        if kind == "config" and "=" in rest:
            key, value = rest.split("=", 1)
            config[key] = value
        elif kind == "param" and rest.count(" ") >= 2:
            name, dtype, shape_text = rest.rsplit(" ", 2)
            if dtype != "f32":
                raise CheckpointError(f"{path}: unsupported dtype {dtype} for {name}")
            manifest.append((name, _parse_shape(shape_text, name, path)))
        else:
            raise CheckpointError(f"{path}: unexpected header line {line!r}")
    if lines[0] == V1_MAGIC and any(name.startswith("head.") for name, _ in manifest):
        raise CheckpointError(
            f"{path}: {V1_MAGIC} does not record whether its task heads read the encoder "
            "output standardized, as heads now do, so its predictions may not reproduce; "
            "fine-tune again to write a v2 checkpoint"
        )
    return config, manifest, blob[cut + len(marker):]


def check_structural(config: dict[str, str], dims: ModelDims, path: str) -> None:
    ours = dict(_dims_items(dims))
    mismatched = {k: (config.get(k), ours[k]) for k in ours if config.get(k) != ours[k]}
    if mismatched:
        detail = "; ".join(f"{k}: checkpoint={a!r} run={b!r}" for k, (a, b) in mismatched.items())
        raise CheckpointError(f"{path}: structural mismatch: {detail}")


def load(path: str, model: ModelState, require_heads: bool = False) -> None:
    """Load parameters into ``model``, enforcing structural compatibility.

    Head parameters present in the file are restored into ``model.heads``
    (created if missing); ``require_heads`` errors when the file has none.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    config, manifest, payload = _parse_header(blob, path)
    check_structural(config, model.dims, path)

    from .tensor import Tensor

    offset = 0
    restored: dict[str, np.ndarray] = {}
    for name, shape in manifest:
        end = offset + 4 * math.prod(shape)
        if end > len(payload):
            raise CheckpointError(f"{path}: payload truncated at parameter {name}")
        values = np.frombuffer(payload[offset:end], dtype="<f4").astype(np.float64).reshape(shape)
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: parameter {name} holds non-finite values")
        restored[name] = values
        offset = end
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} trailing payload bytes")

    own = model.all_parameters()
    head_names = [n for n in restored if n.startswith("head.")]
    if require_heads and not head_names:
        raise CheckpointError(f"{path}: checkpoint holds no task head parameters")
    for name, values in restored.items():
        if name.startswith("head.") and name not in own:
            model.heads[name.removeprefix("head.")] = Tensor(values, requires_grad=True)
            continue
        if name not in own:
            raise CheckpointError(f"{path}: unknown parameter {name}")
        if own[name].data.shape != values.shape:
            raise CheckpointError(
                f"{path}: parameter {name} has shape {values.shape}, model expects {own[name].data.shape}"
            )
        own[name].data[...] = values
    missing = [n for n in own if n not in restored and not n.startswith("head.")]
    if missing:
        raise CheckpointError(f"{path}: checkpoint is missing parameters: {missing}")
