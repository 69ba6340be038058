"""Checkpoint format: text manifest plus raw little-endian float32 payload.

Layout::

    DECOP-CKPT v2\n
    config <key>=<value>\n        (structural fields, fixed order)
    param <name> f32 <d0>x<d1>...\n   (one per parameter, saved order)
    END-HEADER\n
    <payload>                     (parameters concatenated, row-major f32)

Training math is float64; serialization narrows to float32. Loading
widens back, so save -> load -> save is byte-identical. A header that
repeats a config key or a parameter name, or names a config key outside
the structural fields, does not load. Structural
fields must match the loading run's configuration exactly; channel
count is deliberately not structural (weights are channel independent).

Version 2 marks the head convention: task heads read the encoder output
standardized per patch. Only version 2 loads.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import fields

import numpy as np

from .errors import CheckpointError
from .model import ModelDims, ModelState

MAGIC = "DECOP-CKPT v2"

_STRUCTURAL = tuple(f.name for f in fields(ModelDims))


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
    if not lines or lines[0] != MAGIC:
        raise CheckpointError(f"{path}: not a {MAGIC} file")
    config: dict[str, str] = {}
    manifest: list[tuple[str, tuple[int, ...]]] = []
    for line in lines[1:]:
        kind, _, rest = line.partition(" ")
        if kind == "config" and "=" in rest:
            key, value = rest.split("=", 1)
            if key not in _STRUCTURAL:
                raise CheckpointError(f"{path}: header has unknown config key {key!r}")
            if key in config:
                raise CheckpointError(f"{path}: header repeats config key {key!r}")
            config[key] = value
        elif kind == "param" and rest.count(" ") >= 2:
            name, dtype, shape_text = rest.rsplit(" ", 2)
            if dtype != "f32":
                raise CheckpointError(f"{path}: unsupported dtype {dtype} for {name}")
            if any(name == seen for seen, _ in manifest):
                raise CheckpointError(f"{path}: header lists parameter {name} twice")
            manifest.append((name, _parse_shape(shape_text, name, path)))
        else:
            raise CheckpointError(f"{path}: unexpected header line {line!r}")
    return config, manifest, blob[cut + len(marker):]


def check_structural(config: dict[str, str], dims: ModelDims, path: str) -> None:
    ours = dict(_dims_items(dims))
    mismatched = {k: (config.get(k), ours[k]) for k in ours if config.get(k) != ours[k]}
    if mismatched:
        detail = "; ".join(f"{k}: checkpoint={a!r} run={b!r}" for k, (a, b) in mismatched.items())
        raise CheckpointError(f"{path}: structural mismatch: {detail}")


def load(path: str, model: ModelState, require_heads: bool = False) -> None:
    """Fill ``model``'s own parameters; structure, names and shapes must match.

    The file must hold every encoder parameter, and with ``require_heads``
    the model's task head too. A load that fails changes no parameter.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    config, manifest, payload = _parse_header(blob, path)
    check_structural(config, model.dims, path)

    offset = 0
    restored: dict[str, np.ndarray] = {}
    for name, shape in manifest:
        end = offset + 4 * math.prod(shape)
        if end > len(payload):
            raise CheckpointError(f"{path}: payload truncated at parameter {name}")
        # checked before widening: a signalling NaN sets numpy's invalid flag in the cast
        values = np.frombuffer(payload[offset:end], dtype="<f4")
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: parameter {name} holds non-finite values")
        restored[name] = values.astype(np.float64).reshape(shape)
        offset = end
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} trailing payload bytes")

    own = model.all_parameters()
    for name, values in restored.items():
        if name not in own:
            raise CheckpointError(f"{path}: unknown parameter {name}")
        if own[name].data.shape != values.shape:
            raise CheckpointError(
                f"{path}: parameter {name} has shape {values.shape}, model expects {own[name].data.shape}"
            )
    missing = [n for n in own if n not in restored and (require_heads or not n.startswith("head."))]
    if missing:
        raise CheckpointError(f"{path}: checkpoint is missing parameters: {missing}")
    for name, values in restored.items():
        own[name].data[...] = values
