"""The environment block recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess

import numpy as np

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _git_sha(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unavailable"
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def _source_sha(root: str) -> str:
    """Digest of the decop sources, which identifies code outside git too."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "decop", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _blas() -> tuple[str, str]:
    """BLAS name and version, and its thread count as the library reports it."""
    config = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    name = f"{config.get('name', 'unknown')}-{config.get('version', '')}".rstrip("-")
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*blas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return name, str(fn())
    return name, os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def describe(root: str, data_seed: int, train_seed: int) -> dict[str, object]:
    blas, threads = _blas()
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _source_sha(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "data_seed": data_seed,
        "train_seed": train_seed,
    }
