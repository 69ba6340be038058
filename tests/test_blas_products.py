"""No matrix product in ``src/decop`` hands OpenBLAS a whole activation.

OpenBLAS packs a product's streamed operand into per-thread buffers whose
touched pages stay resident for the life of the process, so every product
goes through ``tensor._matmul_rows``, which hands it over in row slices of
about 1 MiB. That includes the affine's weight gradient ``xᵀ·g``, sliced
over the rows of ``xᵀ``, so each sum over the batch keeps its order. This
walks each module's syntax tree for ``@``, ``@=`` and the BLAS-backed
numpy products.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "decop"
PRODUCT_CALLS = {"matmul", "dot", "vdot", "inner", "tensordot"}
HELPER = "_matmul_rows"


def _is_product(node) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in PRODUCT_CALLS
    )


def products(source: str) -> list[tuple[str, str]]:
    """``(enclosing function, source text)`` of every product outside the helper."""
    found = []

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == HELPER and not scope:
                return
            scope = scope + [node.name]
        elif _is_product(node):
            found.append((".".join(scope), ast.get_source_segment(source, node)))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(ast.parse(source), [])
    return found


def test_checker_finds_products_outside_the_helper():
    source = (
        "def _matmul_rows(a, b, out):\n    np.matmul(a, b, out=out)\n"
        "def f(x, w):\n    y = x @ w\n    y @= w\n    return np.dot(x, w) + x.dot(w)\n"
        "def g(x):\n    def h(v):\n        return np.tensordot(v, v, 1)\n    return np.add(x, x)\n"
    )
    assert products(source) == [
        ("f", "x @ w"), ("f", "y @= w"), ("f", "np.dot(x, w)"), ("f", "x.dot(w)"),
        ("g.h", "np.tensordot(v, v, 1)"),
    ]


def test_every_product_goes_through_the_helper():
    found = {
        path.name: products(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


# the forecast head's weight gradient at the benchmark shape, the one the
# slicing rule cuts (into five slices of 550 or 551 rows of xᵀ), and the
# whole product, compared in a fresh interpreter so that the BLAS thread
# count takes effect
_WEIGHT_GRADIENT_BITS = """
import numpy as np
from decop import tensor as T
from decop.rng import Rng, fnv1a64

rng = Rng(fnv1a64("weight-gradient-slices"))
x = T.Tensor(rng.normal((256, 2752)), requires_grad=True)
w = T.Tensor(rng.normal((2752, 96)), requires_grad=True)
g = rng.normal((256, 96))
with T.Tape() as tape:
    T.affine(x, w, T.Tensor(np.zeros(96), requires_grad=True))
_, gw, _ = tape.entries[-1][2](g)
assert np.array_equal(gw.view(np.uint64), (x.data.T @ g).view(np.uint64))
"""


def test_sliced_weight_gradient_has_the_bits_of_the_whole_product_on_one_and_two_threads():
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC.parent))
        done = subprocess.run(
            [sys.executable, "-c", _WEIGHT_GRADIENT_BITS], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, (threads, done.stderr)
