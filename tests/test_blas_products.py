"""No matrix product in ``src/decop`` hands OpenBLAS a whole activation.

OpenBLAS packs a product's streamed operand into per-thread buffers whose
touched pages stay resident for the life of the process, so every product
of an activation goes through ``tensor._matmul_rows``, which hands it over
in row slices of about 1 MiB. The one exception is the affine's weight
gradient ``xd.T @ g``: it sums over rows, so slicing it would change its
bits. This walks each module's syntax tree for ``@``, ``@=`` and the
BLAS-backed numpy products.
"""

import ast
import pathlib

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


def test_only_the_weight_gradient_is_one_whole_product():
    found = {
        path.name: products(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {
        "tensor.py": [("affine.backward", "xd.T @ g")]
    }
