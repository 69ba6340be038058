"""``decop.tensor`` raises no array to a power with ``**``.

numpy sends ``x**3`` to libm ``pow`` element by element, which costs tens
of times as much as ``x * x * x``. This walks the module's syntax tree and
allows ``**`` only between two numeric literals, which Python folds once.
"""

import ast
import pathlib

TENSOR = pathlib.Path(__file__).resolve().parents[1] / "src" / "decop" / "tensor.py"


def _is_number(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def array_powers(source: str) -> list[int]:
    """Line numbers of every ``**`` that is not between two numeric literals."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            if not (_is_number(node.left) and _is_number(node.right)):
                lines.append(node.lineno)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_finds_array_powers():
    source = "a = 2.0 ** -0.5\nb = x**3\nc = 3 ** x\nb **= 2\nd = -1 ** 2\ne = (x * x) * x\n"
    assert array_powers(source) == [2, 3, 4]


def test_tensor_has_no_array_power():
    assert array_powers(TENSOR.read_text(encoding="utf-8")) == []
