"""No module in ``decop`` sorts to pick the k extreme values of a row.

The patch masks and both spectral-filter passes select with
``icm.lowest``, which owns the tie rule (toward the lower index). This
walks each module's syntax tree and reports every use of ``argsort``,
called or not, so the rule cannot be restated elsewhere.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "decop"


def argsort_uses(source: str) -> list[int]:
    """Line numbers of every ``argsort`` name or attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "argsort":
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "argsort":
            lines.append(node.lineno)
        elif isinstance(node, ast.alias) and node.name == "argsort":
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_finds_argsort():
    source = (
        "a = np.argsort(x)\n"
        "b = x.argsort(axis=1)\n"
        "from numpy import argsort\n"
        "c = np.sort(x)\n"
        "d = argsort(x)\n"
        "argsorted = 1\n"
        "e = 'argsort'\n"
    )
    assert argsort_uses(source) == [1, 2, 3, 5]


def test_no_module_calls_argsort():
    found = {p.name: argsort_uses(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name: lines for name, lines in found.items() if lines} == {}
