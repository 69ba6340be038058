"""Every name a decop module imports is used in that module, every
module-level function or class is referred to by the program or the
benchmark, not only by tests, and every field they set is read there.
No definition is exempt: one that only tests call goes.

No linter ships with the project, so this walks each module's syntax
tree instead.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "decop"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom x import a, b\nnp.zeros(a)\n"
    assert unused_imports(source) == ["os", "b"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def definitions(source: str) -> list[str]:
    """Names of the module-level functions and classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in ast.parse(source).body if isinstance(node, kinds)]


def references(source: str) -> set[str]:
    """Every name, attribute and imported name the source mentions."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def test_checker_finds_an_unreferenced_definition():
    # a is imported by name, b called, c read as an attribute
    source = "from m import a\nimport n\ndef a(): pass\ndef b(): pass\ndef c(): pass\nclass Lonely: pass\nb()\nn.c\n"
    assert [name for name in definitions(source) if name not in references(source)] == ["Lonely"]


def test_every_definition_is_referenced_outside_tests():
    package = [(PACKAGE / module).read_text(encoding="utf-8") for module in MODULES]
    bench = [p.read_text(encoding="utf-8") for p in (ROOT / "bench").glob("*.py")]
    referenced = set().union(*map(references, package + bench))
    defined = {name for source in package for name in definitions(source)}
    assert sorted(defined - referenced) == []


# as_dict reads every field of this dataclass through __dict__
READ_THROUGH_DICT = {"Metrics"}


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass"


def fields_of(source: str) -> list[tuple[str, str]]:
    """(class, field) for each dataclass field and each ``self.<name>`` set in ``__init__``."""
    found = []
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef) or cls.name in READ_THROUGH_DICT:
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and any(map(_is_dataclass, cls.decorator_list)):
                found.append((cls.name, node.target.id))
            elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                found += [
                    (cls.name, target.attr)
                    for target in ast.walk(node)
                    if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
                    and isinstance(target.value, ast.Name) and target.value.id == "self"
                ]
    return found


def attribute_reads(source: str) -> set[str]:
    """Every attribute name the source reads; ``x.a += 1`` only stores ``a``."""
    return {
        node.attr for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_checker_finds_an_unread_field():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\nclass A:\n    kept: int\n    dropped: int\n"
        "class B:\n    def __init__(self):\n        self.read = 0\n        self.counted = 0\n"
        "    def step(self, a):\n        self.counted += a.kept + self.read\n"
    )
    reads = attribute_reads(source)
    assert [f"{cls}.{name}" for cls, name in fields_of(source) if name not in reads] == [
        "A.dropped", "B.counted"
    ]


def test_every_field_is_read_outside_tests():
    package = [(PACKAGE / module).read_text(encoding="utf-8") for module in MODULES]
    bench = [p.read_text(encoding="utf-8") for p in (ROOT / "bench").glob("*.py")]
    read = set().union(*map(attribute_reads, package + bench))
    unread = [f"{cls}.{name}" for source in package for cls, name in fields_of(source) if name not in read]
    assert sorted(unread) == []
