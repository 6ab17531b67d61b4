"""Every name a package module imports with `from ... import` is used there,
and no package module imports numpy.

`__init__.py` is exempt from the first check: its imports are the public API
it re-exports.
"""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "minconic"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_from_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # a quoted annotation such as -> "ConicMatrix" names what it quotes
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for const in ast.walk(ann) if ann is not None else ():
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    quoted = ast.parse(const.value, mode="eval")
                    used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_from_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from typing import Iterable, Sequence\n\ndef f(x: Sequence) -> None:\n    pass\n"
    assert unused_from_imports(source) == ["line 1: Iterable"]


def imported_modules(source: str) -> list[str]:
    """The top-level package of every module that source imports."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module.split(".")[0])
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_does_not_import_numpy(path):
    assert "numpy" not in imported_modules(path.read_text())


def test_the_check_sees_a_numpy_import():
    source = "def f():\n    import numpy.linalg as la\n    from numpy import array\n"
    assert imported_modules(source) == ["numpy", "numpy"]
