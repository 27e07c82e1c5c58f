"""No module of the package imports a name it never uses.

`__init__.py` is exempt: its imports are the package's public names.  A name
counts as used when it appears anywhere in the module as a bare name, the
root of an attribute chain, or inside a string annotation.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qatrigger"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import statement;
    `from __future__` imports bind no name."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [getattr(node, field) for node in ast.walk(tree)
                   for field in ("annotation", "returns") if getattr(node, field, None)]
    for part in (part for annotation in annotations for part in ast.walk(annotation)):
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            used |= used_names(ast.parse(part.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}" for name, line in imported_names(tree).items()
            if name not in used]


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("module", MODULES, ids=[path.stem for path in MODULES])
def test_every_imported_name_is_used(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_the_check_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from collections import Counter, deque\n"
        "from typing import Sequence\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return np.zeros(os.path.sep)\n"
        "def g(): return deque()\n"
    )
    assert unused_imports(source) == ["line 4: Counter"]
