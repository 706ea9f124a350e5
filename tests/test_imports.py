"""Every module-level import in the package is read by its module.

No linter ships with the test environment, so the check walks each
module's syntax tree with the standard library's ast module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "carleman_lab"


def unused_imports(source: str) -> list:
    """(line, name) of each name a module-level import binds and the
    module never reads; annotations count as reads, quoted ones too."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                quoted = ast.walk(ast.parse(ann.value))
                read.update(n.id for n in quoted if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_finds_an_unused_import():
    source = (
        "import numpy as np\n"
        "from typing import Optional, Union\n"
        "import os.path\n"
        "def f(x: Optional[int]) -> 'np.ndarray':\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [(2, "Union")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []
