"""Every module-level import in the package is read by its module, and
every private module-level name is read somewhere in the package.

No linter ships with the test environment, so the checks walk each
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
    read = names_read(tree)
    return sorted((line, name) for name, line in bound.items() if name not in read)


def names_read(tree) -> set:
    """The names a syntax tree loads, those in quoted annotations too."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                quoted = ast.walk(ast.parse(ann.value))
                read.update(n.id for n in quoted if isinstance(n, ast.Name))
    return read


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each private module-level name (one leading
    underscore: a def, a class or an assignment target) that no module
    among sources reads as a name, an attribute or an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        read |= names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, ast.Assign):
                bound = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                bound = [node.target.id]
            else:
                continue
            unread += [(module, node.lineno, name) for name in bound
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    return sorted(unread)


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


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a": (
            "__all__ = []\n"
            "_used = 1\n"
            "_unused = 2\n"
            "def _helper():\n"
            "    return _used\n"
            "class _Kept:\n"
            "    pass\n"
        ),
        "b": "from .a import _helper\nimport a\nx = a._Kept\n_unused = 3\n",
    }
    assert unread_private_names(sources) == [("a", 3, "_unused"), ("b", 4, "_unused")]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []
