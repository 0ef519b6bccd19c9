"""Every name a module of the package imports is used in that module.

No linter ships with the project, so this is its F401 check: each
src/signflow/*.py is parsed with `ast`, and a name bound by an import
must be read somewhere in the module, in code or in a string
annotation. An import statement marked `# noqa: F401` is a deliberate
re-export and is skipped, and so is the package's `__init__.py`, whose
imports are its public names.
"""

import ast
from pathlib import Path

import pytest

import signflow

MODULES = sorted(p for p in Path(signflow.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree: ast.Module, lines: list) -> dict:
    """{bound name: line} of every import not marked `# noqa: F401`."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            found[name] = node.lineno
    return found


def _read(tree: ast.Module) -> set:
    """Every name the module reads, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _read(ast.parse(ann.value, mode="eval"))
    return names


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the source never reads."""
    tree = ast.parse(source)
    read = _read(tree)
    return sorted((line, name) for name, line in
                  _imported(tree, source.splitlines()).items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .a import Used, Unused, Quoted\n"
              "from .b import Kept  # noqa: F401\n"
              "def f(x: 'Quoted') -> Used:\n"
              "    return os\n")
    assert unused_imports(source) == [(3, "Unused")]
