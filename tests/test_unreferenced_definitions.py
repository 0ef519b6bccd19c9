"""Every module-level function and class of the package has a reference.

A definition that nothing reads is dead code. Each src/signflow/*.py is
parsed with `ast`; a module-level function or class counts as used when
its name is read (as a name, an attribute or a string annotation) or
imported somewhere in the package outside its own definition. The
package's `__init__.py` is parsed too, so a public name it imports
counts as used.
"""

import ast
from collections import Counter
from pathlib import Path

import signflow

SOURCES = sorted(Path(signflow.__file__).parent.glob("*.py"))


def _references(node: ast.AST) -> Counter:
    """How often each name is read or imported under node."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name.split(".")[0]] += 1
        annotation = None
        if isinstance(sub, (ast.arg, ast.AnnAssign)):
            annotation = sub.annotation
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = sub.returns
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            found += _references(ast.parse(annotation.value, mode="eval"))
    return found


def unreferenced(sources: dict) -> list:
    """(module, name) of every module-level function or class of the
    {module name: source} package that nothing references."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = Counter()
    for tree in trees.values():
        total += _references(tree)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # a recursive call is not a caller
                if total[node.name] - _references(node)[node.name] == 0:
                    found.append((module, node.name))
    return sorted(found)


def test_every_definition_is_referenced():
    assert unreferenced({p.stem: p.read_text() for p in SOURCES}) == []


def test_check_finds_an_unreferenced_definition():
    sources = {
        "__init__": "from .a import public\n",
        "a": ("def public():\n    return _helper()\n"
              "def _helper():\n    return 1\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Quoted:\n    pass\n"
              "class Unused:\n    pass\n"),
        "b": ("from .a import public\n"
              "def f(x: 'Quoted'):\n    return public()\n"),
    }
    assert unreferenced(sources) == [("a", "Unused"), ("a", "recursive"), ("b", "f")]
