"""Every module-level function and class of the package has a real use.

A definition that nothing uses is dead code. Each src/signflow/*.py is
parsed with `ast`; a module-level function or class counts as used when
its name is read (as a name, an attribute or a string annotation) or
imported in a package module other than `__init__.py`, outside its own
definition. An `__init__.py` import alone is a re-export, not a use. Two
readers outside the package count as well: the benchmark tracer, for the
functions named in perfbench/tracing.py's WRAPS, and the README's Python
API example, for its `sf.<name>` reads.
"""

import ast
import importlib.util
import re
from collections import Counter
from pathlib import Path

import signflow

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(Path(signflow.__file__).parent.glob("*.py"))


def wrapped_names() -> set:
    """The attributes perfbench/tracing.py's WRAPS replaces."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attr for _, attr, _, _ in module.WRAPS}


def readme_api_names() -> set:
    """The `sf.<name>` reads of README.md's Python API example."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Python API\s+```python\n(.*?)```", readme, re.S).group(1)
    return set(re.findall(r"\bsf\.(\w+)", block))


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


def unreferenced(sources: dict, outside: set = frozenset()) -> list:
    """(module, name) of every module-level function or class of the
    {module name: source} package that no module but `__init__` reads and
    that is not among the `outside` names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = Counter()
    for module, tree in trees.items():
        if module != "__init__":
            total += _references(tree)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # a recursive call is not a caller
                if (node.name not in outside
                        and total[node.name] - _references(node)[node.name] == 0):
                    found.append((module, node.name))
    return sorted(found)


def test_every_definition_is_referenced():
    outside = wrapped_names() | readme_api_names()
    assert unreferenced({p.stem: p.read_text() for p in SOURCES}, outside) == []


def test_outside_readers_are_found():
    assert {"baum_welch", "forward_log_likelihood", "train_pipeline"} <= wrapped_names()
    assert {"items_from_corpus", "train_pipeline", "evaluate_pipeline",
            "predict_item"} <= readme_api_names()


def test_check_finds_an_unreferenced_definition():
    sources = {
        "__init__": "from .a import public, exported, wrapped\n",
        "a": ("def public():\n    return _helper()\n"
              "def _helper():\n    return 1\n"
              "def exported():\n    return 2\n"
              "def wrapped():\n    return 3\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Quoted:\n    pass\n"
              "class Unused:\n    pass\n"),
        "b": ("from .a import public\n"
              "def f(x: 'Quoted'):\n    return public()\n"),
    }
    # an __init__ import is no use; an outside reader's name is
    assert unreferenced(sources, {"wrapped"}) == [
        ("a", "Unused"), ("a", "exported"), ("a", "recursive"), ("b", "f")]
