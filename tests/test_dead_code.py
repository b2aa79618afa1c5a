"""Every top-level function and class of the package, and every method of
its classes other than the dunder methods, is used somewhere: its name
appears as a name or an attribute in the package, the tests, the scripts
or the benchmark.  No check of the package is an `assert` statement,
which `python -O` removes."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions(tree):
    """(qualified name, bare name) of the top-level functions and classes
    and of the non-dunder methods of the top-level classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def unused_definitions():
    used = set()
    for _, tree in _trees("src", "tests", "scripts", "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(
        f"{path.name}:{qualified}"
        for path, tree in _trees("src/uqslcat")
        for qualified, name in _definitions(tree)
        if name not in used
    )


def test_no_dead_definitions():
    assert unused_definitions() == []


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path, tree in _trees("src/uqslcat")
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
