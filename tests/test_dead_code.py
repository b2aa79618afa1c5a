"""Every top-level function and class of the package is used somewhere:
its name appears as a name or an attribute in the package, the tests, the
scripts or the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def unused_definitions():
    used = set()
    for _, tree in _trees("src", "tests", "scripts", "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(
        f"{path.name}:{node.name}"
        for path, tree in _trees("src/uqslcat")
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    )


def test_no_dead_definitions():
    assert unused_definitions() == []
