"""Layout rules for the package sources."""

import ast
from pathlib import Path

import klcograph

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
IMPORTS = (ast.Import, ast.ImportFrom)


def _sources():
    """(file name, parsed module) for every module of the package."""
    for path in sorted(Path(klcograph.__file__).parent.rglob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_import_inside_a_function():
    # an import inside a function hides a cycle between modules
    found = []
    for name, tree in _sources():
        for fn in ast.walk(tree):
            if isinstance(fn, FUNCTIONS):
                found += [
                    f"{name}:{node.lineno} in {getattr(fn, 'name', 'lambda')}"
                    for node in ast.walk(fn)
                    if isinstance(node, IMPORTS)
                ]
    assert not found, "imports inside functions: " + ", ".join(found)


def test_no_assert_statement_in_sources():
    # python -O strips assert statements, so no check may rely on one
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements: " + ", ".join(found)
