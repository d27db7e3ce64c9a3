"""Layout rules for the package sources."""

import ast
from pathlib import Path

import klcograph

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
IMPORTS = (ast.Import, ast.ImportFrom)


def test_no_import_inside_a_function():
    # an import inside a function hides a cycle between modules
    found = []
    for path in sorted(Path(klcograph.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, FUNCTIONS):
                found += [
                    f"{path.name}:{node.lineno} in {getattr(fn, 'name', 'lambda')}"
                    for node in ast.walk(fn)
                    if isinstance(node, IMPORTS)
                ]
    assert not found, "imports inside functions: " + ", ".join(found)
