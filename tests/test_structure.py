"""The package's import structure: every import at module level, and the
chain experiments independent of the Lyapunov module."""

import ast
from pathlib import Path

import gridlab

SRC = Path(gridlab.__file__).parent


def parse(name):
    return ast.parse((SRC / name).read_text(), name)


def test_no_import_inside_a_function():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for fn in ast.walk(parse(path.name))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_montecarlo_imports_nothing_from_lyapunov():
    names = set()
    for node in ast.walk(parse("montecarlo.py")):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names
                         for part in alias.name.split("."))
    assert "lyapunov" not in names
