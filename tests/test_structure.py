"""The package's structure: every import at module level, the chain
experiments independent of the Lyapunov module, and one function that
forks child processes."""

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


# The process calls behind forked children and their result files.
PROCESS_CALLS = {("os", "fork"), ("os", "waitpid"), ("os", "kill"),
                 ("tempfile", "TemporaryFile")}


def test_one_function_forks_children():
    # Every use of the calls above, and every from-import of them, by the
    # module-level function or class that holds it.
    owners = {}
    for path in sorted(SRC.glob("*.py")):
        for top in parse(path.name).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)):
                    used = {(node.value.id, node.attr)}
                elif isinstance(node, ast.ImportFrom):
                    used = {(node.module, alias.name) for alias in node.names}
                else:
                    continue
                for call in used & PROCESS_CALLS:
                    owners.setdefault(call, set()).add(owner)
    assert owners == {call: {"montecarlo.forked"} for call in PROCESS_CALLS}


def test_cli_does_not_import_tempfile():
    names = set()
    for node in ast.walk(parse("cli.py")):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    assert "tempfile" not in names
