"""The package's structure: every import at module level, the chain
experiments independent of the Lyapunov module and of trajectory.csv's
columns, one function that forks child processes, and one that compares
states with the overflow guard."""

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


def test_cli_alone_derives_the_trajectory_columns():
    # montecarlo returns the chain; trajectory.csv's derived columns are
    # the writer's, in cli.
    names = {alias.name for node in ast.walk(parse("montecarlo.py"))
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    assert not names & {"region_codes", "frustrated_demand", "ramp_control"}


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


def test_only_command_writes_output_files():
    # Command bodies return their files; _command alone opens them, and
    # nothing in cli calls open().
    writers = {"atomic_file", "atomic_write_text", "open"}
    callers = {}
    for top in parse("cli.py").body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in writers:
                    callers.setdefault(name, set()).add(top.name)
    assert callers == {"atomic_file": {"_command"},
                       "atomic_write_text": {"_command"}}


def test_one_function_compares_the_overflow_guard():
    # Every function of src/ that compares a value with OVERFLOW_GUARD,
    # directly or through a local name bound to it: the guard rule is
    # written once.
    comparers = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(parse(path.name)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            guard = {"OVERFLOW_GUARD"}
            guard |= {target.id for node in ast.walk(fn)
                      if isinstance(node, ast.Assign)
                      and getattr(node.value, "id", None) == "OVERFLOW_GUARD"
                      for target in node.targets if isinstance(target, ast.Name)}
            if any(isinstance(node, ast.Compare)
                   and any(getattr(name, "id", None) in guard
                           for name in ast.walk(node))
                   for node in ast.walk(fn)):
                comparers.add(f"{path.stem}.{fn.name}")
    assert comparers == {"dynamics._first_beyond"}
