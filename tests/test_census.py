"""Census of src/nls: every top-level function or class, private helpers
included, is reachable from a run path.

The roots are `nls.cli:main` (the console script), the module-level
statements of src/nls (`TABLE`, `CRITERIA`, ...; imports are not uses) and
every name under perfbench/: its names, and the dotted strings its tracer
patches ("nls.solver", "nonlinear_flow", "nls.diagnostics:TraceRecorder").
A top-level definition that a reached one names is reached in turn.  Names
match by spelling alone, attributes included, so the scan can only
overcount what is reached.  Docstrings and comments are not uses.  Tests do
not count, and neither does dead code: a helper that only an unreached
definition calls has no run path either.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nls"
PERFBENCH = ROOT / "perfbench"
ENTRY_POINTS = {"main"}  # nls.cli:main

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_in(tree, strings: bool) -> set:
    """Names, attributes and imported names in tree; with strings, also the
    parts of every string constant that is a dotted name (not prose)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.:]*", node.value):  # not prose
                names.update(re.split(r"[.:]", node.value))
    return names


def referenced_names(paths, strings: bool) -> set:
    return set().union(*(names_in(ast.parse(p.read_text()), strings) for p in paths))


def unreached(paths, roots: set) -> dict:
    """name -> (file, line) of each top-level definition in paths that no
    chain of names leads to from roots or a module-level statement."""
    defs: dict = {}
    frontier = set(roots)
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, DEFINITIONS):
                defs.setdefault(node.name, []).append((path.name, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                frontier |= names_in(node, strings=False)
    reached = set()
    while frontier:
        name = frontier.pop()
        if name in defs and name not in reached:
            reached.add(name)
            for _, node in defs[name]:
                frontier |= names_in(node, strings=False)
    return {
        name: (file, node.lineno)
        for name, nodes in defs.items()
        for file, node in nodes
        if name not in reached
    }


def test_every_public_definition_has_a_caller():
    roots = ENTRY_POINTS | referenced_names(sorted(PERFBENCH.glob("*.py")), strings=True)
    unused = unreached(sorted(SRC.glob("*.py")), roots)
    assert not unused, f"definitions no run path reaches: {unused}"


def test_an_island_called_only_by_dead_code_is_unreached(tmp_path):
    # island has a caller, but only dead calls it and nothing reaches dead
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import os\n"
        "TABLE = {'run': run}\n"
        "def run():\n    return _helper()\n"
        "def _helper():\n    return 1\n"
        "def dead():\n    return island()\n"
        "def island():\n    return os.sep\n"
        "def main():\n    return 0\n"
        "def _orphan():\n    return 2\n"
    )
    assert unreached([mod], set()) == {
        "dead": ("mod.py", 7), "island": ("mod.py", 9), "main": ("mod.py", 11),
        "_orphan": ("mod.py", 13),
    }
    assert unreached([mod], ENTRY_POINTS | {"dead", "_orphan"}) == {}
