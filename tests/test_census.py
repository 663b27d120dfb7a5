"""Census of the public surface: every public top-level function or class of
src/nls has a caller outside its own definition.

A caller is a name, an attribute or an imported name on some other line of
src/nls, or anything under perfbench/: its names, and the dotted strings its
tracer patches ("nls.solver", "nonlinear_flow", "nls.diagnostics:TraceRecorder").
Docstrings and comments are not callers.  Tests do not count: code that only
a test reaches has no run path.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nls"
PERFBENCH = ROOT / "perfbench"

# ROADMAP item 2 gives spectral_tail_fraction its run path (the resolution
# certificate); until then only the README and a test read it
EXEMPT = {"spectral_tail_fraction"}


def public_definitions() -> dict:
    """name -> (file, line) of every public top-level def or class in src/nls."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[node.name] = (path.name, node.lineno)
    return out


def referenced_names(paths, strings: bool) -> set:
    """Names, attributes and imported names in paths; with strings, also the
    parts of every string constant that is a dotted name (not prose)."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
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


def test_every_public_definition_has_a_caller():
    used = referenced_names(sorted(SRC.glob("*.py")), strings=False)
    used |= referenced_names(sorted(PERFBENCH.glob("*.py")), strings=True)
    unused = {
        name: where
        for name, where in public_definitions().items()
        if name not in used and name not in EXEMPT
    }
    assert not unused, f"public definitions with no caller outside tests: {unused}"


def test_exemptions_are_still_definitions():
    assert EXEMPT <= set(public_definitions())
