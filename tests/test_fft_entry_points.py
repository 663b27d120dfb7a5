"""Every transform of src/nls goes through scipy.fft.fftn or scipy.fft.ifftn,
looked up on the scipy.fft module at call time.

perfbench/tracing.py times and counts FFTs by replacing exactly those two
module attributes for the length of a run.  A transform reached any other
way (a name bound at import by ``from scipy.fft import ...``, numpy's own
np.fft transforms, the 1-D scipy.fft.fft/ifft entry points or the private
_pocketfft module) would still compute the right numbers but vanish from
every FFT metric.  np.fft helpers that transform nothing (fftfreq, ...) stay
allowed.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nls"

TRACED = {"fftn", "ifftn"}
TRANSFORMS = {
    prefix + name
    for prefix in ("", "i", "r", "ir", "h", "ih")
    for name in ("fft", "fft2", "fftn")
}


def _dotted(node) -> str:
    """'a.b.c' for a Name/Attribute chain, '' for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def untraced_transforms(source: str) -> list:
    """(line, reason) for every transform the tracer would not see."""
    tree = ast.parse(source)
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {a.name for a in node.names}
            if module.startswith(("scipy.fft", "numpy.fft")) or (
                module in ("scipy", "numpy") and "fft" in names
            ):
                found.append((line, f"from {module} import binds at import"))
            if "_pocketfft" in module or any("_pocketfft" in n for n in names):
                found.append((line, "_pocketfft"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if "_pocketfft" in alias.name:
                    found.append((line, "_pocketfft"))
                elif alias.name.startswith(("scipy.fft", "numpy.fft")) and alias.asname:
                    found.append((line, f"import {alias.name} as {alias.asname}"))
        elif isinstance(node, ast.Attribute):
            name = _dotted(node)
            if "_pocketfft" in name.split("."):
                found.append((line, "_pocketfft"))
            module, _, attr = name.rpartition(".")
            if module == "scipy.fft":
                if attr not in TRACED:
                    found.append((line, f"{name} is not traced"))
                elif id(node) not in called:
                    found.append((line, f"{name} bound, not called"))
            elif module in ("np.fft", "numpy.fft") and attr in TRANSFORMS:
                found.append((line, f"{name} is not traced"))
    return found


@pytest.mark.parametrize(
    "source",
    [
        "from scipy.fft import fftn",
        "from scipy import fft",
        "from numpy.fft import ifft",
        "import scipy.fft as sf",
        "u = np.fft.fft(x)",
        "u = numpy.fft.ifftn(x)",
        "u = np.fft.rfft(x)",
        "u = scipy.fft.fft(x)",
        "u = scipy.fft.ifft(x)",
        "u = scipy.fft.rfftn(x)",
        "from scipy.fft import _pocketfft",
        "u = scipy.fft._pocketfft.c2c(x)",
        "import scipy.fft._pocketfft",
        "FFT = scipy.fft.fftn",
        "def f(x, t=scipy.fft.ifftn):\n    return t(x)",
    ],
)
def test_untraced_transforms_are_caught(source):
    assert untraced_transforms(source)


@pytest.mark.parametrize(
    "source",
    [
        "import scipy.fft\nu = scipy.fft.fftn(x)",
        "v = scipy.fft.ifftn(q, overwrite_x=True, norm='forward')",
        "k = np.fft.fftfreq(8, d=0.5)",
        "import scipy.integrate",
    ],
)
def test_traced_calls_pass(source):
    assert untraced_transforms(source) == []


def test_src_transforms_only_through_traced_entry_points():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if (hits := untraced_transforms(path.read_text()))
    }
    assert not found, f"transforms the benchmark's tracer cannot see: {found}"
