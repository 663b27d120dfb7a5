"""References shared by the test modules: the full-grid nonlinear substep,
bit views of complex arrays and an FFT call counter.

Helpers, not fixtures: a test module imports them (`from conftest import
bits`), and pytest puts this directory on sys.path.
"""

import numpy as np
import scipy.fft

from nls.oracle import SubstepBlowupError


def reference_flow(values, model, dt):
    """The exact nonlinear substep on every node, as a chain of new arrays.

    With x = c |u|^alpha, c = alpha Im(kappa) dt, the factor is
    exp(log1p(x) (-1/alpha + i Re(kappa)/(alpha Im(kappa)))), the real
    power (1 + x)^(-1/alpha) at Re(kappa) = 0, and exp(i Re(kappa) dt
    |u|^alpha) at c = 0.  The same operations as oracle.nonlinear_flow, so
    the two agree bit for bit on the nodes the kernel evaluates.
    """
    al = model.alpha
    kr, ki = model.kappa.real, model.kappa.imag
    ma = (values.real**2 + values.imag**2) ** (al / 2.0)
    c = al * ki * dt
    if c == 0.0:
        return values * np.exp(1j * (kr * dt) * ma)
    x = ma * c
    if np.min(x) <= -1.0:
        raise SubstepBlowupError("bracket")
    if kr == 0.0:
        return values * (x + 1.0) ** (-1.0 / al)
    return values * np.exp(np.log1p(x) * complex(-1.0 / al, kr / (al * ki)))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def counted_ffts(monkeypatch):
    """Record the name of every scipy.fft.fftn / ifftn call from here on."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.fft, "fftn", counted(scipy.fft.fftn))
    monkeypatch.setattr(scipy.fft, "ifftn", counted(scipy.fft.ifftn))
    return calls
