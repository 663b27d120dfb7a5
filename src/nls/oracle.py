"""Closed-form reduced dynamics: self-similar amplitude law and the exact
pointwise nonlinear flow.

The self-similar family u(t,x) = rho(t) exp(i|x|^2/(4(t+t0))) reduces, after
z = (t+t0)^{N/2} rho, to

    z' = i kappa (t+t0)^{-N alpha/2} |z|^alpha z,

whose modulus obeys |z(t)|^{-alpha} = |z(0)|^{-alpha} + alpha Im(kappa) W(t)
with W the weight integral below.  The same Bernoulli reduction with constant
weight solves u_t = i kappa |u|^alpha u exactly; that flow is the solver's
nonlinear substep and, at time W(t), the reduced trajectory.  The substep
skips the nodes it would move by less than rounding (the field's tail).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exponents import ModelParams


class SubstepBlowupError(ArithmeticError):
    """The exact nonlinear substep left its domain (bracket <= 0)."""


@dataclass(frozen=True)
class SelfSimilarParams:
    """Reduced-flow initial data: offset t0 > 0 and complex amplitude z0."""

    t0: float
    z0: complex
    model: ModelParams

    def __post_init__(self):
        if not 0 < self.t0 < math.inf:
            raise ValueError(f"t0 must be positive and finite, got {self.t0}")
        if not cmath.isfinite(self.z0):
            raise ValueError(f"z0 must be finite, got {self.z0}")


def weight_integral(model: ModelParams, t0: float, t: float) -> float:
    """Integral of (s+t0)^(-N alpha/2) over s in [0, t]; t may be math.inf."""
    if not t0 > 0:
        raise ValueError("t0 must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    g = 1.0 - model.dim * model.alpha / 2.0
    if math.isinf(t):
        if g >= 0.0:
            return math.inf
        return t0**g / -g
    if g == 0.0:
        return math.log1p(t / t0)
    a = g * math.log1p(t / t0)
    if a <= 1.0:  # (t+t0)^g - t0^g would cancel: expm1 keeps the digits
        return t0**g * math.expm1(a) / g
    return ((t + t0) ** g - t0**g) / g  # no overflow where t/t0 or e^a would


def _invert_weight_integral(model: ModelParams, t0: float, value: float) -> float:
    """Solve weight_integral(t) = value for t (value < weight_integral(inf)).

    Inversion is algebraic for every exponent; times beyond double range
    come back as math.inf.  With g = 1 - N alpha/2 the time is
    (t0^g + g value)^(1/g) - t0 = t0 expm1(y), y = log1p(g value t0^-g)/g;
    the second form keeps its digits where the first cancels (t <= (e-1) t0).
    """
    g = 1.0 - model.dim * model.alpha / 2.0
    try:
        if g == 0.0:
            return t0 * math.expm1(value)
        x = g * value * t0**-g
        if x <= -1.0:
            raise ValueError("value beyond the range of the weight integral")
        y = math.log1p(x) / g
        if y <= 1.0:
            return t0 * math.expm1(y)
        return (t0**g + g * value) ** (1.0 / g) - t0  # no overflow where e^y would
    except OverflowError:
        return math.inf


def blowup_time(p: SelfSimilarParams) -> Optional[float]:
    """Finite blowup time of |z|, or None if the reduced flow is global.

    Below the critical power the time is finite for every z0 but can exceed
    double range for tiny amplitudes; such times come back as math.inf, not
    None.
    """
    ki = p.model.kappa.imag
    if ki >= 0 or p.z0 == 0:
        return None
    c = abs(p.z0) ** (-p.model.alpha) / (p.model.alpha * (-ki))
    total = weight_integral(p.model, p.t0, math.inf)
    if c >= total:
        return None
    return _invert_weight_integral(p.model, p.t0, c)


def nonlinear_flow(
    values: np.ndarray, model: ModelParams, dt: float, overwrite_x: bool = False
) -> np.ndarray:
    """Exact flow of u_t = i kappa |u|^alpha u over time dt, elementwise.

    With x = c |u|^alpha, c = alpha Im(kappa) dt, u is multiplied by
    exp(log1p(x) (-1/alpha + i Re(kappa)/(alpha Im(kappa)))): modulus
    factor (1 + x)^(-1/alpha), the real power taken when Re(kappa) = 0,
    and phase increment Re(kappa)/(alpha Im(kappa)) log1p(x).  log1p keeps
    the digits of x that a log of the rounded bracket 1 + x loses.  When c
    is 0 (Im(kappa) = 0 or underflow) or the rate Re(kappa)/(alpha
    Im(kappa)) overflows, the factor is the increment's limit exp(i
    Re(kappa) dt |u|^alpha).  kappa = 0 is the identity and zero entries
    are fixed points.  Raises SubstepBlowupError, leaving values unchanged,
    if the bracket is nonpositive (x <= -1) anywhere.

    Returns a new C-contiguous complex128 array.  With overwrite_x (the
    scipy.fft idiom) a C-contiguous complex128 values is advanced and
    returned itself, and any other is copied first; the split-step chain
    passes the buffer its inverse FFT returned.  One real buffer holds
    |u|^2, then its powers; the complex exp's buffer is the window's size.

    The flow runs only on the active window: the flat C-order range from
    the first to the last node with |u|^2 >= floor = (2^-56/s)^(2/alpha),
    s = max(|c|, |kappa| dt).  Below the floor |x| <= 2^-56 (1 + rounding)
    < 2^-54, so the bracket rounds to exactly 1: at Re(kappa) = 0 the skip
    gives the full-grid result bit for bit, up to the sign of a zero part.
    Otherwise the modulus and phase exponents Im(kappa) dt |u|^alpha and
    Re(kappa) dt |u|^alpha are at most 2^-56 too, and the skip is exact to
    rounding.  A non-finite |u|^2 is active, and a floor that overflows (or
    s = 0) is inf.
    """
    values = np.array(
        values, dtype=np.complex128, order="C", copy=None if overwrite_x else True
    )
    al = model.alpha
    kr, ki = model.kappa.real, model.kappa.imag
    if kr == 0.0 and ki == 0.0:
        return values
    c = al * ki * dt  # x = c |u|^alpha
    # c == 0 is the phase increment's limit, and so is a rate
    # Re(kappa)/(alpha Im(kappa)) past double range: there |x| is below
    # 2^-1024 of the phase increment
    pure_phase = c == 0.0 or math.isinf(kr / (al * ki))
    # a Python float, so that 1/0 and overflow raise for any type of dt
    s = float(max(abs(c), abs(model.kappa * dt)))
    try:
        floor = (2.0**-56 / s) ** (2.0 / al)
    except (OverflowError, ZeroDivisionError):
        floor = math.inf
    m = np.square(values.real)
    m += np.square(values.imag)
    m = m.reshape(-1)
    # the window's ends are the first and last 0 byte of the mask: bytes
    # find/rfind scan from either end (argmin of a reversed view copies it)
    outside = (m < floor).tobytes()  # False at NaN: a non-finite node is active
    lo = outside.find(0)
    if lo < 0:  # every node is below the floor
        return values
    hi = outside.rfind(0) + 1
    del outside  # not held while the powers run
    u, m = values.reshape(-1)[lo:hi], m[lo:hi]  # a view: values is C-contiguous
    m **= al / 2.0  # |u|^alpha, exactly 0 at u = 0 since alpha > 0
    if pure_phase:
        phase = np.multiply(1j * (kr * dt), m)
        u *= np.exp(phase, out=phase)
        return values
    m *= c
    low = m.min()
    if low <= -1.0:
        raise SubstepBlowupError(
            f"nonlinear substep blowup: min bracket {1.0 + low:.3e} at dt={dt:.3e}"
        )
    if kr != 0.0:
        power = np.multiply(np.log1p(m, out=m), complex(-1.0 / al, kr / (al * ki)))
        u *= np.exp(power, out=power)
    else:  # kept real power: at alpha = 1 numpy's x**-1 fast path beats exp(-log1p(x))
        m += 1.0
        m **= -1.0 / al
        u *= m
    return values


def reduced_rhs(t: float, z: np.ndarray, p: SelfSimilarParams) -> np.ndarray:
    """Right-hand side of z' = i kappa (t+t0)^(-N alpha/2) |z|^alpha z.

    The sign is the one consistent with the modulus law (|z| grows when
    Im(kappa) < 0): substituting the self-similar ansatz into the PDE gives
    +i kappa.  State as (Re z, Im z); used by the independent
    adaptive-integrator cross-checks in the test suite.
    """
    zc = complex(z[0], z[1])
    w = (t + p.t0) ** (-p.model.dim * p.model.alpha / 2.0)
    dz = 1j * p.model.kappa * w * abs(zc) ** p.model.alpha * zc
    return np.array([dz.real, dz.imag])


def reduced_trajectory(p: SelfSimilarParams, t: float) -> complex:
    """Full complex z(t): the exact pointwise flow of u_t = i kappa |u|^alpha u
    from z0 over the reparametrized time W(t) = weight_integral(t).

    At or past the blowup time the flow's bracket fails: SubstepBlowupError.
    """
    W = weight_integral(p.model, p.t0, t)
    return complex(nonlinear_flow(np.array([p.z0]), p.model, W)[0])
