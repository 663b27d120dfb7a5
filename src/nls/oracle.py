"""Closed-form reduced dynamics: self-similar amplitude law and the exact
pointwise nonlinear flow.

The self-similar family u(t,x) = rho(t) exp(i|x|^2/(4(t+t0))) reduces, after
z = (t+t0)^{N/2} rho, to

    z' = -i kappa (t+t0)^{-N alpha/2} |z|^alpha z,

whose modulus obeys |z(t)|^{-alpha} = |z(0)|^{-alpha} + alpha Im(kappa) W(t)
with W the weight integral below.  The same Bernoulli reduction with constant
weight solves u_t = i kappa |u|^alpha u exactly; that flow is the solver's
nonlinear substep.  With Im(kappa) != 0 the substep skips the nodes where
its bracket rounds to exactly 1 (the field's tail), which leaves them
unchanged, as the full evaluation would.
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


class PastBlowupError(ArithmeticError):
    """Amplitude requested at or beyond the blowup time."""


@dataclass(frozen=True)
class SelfSimilarParams:
    """Reduced-flow initial data: offset t0 > 0 and complex amplitude z0."""

    t0: float
    z0: complex
    model: ModelParams

    def __post_init__(self):
        if not self.t0 > 0:
            raise ValueError(f"t0 must be positive, got {self.t0}")
        if not cmath.isfinite(self.z0):
            raise ValueError(f"z0 must be finite, got {self.z0}")


def weight_integral(model: ModelParams, t0: float, t: float) -> float:
    """Integral of (s+t0)^(-N alpha/2) over s in [0, t]; t may be math.inf."""
    if not t0 > 0:
        raise ValueError("t0 must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    beta = model.dim * model.alpha / 2.0
    if math.isinf(t):
        if beta <= 1.0:
            return math.inf
        return t0 ** (1.0 - beta) / (beta - 1.0)
    if beta == 1.0:
        return math.log((t + t0) / t0)
    return ((t + t0) ** (1.0 - beta) - t0 ** (1.0 - beta)) / (1.0 - beta)


def _invert_weight_integral(model: ModelParams, t0: float, value: float) -> float:
    """Solve weight_integral(t) = value for t (value < weight_integral(inf)).

    Inversion is algebraic for every exponent; times beyond double range
    come back as math.inf.
    """
    beta = model.dim * model.alpha / 2.0
    try:
        if beta == 1.0:
            return t0 * math.expm1(value)
        base = t0 ** (1.0 - beta) + (1.0 - beta) * value
        if base <= 0:
            raise ValueError("value beyond the range of the weight integral")
        return base ** (1.0 / (1.0 - beta)) - t0
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

    Modulus: m(dt) = (m0^-alpha + alpha Im(kappa) dt)^(-1/alpha).
    Phase increment: Re(kappa)/(alpha Im(kappa)) * log(1 + alpha Im(kappa)
    m0^alpha dt), degenerating to Re(kappa) m0^alpha dt when Im(kappa) = 0.
    Zero entries are fixed points.  Raises SubstepBlowupError if the bracket
    1 + alpha Im(kappa) m0^alpha dt is nonpositive anywhere.

    Returns a new C-contiguous complex128 array.  With overwrite_x (the
    scipy.fft idiom) a C-contiguous complex128 values is advanced and
    returned itself, and any other is copied first; the split-step chain
    passes the buffer its inverse FFT returned.

    One real buffer holds |u|^2, then |u|^alpha, then the bracket, then its
    power; the field is written only after the bracket check, so a
    SubstepBlowupError leaves values unchanged.  kappa = 0 is the identity.
    Re(kappa) = 0 (the phase increment vanishes) scales by the real modulus
    factor with no log or complex exp.  Otherwise modulus and phase come
    from one complex power of the bracket.

    With Im(kappa) != 0 the powers run only on the active window: the flat
    C-order range from the first to the last node with |u|^2 >= floor =
    (2^-56/|c|)^(2/alpha), c = alpha Im(kappa) dt.  Below the floor
    |c| |u|^alpha <= 2^-56 (1 + rounding) < 2^-54, so the bracket rounds to
    exactly 1 for either sign of c; its power is 1 and its log 0, and such a
    node would come back unchanged (up to the sign of a zero part).  Skipping
    the nodes outside the window is therefore exact.  A non-finite |u|^2 is
    active, and a floor that overflows is inf (no finite node can move).
    An Im(kappa) so small that c underflows to 0 takes the Im(kappa) = 0
    flow, the limit of the phase increment.  The complex power of the
    Re(kappa) != 0 path is sized to the window.
    """
    values = np.array(
        values, dtype=np.complex128, order="C", copy=None if overwrite_x else True
    )
    al = model.alpha
    kr, ki = model.kappa.real, model.kappa.imag
    if kr == 0.0 and ki == 0.0:
        return values
    m = np.square(values.real)
    m += np.square(values.imag)
    c = al * ki * dt  # the bracket is 1 + c |u|^alpha
    if ki == 0.0 or c == 0.0:  # no bracket, or one that is exactly 1
        m **= al / 2.0  # |u|^alpha, exactly 0 at u = 0 since alpha > 0
        phase = np.multiply(1j * (kr * dt), m)
        values *= np.exp(phase, out=phase)
        return values
    try:
        floor = (2.0**-56 / abs(c)) ** (2.0 / al)
    except OverflowError:
        floor = math.inf
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
    m **= al / 2.0
    m *= c
    m += 1.0
    low = m.min()
    if low <= 0.0:
        raise SubstepBlowupError(
            f"nonlinear substep blowup: min bracket {low:.3e} at dt={dt:.3e}"
        )
    if kr != 0.0:
        power = np.multiply(np.log(m, out=m), complex(-1.0 / al, kr / (al * ki)))
        u *= np.exp(power, out=power)
    else:
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
    """Full complex z(t): closed-form modulus plus the derived phase.

    z(t) is the exact pointwise flow of u_t = i kappa |u|^alpha u evaluated
    at the reparametrized time W(t) = weight_integral(t), so modulus and
    phase share one closed form.  The modulus law is the primary object;
    the phase is a derived companion, and comparison tests treat the
    modulus as authoritative.
    """
    m0 = abs(p.z0)
    if m0 == 0:
        return 0.0 + 0.0j
    W = weight_integral(p.model, p.t0, t)
    al = p.model.alpha
    kr, ki = p.model.kappa.real, p.model.kappa.imag
    bracket = 1.0 + al * ki * m0**al * W
    if bracket <= 0:
        raise PastBlowupError(f"t={t} is at or past the blowup time")
    m = m0 * bracket ** (-1.0 / al)
    if ki != 0.0:
        dtheta = (kr / (al * ki)) * math.log(bracket)
    else:
        dtheta = kr * m0**al * W
    return m * cmath.exp(1j * (cmath.phase(p.z0) + dtheta))
