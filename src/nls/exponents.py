"""Critical exponents and Strichartz-index arithmetic for the complex-kappa NLS.

Everything here is pure arithmetic over the model parameters (dimension N,
nonlinearity power alpha, complex coefficient kappa).  The derived quantities
are the classical thresholds 2/N, 4/N, 4/(N-2), the two low-energy-scattering
thresholds alpha1 and alpha2, and the index chain (rho, gamma, a, a_tilde,
mu, s) used by the weighted small-data theory.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Optional


class InfeasibleExponentError(ValueError):
    """No admissible index exists for the requested (N, alpha)."""


@dataclass(frozen=True)
class ModelParams:
    """Problem specification: i u_t + Laplacian u + kappa |u|^alpha u = 0."""

    dim: int
    alpha: float
    kappa: complex = 0.0 + 0.0j

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not cmath.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, got {self.kappa}")


@dataclass(frozen=True)
class ExponentFlags:
    """Validity flags attached to an ExponentReport.

    Flags that require data the report was built without are None.
    """

    alpha_in_scattering_window: Optional[bool] = None
    condition_fDfa_holds: Optional[bool] = None
    h_in_Lmu: Optional[bool] = None
    gradient_monotone_condition: Optional[bool] = None


@dataclass(frozen=True)
class ExponentReport:
    """All derived exponents for one (N, alpha, kappa), plus validity flags.

    energy_critical is math.inf for N <= 2.  The Strichartz chain
    (rho, gamma, a, a_tilde, mu, s) is None when the report was built by
    critical_exponents (thresholds only).
    """

    dim: int
    alpha: float
    fujita: float
    mass_critical: float
    energy_critical: float
    alpha1: float
    alpha2: float
    rho: Optional[float] = None
    gamma: Optional[float] = None
    a: Optional[float] = None
    a_tilde: Optional[float] = None
    mu: Optional[float] = None
    s: Optional[float] = None
    flags: ExponentFlags = field(default_factory=ExponentFlags)


def alpha1_threshold(dim: int) -> float:
    """Low-energy scattering threshold 8/(N+2+sqrt(N^2+4N+36))."""
    n = float(dim)
    return 8.0 / (n + 2.0 + math.sqrt(n * n + 4.0 * n + 36.0))


def alpha2_threshold(dim: int) -> float:
    """Improved scattering threshold 8/(N+sqrt(N^2+16N))."""
    n = float(dim)
    return 8.0 / (n + math.sqrt(n * n + 16.0 * n))


def gradient_monotone_condition(params: ModelParams) -> bool:
    """True iff -Im(kappa) >= alpha/(2 sqrt(alpha+1)) * |Re(kappa)|.

    Under this condition the L2 norm of the gradient of the solution is
    nondecreasing in time.
    """
    k = params.kappa
    return -k.imag >= params.alpha / (2.0 * math.sqrt(params.alpha + 1.0)) * abs(k.real)


def critical_exponents(params: ModelParams) -> ExponentReport:
    """Threshold-only report: 2/N, 4/N, 4/(N-2), alpha1, alpha2."""
    n = params.dim
    energy = math.inf if n <= 2 else 4.0 / (n - 2)
    a2 = alpha2_threshold(n)
    window = (n >= 3) and (a2 < params.alpha <= 4.0 / n)
    return ExponentReport(
        dim=n,
        alpha=params.alpha,
        fujita=2.0 / n,
        mass_critical=4.0 / n,
        energy_critical=energy,
        alpha1=alpha1_threshold(n),
        alpha2=a2,
        flags=ExponentFlags(
            alpha_in_scattering_window=window,
            gradient_monotone_condition=gradient_monotone_condition(params),
        ),
    )


def strichartz_indices(params: ModelParams, a: Optional[float] = None) -> ExponentReport:
    """Full index chain rho, gamma, a, a_tilde, mu, s for a given a >= gamma.

    The chain exists in the scattering window alpha2 < alpha <= 4/N with
    N >= 3; outside it this raises InfeasibleExponentError.  With a=None it
    takes the smallest usable a: gamma when gamma > a*, otherwise 1.05 a*,
    where a* is the infimum making the strict index condition hold.  a* is
    finite exactly when N alpha^2 + N alpha > 4, i.e. alpha > alpha2.
    """
    base = critical_exponents(params)
    if not base.flags.alpha_in_scattering_window:
        raise InfeasibleExponentError(
            f"alpha={params.alpha}, dim={params.dim} is outside the scattering "
            f"window: dim >= 3 and alpha2 = {base.alpha2:.6g} < alpha <= 4/N = "
            f"{base.mass_critical:.6g}"
        )
    N, al = float(params.dim), float(params.alpha)

    rho = N * (al + 2) / (N + al)
    gamma = 4 * (al + 2) / (al * (N - 2))
    index = (4 - (N - 4) * al) / (2 * (al + 2))  # 1/mu = index - alpha/a
    h_order = (4 - N * al) / 2  # h(t) ~ (1-t)^(-h_order)
    if a is None:
        gap = index - h_order
        if gap <= 0:  # equivalent to N alpha^2 + N alpha <= 4
            raise InfeasibleExponentError(
                f"index condition infeasible at alpha={params.alpha}, dim={params.dim}"
            )
        a_star = al / gap
        a = gamma if gamma > a_star else a_star * 1.05
    av = float(a)
    if math.isnan(av):
        raise InfeasibleExponentError(f"a={a} is not a number")
    if av < gamma * (1 - 1e-12):
        raise InfeasibleExponentError(f"a={a} below gamma={gamma}")
    a_tilde = 1 / (2 / gamma - 1 / av) if av != gamma else gamma
    inv_mu = index - al / av
    mu = 1 / inv_mu
    s = N * 0.5 - N / rho - 2 / av

    fdfa = inv_mu > h_order
    h_lmu = mu * h_order < 1  # integrability of (1-t)^(-mu h_order)
    return replace(
        base, rho=rho, gamma=gamma, a=av, a_tilde=a_tilde, mu=mu, s=s,
        flags=replace(base.flags, condition_fDfa_holds=bool(fdfa), h_in_Lmu=bool(h_lmu)),
    )
