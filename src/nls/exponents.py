"""Critical exponents and Strichartz-index arithmetic for the complex-kappa NLS.

Everything here is pure arithmetic over the model parameters (dimension N,
nonlinearity power alpha, complex coefficient kappa).  The derived quantities
are the classical thresholds 2/N, 4/N, 4/(N-2), the two low-energy-scattering
thresholds alpha1 and alpha2, and the index chain (rho, gamma, a, a_tilde,
mu, s) used by the weighted small-data theory.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Optional, Union

Real = Union[float, Fraction]

TOL = 1e-12  # absolute tolerance for exponent-identity checks


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
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def validate_h1_subcritical(self) -> None:
        """Reject alpha >= 4/(N-2) when N >= 3 (no constraint for N <= 2)."""
        if self.dim >= 3 and self.alpha >= 4.0 / (self.dim - 2):
            raise ValueError(
                f"alpha={self.alpha} not H1-subcritical for dim={self.dim} "
                f"(need alpha < {4.0 / (self.dim - 2)})"
            )


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
    rho: Optional[Real] = None
    gamma: Optional[Real] = None
    a: Optional[Real] = None
    a_tilde: Optional[Real] = None
    mu: Optional[Real] = None
    s: Optional[Real] = None
    flags: ExponentFlags = field(default_factory=ExponentFlags)

    def as_dict(self) -> dict:
        """The report as plain data; exact (Fraction) indices become floats."""
        return {
            k: float(v) if isinstance(v, Fraction) else v for k, v in asdict(self).items()
        }


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
    window = (n >= 3) and (a2 < params.alpha < 4.0 / n)
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


def _fdfa_lhs(dim: Real, alpha: Real, a: Real) -> Real:
    # (4 - (N-4) alpha) / (2 (alpha+2)) - alpha/a
    return (4 - (dim - 4) * alpha) / (2 * (alpha + 2)) - alpha / a


def strichartz_indices(
    params: ModelParams, a: float, exact: bool = False
) -> ExponentReport:
    """Full index chain rho, gamma, a_tilde, mu, s for a given a >= gamma.

    With exact=True the chain is computed in exact rational arithmetic
    (alpha and a must then be Fraction-convertible); the threshold fields
    stay floating point since they involve square roots.
    """
    n = params.dim
    if n < 3:
        raise InfeasibleExponentError(f"index chain requires dim >= 3, got {n}")
    base = critical_exponents(params)
    if not (base.alpha2 < params.alpha < base.mass_critical):
        raise InfeasibleExponentError(
            f"alpha={params.alpha} outside (alpha2, 4/N) = "
            f"({base.alpha2:.6g}, {base.mass_critical:.6g}) for dim={n}"
        )

    if exact:
        N: Real = Fraction(n)
        al: Real = Fraction(params.alpha).limit_denominator(10**12)
        av: Real = Fraction(a).limit_denominator(10**12)
    else:
        N, al, av = float(n), float(params.alpha), float(a)

    rho = N * (al + 2) / (N + al)
    gamma = 4 * (al + 2) / (al * (N - 2))
    if av < gamma * (1 - 1e-12):
        raise InfeasibleExponentError(f"a={a} below gamma={float(gamma)}")
    a_tilde = 1 / (2 / gamma - 1 / av) if av != gamma else gamma
    inv_mu = _fdfa_lhs(N, al, av)
    mu = 1 / inv_mu
    s = N * (Fraction(1, 2) if exact else 0.5) - N / rho - 2 / av

    fdfa = inv_mu > (4 - N * al) / 2
    h_lmu = mu * (4 - N * al) / 2 < 1  # integrability of (1-t)^{-mu(4-N alpha)/2}
    return replace(
        base, rho=rho, gamma=gamma, a=av, a_tilde=a_tilde, mu=mu, s=s,
        flags=replace(base.flags, condition_fDfa_holds=bool(fdfa), h_in_Lmu=bool(h_lmu)),
    )


def smallest_valid_a(params: ModelParams, margin: float = 0.05) -> float:
    """Smallest usable a: max(gamma, a*) with a 5% margin on the a* branch.

    a* is the infimum making the strict index condition hold; it is finite
    exactly when N alpha^2 + N alpha > 4, i.e. alpha > alpha2.
    """
    n = params.dim
    if n < 3:
        raise InfeasibleExponentError(f"requires dim >= 3, got {n}")
    al = params.alpha
    a2 = alpha2_threshold(n)
    if not (a2 < al < 4.0 / n):
        raise InfeasibleExponentError(
            f"alpha={al} outside (alpha2, 4/N) for dim={n}; no valid a exists"
        )
    gap = (4.0 - (n - 4.0) * al) / (2.0 * (al + 2.0)) - (4.0 - n * al) / 2.0
    if gap <= 0:  # equivalent to N alpha^2 + N alpha <= 4
        raise InfeasibleExponentError(
            f"index condition infeasible at alpha={al}, dim={n}"
        )
    a_star = al / gap
    gamma = 4.0 * (al + 2.0) / (al * (n - 2.0))
    if gamma > a_star:
        return gamma
    return a_star * (1.0 + margin)
