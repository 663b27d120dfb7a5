"""Monitored quantities: mass balance, localized masses, the growth-rate
ledger, median radius, linear confinement, and scattering residuals.

The localized-mass machinery uses the tent cutoff theta(r) = 1 on [0,1],
2-r on [1,2], 0 beyond, normalized so psi(x) = nu theta(|x|) has unit L2
norm; phi_lambda(x) = psi(lambda x) then satisfies ||phi_lambda||_L2 =
lambda^(-N/2) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, fields
from typing import Optional, Sequence

import numpy as np
import scipy.fft

from .exponents import ModelParams
from .field import (
    FieldState,
    GridSpec,
    free_flow,
    free_flow_to_space,
    radial_shells,
    shell_mass,
    spectral_sq,
    weighted_sq,
)

_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}
# int theta(|x|)^2 dx over R^N, exact for the piecewise-linear tent
_TENT_SQ_INTEGRAL = {1: 8 / 3, 2: 11 * math.pi / 6, 3: 52 * math.pi / 15}


def tent_profile(r):
    """theta(r): 1 on [0,1], 2-r on [1,2], 0 beyond (vectorized)."""
    r = np.asarray(r, dtype=float)
    return np.clip(np.minimum(1.0, 2.0 - r), 0.0, 1.0)


def cutoff_normalization(dim: int) -> float:
    """nu with ||nu theta(|x|)||_L2 = 1, from the exact integral of theta^2."""
    return 1.0 / math.sqrt(_TENT_SQ_INTEGRAL[dim])


@dataclass(frozen=True)
class CutoffFamily:
    """Tent cutoffs phi_lambda(x) = nu theta(lambda |x|) for a lambda ladder."""

    dim: int
    lambdas: tuple
    nu: float

    @classmethod
    def build(cls, dim: int, lambdas: Sequence[float]) -> "CutoffFamily":
        lam = tuple(float(v) for v in lambdas)
        if not all(0 < v < math.inf for v in lam):
            raise ValueError(f"lambdas must be positive and finite, got {lam}")
        return cls(dim=dim, lambdas=lam, nu=cutoff_normalization(dim))

    def phi_l2_norm_quadrature(self, lam: float) -> float:
        """||phi_lambda||_L2 by adaptive radial quadrature (exact: lam^(-N/2))."""
        import scipy.integrate

        area = _SPHERE_AREA[self.dim]
        integral, _ = scipy.integrate.quad(
            lambda r: (self.nu * tent_profile(lam * r)) ** 2 * r ** (self.dim - 1),
            0.0,
            2.0 / lam,
            points=[1.0 / lam],
        )
        return math.sqrt(area * integral)

    def check_support(self, grid: GridSpec) -> None:
        worst = 2.0 / min(self.lambdas)
        if worst > grid.box_length / 2 * (1 + 1e-9):
            raise ValueError(
                f"cutoff support radius {worst:.4g} exceeds box half-length "
                f"{grid.box_length / 2:.4g}"
            )


def default_lambdas(box_length: float, data_width: float) -> tuple:
    """Five-point geometric ladder spanning [4/L (just inside the box), 4/w0]."""
    lo = 4.0 / box_length * (1.0 + 1e-3)
    hi = 4.0 / data_width
    if hi <= lo:
        hi = 2.0 * lo
    return tuple(np.geomspace(lo, hi, 5))


def _localized_mass(shells: np.ndarray, grid: GridSpec, cutoffs: CutoffFamily) -> np.ndarray:
    """f_lambda = ||u phi_lambda||_L2 for every lambda, from the shell masses of u;
    the tent is evaluated on shell radii only."""
    r = np.sqrt(radial_shells(grid)[0])
    lam = np.asarray(cutoffs.lambdas)[:, None]
    phi2 = (cutoffs.nu * tent_profile(lam * r)) ** 2
    return np.sqrt(phi2 @ shells * grid.spacing**grid.dim)


def median_radius(shells: np.ndarray, grid: GridSpec) -> float:
    """Radius enclosing half the total mass, from the shell masses of u
    (radial bins of width h; all nodes of a shell share a bin).

    Cumulative mass at bin boundaries is interpolated linearly; cumulative
    monotonicity guarantees a unique crossing.  Samples landing exactly on a
    bin boundary are split half-and-half between the adjacent bins (the
    trapezoid-consistent convention; on axis-aligned grids every node radius
    is a boundary, and whole-bin assignment would bias R by +h/2).
    The zero field has none: NaN (an empty R_t in a trace).
    """
    total = float(np.sum(shells))
    if total <= 0:
        return math.nan  # the zero field has no median radius
    h = grid.spacing
    scaled = np.sqrt(radial_shells(grid)[0]) / h
    near = np.rint(scaled)
    on_boundary = (np.abs(scaled - near) < 1e-9) & (near >= 1)
    idx = np.where(on_boundary, near, np.floor(scaled)).astype(np.int64)
    nb = int(np.max(idx)) + 2
    halfmass = np.where(on_boundary, 0.5 * shells, 0.0)
    binned = np.bincount(idx, weights=shells - halfmass, minlength=nb)
    binned += np.bincount(idx - on_boundary, weights=halfmass, minlength=nb)
    cum = np.concatenate([[0.0], np.cumsum(binned)])  # cum[k] = mass below k h
    half = total / 2.0
    k = int(np.searchsorted(cum, half))
    if k == 0:
        return 0.0
    lo, hi = cum[k - 1], cum[k]
    frac = 0.0 if hi == lo else (half - lo) / (hi - lo)
    return (k - 1 + frac) * h


def _x_norm(dk: np.ndarray, grid: GridSpec) -> float:
    """||d||_X = (||d||^2 + ||grad d||^2 + ||x d||^2)^(1/2) from dk = F[d].

    The L2 and gradient parts come from dk by Parseval; only the |x| part
    needs d itself (one inverse FFT, overwriting dk).
    """
    l2_sq, grad_sq = spectral_sq(dk, grid)
    d = scipy.fft.ifftn(dk, overwrite_x=True)
    return math.sqrt(l2_sq + grad_sq + weighted_sq(shell_mass(d, grid), grid))


# ---------------------------------------------------------------------------
# trace


@dataclass
class DiagnosticTrace:
    """Time-indexed record of all monitored scalars for one run.

    The fields before loc_mass are the CSV columns, in file order; the
    loc_mass_λ=... columns follow, one per lambda.
    """

    t: np.ndarray
    mass: np.ndarray
    lp: np.ndarray  # L^(alpha+2) norm
    grad_l2: np.ndarray
    K_t: np.ndarray  # running sup of grad_l2
    linf: np.ndarray
    R_t: np.ndarray  # median radius (nan when not probed or at zero mass)
    weighted_l2: np.ndarray
    scatter_residual: np.ndarray  # nan when not probed
    loc_mass: np.ndarray = dc_field(default_factory=lambda: np.empty((0, 0)))
    lambdas: tuple = ()

    @classmethod
    def columns(cls) -> list:
        """Names of the scalar CSV columns: every field before loc_mass."""
        names = [f.name for f in fields(cls)]
        return names[: names.index("loc_mass")]

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self) -> str:
        """The trace as CSV text; every NaN is written as an empty field."""
        names = self.columns()
        header = names + [f"loc_mass_λ={lam:.6g}" for lam in self.lambdas]
        columns = [np.asarray(getattr(self, name)).tolist() for name in names]
        columns += np.asarray(self.loc_mass).T.tolist()
        lines = [",".join(header)]
        for row in zip(*columns):
            lines.append(",".join("" if math.isnan(v) else repr(float(v)) for v in row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_csv())

    @classmethod
    def from_csv(cls, text: str) -> "DiagnosticTrace":
        """Parse to_csv output; columns are found by header name, in any order."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = lines[0].split(",")
        where = {name: j for j, name in enumerate(header)}
        missing = [name for name in cls.columns() if name not in where]
        if missing:
            raise ValueError(f"trace CSV lacks columns {missing}")
        loc_cols = [j for j, name in enumerate(header) if name.startswith("loc_mass_")]
        rows = [ln.split(",") for ln in lines[1:]]

        def col(j):
            return np.array(
                [float(r[j]) if r[j] != "" else math.nan for r in rows]
            )

        loc = np.array([col(j) for j in loc_cols]).T.reshape(len(rows), len(loc_cols))
        return cls(
            **{name: col(where[name]) for name in cls.columns()},
            loc_mass=loc,
            lambdas=tuple(float(header[j].split("=", 1)[1]) for j in loc_cols),
        )


@dataclass(frozen=True)
class ProbeSet:
    """Which diagnostics to record along a run."""

    cutoffs: Optional[CutoffFamily] = None
    median_radius: bool = True
    weighted_l2: bool = True
    scatter: bool = False
    store_states_every: int = 0  # 0 = keep no full-state checkpoints
    store_at_times: tuple = ()  # exact times to checkpoint (the run lands on them)

    def __post_init__(self):
        if self.store_states_every < 0:
            raise ValueError(f"checkpoint cadence must be >= 0, got {self.store_states_every}")


class TraceRecorder:
    """Accumulates DiagnosticTrace rows, one dict of columns by field name each."""

    def __init__(self, model: ModelParams, probes: ProbeSet):
        self.model = model
        self.probes = probes
        self.rows: list = []
        self._wk_prev: Optional[np.ndarray] = None  # F[w] at the last row

    def record(self, state: FieldState, uk: np.ndarray) -> None:
        """One trace row from uk = F[state.values] and one radial-shell histogram.

        The row consumes uk: the scatter probe turns it into F[w] in place.
        It runs no forward FFT; the scatter probe adds one inverse FFT (for
        the |x| part of the increment of w), and none on the first row.
        """
        p = self.probes
        g = state.grid
        grad = math.sqrt(spectral_sq(uk, g)[1])
        scatter = math.nan
        if p.scatter:
            wk = free_flow(uk, g, -state.time, out=uk)  # F[w], w = e^{-it Lap} u
            if self._wk_prev is not None:
                # the increment overwrites the previous F[w], replaced below
                scatter = _x_norm(np.subtract(wk, self._wk_prev, out=self._wk_prev), g)
            self._wk_prev = wk
        del uk
        shells = shell_mass(state.values, g)
        absu = np.abs(state.values)
        linf = float(np.max(absu))
        q = self.model.alpha + 2.0
        absu **= q  # in place, once linf has read |u|
        self.rows.append(dict(
            t=state.time,
            mass=math.sqrt(float(np.sum(shells)) * g.spacing**g.dim),
            lp=float(np.sum(absu) * g.spacing**g.dim) ** (1.0 / q),
            grad_l2=grad,
            linf=linf,
            R_t=median_radius(shells, g) if p.median_radius else math.nan,
            weighted_l2=math.sqrt(weighted_sq(shells, g)) if p.weighted_l2 else math.nan,
            scatter_residual=scatter,
            loc_mass=(
                np.empty(0) if p.cutoffs is None else _localized_mass(shells, g, p.cutoffs)
            ),
        ))

    def trace(self) -> DiagnosticTrace:
        """The rows so far, column by column; K_t is the running sup of grad_l2."""
        columns = {name: np.array([r[name] for r in self.rows]) for name in self.rows[0]}
        return DiagnosticTrace(
            **columns,
            K_t=np.maximum.accumulate(columns["grad_l2"]),
            lambdas=getattr(self.probes.cutoffs, "lambdas", ()),
        )


# ---------------------------------------------------------------------------
# post-hoc checks over completed traces


@dataclass(frozen=True)
class MassBalanceReport:
    max_relative_mismatch: float


def mass_balance_check(trace: DiagnosticTrace, model: ModelParams) -> MassBalanceReport:
    """Central-difference d/dt(mass^2) against -2 Im(kappa) * ||u||_{a+2}^{a+2}.

    The relative scale is the largest magnitude among both sides, floored by
    mass^2 per unit trace time so the kappa-real case (both sides zero)
    reports its rounding noise as a small relative number.
    """
    if len(trace) < 3:
        raise ValueError("need at least 3 trace rows")
    t, m2 = trace.t, trace.mass**2
    lp = trace.lp
    deriv = (m2[2:] - m2[:-2]) / (t[2:] - t[:-2])
    rhs = -2.0 * model.kappa.imag * lp[1:-1] ** (model.alpha + 2.0)
    span = t[-1] - t[0]
    scale = max(
        float(np.max(np.abs(rhs))),
        float(np.max(np.abs(deriv))),
        float(np.max(m2)) / span if span > 0 else 0.0,
    )
    rel = float(np.max(np.abs(deriv - rhs))) / scale if scale > 0 else 0.0
    return MassBalanceReport(rel)


@dataclass(frozen=True)
class InequalityLedger:
    normalized_min_slack: float  # min over lambdas of min slack / scale


def differential_inequality_ledger(
    trace: DiagnosticTrace, model: ModelParams, cutoffs: CutoffFamily
) -> InequalityLedger:
    """Slack of f_lambda' >= -2 nu lambda K_t - Im(kappa) lambda^(N a/2) f^(a+1).

    The inequality holds for true solutions; a normalized slack dipping well
    below zero flags a solver (or resolution) bug.
    """
    if len(trace) < 3:
        raise ValueError("need at least 3 trace rows")
    if model.kappa.imag >= 0:
        raise ValueError("ledger applies to Im(kappa) < 0")
    if trace.loc_mass.shape[1] != len(cutoffs.lambdas):
        raise ValueError("trace was recorded without this cutoff family")
    al = model.alpha
    t, f = trace.t, trace.loc_mass  # rows x lambdas
    lam = np.asarray(cutoffs.lambdas)
    fprime = (f[2:] - f[:-2]) / (t[2:] - t[:-2])[:, None]
    # f' >= gain - leak, both terms >= 0 (Im kappa < 0): scale sums magnitudes
    leak = 2.0 * cutoffs.nu * lam * trace.K_t[1:-1, None]
    gain = -(model.kappa.imag * lam ** (model.dim * al / 2.0) * f[1:-1] ** (al + 1.0))
    min_slack = np.min(fprime - (gain - leak), axis=0)
    scale = np.max(leak + gain + np.abs(fprime), axis=0)
    normalized = float(np.min(min_slack / np.where(scale > 0, scale, 1.0)))
    return InequalityLedger(normalized)


@dataclass(frozen=True)
class RateFit:
    slope: float
    theoretical_exponent: float
    verdict: bool


def rate_fit(trace: DiagnosticTrace, model: ModelParams) -> RateFit:
    """Least-squares slope of ln K_t vs ln t over the trailing half of the log-t span.

    The theoretical growth exponent below the Fujita power is
    (2 - N alpha)/(N alpha).  The verdict confirms growth at that rate:
    fitted slope within 0.1 of the exponent from below.
    """
    mask = (trace.t > 0) & (trace.K_t > 0)
    lt = np.log(trace.t[mask])
    lK = np.log(trace.K_t[mask])
    if len(lt) < 10:
        raise ValueError("trace too short for a rate fit")
    cut = lt[0] + 0.5 * (lt[-1] - lt[0])
    sel = lt >= cut
    if int(np.sum(sel)) < 10:
        raise ValueError(f"window holds {int(np.sum(sel))} rows, need >= 10")
    slope, _ = np.polyfit(lt[sel], lK[sel], 1)
    theo = (2.0 - model.dim * model.alpha) / (model.dim * model.alpha)
    verdict = slope >= theo - 0.1
    return RateFit(float(slope), theo, verdict)


@dataclass(frozen=True)
class ConfinementReport:
    times: tuple
    a: float
    lhs: np.ndarray
    rhs: np.ndarray
    max_violation: float
    exterior_fraction: np.ndarray


def linear_confinement_check(u0: FieldState, times: Sequence[float]) -> ConfinementReport:
    """Free-flow confinement: int psi_M |u~|^2 <= int psi_M |u0|^2 + 2t/M ||u0|| ||grad u0||.

    psi_M(x) = min(|x|/M, 1) with M = a t and a = 16 ||grad u0||/||u0||.
    Also reports the mass fraction outside |x| > a t (expected <= 1/4 for
    large t).  The |x| reading of psi_M is the dimension-generic one; the
    one-dimensional signed variant is not implemented.  The bound is stated
    for t >= 0; a negative time, no time, or a radius a t past half the box
    is a ValueError, raised before any free flow.
    """
    if len(times) == 0:
        raise ValueError("confinement times must not be empty")
    if min(times) < 0:
        raise ValueError(f"confinement times must be >= 0, got {min(times)}")
    g = u0.grid
    hN = g.spacing**g.dim
    uk = scipy.fft.fftn(u0.values)
    l2, gr = (math.sqrt(v) for v in spectral_sq(uk, g))
    a = 16.0 * gr / l2
    outside = [t for t in times if a * t > g.box_length / 2]
    if outside:  # the first such t names the radius
        raise ValueError(
            f"confinement radius a t = {a * outside[0]:.4g} exceeds box half-length"
        )
    r = np.sqrt(radial_shells(g)[0])  # psi_M and the exterior set, per shell
    shells_0 = shell_mass(u0.values, g)
    lhs = np.empty(len(times))
    rhs = np.empty(len(times))
    ext = np.empty(len(times))
    for i, t in enumerate(times):
        shells_t = shells_0
        if t != u0.time:
            ut = free_flow_to_space(uk, g, t - u0.time)
            shells_t = shell_mass(ut, g)
        M = a * t
        if M > 0:
            psi = np.minimum(r / M, 1.0)
        else:
            psi = np.ones_like(r)  # t = 0: limits agree, both sides equal
        lhs[i] = float(psi @ shells_t) * hN
        rhs[i] = float(psi @ shells_0) * hN + (2.0 * t / M if M > 0 else 0.0) * l2 * gr
        ext[i] = float(np.sum(shells_t[r > M])) * hN / l2**2 if M > 0 else 1.0
    return ConfinementReport(
        tuple(times), a, lhs, rhs, float(np.max(lhs - rhs)), ext
    )


def scattering_residual(states: Sequence[FieldState]) -> list:
    """X-norm Cauchy increments of w(t) = e^{-it Lap} u(t).

    residual[i] = ||w(t_{i+1}) - w(t_i)||_X with the X-norm combining L2,
    gradient, and |x|-weighted L2 parts; a decreasing, summable-looking
    sequence evidences convergence to a scattering state.
    """
    if len(states) < 2:
        raise ValueError("need at least two states")
    ts = [s.time for s in states]
    if any(b <= a for a, b in zip(ts[:-1], ts[1:])):
        raise ValueError("states must be strictly increasing in time")
    wks = [free_flow(scipy.fft.fftn(s.values), s.grid, -s.time) for s in states]
    return [_x_norm(w1 - w0, states[0].grid) for w0, w1 in zip(wks[:-1], wks[1:])]
