"""Acceptance suite: one entry per numbered criterion, each with its pinned
tolerance, runnable from `nls accept` and from tests/test_acceptance.py.

The governing theorems carry existential constants, so most checks are
property- or oracle-based.  Where a criterion's literal measurement is
numerically vacuous (the split-step is *exact* on plane waves, so a
convergence-slope fit there hits rounding noise), the suite asserts the
strictly stronger exactness bound and demonstrates the convergence order on
data where the splitting error is nonzero; details are printed per line.

Each criterion takes a `check(ok, msg)` callable, reports every pinned
check through it, and returns its detail line.  `run_criterion` alone turns
the checks into a verdict: a criterion passes when no check failed and it
did not raise; a failing one reports the messages of its failed checks in
order, then `exception: ...` if it raised.

DELTA_SUBSTITUTION_NOTE documents the stand-ins for the theorems'
non-reproducible existential constants.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
import scipy.integrate

from .conformal import equivalence_experiment
from .diagnostics import (
    CutoffFamily,
    ProbeSet,
    cutoff_normalization,
    default_lambdas,
    differential_inequality_ledger,
    linear_confinement_check,
    mass_balance_check,
    median_radius,
    rate_fit,
    scattering_residual,
)
from .exponents import ModelParams, alpha1_threshold, alpha2_threshold
from .field import (
    Gaussian,
    GridSpec,
    PlaneWave,
    free_gaussian,
    l2_norm,
    linear_propagate,
    make_initial,
    shell_mass,
)
from .oracle import SelfSimilarParams, blowup_time, nonlinear_flow, reduced_rhs
from .solver import RunStatus, SolverConfig, run

Check = Callable[[bool, str], None]  # check(ok, msg) records msg when not ok

DELTA_SUBSTITUTION_NOTE = (
    "The existential constants delta in the growth bound and in the "
    "small-data smallness threshold are not reproducible numerically; the "
    "suite substitutes criteria 1 (exponent table), 8 (dichotomy sweep), "
    "9 (non-scattering floor), and 12 (pseudo-conformal equivalence) as "
    "their property-based stand-ins."
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.number:2d} {self.name}: {self.details} ({self.seconds:.1f}s)"


# ---------------------------------------------------------------------------
# shared heavy runs (memoized so criteria 8 and 9 reuse them)

# the long 1D runs land on and checkpoint t = 5, 10, 20, 40
_LONG_RUN_PROBES = ProbeSet(
    median_radius=False, weighted_l2=False, store_at_times=(5.0, 10.0, 20.0, 40.0)
)

# (box_length, alpha, kappa, t_end, diagnostics_cadence) of the shared long runs
_GROWTH_ALPHA1 = (80.0, 1.0, -1j, 50.0, 25)  # sub-Fujita growth
_SCATTER_ALPHA3 = (160.0, 3.0, -1j, 40.0, 100)  # small-data scattering
_NOISE_FLOOR = (80.0, 1.0, 0j, 40.0, 100)  # kappa = 0 twin: the w-residual rounding floor


@lru_cache(maxsize=None)
def _long_run(box_length, alpha, kappa, t_end, cadence):
    """N=1, M=4096, Gaussian A=0.1 at dt=1e-3, from t=0 to t_end."""
    state0 = make_initial(GridSpec(1, box_length, 4096), Gaussian(0.1, 1.0))
    cfg = SolverConfig(dt=1e-3, t_end=t_end, diagnostics_cadence=cadence)
    return run(state0, ModelParams(1, alpha, kappa), cfg, probes=_LONG_RUN_PROBES)


@lru_cache(maxsize=None)
def _gradient_monotonicity_run():
    """N=1, alpha=1, kappa=-i Gaussian run over [0, 2] with cutoff probes."""
    grid = GridSpec(1, 40.0, 1024)
    model = ModelParams(1, 1.0, -1j)
    state0 = make_initial(grid, Gaussian(0.5, 1.0))
    cutoffs = CutoffFamily.build(1, default_lambdas(grid.box_length, 1.0))
    cfg = SolverConfig(dt=1e-3, t_end=2.0, diagnostics_cadence=5)
    probes = ProbeSet(cutoffs=cutoffs, median_radius=False, weighted_l2=False)
    return run(state0, model, cfg, probes=probes), model, cutoffs


# ---------------------------------------------------------------------------
# criteria


def criterion_01_exponent_table(check: Check) -> str:
    for n in range(1, 65):
        a1, a2 = alpha1_threshold(n), alpha2_threshold(n)
        check(a2 < 4.0 / n, f"alpha2({n}) >= 4/N")
        if n >= 7:
            check(a2 < a1, f"alpha2({n}) >= alpha1({n})")
        else:
            check(a2 >= a1, f"alpha2({n}) < alpha1({n}) below N=7")
    return "alpha2 < 4/N for N=1..64; alpha2 < alpha1 exactly for N >= 7"


def _integrator_blowup_time(p: SelfSimilarParams) -> float:
    """Independent oracle: adaptive DOP853 on the reduced ODE up to a large
    amplitude, plus the frozen-weight dominant-balance tail to divergence."""
    big = 1e6

    def event(t, y, p):
        return math.hypot(y[0], y[1]) - big

    event.terminal = True
    event.direction = 1.0
    sol = scipy.integrate.solve_ivp(
        reduced_rhs,
        (0.0, 50.0),
        [p.z0.real, p.z0.imag],
        args=(p,),
        method="DOP853",
        rtol=1e-12,
        atol=1e-12,
        events=[event],
        max_step=0.1,
    )
    if not sol.t_events[0].size:
        raise RuntimeError("integrator never reached the blowup threshold")
    t_hit = float(sol.t_events[0][0])
    m = math.hypot(*sol.y_events[0][0])
    w = (t_hit + p.t0) ** (-p.model.dim * p.model.alpha / 2.0)
    return t_hit + m ** (-p.model.alpha) / (
        p.model.alpha * (-p.model.kappa.imag) * w
    )


def criterion_02_oracle_closed_forms(check: Check) -> str:
    cases = [
        (ModelParams(2, 1.0, -1j), math.e - 1.0),
        (ModelParams(2, 2.0, -1j), 1.0),
    ]
    details = []
    for model, t_exact in cases:
        p = SelfSimilarParams(t0=1.0, z0=1.0 + 0.0j, model=model)
        t_closed = blowup_time(p)
        check(
            t_closed is not None and abs(t_closed - t_exact) / t_exact < 1e-10,
            f"closed-form T={t_closed} vs {t_exact}",
        )
        t_int = _integrator_blowup_time(p)
        check(
            abs(t_int - t_exact) / t_exact < 1e-6,
            f"integrator T={t_int} vs {t_exact}",
        )
        details.append(f"alpha={model.alpha:g}: T={t_closed:.10g} (ivp {t_int:.8g})")
    return "; ".join(details)


def criterion_03_solver_exactness_and_order(check: Check) -> str:
    # (a) kappa = 0 run against the closed-form free Gaussian
    grid = GridSpec(1, 40.0, 1024)
    spec = Gaussian(1.0, math.sqrt(2.0))  # exp(-x^2/4)
    state0 = make_initial(grid, spec)
    model0 = ModelParams(1, 2.0, 0.0 + 0.0j)
    out = run(state0, model0, SolverConfig(dt=1e-2, t_end=1.0, diagnostics_cadence=10**9))
    exact = free_gaussian(grid, spec, 1.0)
    sup_err = float(np.max(np.abs(out.final_state.values - exact.values)))
    check(sup_err <= 1e-8, f"free-Gaussian sup error {sup_err:.2e} > 1e-8")

    # (b) plane wave at dt in {1e-2, 5e-3, 2.5e-3}: the splitting commutator
    # vanishes on single-mode data (both substeps act as scalar flows on the
    # modulus/phase pair), so a convergence-slope fit there has no signal;
    # assert the stronger statement that the error stays at rounding level.
    gridp = GridSpec(1, 2 * math.pi, 256)
    model = ModelParams(1, 1.3, 0.7 - 0.9j)
    A = 0.9
    km = 4 * 2 * math.pi / gridp.box_length
    statep = make_initial(gridp, PlaneWave(A, (4,)))
    T = 0.4
    pw_errors = []
    xs = gridp.axis_coordinates()
    # constant modulus: the amplitude follows the exact pointwise flow
    zT = nonlinear_flow(np.array([A + 0.0j]), model, T)[0]
    exact_vals = zT * np.exp(1j * km * xs) * np.exp(-1j * km**2 * T)
    for dt in (1e-2, 5e-3, 2.5e-3):
        o = run(statep, model, SolverConfig(dt=dt, t_end=T, diagnostics_cadence=10**9))
        pw_errors.append(float(np.max(np.abs(o.final_state.values - exact_vals))))
    check(
        max(pw_errors) <= 1e-12,
        f"plane-wave errors {pw_errors} above rounding",
    )

    # (c) the order-2 property measured where the splitting error is nonzero
    gridg = GridSpec(1, 40.0, 1024)
    modelg = ModelParams(1, 1.0, -1j)
    st0 = make_initial(gridg, Gaussian(1.0, 1.0))
    Tg = 0.5
    ref = run(st0, modelg, SolverConfig(dt=Tg / 4096, t_end=Tg, diagnostics_cadence=10**9))
    errs = []
    dts = (1e-2, 5e-3, 2.5e-3)
    for dt in dts:
        o = run(st0, modelg, SolverConfig(dt=dt, t_end=Tg, diagnostics_cadence=10**9))
        d = o.final_state.with_values(o.final_state.values - ref.final_state.values)
        errs.append(l2_norm(d))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    check(abs(slope - 2.0) <= 0.1, f"Strang order slope {slope:.3f} not 2.0+-0.1")

    return (
        f"free-Gaussian sup err {sup_err:.1e}; plane-wave exact to "
        f"{max(pw_errors):.1e} (slope fit vacuous at rounding); Gaussian "
        f"order slope {slope:.3f}"
    )


def criterion_04_mass_law(check: Check) -> str:
    # kappa real: drift per unit time
    grid = GridSpec(1, 40.0, 1024)
    model_r = ModelParams(1, 2.0, 1.0 + 0.0j)
    drifts = []
    for init in (Gaussian(1.0, 1.0), PlaneWave(1.0, (3,))):
        st = make_initial(grid, init)
        o = run(st, model_r, SolverConfig(dt=1e-3, t_end=1.0, diagnostics_cadence=100))
        m = o.trace.mass
        drifts.append(float(np.max(np.abs(m - m[0])) / m[0]))
    check(max(drifts) <= 1e-10, f"mass drift {max(drifts):.2e} > 1e-10")

    # kappa = -i: mismatch order under dt halving
    model_i = ModelParams(1, 2.0, -1j)
    st = make_initial(grid, Gaussian(1.0, 1.0))
    mismatches = []
    for dt in (2e-3, 1e-3, 5e-4):
        o = run(st, model_i, SolverConfig(dt=dt, t_end=0.4, diagnostics_cadence=1))
        mismatches.append(mass_balance_check(o.trace, model_i).max_relative_mismatch)
    orders = [math.log2(a / b) for a, b in zip(mismatches[:-1], mismatches[1:])]
    check(
        min(orders) >= 1.9,
        f"mass-balance orders {orders} below 1.9 (mismatches {mismatches})",
    )
    return f"drift {max(drifts):.1e}/unit time; mismatch orders {[f'{o:.2f}' for o in orders]}"


def criterion_05_uniform_blowup(check: Check) -> str:
    grid = GridSpec(1, 1.0, 16)
    model = ModelParams(1, 2.0, -1j)
    st = make_initial(grid, PlaneWave(1.0, (0,)))  # u = 1 everywhere
    cfg = SolverConfig(
        dt=1e-3, t_end=1.0, blowup_dt_floor=1e-10, diagnostics_cadence=10
    )
    o = run(st, model, cfg)
    check(o.status is RunStatus.BLOWUP_DETECTED, f"status {o.status}")
    est = o.blowup_time_estimate
    check(
        est is not None and 0.499 <= est <= 0.5,
        f"blowup estimate {est} outside [0.499, 0.5]",
    )
    return f"status {o.status.value}, estimate {est:.12g} (exact 0.5)"


def criterion_06_gradient_monotonicity(check: Check) -> str:
    outcome, model, _ = _gradient_monotonicity_run()
    check(
        outcome.status is RunStatus.REACHED_T_END,
        f"run ended {outcome.status} before t=2",
    )
    g = outcome.trace.grad_l2
    scale = float(np.max(g))
    worst = float(np.min(np.diff(g)))
    check(
        worst >= -1e-8 * scale,
        f"gradient decreased by {-worst:.2e} (tol {1e-8 * scale:.2e})",
    )
    return f"min row-to-row gradient increment {worst:.2e} over [0,2], scale {scale:.3g}"


def criterion_07_localized_mass_machinery(check: Check) -> str:
    for n in (1, 2):
        fam = CutoffFamily.build(n, (0.5, 1.0, 2.0))
        for lam in fam.lambdas:
            got = fam.phi_l2_norm_quadrature(lam)
            want = lam ** (-n / 2.0)
            check(
                abs(got - want) <= 1e-8,
                f"N={n} lambda={lam}: ||phi|| {got} vs {want}",
            )
    nu1 = cutoff_normalization(1)
    check(
        abs(nu1 - math.sqrt(3.0 / 8.0)) <= 1e-10,
        f"nu(1) = {nu1} vs sqrt(3/8)",
    )
    outcome, model, cutoffs = _gradient_monotonicity_run()
    ledger = differential_inequality_ledger(outcome.trace, model, cutoffs)
    check(
        ledger.normalized_min_slack >= -1e-3,
        f"ledger min slack {ledger.normalized_min_slack:.2e} below -1e-3*scale",
    )
    return (
        f"cutoff norms exact to 1e-8 (N=1,2); nu(1)={nu1:.12f}; "
        f"ledger min slack {ledger.normalized_min_slack:.2e} (>= -1e-3)"
    )


def criterion_08_fujita_dichotomy(check: Check) -> str:
    # alpha = 1 < 2/N: blowup or confirmed growth at the theoretical rate
    growth = _long_run(*_GROWTH_ALPHA1)
    if growth.status is RunStatus.BLOWUP_DETECTED:
        alpha1_txt = f"BlowupDetected at t={growth.blowup_time_estimate:.3f}"
    else:
        fit = rate_fit(growth.trace, ModelParams(1, 1.0, -1j))
        alpha1_txt = f"slope {fit.slope:.3f}"
        check(fit.verdict, f"alpha=1 run: status {growth.status}, {alpha1_txt}")

    # alpha = 3 > 2/N: scattering residuals through t in {5,10,20,40}
    scat = _long_run(*_SCATTER_ALPHA3)
    res = scattering_residual(scat.checkpoints)  # w-path from t=0 through samples
    decreasing = all(b < a for a, b in zip(res[:-1], res[1:]))
    check(decreasing, f"residuals not strictly decreasing: {res}")
    check(
        res[-1] <= 0.1 * res[0],
        f"final residual {res[-1]:.3e} > 0.1 x first {res[0]:.3e}",
    )
    return (
        f"alpha=1: {alpha1_txt}; "
        f"alpha=3 residuals {['%.2e' % r for r in res]} (final/first "
        f"{res[-1] / res[0]:.3f})"
    )


def criterion_09_non_scattering_floor(check: Check) -> str:
    res_alpha1 = scattering_residual(_long_run(*_GROWTH_ALPHA1).checkpoints)
    floor_run = _long_run(*_NOISE_FLOOR)
    res_floor = scattering_residual(floor_run.checkpoints)
    floor = max(res_floor)
    check(
        res_alpha1[-1] >= 10.0 * floor,
        f"last residual {res_alpha1[-1]:.3e} below 10x floor {floor:.3e}",
    )
    return f"last alpha=1 residual {res_alpha1[-1]:.3e} vs kappa=0 floor {floor:.3e}"


def criterion_10_linear_confinement(check: Check) -> str:
    grid = GridSpec(1, 400.0, 4096)
    u0 = make_initial(grid, Gaussian(1.0, math.sqrt(2.0)))
    rep = linear_confinement_check(u0, (1.0, 2.0, 4.0, 8.0))
    check(
        rep.max_violation <= 1e-8,
        f"confinement violation {rep.max_violation:.2e} > 1e-8",
    )
    check(
        rep.exterior_fraction[-1] <= 0.25,
        f"exterior fraction {rep.exterior_fraction[-1]:.3f} > 1/4",
    )
    return (
        f"max violation {rep.max_violation:.2e}; exterior fraction at t=8: "
        f"{rep.exterior_fraction[-1]:.2e} (a = {rep.a:.4g})"
    )


def criterion_11_median_radius_law(check: Check) -> str:
    grid = GridSpec(1, 80.0, 2048)
    spec = Gaussian(1.0, math.sqrt(2.0))
    u0 = make_initial(grid, spec)
    a = linear_confinement_check(u0, (2.0, 4.0)).a  # the times R(t) <= a t is checked at
    probit75 = 0.6744897501960817  # half-mass quantile of the unit Gaussian
    rows = []
    for t in (0.0, 1.0, 2.0, 4.0):
        ut = linear_propagate(u0, t) if t > 0 else u0
        r = median_radius(shell_mass(ut.values, grid), grid)
        want = probit75 * math.sqrt(1.0 + t * t)
        rel = abs(r - want) / want
        rows.append((t, r, want, rel))
        check(rel <= 0.01, f"R({t}) = {r:.4f} vs {want:.4f} ({rel:.2%})")
        if t in (2.0, 4.0):
            check(r <= a * t, f"R({t}) = {r:.3f} > a t = {a * t:.3f}")
    return "; ".join(f"R({t:g})={r:.4f} (thy {w:.4f})" for t, r, w, _ in rows) + f"; a={a:.3g}"


def criterion_12_pseudo_conformal_equivalence(check: Check) -> str:
    def discrepancy(kappa: complex, dt: float) -> float:
        """Two-path L2 discrepancy at t* = 0.5 for N=1, alpha=3, A=0.1 data."""
        cfg = SolverConfig(dt=dt, t_end=1.0)
        model = ModelParams(1, 3.0, kappa)
        grid = GridSpec(1, 80.0, 4096)
        return equivalence_experiment(Gaussian(0.1, 1.0), grid, model, cfg, 0.5).l2_discrepancy

    # kappa = 0: the transform is exact for the free flow
    d_free = discrepancy(0j, 1e-3)
    check(d_free <= 1e-8, f"kappa=0 discrepancy {d_free:.2e} > 1e-8")
    # nonlinear case at dt = 1e-4, plus the order-2 ratio at coarser steps
    d_nonlinear = discrepancy(-1j, 1e-4)
    check(d_nonlinear <= 1e-2, f"nonlinear discrepancy {d_nonlinear:.2e} > 1e-2")
    ratio = discrepancy(-1j, 2e-3) / discrepancy(-1j, 1e-3)
    check(2.5 <= ratio <= 5.5, f"dt-halving ratio {ratio:.2f} not ~4")
    return (
        f"kappa=0: {d_free:.1e}; nonlinear at dt=1e-4: "
        f"{d_nonlinear:.1e}; halving ratio {ratio:.2f}"
    )


def criterion_13_delta_documentation(check: Check) -> str:
    check(
        "criteria 1" in DELTA_SUBSTITUTION_NOTE
        and "8" in DELTA_SUBSTITUTION_NOTE
        and "9" in DELTA_SUBSTITUTION_NOTE
        and "12" in DELTA_SUBSTITUTION_NOTE,
        "substitution note does not name criteria 1, 8, 9 and 12",
    )
    return DELTA_SUBSTITUTION_NOTE


CRITERIA: list = [
    (1, "exponent table", criterion_01_exponent_table),
    (2, "oracle closed forms", criterion_02_oracle_closed_forms),
    (3, "solver exactness and order", criterion_03_solver_exactness_and_order),
    (4, "mass law", criterion_04_mass_law),
    (5, "uniform-data blowup", criterion_05_uniform_blowup),
    (6, "gradient monotonicity", criterion_06_gradient_monotonicity),
    (7, "localized-mass machinery", criterion_07_localized_mass_machinery),
    (8, "Fujita dichotomy sweep", criterion_08_fujita_dichotomy),
    (9, "non-scattering below Fujita", criterion_09_non_scattering_floor),
    (10, "linear confinement", criterion_10_linear_confinement),
    (11, "median-radius law", criterion_11_median_radius_law),
    (12, "pseudo-conformal equivalence", criterion_12_pseudo_conformal_equivalence),
    (13, "existential-constant substitution documented", criterion_13_delta_documentation),
]


def run_criterion(number: int) -> CriterionResult:
    """Run one criterion and time it.

    It passes when every check holds and it does not raise.  Its details are
    then its detail line; otherwise they are the failed checks' messages in
    order, then `exception: ...` if it raised, joined by "; ".
    """
    for num, name, fn in CRITERIA:
        if num == number:
            failures: list = []

            def check(ok: bool, msg: str) -> None:
                if not ok:
                    failures.append(msg)

            t0 = time.perf_counter()
            try:
                detail = fn(check)
            except Exception as exc:
                failures.append(f"exception: {exc!r}")
            details = "; ".join(failures) if failures else detail
            return CriterionResult(
                num, name, not failures, details, time.perf_counter() - t0
            )
    raise KeyError(f"no criterion {number}")


def run_acceptance_suite(name_filter: Optional[str] = None) -> list:
    """Run and print every criterion whose name contains name_filter."""
    results = []
    for num, name, _ in CRITERIA:
        if name_filter and name_filter.lower() not in name.lower():
            continue
        res = run_criterion(num)
        results.append(res)
        print(res.line(), flush=True)
    if results:
        ok = sum(r.passed for r in results)
        print(f"{ok}/{len(results)} criteria passed")
        print(f"note: {DELTA_SUBSTITUTION_NOTE}")
    return results
