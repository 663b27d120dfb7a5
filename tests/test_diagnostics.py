import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.integrate

from nls.acceptance import _gradient_monotonicity_run
from nls.diagnostics import (
    CutoffFamily,
    DiagnosticTrace,
    ProbeSet,
    TraceRecorder,
    cutoff_normalization,
    default_lambdas,
    differential_inequality_ledger,
    linear_confinement_check,
    mass_balance_check,
    median_radius,
    rate_fit,
    scattering_residual,
    tent_profile,
)
from nls.exponents import ModelParams
from nls.field import (
    FieldState,
    Gaussian,
    GridSpec,
    PlaneWave,
    l2_norm,
    linear_propagate,
    make_initial,
    radial_shells,
    shell_mass,
    spectral_sq,
)
from nls.solver import SolverConfig, run

from conftest import counted_ffts

PROBIT_75 = 0.6744897501960817


# ---------------------------------------------------------------------------
# cutoff family


def test_tent_profile_shape():
    r = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    assert np.allclose(tent_profile(r), [1, 1, 1, 0.5, 0, 0])


def test_normalization_closed_forms():
    # int theta(|x|)^2 dx: 8/3 (N=1), 11 pi/6 (N=2), 52 pi/15 (N=3)
    assert cutoff_normalization(1) == pytest.approx(math.sqrt(3.0 / 8.0), abs=1e-12)
    assert cutoff_normalization(2) == pytest.approx(
        math.sqrt(6.0 / (11.0 * math.pi)), abs=1e-12
    )
    assert cutoff_normalization(3) == pytest.approx(
        math.sqrt(15.0 / (52.0 * math.pi)), abs=1e-12
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normalization_matches_radial_quadrature(n):
    # nu from the closed forms against adaptive quadrature of theta^2 over R^N
    area = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[n]
    integral, _ = scipy.integrate.quad(
        lambda r: tent_profile(r) ** 2 * r ** (n - 1), 0.0, 2.0, points=[1.0]
    )
    nu = 1.0 / math.sqrt(area * integral)
    assert abs(cutoff_normalization(n) - nu) <= math.ulp(nu)


def test_phi_norm_quadrature_identity():
    for n in (1, 2, 3):
        fam = CutoffFamily.build(n, (0.5, 1.0, 2.0))
        for lam in fam.lambdas:
            assert fam.phi_l2_norm_quadrature(lam) == pytest.approx(
                lam ** (-n / 2.0), abs=1e-8
            )


def test_support_check():
    fam = CutoffFamily.build(1, (0.05,))  # support radius 40
    with pytest.raises(ValueError, match="support"):
        fam.check_support(GridSpec(1, 40.0, 64))
    fam2 = CutoffFamily.build(1, (0.2,))  # support radius 10 = L/4
    fam2.check_support(GridSpec(1, 40.0, 64))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_cutoff_lambdas_must_be_positive_and_finite(bad):
    with pytest.raises(ValueError, match="lambdas must be positive and finite"):
        CutoffFamily.build(1, (bad, 1.0))


def test_default_lambda_ladder():
    lams = default_lambdas(80.0, 1.0)
    assert len(lams) == 5
    assert lams[0] > 4.0 / 80.0
    assert lams[-1] == pytest.approx(4.0)
    assert all(b > a for a, b in zip(lams, lams[1:]))


# ---------------------------------------------------------------------------
# localized mass


def localized_mass(state, cutoffs):
    """f_lambda = ||u phi_lambda||_L2 per lambda, as one trace row records it."""
    model = ModelParams(state.grid.dim, 1.0, -1j)
    rec = TraceRecorder(model, ProbeSet(cutoffs=cutoffs, median_radius=False, weighted_l2=False))
    rec.record(state, scipy.fft.fftn(state.values))
    return rec.rows[0]["loc_mass"]


def test_localized_mass_uniform_field():
    # f_lambda^2 = lambda^{-1} for u = 1 in one dimension
    g = GridSpec(1, 16.0, 8192)
    st = FieldState(grid=g, values=np.ones(g.shape, complex))
    fam = CutoffFamily.build(1, (0.5, 1.0, 2.0))
    f = localized_mass(st, fam)
    for lam, fv in zip(fam.lambdas, f):
        # equal-weight quadrature of the kinked tent: error ~ (lambda h)^2
        assert fv**2 == pytest.approx(1.0 / lam, rel=1e-5)


def test_localized_mass_small_lambda_limit():
    # as lambda drops to its box limit, f_lambda approaches nu * ||u||_L2 for
    # data supported well inside |x| <= 1/lambda (the plateau of the tent)
    g = GridSpec(1, 40.0, 2048)
    st = make_initial(g, Gaussian(1.0, 1.0))
    fam = CutoffFamily.build(1, (4.004 / 40.0,))
    f = localized_mass(st, fam)[0]
    assert f == pytest.approx(fam.nu * l2_norm(st), rel=1e-2)


def test_localized_mass_large_lambda_bound_and_decay():
    g = GridSpec(1, 40.0, 2048)
    st = make_initial(g, Gaussian(1.0, 1.0))
    fam = CutoffFamily.build(1, (2.0, 8.0, 32.0))
    f = localized_mass(st, fam)
    linf = float(np.max(np.abs(st.values)))
    for lam, fv in zip(fam.lambdas, f):
        assert fv <= lam ** (-0.5) * linf * (1 + 1e-9)
    assert f[0] > f[1] > f[2]  # decreasing toward 0 as lambda grows


def test_localized_mass_below_nu_times_l2():
    rng = np.random.default_rng(12)
    g = GridSpec(1, 40.0, 1024)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    st = FieldState(grid=g, values=vals)
    fam = CutoffFamily.build(1, default_lambdas(40.0, 1.0))
    f = localized_mass(st, fam)
    assert np.all(f <= fam.nu * l2_norm(st) * (1 + 1e-12))
    # monotone nonincreasing in lambda
    assert np.all(np.diff(f) <= 1e-12)


# ---------------------------------------------------------------------------
# median radius


def test_median_radius_uniform_plateau():
    g = GridSpec(1, 40.0, 4096)
    x = g.axis_coordinates()
    w = 5.0
    vals = np.where(np.abs(x) <= w, 1.0 + 0.0j, 0.0)
    assert median_radius(shell_mass(vals, g), g) == pytest.approx(w / 2, abs=2 * g.spacing)


def test_median_radius_gaussian():
    g = GridSpec(1, 40.0, 2048)
    st = make_initial(g, Gaussian(1.0, math.sqrt(2.0)))  # |u|^2 ~ N(0, 1)
    assert median_radius(shell_mass(st.values, g), g) == pytest.approx(PROBIT_75, rel=5e-3)


def test_median_radius_free_spreading_law():
    g = GridSpec(1, 80.0, 2048)
    st = make_initial(g, Gaussian(1.0, math.sqrt(2.0)))
    for t in (1.0, 2.0, 4.0):
        ut = linear_propagate(st, t)
        assert median_radius(shell_mass(ut.values, g), g) == pytest.approx(
            PROBIT_75 * math.sqrt(1 + t * t), rel=1e-2
        )


def test_median_radius_zero_field():
    # a field whose half mass rounds to 0 has no median radius either: one
    # shell of mass 5e-324 at r = 1.25 (half of it is 0.0), not R = 0
    g = GridSpec(1, 10.0, 64)
    r2 = radial_shells(g)[0]
    tiny = np.where(r2 == 1.25**2, 5e-324, 0.0)
    assert np.count_nonzero(tiny) == 1
    for shells in (shell_mass(np.zeros(g.shape, complex), g), tiny):
        assert math.isnan(median_radius(shells, g))


# ---------------------------------------------------------------------------
# mass balance


def run_simple(model, init, grid, dt, t_end, cadence=1, probes=None):
    st = make_initial(grid, init)
    cfg = SolverConfig(dt=dt, t_end=t_end, diagnostics_cadence=cadence)
    return run(st, model, cfg, probes=probes)


def test_mass_balance_real_kappa_noise_level():
    g = GridSpec(1, 2 * math.pi, 128)
    model = ModelParams(1, 2.0, 1.0 + 0.0j)
    out = run_simple(model, PlaneWave(1.0, (3,)), g, 1e-3, 0.5)
    rep = mass_balance_check(out.trace, model)
    assert rep.max_relative_mismatch <= 1e-6


def test_mass_balance_uniform_closed_form():
    # u constant in space: d(mass^2)/dt = 2 m(t)^4 L exactly (alpha = 2)
    g = GridSpec(1, 1.0, 16)
    model = ModelParams(1, 2.0, -1j)
    out = run_simple(model, PlaneWave(1.0, (0,)), g, 1e-4, 0.4)
    tr = out.trace
    assert mass_balance_check(tr, model).max_relative_mismatch <= 1e-4
    m2 = tr.mass**2
    deriv = (m2[2:] - m2[:-2]) / (tr.t[2:] - tr.t[:-2])
    want = 2.0 * (1.0 - 2.0 * tr.t[1:-1]) ** (-2.0) * g.box_length  # 2 m^4 L
    assert np.allclose(deriv, want, rtol=1e-4)


def test_mass_balance_sign_dissipative():
    g = GridSpec(1, 40.0, 512)
    model = ModelParams(1, 1.0, 1j)
    out = run_simple(model, Gaussian(1.0, 1.0), g, 1e-3, 0.5, cadence=10)
    m = out.trace.mass
    assert np.all(np.diff(m) < 0)


def test_mass_balance_needs_three_rows():
    g = GridSpec(1, 40.0, 256)
    model = ModelParams(1, 1.0, -1j)
    out = run_simple(model, Gaussian(0.5, 1.0), g, 1e-2, 0.02)
    tr = out.trace
    short = DiagnosticTrace(
        t=tr.t[:2], mass=tr.mass[:2], lp=tr.lp[:2],
        grad_l2=tr.grad_l2[:2], K_t=tr.K_t[:2], linf=tr.linf[:2],
        R_t=tr.R_t[:2], weighted_l2=tr.weighted_l2[:2],
        scatter_residual=tr.scatter_residual[:2], tail_frac=tr.tail_frac[:2],
        loc_mass=tr.loc_mass[:2], lambdas=tr.lambdas,
    )
    with pytest.raises(ValueError):
        mass_balance_check(short, model)


# ---------------------------------------------------------------------------
# differential-inequality ledger


def synthetic_uniform_trace(model, grid, fam, times):
    """Trace of the exact spatially uniform solution m(t), f = m ||phi||_grid."""
    al, ki = model.alpha, model.kappa.imag
    rows_f = []
    mass = []
    lp = []
    for t in times:
        m = (1.0 + al * ki * t) ** (-1.0 / al)  # |u0| = 1
        st = FieldState(grid=grid, values=np.full(grid.shape, m, complex))
        rows_f.append(localized_mass(st, fam))
        mass.append(l2_norm(st))
        lp.append(m * grid.box_length ** (1 / (al + 2)))
    n = len(times)
    z = np.zeros(n)
    return DiagnosticTrace(
        t=np.asarray(times), mass=np.asarray(mass), lp=np.asarray(lp),
        grad_l2=z, K_t=z, linf=np.full(n, np.nan), R_t=np.full(n, np.nan),
        weighted_l2=np.full(n, np.nan), scatter_residual=np.full(n, np.nan),
        tail_frac=z, lambdas=fam.lambdas, loc_mass=np.array(rows_f),
    )


def test_ledger_saturates_for_uniform_data():
    # zero gradient kills the K_t term and makes the Holder step sharp:
    # f' = -Im(kappa) lambda^{N a/2} f^{a+1} up to grid-quadrature error
    g = GridSpec(1, 8.0, 8192)
    model = ModelParams(1, 1.0, -1j)
    fam = CutoffFamily.build(1, (0.5, 1.0))
    # row spacing 5e-4 keeps the central-difference error below the target
    times = np.linspace(0.0, 0.2, 401)
    tr = synthetic_uniform_trace(model, g, fam, times)
    led = differential_inequality_ledger(tr, model, fam)
    assert abs(led.normalized_min_slack) <= 1e-6


def test_ledger_on_amplifying_gaussian_run():
    g = GridSpec(1, 40.0, 1024)
    model = ModelParams(1, 1.0, -1j)
    fam = CutoffFamily.build(1, default_lambdas(40.0, 1.0))
    probes = ProbeSet(cutoffs=fam, median_radius=False, weighted_l2=False)
    out = run_simple(model, Gaussian(0.5, 1.0), g, 1e-3, 1.0, cadence=5,
                     probes=probes)
    led = differential_inequality_ledger(out.trace, model, fam)
    assert led.normalized_min_slack >= -1e-3


def per_lambda_ledger(trace, model, cutoffs):
    """The ledger's normalized min slack, one lambda at a time."""
    ki, n, al, t, K = model.kappa.imag, model.dim, model.alpha, trace.t, trace.K_t
    ratios = []
    for j, lam in enumerate(cutoffs.lambdas):
        f = trace.loc_mass[:, j]
        fprime = (f[2:] - f[:-2]) / (t[2:] - t[:-2])
        leak = 2.0 * cutoffs.nu * lam * K[1:-1]
        gain = -(ki * lam ** (n * al / 2.0) * f[1:-1] ** (al + 1.0))
        scale = float(np.max(leak + gain + np.abs(fprime)))
        ratios.append(float(np.min(fprime - (gain - leak))) / (scale if scale > 0 else 1.0))
    return min(ratios)


def test_ledger_equals_a_per_lambda_loop_bit_for_bit():
    outcome, model, fam = _gradient_monotonicity_run()  # criterion 7's run
    got = differential_inequality_ledger(outcome.trace, model, fam).normalized_min_slack
    assert got.hex() == per_lambda_ledger(outcome.trace, model, fam).hex()
    # a 3-D trace with every probe, as the benchmark's probes_3d records it
    g = GridSpec(3, 20.0, 32)
    model = ModelParams(3, 0.5, -1j)
    fam = CutoffFamily.build(3, default_lambdas(g.box_length, 1.0))
    probes = ProbeSet(cutoffs=fam, scatter=True, store_states_every=5)
    out = run_simple(model, Gaussian(0.5, 1.0), g, 1e-2, 0.1, cadence=2, probes=probes)
    got = differential_inequality_ledger(out.trace, model, fam).normalized_min_slack
    assert got.hex() == per_lambda_ledger(out.trace, model, fam).hex()


def test_ledger_requires_amplifying_sign():
    g = GridSpec(1, 8.0, 64)
    model = ModelParams(1, 1.0, 1j)
    fam = CutoffFamily.build(1, (1.0,))
    tr = synthetic_uniform_trace(ModelParams(1, 1.0, -1j), g, fam, np.linspace(0, 0.1, 5))
    with pytest.raises(ValueError):
        differential_inequality_ledger(tr, model, fam)


def test_ledger_refuses_another_cutoff_family():
    # loc_mass holds f at the recorded lambdas only: the same count of other
    # lambdas would read those columns as if they were f at the new scales
    g = GridSpec(1, 40.0, 256)
    model = ModelParams(1, 1.0, -1j)
    fam = CutoffFamily.build(1, default_lambdas(40.0, 1.0))
    out = run_simple(model, Gaussian(0.5, 1.0), g, 1e-2, 0.3, cadence=3,
                     probes=ProbeSet(cutoffs=fam))
    own = differential_inequality_ledger(out.trace, model, fam)
    # the CSV header keeps 6 significant digits of each lambda
    back = DiagnosticTrace.from_csv(out.trace.to_csv())
    assert back.lambdas != fam.lambdas
    assert differential_inequality_ledger(back, model, fam) == own
    for lambdas in ([100 * v for v in fam.lambdas], fam.lambdas[:-1],
                    fam.lambdas[:-1] + (fam.lambdas[-1] * (1 + 1e-4),)):
        with pytest.raises(ValueError, match="trace was recorded without this cutoff family"):
            differential_inequality_ledger(out.trace, model, CutoffFamily.build(1, lambdas))


# ---------------------------------------------------------------------------
# rate fit


def synthetic_power_trace(power, n=200, t0=1e-2, t1=100.0, noise=0.0, seed=0):
    t = np.geomspace(t0, t1, n)
    rng = np.random.default_rng(seed)
    K = t**power * np.exp(noise * rng.standard_normal(n))
    K = np.maximum.accumulate(K)
    z = np.zeros(n)
    return DiagnosticTrace(
        t=t, mass=np.ones(n), lp=np.ones(n), grad_l2=K, K_t=K,
        linf=z, R_t=z, weighted_l2=z, scatter_residual=np.full(n, np.nan),
        tail_frac=z, loc_mass=np.empty((n, 0)), lambdas=(),
    )


def test_rate_fit_recovers_power_law():
    model = ModelParams(1, 1.0, -1j)  # theoretical exponent (2-1)/1 = 1
    tr = synthetic_power_trace(1.0)
    fit = rate_fit(tr, model)
    assert fit.slope == pytest.approx(1.0, abs=1e-10)
    assert fit.theoretical_exponent == 1.0
    assert fit.verdict


def test_rate_fit_theoretical_exponents():
    assert rate_fit(
        synthetic_power_trace(1.0), ModelParams(2, 0.5, -1j)
    ).theoretical_exponent == pytest.approx(1.0)  # (2 - 1)/1
    assert rate_fit(
        synthetic_power_trace(1.0), ModelParams(3, 0.25, -1j)
    ).theoretical_exponent == pytest.approx((2 - 0.75) / 0.75)


def test_rate_fit_verdict_branches():
    model = ModelParams(1, 1.0, -1j)
    slow = rate_fit(synthetic_power_trace(0.5), model)
    assert not slow.verdict  # 0.5 < 1 - 0.1


def test_rate_fit_needs_enough_rows():
    model = ModelParams(1, 1.0, -1j)
    with pytest.raises(ValueError):
        rate_fit(synthetic_power_trace(1.0, n=8), model)


# ---------------------------------------------------------------------------
# linear confinement


def test_confinement_free_gaussian():
    g = GridSpec(1, 400.0, 4096)
    u0 = make_initial(g, Gaussian(1.0, math.sqrt(2.0)))
    rep = linear_confinement_check(u0, (1.0, 2.0, 4.0, 8.0))
    assert rep.a == pytest.approx(8.0, rel=1e-10)  # 16 ||grad u0||/||u0|| = 8
    assert rep.max_violation <= 1e-8
    assert rep.exterior_fraction[-1] <= 0.25


def test_confinement_counts_time_from_its_state():
    # criterion 10's Gaussian as a checkpoint at time 3 would load it: each
    # time is elapsed from the state, so the report is the time-0 one, bit for bit
    g = GridSpec(1, 400.0, 4096)
    u0 = make_initial(g, Gaussian(1.0, math.sqrt(2.0)))
    times = (1.0, 2.0, 4.0, 8.0)
    want = linear_confinement_check(u0, times)
    got = linear_confinement_check(u0.with_values(u0.values, time=3.0), times)
    assert got.a == want.a and got.max_violation == want.max_violation
    for name in ("lhs", "rhs", "exterior_fraction"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_confinement_matches_dense_reference():
    # the dense formula: |x| and psi_M on every node, one free propagation per time
    g = GridSpec(2, 60.0, 128)
    u0 = make_initial(g, Gaussian(1.0 + 0.5j, 1.5))
    times = (0.04, 0.08, 0.12)  # a t <= 1.3 against a ~ 10.7: mass outside
    l2, gr = l2_norm(u0), math.sqrt(spectral_sq(scipy.fft.fftn(u0.values), g)[1])
    rep = linear_confinement_check(u0, times)
    assert rep.a == pytest.approx(16.0 * gr / l2, rel=1e-13)
    r, hN = np.sqrt(g.radius_squared()), g.spacing**g.dim
    m2_0 = np.abs(u0.values) ** 2
    for i, t in enumerate(times):
        M = rep.a * t
        psi = np.minimum(r / M, 1.0)
        m2_t = np.abs(linear_propagate(u0, t).values) ** 2
        rhs = float(np.sum(psi * m2_0)) * hN + 2.0 * t / M * l2 * gr
        ext = float(np.sum(m2_t[r > M])) * hN / l2**2
        assert rep.lhs[i] == pytest.approx(float(np.sum(psi * m2_t)) * hN, rel=1e-12)
        assert rep.rhs[i] == pytest.approx(rhs, rel=1e-12)
        assert ext > 0.1 and rep.exterior_fraction[i] == pytest.approx(ext, rel=1e-12)


def test_confinement_box_too_small():
    g = GridSpec(1, 40.0, 256)
    u0 = make_initial(g, Gaussian(1.0, math.sqrt(2.0)))
    with pytest.raises(ValueError, match="box"):
        linear_confinement_check(u0, (8.0,))  # a t = 64 > L/2


def test_confinement_rejects_a_far_time_before_any_free_flow(monkeypatch):
    # criterion 10's grid, where a = 8: a t = 800 > L/2 at t = 100, and the
    # forward FFT that gives a is the only transform
    g = GridSpec(1, 400.0, 4096)
    u0 = make_initial(g, Gaussian(1.0, math.sqrt(2.0)))
    calls = counted_ffts(monkeypatch)
    with pytest.raises(ValueError, match="a t = 800 exceeds box half-length"):
        linear_confinement_check(u0, (1.0, 2.0, 4.0, 100.0))
    assert calls == ["fftn"]


@pytest.mark.parametrize(
    "data,times,message,ffts",
    [
        (Gaussian(0.0, 1.0), (1.0,), r"nonzero gradient, got \|\|grad u0\|\| = 0", 1),
        (PlaneWave(1.0, (0,)), (1.0,), r"nonzero gradient, got \|\|grad u0\|\| = 0", 1),
        (Gaussian(1.0, 1.0), (0.0, 1.0), "confinement times must be > 0, got 0.0", 0),
    ],
    ids=["zero", "uniform", "t=0"],
)
def test_confinement_needs_a_positive_radius(monkeypatch, data, times, message, ffts):
    # M = a t must be > 0: psi_M = min(|x|/M, 1) and the 2t/M term have no
    # value at M = 0, so these are refused before any free flow
    u0 = make_initial(GridSpec(1, 40.0, 256), data)
    calls = counted_ffts(monkeypatch)
    with pytest.raises(ValueError, match=message):
        linear_confinement_check(u0, times)
    assert calls == ["fftn"] * ffts


# ---------------------------------------------------------------------------
# scattering residual


def test_scattering_residual_vanishes_for_free_flow():
    g = GridSpec(1, 40.0, 512)
    u0 = make_initial(g, Gaussian(0.5, 1.0))
    states = [linear_propagate(u0, t) for t in (0.0, 1.0, 2.0, 4.0)]
    res = scattering_residual(states)
    scale = l2_norm(u0)
    assert all(r <= 1e-12 * scale for r in res)


def test_scattering_residual_orders_and_errors():
    g = GridSpec(1, 40.0, 512)
    u0 = make_initial(g, Gaussian(0.5, 1.0))
    with pytest.raises(ValueError):
        scattering_residual([u0])
    s1 = linear_propagate(u0, 1.0)
    with pytest.raises(ValueError):
        scattering_residual([s1, u0])


# ---------------------------------------------------------------------------
# trace CSV


def test_trace_csv_roundtrip():
    g = GridSpec(1, 40.0, 256)
    model = ModelParams(1, 1.0, -1j)
    fam = CutoffFamily.build(1, (0.5, 1.0))
    probes = ProbeSet(cutoffs=fam)
    out = run_simple(model, Gaussian(0.5, 1.0), g, 1e-2, 0.3, cadence=3,
                     probes=probes)
    text = out.trace.to_csv()
    header = text.splitlines()[0]
    assert header.startswith(
        "t,mass,lp,grad_l2,K_t,linf,R_t,weighted_l2,scatter_residual"
    )
    assert "loc_mass_λ=0.5" in header and "loc_mass_λ=1" in header
    back = DiagnosticTrace.from_csv(text)
    assert back.to_csv() == text  # parse is lossless (repr round-trip floats)
    assert np.array_equal(back.t, out.trace.t)
    assert np.array_equal(back.loc_mass, out.trace.loc_mass)


def test_trace_csv_reads_only_the_written_layout():
    # from_csv reads exactly what to_csv writes; a permuted header, an unknown
    # column (first, between the scalars, or among the loc_mass columns) and
    # a missing one are each refused with the header quoted
    g = GridSpec(1, 40.0, 256)
    model = ModelParams(1, 1.0, -1j)
    fam = CutoffFamily.build(1, (0.5, 1.0, 2.0))
    out = run_simple(model, Gaussian(0.5, 1.0), g, 1e-2, 0.3, cadence=3,
                     probes=ProbeSet(cutoffs=fam, scatter=True))
    text = out.trace.to_csv()
    table = [ln.split(",") for ln in text.splitlines()]
    width = len(table[0])

    def reorder(order, extra=None):
        rows = [[r[j] for j in order] for r in table]
        if extra is not None:
            at, name = extra
            for r, v in zip(rows, [name] + ["0.0"] * len(rows)):
                r.insert(at, v)
        return "\n".join(",".join(r) for r in rows) + "\n"

    assert reorder(range(width)) == text
    n = len(DiagnosticTrace.columns())
    swapped = list(range(width))
    swapped[2], swapped[3] = 3, 2
    bad = [
        reorder(reversed(range(width))),
        reorder(swapped),
        reorder(range(width), (0, "energy")),
        reorder(range(width), (4, "energy")),
        reorder(range(width), (n + 1, "energy")),
        reorder(range(width), (width, "energy")),
        text.replace("grad_l2", "grad"),
    ]
    for csv in bad:
        head = csv.splitlines()[0]
        with pytest.raises(ValueError, match=re.escape(repr(head))):
            DiagnosticTrace.from_csv(csv)


def test_readme_trace_header_matches_to_csv():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    fixed, per_lambda = re.search(
        r"\*\*Trace CSV\*\* — header\n`([^`\[]*)\[(,loc_mass_λ=)<v>\.\.\.\]`", readme
    ).groups()
    columns = {name: np.zeros(1) for name in DiagnosticTrace.columns()}
    trace = DiagnosticTrace(**columns, lambdas=(0.5,), loc_mass=np.zeros((1, 1)))
    assert trace.to_csv().splitlines()[0] == fixed + per_lambda + "0.5"


def test_trace_csv_absent_fields_empty():
    g = GridSpec(1, 40.0, 256)
    model = ModelParams(1, 1.0, -1j)
    probes = ProbeSet(median_radius=False, weighted_l2=False)
    out = run_simple(model, Gaussian(0.5, 1.0), g, 1e-2, 0.1, probes=probes)
    header, line = (ln.split(",") for ln in out.trace.to_csv().splitlines()[:2])
    row = dict(zip(header, line))
    # R_t and weighted_l2 columns are empty, scatter too
    assert [row[n] for n in ("R_t", "weighted_l2", "scatter_residual")] == ["", "", ""]


def test_median_radius_2d_gaussian():
    # |u|^2 = e^{-2|x|^2}: half mass inside R = sqrt(ln(2)/2)
    g = GridSpec(2, 20.0, 1024)
    st = make_initial(g, Gaussian(1.0, 1 / math.sqrt(2)))
    r = median_radius(shell_mass(st.values, g), g)
    assert r == pytest.approx(math.sqrt(math.log(2.0) / 2), rel=5e-3)


def test_localized_mass_uniform_2d():
    # f_lambda^2 = lambda^{-2} for u = 1 in two dimensions
    g = GridSpec(2, 16.0, 1024)
    st = FieldState(grid=g, values=np.ones(g.shape, complex))
    fam = CutoffFamily.build(2, (1.0, 2.0))
    f = localized_mass(st, fam)
    for lam, fv in zip(fam.lambdas, f):
        assert fv**2 == pytest.approx(lam ** (-2.0), rel=1e-3)


def test_median_radius_3d_gaussian():
    # |u|^2 = e^{-|x|^2}: half-mass radius solves gammainc(3/2, R^2) = 1/2
    import scipy.special

    g = GridSpec(3, 12.0, 128)
    st = make_initial(g, Gaussian(1.0, 1.0))
    want = math.sqrt(scipy.special.gammaincinv(1.5, 0.5))
    assert median_radius(shell_mass(st.values, g), g) == pytest.approx(want, rel=1e-2)
