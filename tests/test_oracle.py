import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from nls.cli import main
from nls.exponents import ModelParams
from nls.oracle import (
    SelfSimilarParams,
    SubstepBlowupError,
    blowup_time,
    nonlinear_flow,
    reduced_rhs,
    reduced_trajectory,
    weight_integral,
)

from conftest import bits, reference_flow


def integrate_reduced(p, t_eval):
    """Independent high-order adaptive integration of the reduced ODE."""
    sol = scipy.integrate.solve_ivp(
        reduced_rhs,
        (0.0, t_eval[-1]),
        [p.z0.real, p.z0.imag],
        args=(p,),
        method="DOP853",
        rtol=1e-11,
        atol=1e-13,
        t_eval=t_eval,
        max_step=0.05 * (t_eval[-1] or 1.0),
    )
    assert sol.success
    return sol.y[0] + 1j * sol.y[1]


# ---------------------------------------------------------------------------
# weight integral


def test_weight_integral_log_branch():
    # N alpha / 2 = 1: logarithmic branch, ln(e) = 1
    m = ModelParams(2, 1.0, -1j)
    assert weight_integral(m, 1.0, math.e - 1.0) == pytest.approx(1.0, rel=1e-14)
    # log1p(t/t0) at t << t0, where log((t+t0)/t0) keeps about 6 digits
    assert weight_integral(m, 1e8, 1e-2) == pytest.approx(1e-10 - 5e-21, rel=1e-15, abs=0)


def test_weight_integral_tail():
    m = ModelParams(2, 2.0, -1j)
    assert weight_integral(m, 1.0, math.inf) == pytest.approx(1.0, rel=1e-14)
    # finite horizon cross-checked by adaptive quadrature
    for t in (0.5, 3.0, 20.0):
        quad, _ = scipy.integrate.quad(lambda s: (s + 1.0) ** (-2.0), 0.0, t)
        assert weight_integral(m, 1.0, t) == pytest.approx(quad, rel=1e-12)


def test_weight_integral_empty_and_divergent():
    m = ModelParams(2, 1.0, -1j)
    assert weight_integral(m, 1.0, 0.0) == 0.0
    assert math.isinf(weight_integral(m, 1.0, math.inf))  # N alpha <= 2 diverges


def test_weight_integral_generic_vs_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = ModelParams(int(rng.integers(1, 4)), float(rng.uniform(0.3, 3.0)), -1j)
        t0 = float(rng.uniform(0.2, 3.0))
        t = float(rng.uniform(0.0, 5.0))
        quad, _ = scipy.integrate.quad(
            lambda s: (s + t0) ** (-m.dim * m.alpha / 2.0), 0.0, t
        )
        assert weight_integral(m, t0, t) == pytest.approx(quad, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# amplitude law and classification


def test_amplitude_constant_without_dissipation():
    p = SelfSimilarParams(1.0, 0.7 + 0.2j, ModelParams(2, 1.5, 2.0 + 0.0j))
    for t in (0.0, 1.0, 10.0):
        assert abs(reduced_trajectory(p, t)) == pytest.approx(abs(p.z0), rel=1e-14)


def test_blowup_time_log_branch():
    p = SelfSimilarParams(1.0, 1.0 + 0.0j, ModelParams(2, 1.0, -1j))
    T = blowup_time(p)
    assert T == pytest.approx(math.e - 1.0, rel=1e-12)
    with pytest.raises(SubstepBlowupError):
        reduced_trajectory(p, T + 1e-9)


def test_blowup_time_algebraic_branch():
    p = SelfSimilarParams(1.0, 1.0 + 0.0j, ModelParams(2, 2.0, -1j))
    assert blowup_time(p) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("dim,alpha", [(1, 0.5), (1, 1.0), (3, 1.0), (2, 2.0)])
def test_closed_forms_keep_their_digits_for_every_t0(dim, alpha):
    # against mpmath with the digits of t0 and of the answer both carried:
    # (t+t0)^g - t0^g, g = 1 - N alpha/2, cancels when t << t0, and at
    # t0 = 1e-300 with small data T/t0 and e^(log1p(x)/g) overflow
    model = ModelParams(dim, alpha, -1j)
    g = mpmath.mpf(1) - mpmath.mpf(dim) * alpha / 2
    for t0, z0 in ((1e4, 1.0), (1e8, 1.0), (1e12, 1.0), (1e16, 1.0), (1e300, 1.0),
                   (1e-300, 1e-8)):
        total = weight_integral(model, t0, math.inf)
        if total < math.inf:  # beyond the critical power: c = 1e-6 W(inf) blows up
            z0 = (alpha * 1e-6 * total) ** (-1 / alpha)
        T = blowup_time(SelfSimilarParams(t0, complex(z0), model))
        with mpmath.workdps(700):
            c = mpmath.mpf(z0) ** -alpha / alpha
            T_ref = (mpmath.mpf(t0) ** g + g * c) ** (1 / g) - t0
            assert abs(T - T_ref) / T_ref <= 1e-14, (t0, T, T_ref)
            W = weight_integral(model, t0, float(T_ref))  # W(T) = c
            assert abs(W - c) / c <= 1e-14, (t0, W, c)


def test_blowup_times_against_adaptive_integrator():
    # integrate to |z| = 1e6, then add the frozen-weight dominant-balance
    # tail: the remaining time to divergence is m^-alpha/(alpha (-Im k) w)
    for model, T_exact in (
        (ModelParams(2, 1.0, -1j), math.e - 1.0),
        (ModelParams(2, 2.0, -1j), 1.0),
    ):
        p = SelfSimilarParams(1.0, 1.0 + 0.0j, model)

        def hit(t, y, p):
            return math.hypot(y[0], y[1]) - 1e6

        hit.terminal = True
        sol = scipy.integrate.solve_ivp(
            reduced_rhs, (0.0, 10.0), [1.0, 0.0], args=(p,),
            method="DOP853", rtol=1e-12, atol=1e-12, events=[hit], max_step=0.05,
        )
        assert sol.t_events[0].size == 1
        t_hit = float(sol.t_events[0][0])
        m = math.hypot(*sol.y_events[0][0])
        w = (t_hit + p.t0) ** (-model.dim * model.alpha / 2.0)
        tail = m ** (-model.alpha) / (model.alpha * (-model.kappa.imag) * w)
        assert t_hit + tail == pytest.approx(T_exact, rel=1e-6)


def test_classification_threshold_case():
    # alpha > 2/N: global iff |z0|^-alpha / alpha >= (-Im kappa) W(inf)
    m = ModelParams(2, 2.0, -1j)
    at_threshold = SelfSimilarParams(1.0, (1 / math.sqrt(2)) + 0j, m)
    assert blowup_time(at_threshold) is None
    just_above = SelfSimilarParams(1.0, (1 / math.sqrt(2)) * (1 + 1e-6) + 0j, m)
    assert blowup_time(just_above) is not None
    just_below = SelfSimilarParams(1.0, (1 / math.sqrt(2)) * (1 - 1e-6) + 0j, m)
    assert blowup_time(just_below) is None


def test_classification_below_fujita_always_blows_up():
    m = ModelParams(2, 1.0, -1j)  # alpha = 2/N
    for amp in (1e-6, 1e-2, 1.0, 100.0):
        p = SelfSimilarParams(1.0, amp + 0j, m)
        assert blowup_time(p) is not None


def test_classification_global_for_nonnegative_imaginary_part():
    p = SelfSimilarParams(1.0, 5.0 + 0j, ModelParams(2, 1.0, 1j))
    assert blowup_time(p) is None
    p2 = SelfSimilarParams(1.0, 5.0 + 0j, ModelParams(1, 0.5, 3.0 + 0.0j))
    assert blowup_time(p2) is None


def test_cli_oracle_rejects_trivial_solution(capsys):
    argv = ["oracle", "--kappa-im", "-1", "--alpha", "1", "--dim", "2", "--t0", "1", "--z0", "0"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: z0 = 0 is the trivial solution\n"


def test_amplitude_against_integrator_random_draws():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        model = ModelParams(
            dim=int(rng.integers(1, 4)),
            alpha=float(rng.uniform(0.3, 2.5)),
            kappa=complex(rng.uniform(-1, 1), rng.uniform(-1.5, -0.1)),
        )
        p = SelfSimilarParams(
            t0=float(rng.uniform(0.3, 2.0)),
            z0=cmath.rect(float(rng.uniform(0.2, 2.0)), float(rng.uniform(-3, 3))),
            model=model,
        )
        T = blowup_time(p)
        horizon = 0.9 * T if T is not None else 5.0
        t_eval = np.linspace(0.0, horizon, 7)
        z_num = integrate_reduced(p, t_eval)
        for t, zn in zip(t_eval, z_num):
            assert abs(reduced_trajectory(p, t)) == pytest.approx(abs(zn), rel=1e-8)
        checked += 1


def test_trajectory_phase_matches_integrator():
    # the phase law is derived, not quoted: check it against the integrator
    rng = np.random.default_rng(5)
    for _ in range(20):
        model = ModelParams(
            dim=int(rng.integers(1, 4)),
            alpha=float(rng.uniform(0.4, 2.0)),
            kappa=complex(rng.uniform(-1, 1), rng.uniform(-1.0, 1.0)),
        )
        p = SelfSimilarParams(1.0, cmath.rect(0.8, 1.1), model)
        T = blowup_time(p)
        horizon = 0.8 * T if T is not None else 3.0
        t_eval = np.linspace(0.0, horizon, 5)
        z_num = integrate_reduced(p, t_eval)
        for t, zn in zip(t_eval, z_num):
            zc = reduced_trajectory(p, t)
            assert zc == pytest.approx(zn, rel=2e-8, abs=1e-10)


def test_amplitude_monotone_in_sign_of_imaginary_part():
    grow = SelfSimilarParams(1.0, 1.0 + 0j, ModelParams(2, 2.0, 0.5 - 0.8j))
    ts = np.linspace(0, 0.5, 20)
    amps = [abs(reduced_trajectory(grow, t)) for t in ts]
    assert all(b >= a for a, b in zip(amps, amps[1:]))
    shrink = SelfSimilarParams(1.0, 1.0 + 0j, ModelParams(2, 2.0, 0.5 + 0.8j))
    amps = [abs(reduced_trajectory(shrink, t)) for t in ts]
    assert all(b <= a for a, b in zip(amps, amps[1:]))


# ---------------------------------------------------------------------------
# pointwise nonlinear flow


def test_pointwise_flow_phase_rotation():
    # kappa real: standard NLS phase rotation, modulus conserved
    m = ModelParams(1, 2.0, 1.0 + 0.0j)
    for t in (0.1, 0.375, 2.0):
        assert nonlinear_flow(np.array([1.0 + 0.0j]), m, t)[0] == pytest.approx(
            cmath.exp(1j * t), rel=1e-14
        )


def test_pointwise_flow_blowup_modulus():
    m = ModelParams(1, 2.0, -1j)
    out = nonlinear_flow(np.array([1.0 + 0.0j]), m, 0.375)[0]
    assert abs(out) == pytest.approx(2.0, rel=1e-14)  # (1 - 2t)^(-1/2)
    assert out.imag == pytest.approx(0.0, abs=1e-15)  # Re kappa = 0: no rotation


def test_pointwise_flow_fixed_point_at_zero():
    out = nonlinear_flow(np.array([0.0 + 0.0j]), ModelParams(1, 1.5, -1j), 0.5)
    assert out[0] == 0.0


def test_pointwise_flow_substep_blowup_signal():
    m = ModelParams(1, 2.0, -1j)
    with pytest.raises(SubstepBlowupError):
        nonlinear_flow(np.array([1.0 + 0.0j]), m, 0.5)  # bracket hits zero


def test_flow_semigroup_property():
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = ModelParams(
            1,
            float(rng.uniform(0.3, 3.0)),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        u0 = cmath.rect(float(rng.uniform(0.1, 1.5)), float(rng.uniform(-3, 3)))
        dt1, dt2 = float(rng.uniform(0.01, 0.2)), float(rng.uniform(0.01, 0.2))
        try:
            two = nonlinear_flow(nonlinear_flow(np.array([u0]), m, dt1), m, dt2)[0]
            one = nonlinear_flow(np.array([u0]), m, dt1 + dt2)[0]
        except SubstepBlowupError:
            continue
        assert two == pytest.approx(one, rel=1e-13)


def test_flow_against_integrator():
    # u' = i kappa |u|^alpha u integrated adaptively vs the closed form
    m = ModelParams(1, 1.7, 0.6 - 0.4j)

    def rhs(t, y):
        u = complex(y[0], y[1])
        du = 1j * m.kappa * abs(u) ** m.alpha * u
        return [du.real, du.imag]

    u0 = 1.2 + 0.3j
    sol = scipy.integrate.solve_ivp(
        rhs, (0, 0.8), [u0.real, u0.imag], method="DOP853", rtol=1e-12, atol=1e-13
    )
    expected = complex(sol.y[0][-1], sol.y[1][-1])
    got = nonlinear_flow(np.array([u0]), m, 0.8)[0]
    assert got == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 1.3])
@pytest.mark.parametrize("kappa", [-1j, 0.7 - 0.9j, 1.3 + 0.0j, 0.0j])
def test_flow_branches_match_closed_form(alpha, kappa):
    # each branch against the modulus law and phase of the docstring
    rng = np.random.default_rng(3)
    vals = 0.8 * (rng.standard_normal(64) + 1j * rng.standard_normal(64))
    vals[0] = 0.0
    dt = 0.05
    m0a = np.abs(vals) ** alpha
    if kappa.imag != 0.0:
        bracket = 1.0 + alpha * kappa.imag * m0a * dt
        modulus = np.abs(vals) * bracket ** (-1.0 / alpha)
        dtheta = kappa.real / (alpha * kappa.imag) * np.log(bracket)
    else:
        modulus = np.abs(vals)
        dtheta = kappa.real * m0a * dt
    want = modulus * np.exp(1j * (np.angle(vals) + dtheta))
    got = nonlinear_flow(vals, ModelParams(1, alpha, kappa), dt)
    assert got is not vals
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


# the grid of ROADMAP item 6: every kappa from Re(kappa) = 0 to real, with
# |Re(kappa)/Im(kappa)| up to 1e16, where a log of the rounded bracket
# 1 + x loses the digits of x
EXACT_MODULI = [1e-3, 1e-2, 0.36, 1.0, 2.2]
EXACT_KAPPAS = [
    -1j, 0.7 - 0.9j, 1 - 1e-4j, 1 - 1e-8j, -1 - 1e-10j,
    1 - 1e-12j, 1 + 1e-12j, 1 - 1e-16j, 1.3 + 0j,
]


def exact_flow(u, alpha, kappa, dt):
    """u_t = i kappa |u|^alpha u over dt from the double u, at 50 digits."""
    with mpmath.workdps(50):
        u = mpmath.mpc(u.real, u.imag)
        a, kr, ki = mpmath.mpf(alpha), mpmath.mpf(kappa.real), mpmath.mpf(kappa.imag)
        ma = abs(u) ** a
        if ki == 0:
            return u * mpmath.expj(kr * dt * ma)
        return u * mpmath.exp(mpmath.log1p(a * ki * dt * ma) * mpmath.mpc(-1 / a, kr / (a * ki)))


@pytest.mark.parametrize("kappa", EXACT_KAPPAS)
def test_flow_matches_mpmath_at_50_digits(kappa):
    vals = np.array([cmath.rect(r, 0.3 + i) for i, r in enumerate(EXACT_MODULI)])
    worst = 0.0
    for alpha in (0.5, 1.0, 3.0):
        for dt in (1e-4, 1e-3, 1e-2):
            got = nonlinear_flow(vals, ModelParams(1, alpha, kappa), dt)
            for u, g in zip(vals, got):
                want = exact_flow(u, alpha, kappa, dt)
                with mpmath.workdps(50):
                    worst = max(worst, float(abs(mpmath.mpc(g.real, g.imag) - want) / abs(want)))
    assert worst <= 1e-15


def test_every_node_gets_its_phase_at_tiny_imaginary_part():
    # kappa = 1 - 1e-16i: the bracket of every node rounds to 1, but the
    # phase increment dt |u|^alpha is up to 0.11 rad, and no node is skipped
    rng = np.random.default_rng(4)
    vals = 10.0 ** rng.uniform(-3, np.log10(2.2), 500) * np.exp(1j * rng.uniform(-3, 3, 500))
    alpha, dt = 3.0, 1e-2
    got = nonlinear_flow(vals, ModelParams(1, alpha, 1 - 1e-16j), dt)
    dtheta = dt * np.abs(vals) ** alpha
    np.testing.assert_allclose(got, vals * np.exp(1j * dtheta), rtol=1e-15, atol=0.0)
    # every node moved by its phase, |u| dtheta >= 1e-11 |u|
    assert np.all(np.abs(got - vals) > 0.99 * np.abs(vals) * dtheta)


def flow_data():
    rng = np.random.default_rng(11)
    vals = 0.4 * (rng.standard_normal(257) + 1j * rng.standard_normal(257))
    vals[:4] = [0.0, -0.0, complex(-0.0, 0.0), 1e-300]
    return vals


# kappa = 0, Re and Im nonzero, Im = 0, Re = 0
KAPPAS = [0j, complex(0.7, -0.9), complex(1.3, 0.0), complex(0.0, -1.0)]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("kappa", KAPPAS)
def test_in_place_flow_is_bit_equal(alpha, kappa):
    vals, model, dt = flow_data(), ModelParams(1, alpha, kappa), 0.02
    buf = vals.copy()
    got = nonlinear_flow(buf, model, dt, overwrite_x=True)
    assert got is buf
    assert np.array_equal(bits(got), bits(nonlinear_flow(vals, model, dt)))
    ref = reference_flow(vals, model, dt)
    assert np.array_equal(got, ref)
    # kappa = 0 is the identity, and the zeros lie below the floor and are
    # skipped: the full-grid factor there changes at most zero signs, so
    # those nodes are held to their input bits
    untouched = np.full(vals.shape, kappa == 0) | (vals == 0)
    assert np.array_equal(bits(got[untouched]), bits(vals[untouched]))
    assert np.array_equal(bits(got[~untouched]), bits(ref[~untouched]))


@pytest.mark.parametrize("kappa", KAPPAS)
def test_nonlinear_flow_never_mutates_its_input(kappa):
    vals = flow_data()
    before = vals.copy()
    out = nonlinear_flow(vals, ModelParams(1, 1.0, kappa), 0.05)
    assert out is not vals and not np.shares_memory(out, vals)
    assert np.array_equal(bits(vals), bits(before))
    real = np.linspace(-1.0, 1.0, 9)  # converted to complex, never written back
    assert nonlinear_flow(real, ModelParams(1, 1.0, kappa), 0.05).dtype == np.complex128
    assert np.array_equal(real, np.linspace(-1.0, 1.0, 9))
    # overwrite_x advances a complex128 buffer in place
    assert nonlinear_flow(vals, ModelParams(1, 1.0, kappa), 0.05, overwrite_x=True) is vals


@pytest.mark.parametrize("kappa", KAPPAS[1::2])
def test_substep_blowup_leaves_the_buffer_unchanged(kappa):
    vals = flow_data()
    vals[-1] = 10.0  # 1 - alpha |u|^alpha dt < 0 here
    buf = vals.copy()
    with pytest.raises(SubstepBlowupError):
        nonlinear_flow(buf, ModelParams(1, 1.0, kappa), 0.5, overwrite_x=True)
    assert np.array_equal(bits(buf), bits(vals))


# ---------------------------------------------------------------------------
# the active window: only the flat range between the first and the last node
# that the flow can move by more than rounding is evaluated

WINDOW_KAPPAS = [-1j, complex(0.7, -0.9), 0.5j]


def window_floor(model, dt):
    """The kernel's floor on |u|^2: (2^-56/s)^(2/alpha), s = max(|c|, |kappa| dt)."""
    s = max(abs(model.alpha * model.kappa.imag * dt), abs(model.kappa * dt))
    return (2.0**-56 / s) ** (2.0 / model.alpha)


def field_with_core(dim, lo, hi, points=8, tail=1e-40, seed=0):
    """Order-one values on the flat C-order range [lo, hi), modulus `tail`
    (below every floor used here) elsewhere, and one signed zero in each
    part."""
    rng = np.random.default_rng(seed)
    n = points**dim
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    flat = tail * z / np.abs(z)
    flat[lo:hi] = 0.3 * z[lo:hi]
    for i in (lo - 1, (lo + hi) // 2, hi):
        if 0 <= i < n:
            flat[i] = complex(-0.0, 0.0)
    return flat.reshape((points,) * dim)


def check_window(vals, model, dt, lo, hi):
    """The windowed kernel against the full-grid reference: equal bits at
    every node of [lo, hi) that is not an exact zero, input bits at every
    node outside it, and there a reference equal to the input at
    Re(kappa) = 0 and within rounding of it otherwise."""
    buf = vals.copy()
    got = nonlinear_flow(buf, model, dt, overwrite_x=True)
    assert got is buf
    ref = reference_flow(vals, model, dt)
    outside = np.ones(vals.size, bool)
    outside[lo:hi] = False
    outside = outside.reshape(vals.shape)
    computed = ~outside & (vals != 0)
    assert np.array_equal(bits(got[computed]), bits(ref[computed]))
    assert np.array_equal(bits(got[outside]), bits(vals[outside]))
    if model.kappa.real == 0.0:
        assert np.array_equal(got, ref, equal_nan=True)
    else:  # a skipped node's phase increment is below 2^-56
        np.testing.assert_allclose(got, ref, rtol=2.0**-52, atol=0.0)


@pytest.mark.parametrize("window", ["interior", "both-ends", "empty"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("kappa", WINDOW_KAPPAS)
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_windowed_flow_matches_the_full_grid(dim, kappa, alpha, window):
    n = 8**dim
    lo, hi = {"interior": (n // 3, n // 2 + 5), "both-ends": (0, n), "empty": (0, 0)}[window]
    vals = field_with_core(dim, lo, hi)
    check_window(vals, ModelParams(dim, alpha, kappa), 0.02, lo, hi)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0, 7.0])
@pytest.mark.parametrize("kappa", WINDOW_KAPPAS)
@pytest.mark.parametrize("dt", [1e-6, 0.02, 3.0])
def test_nodes_straddling_the_floor(alpha, kappa, dt):
    # |u|^2 spread over [floor/8, 8 floor]: the full-grid flow moves every
    # skipped node by less than rounding (at Re(kappa) = 0 not at all)
    model = ModelParams(1, alpha, kappa)
    floor = window_floor(model, dt)
    rng = np.random.default_rng(7)
    m2 = floor * 8.0 ** rng.uniform(-1.0, 1.0, 200)
    m2[[0, -1]] = floor / 2.0
    vals = np.sqrt(m2) * np.exp(1j * rng.uniform(-3, 3, 200))
    active = np.flatnonzero(~(vals.real**2 + vals.imag**2 < floor))
    assert 0 < active[0] and active[-1] < 199  # skipped nodes at both ends
    check_window(vals, model, dt, active[0], active[-1] + 1)


@pytest.mark.parametrize("kappa", WINDOW_KAPPAS)
def test_a_nan_node_is_active(kappa):
    vals = field_with_core(2, 10, 20)
    vals.reshape(-1)[50] = complex(math.nan, 0.0)
    check_window(vals, ModelParams(2, 3.0, kappa), 0.02, 10, 51)
    assert math.isnan(nonlinear_flow(vals, ModelParams(2, 3.0, kappa), 0.02)[6, 2].real)


@pytest.mark.parametrize("kr", [0.0, 0.7])
def test_underflowed_bracket_coefficient_is_the_pure_phase_flow(kr):
    # alpha Im(kappa) dt underflows to 0: no bracket differs from 1, and the
    # phase increment's limit is that of Im(kappa) = 0
    vals = field_with_core(1, 0, 8)
    model = ModelParams(1, 3.0, complex(kr, 5e-324))
    assert model.alpha * model.kappa.imag * 0.02 == 0.0
    got = nonlinear_flow(vals, model, 0.02)
    want = nonlinear_flow(vals, ModelParams(1, 3.0, complex(kr, 0.0)), 0.02)
    assert np.array_equal(bits(got), bits(want))


def test_overflowing_phase_rate_is_the_pure_phase_flow():
    # Im(kappa) subnormal: c = alpha Im(kappa) dt is not 0, but the phase
    # rate Re(kappa)/(alpha Im(kappa)) overflows; |x| is then below 2^-1024
    # of the phase increment, whose limit is that of Im(kappa) = 0
    vals = field_with_core(1, 0, 8)
    model = ModelParams(1, 3.0, complex(0.7, 1e-310))
    assert model.alpha * model.kappa.imag * 0.02 != 0.0
    assert math.isinf(0.7 / (model.alpha * model.kappa.imag))
    got = nonlinear_flow(vals, model, 0.02)
    want = nonlinear_flow(vals, ModelParams(1, 3.0, 0.7 + 0j), 0.02)
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("kappa", [1.3 + 0j, 0.7 - 0.9j])
def test_kappa_with_real_part_evaluates_only_its_window(kappa, monkeypatch):
    # a localized field: the one complex exp runs on the window alone
    vals = field_with_core(3, 100, 300)
    model = ModelParams(3, 3.0, kappa)
    sizes = []
    exp = np.exp

    def spy(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    nonlinear_flow(vals, model, 0.02)
    monkeypatch.undo()
    assert sizes == [200]
    check_window(vals, model, 0.02, 100, 300)


@pytest.mark.parametrize("kappa", WINDOW_KAPPAS)
def test_overflowing_floor_skips_every_finite_node(kappa):
    # alpha = 0.01 and |c| < 2^-56: the floor (2^-56/|c|)^200 overflows
    model, dt = ModelParams(2, 0.01, kappa), 1e-20
    assert abs(model.alpha * kappa.imag * dt) < 2.0**-56
    vals = field_with_core(2, 0, 64)
    check_window(vals, model, dt, 0, 0)


def test_failing_bracket_in_a_window_leaves_the_buffer_unchanged():
    vals = field_with_core(3, 100, 300)
    vals.reshape(-1)[200] = 10.0
    buf = vals.copy()
    with pytest.raises(SubstepBlowupError, match="min bracket -"):
        nonlinear_flow(buf, ModelParams(3, 1.0, -1j), 0.5, overwrite_x=True)
    assert np.array_equal(bits(buf), bits(vals))


@pytest.mark.parametrize("kappa", WINDOW_KAPPAS)
@pytest.mark.parametrize("dim", [1, 2], ids=["big[::2]", "big[::2, ::2]"])
def test_strided_buffer_is_advanced_in_place(kappa, dim):
    # scipy's overwrite_x contract: a buffer that is not C-contiguous is
    # advanced on a C-contiguous copy, which is returned
    big = np.zeros((32,) * dim, complex)
    buf = big[(slice(None, None, 2),) * dim]
    vals = field_with_core(dim, 3, 9 * dim, points=16)
    buf[...] = vals
    model = ModelParams(dim, 3.0, kappa)
    got = nonlinear_flow(buf, model, 0.02, overwrite_x=True)
    assert got is not buf and got.flags.c_contiguous
    assert np.array_equal(got, reference_flow(vals, model, 0.02))
    assert np.array_equal(bits(buf), bits(vals))  # the input is left as it was
    assert np.count_nonzero(big) == np.count_nonzero(vals)  # the gaps stay zero
