import numpy as np
import pytest
import scipy.integrate

import nls.conformal
from nls.conformal import (
    check_chirp_resolution,
    equivalence_experiment,
    initial_v_data,
    solve_v_problem,
    step_weight,
    to_u_frame,
)
from nls.exponents import ModelParams
from nls.field import (
    FieldState,
    Gaussian,
    GridSpec,
    PlaneWave,
    free_gaussian,
    l2_norm,
    linear_propagate,
    make_initial,
)
from nls.oracle import SelfSimilarParams, reduced_trajectory
from nls.solver import SolverConfig, run


def test_to_u_frame_time_roundtrip():
    v = make_initial(GridSpec(1, 1.0, 1024), Gaussian(1.0, 0.1))  # chirp resolved
    for t in (0.0, 0.25, 0.5, 0.9, 0.999):
        u = to_u_frame(v, t)
        assert u.time / (1.0 + u.time) == pytest.approx(t, abs=1e-14)
        assert u.grid.box_length == 1.0 / (1.0 - t)
    for t in (1.0, -0.1):
        with pytest.raises(ValueError, match=r"t must be in \[0, 1\)"):
            to_u_frame(v, t)


# the Duhamel kernel i kappa h(t), h(t) = (1-t)^{-(4 - N alpha)/2}, with h read
# from step_weight: the unit step [t - 1/2, t + 1/2] has its midpoint at t


def h(m, t):
    return step_weight(m, t - 0.5, 1.0)


def test_h_coefficient_values():
    m = ModelParams(1, 1.0, -1j)
    assert 1j * m.kappa * h(m, 0.0) == 1j * m.kappa
    # (4 - N alpha)/2 = 3/2; 0.25^{-3/2} = 8, and i(-i) = 1
    assert 1j * m.kappa * h(m, 0.75) == pytest.approx(8.0 + 0.0j, rel=1e-14)


def test_h_constant_at_mass_critical_power():
    m = ModelParams(2, 2.0, 0.3 - 0.4j)  # alpha = 4/N
    for t in (0.0, 0.5, 0.99):
        assert 1j * m.kappa * h(m, t) == pytest.approx(1j * m.kappa, rel=1e-14)


def test_h_modulus_monotone_below_mass_critical():
    m = ModelParams(1, 1.0, 0.5 - 0.5j)
    ts = np.linspace(0, 0.95, 40)
    mods = [abs(1j * m.kappa * h(m, t)) for t in ts]
    assert all(b > a for a, b in zip(mods, mods[1:]))
    assert mods[0] == pytest.approx(abs(m.kappa))


def test_h_integrability_threshold_by_quadrature():
    # int_0^1 |h|^mu dt = |kappa|^mu int (1-t)^{-mu (4-N alpha)/2} dt is finite
    # iff mu (4 - N alpha)/2 < 1; refine the upper endpoint on both sides
    m = ModelParams(1, 1.0, -1j)  # (4 - N alpha)/2 = 3/2

    def tail_partial(mu, eps):
        val, _ = scipy.integrate.quad(
            lambda t: abs(1j * m.kappa * h(m, t)) ** mu, 0.0, 1.0 - eps, limit=200
        )
        return val

    mu_fin = 0.5  # 0.5 * 1.5 = 0.75 < 1: convergent
    vals = [tail_partial(mu_fin, eps) for eps in (1e-3, 1e-6, 1e-9)]
    exact = 1.0 / (1.0 - 0.75)  # int (1-t)^{-3/4} = 4
    assert vals[0] < vals[1] < vals[2] < exact
    assert vals[2] == pytest.approx(exact, rel=1e-2)

    mu_div = 1.0  # 1.0 * 1.5 > 1: divergent
    vals = [tail_partial(mu_div, eps) for eps in (1e-2, 1e-4, 1e-6)]
    assert vals[1] > 2 * vals[0] and vals[2] > 2 * vals[1]


# ---------------------------------------------------------------------------
# frame maps


def test_initial_frame_map_inverts_initial_multiplier():
    g = GridSpec(1, 40.0, 1024)
    u0 = make_initial(g, Gaussian(0.5, 1.0))
    v0 = initial_v_data(u0)
    u_back = to_u_frame(v0, t=0.0)
    # at t = 0 the frame map is exp(+i|y|^2/4), the inverse of the v0 chirp
    assert u_back.grid == g
    assert np.max(np.abs(u_back.values - u0.values)) < 1e-14
    assert u_back.time == 0.0


def test_frame_map_is_l2_isometry():
    rng = np.random.default_rng(21)
    g = GridSpec(1, 40.0, 1024)
    for _ in range(50):
        vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        v = FieldState(grid=g, values=vals, time=0.3)
        u = to_u_frame(v, 0.3)
        assert u.grid.box_length == pytest.approx(g.box_length / 0.7)
        assert l2_norm(u) == pytest.approx(l2_norm(v), rel=1e-10)


def test_frame_map_invertible():
    rng = np.random.default_rng(22)
    g = GridSpec(1, 20.0, 1024)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    v = FieldState(grid=g, values=vals, time=0.4)
    u = to_u_frame(v, 0.4)
    # the inverse map: t = s/(1+s), box L (1-t), multiplier (1-t)^{-N/2} e^{-i|x|^2/(4(1-t))}
    t = u.time / (1.0 + u.time)
    assert t == pytest.approx(0.4, abs=1e-14)
    grid_v = GridSpec(1, u.grid.box_length * (1.0 - t), g.points)
    assert grid_v == g
    chirp = np.exp(-1j * grid_v.radius_squared() / (4.0 * (1.0 - t)))
    back = (1.0 - t) ** -0.5 * chirp * u.values
    assert np.max(np.abs(back - v.values)) < 1e-12 * np.max(np.abs(vals))


def test_frame_map_matches_direct_formula_on_rescaled_grid():
    # map a Gaussian v at t = 0.5 and evaluate the same closed-form expression
    # directly at the u-grid nodes: identical samples, box doubled
    g = GridSpec(1, 40.0, 2048)
    t = 0.5
    v = make_initial(g, Gaussian(1.0, 1.0))
    u = to_u_frame(v, t)
    y = u.grid.axis_coordinates()
    x = (1 - t) * y
    direct = (1 - t) ** 0.5 * np.exp(1j * x**2 / (4 * (1 - t))) * np.exp(
        -(x**2) / 2
    )
    assert u.grid.box_length == 80.0
    assert np.max(np.abs(u.values - direct)) < 1e-12


def test_chirp_resolution_guard():
    # |x| h / (2 scale) at the edge must stay below pi/4
    check_chirp_resolution(GridSpec(1, 80.0, 4096), scale=1.0)
    with pytest.raises(ValueError, match="under-resolved"):
        check_chirp_resolution(GridSpec(1, 160.0, 4096), scale=1.0)
    with pytest.raises(ValueError, match="under-resolved"):
        check_chirp_resolution(GridSpec(1, 80.0, 4096), scale=0.4)


# ---------------------------------------------------------------------------
# v-problem and equivalence


def test_v_problem_kappa_zero_is_free_flow():
    g = GridSpec(1, 40.0, 1024)
    m = ModelParams(1, 1.0, 0.0 + 0.0j)
    v0 = make_initial(g, Gaussian(0.3, 1.0))
    out = solve_v_problem(v0, m, SolverConfig(dt=1e-2, t_end=0.5,
                                              diagnostics_cadence=10**9))
    want = linear_propagate(v0, 0.5)
    assert np.max(np.abs(out.final_state.values - want.values)) < 1e-12


@pytest.mark.parametrize("dim,alpha,kappa,z0,err", [
    # err: the relative error at dt = 1e-3, as measured
    (1, 1.0, -1j, 0.8 + 0.3j, 8.51e-7),
    (2, 0.5, -1j, 0.8 + 0.3j, 4.36e-7),
    (1, 3.0, 0.7 - 1j, 0.4 + 0.15j, 4.20e-9),  # z0 = 0.8 + 0.3i blows up before t = 0.5
    (2, 1.0, 0.5 - 1j, 0.4 + 0.15j, 8.48e-8),
])
def test_uniform_v_data_follow_the_oracle(dim, alpha, kappa, z0, err):
    # with t0 = 1 the lens map takes the oracle's self-similar family to the
    # uniform v(t) = z(s(t)), s = t/(1-t): solve_v_problem on a constant field
    # must follow reduced_trajectory.  The midpoint rule's error is second
    # order (ratio 100 per decade of dt); an exact step weight (ROADMAP item
    # 10) would bring both dt to rounding level (measured <= 1.7e-14).
    m = ModelParams(dim, alpha, kappa)
    v0 = make_initial(GridSpec(dim, 8.0, 8), PlaneWave(z0, (0,) * dim))
    z = reduced_trajectory(SelfSimilarParams(1.0, z0, m), 0.5 / (1.0 - 0.5))
    errs = []
    for dt in (1e-2, 1e-3):
        out = solve_v_problem(v0, m, SolverConfig(dt=dt, t_end=0.5))
        v = out.final_state.values
        assert out.final_state.time == 0.5 and np.ptp(v) == 0  # still exactly uniform
        errs.append(abs(v.flat[0] - z) / abs(z))
    assert 99 <= errs[0] / errs[1] <= 101
    assert errs[1] <= 2 * err


def test_v_problem_domain_guard():
    g = GridSpec(1, 40.0, 1024)
    m = ModelParams(1, 1.0, -1j)
    v0 = make_initial(g, Gaussian(0.3, 1.0))
    with pytest.raises(ValueError, match="\\[0, 1\\)"):
        solve_v_problem(v0, m, SolverConfig(dt=1e-2, t_end=1.0))


def test_equivalence_trivial_at_t_zero():
    g = GridSpec(1, 40.0, 1024)
    m = ModelParams(1, 3.0, -1j)
    rep = equivalence_experiment(
        Gaussian(0.1, 1.0), g, m, SolverConfig(dt=1e-2, t_end=1.0), 0.0
    )
    assert rep.l2_discrepancy == 0.0
    assert rep.s_star == 0.0


def test_equivalence_free_flow():
    g = GridSpec(1, 40.0, 2048)
    m = ModelParams(1, 3.0, 0.0 + 0.0j)
    cfg = SolverConfig(dt=1e-2, t_end=1.0, diagnostics_cadence=10**9)
    rep = equivalence_experiment(Gaussian(0.1, 1.0), g, m, cfg, 0.5)
    assert rep.l2_discrepancy <= 1e-8
    assert rep.s_star == pytest.approx(1.0)
    assert rep.u_grid.box_length == pytest.approx(80.0)


def test_equivalence_paths_record_only_their_first_and_last_rows(monkeypatch):
    # both traces are discarded, so no cadence of the config is reached
    rows = []

    def counting_run(*args, **kwargs):
        out = run(*args, **kwargs)
        rows.append(len(out.trace))
        return out

    monkeypatch.setattr(nls.conformal, "run", counting_run)
    g = GridSpec(1, 20.0, 512)
    cfg = SolverConfig(dt=1e-2, t_end=1.0)  # diagnostics_cadence = 1
    rep = equivalence_experiment(Gaussian(0.1, 1.0), g, ModelParams(1, 3.0, -1j), cfg, 0.5)
    assert rows == [2, 2]
    assert rep.path_a_status == rep.path_b_status == "ReachedTEnd"


def test_equivalence_nonlinear_second_order():
    g = GridSpec(1, 40.0, 2048)
    m = ModelParams(1, 3.0, -1j)
    discs = []
    for dt in (2e-3, 1e-3):
        cfg = SolverConfig(dt=dt, t_end=1.0, diagnostics_cadence=10**9)
        discs.append(
            equivalence_experiment(Gaussian(0.2, 1.0), g, m, cfg, 0.5).l2_discrepancy
        )
    assert discs[0] / discs[1] == pytest.approx(4.0, rel=0.3)
    assert discs[1] < 1e-6


def test_equivalence_against_closed_form_free_gaussian():
    # path A output must equal the analytic free flow sampled on the u grid
    g = GridSpec(1, 40.0, 2048)
    m = ModelParams(1, 3.0, 0.0 + 0.0j)
    t_star = 0.5
    v0 = initial_v_data(make_initial(g, Gaussian(0.1, 1.0)))
    out = solve_v_problem(v0, m, SolverConfig(dt=1e-2, t_end=t_star,
                                              diagnostics_cadence=10**9))
    uA = to_u_frame(out.final_state, t_star)
    want = free_gaussian(uA.grid, Gaussian(0.1, 1.0), 1.0)  # s* = 1
    assert np.max(np.abs(uA.values - want.values)) < 1e-9
