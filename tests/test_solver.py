import math

import numpy as np
import pytest

from nls.diagnostics import ProbeSet
from nls.exponents import ModelParams
from nls.field import (
    FieldState,
    Gaussian,
    GridSpec,
    PlaneWave,
    l2_norm,
    linear_propagate,
    make_initial,
)
from nls.oracle import nonlinear_flow
from nls.solver import RunStatus, SolverConfig, run

QUIET = 10**9  # diagnostics cadence that records only endpoints


def one_step(state, model, dt):
    """The state after a run of one Strang step of size dt."""
    return run(state, model, SolverConfig(dt=dt, t_end=dt)).final_state


def plane_wave_exact(grid, amplitude, mode, model, t):
    """Single-mode exact solution: pointwise flow times the free phase."""
    z = nonlinear_flow(np.array([amplitude + 0.0j]), model, t)[0]
    k = 2 * math.pi * mode / grid.box_length
    x = grid.axis_coordinates()
    return z * np.exp(1j * k * x) * np.exp(-1j * k**2 * t)


def test_step_with_zero_kappa_equals_linear_propagate():
    g = GridSpec(1, 20.0, 256)
    rng = np.random.default_rng(0)
    st = FieldState(grid=g, values=rng.standard_normal(g.shape) * (1 + 1j))
    model = ModelParams(1, 2.0, 0.0 + 0.0j)
    a = one_step(st, model, 0.37)
    b = linear_propagate(st, 0.37)
    assert np.max(np.abs(a.values - b.values)) < 1e-14
    assert a.time == pytest.approx(0.37)


def test_step_exact_on_plane_waves():
    # uniform modulus: both substeps act as commuting scalar flows, so one
    # Strang step reproduces the exact single-mode solution to rounding
    g = GridSpec(1, 2 * math.pi, 128)
    model = ModelParams(1, 1.3, 0.7 - 0.9j)
    st = make_initial(g, PlaneWave(0.9, (4,)))
    for dt in (1e-3, 5e-4):
        out = one_step(st, model, dt)
        exact = plane_wave_exact(g, 0.9, 4, model, dt)
        assert np.max(np.abs(out.values - exact)) < 1e-14


def test_run_exact_on_plane_waves_globally():
    g = GridSpec(1, 2 * math.pi, 128)
    model = ModelParams(1, 1.3, 0.7 - 0.9j)
    st = make_initial(g, PlaneWave(0.9, (4,)))
    out = run(st, model, SolverConfig(dt=1e-2, t_end=0.4, diagnostics_cadence=QUIET))
    exact = plane_wave_exact(g, 0.9, 4, model, 0.4)
    assert np.max(np.abs(out.final_state.values - exact)) < 1e-12


def test_step_constant_data_blowup_amplitude():
    g = GridSpec(1, 1.0, 16)
    model = ModelParams(1, 2.0, -1j)
    st = make_initial(g, PlaneWave(1.0, (0,)))
    out = one_step(st, model, 0.375)
    # Laplacian vanishes on constants: pure pointwise flow, modulus 2
    assert np.allclose(np.abs(out.values), 2.0, atol=1e-13)
    expected = nonlinear_flow(np.array([1.0 + 0.0j]), model, 0.375)[0]
    assert np.allclose(out.values, expected, atol=1e-13)


def test_run_kappa_zero_reduces_to_linear_flow():
    g = GridSpec(1, 40.0, 512)
    st = make_initial(g, Gaussian(1.0, 1.0))
    model = ModelParams(1, 2.0, 0.0 + 0.0j)
    out = run(st, model, SolverConfig(dt=1e-2, t_end=1.0, diagnostics_cadence=QUIET))
    want = linear_propagate(st, 1.0)
    assert np.max(np.abs(out.final_state.values - want.values)) < 1e-12
    assert out.status is RunStatus.REACHED_T_END


def test_run_dissipative_direction_mass_nonincreasing():
    g = GridSpec(1, 40.0, 512)
    st = make_initial(g, Gaussian(1.0, 1.0))
    model = ModelParams(1, 1.0, 1j)  # Im kappa > 0: mass decays
    out = run(st, model, SolverConfig(dt=1e-3, t_end=1.0, diagnostics_cadence=50))
    m = out.trace.mass
    assert out.status is RunStatus.REACHED_T_END
    assert all(b <= a * (1 + 1e-12) for a, b in zip(m, m[1:]))
    assert m[-1] < m[0]


def test_run_uniform_data_blowup_estimate():
    g = GridSpec(1, 1.0, 16)
    model = ModelParams(1, 2.0, -1j)
    st = make_initial(g, PlaneWave(1.0, (0,)))
    cfg = SolverConfig(dt=1e-3, t_end=1.0, blowup_dt_floor=1e-10,
                       diagnostics_cadence=100)
    out = run(st, model, cfg)
    assert out.status is RunStatus.BLOWUP_DETECTED
    assert out.blowup_time_estimate is not None
    assert 0.499 <= out.blowup_time_estimate <= 0.5  # exact t* = 1/2
    assert out.trace.t[-1] == pytest.approx(out.blowup_time_estimate)


def test_blowup_estimate_tightens_with_floor():
    g = GridSpec(1, 1.0, 16)
    model = ModelParams(1, 2.0, -1j)
    st = make_initial(g, PlaneWave(1.0, (0,)))
    ests = []
    for floor in (1e-6, 1e-8, 1e-10):
        cfg = SolverConfig(dt=1e-3, t_end=1.0, blowup_dt_floor=floor,
                           diagnostics_cadence=QUIET)
        ests.append(run(st, model, cfg).blowup_time_estimate)
    assert all(e <= 0.5 for e in ests)
    assert ests[0] <= ests[1] <= ests[2]  # monotone approach to t*


def test_mass_conserved_for_real_kappa():
    g = GridSpec(1, 40.0, 512)
    model = ModelParams(1, 2.0, 1.3 + 0.0j)
    st = make_initial(g, Gaussian(1.0, 1.0))
    out = run(st, model, SolverConfig(dt=1e-3, t_end=1.0, diagnostics_cadence=100))
    m = out.trace.mass
    assert np.max(np.abs(m - m[0])) / m[0] < 1e-10


def test_time_reversibility_real_kappa():
    # conj o S(dt) o conj = S(dt)^{-1} exactly for real kappa
    g = GridSpec(1, 40.0, 512)
    model = ModelParams(1, 2.0, 1.0 + 0.0j)
    st = make_initial(g, Gaussian(1.0, 1.0))
    cfg = SolverConfig(dt=1e-2, t_end=0.5, diagnostics_cadence=QUIET)
    fwd = run(st, model, cfg).final_state
    back = run(fwd.with_values(np.conj(fwd.values), time=0.0), model, cfg).final_state
    recovered = np.conj(back.values)
    assert np.max(np.abs(recovered - st.values)) < 1e-10


def test_strang_global_order_two_on_gaussian():
    g = GridSpec(1, 40.0, 512)
    model = ModelParams(1, 1.0, -1j)
    st = make_initial(g, Gaussian(1.0, 1.0))
    T = 0.5
    ref = run(st, model, SolverConfig(dt=T / 2048, t_end=T,
                                      diagnostics_cadence=QUIET)).final_state
    errs = []
    dts = (1e-2, 5e-3, 2.5e-3)
    for dt in dts:
        out = run(st, model, SolverConfig(dt=dt, t_end=T,
                                          diagnostics_cadence=QUIET)).final_state
        errs.append(l2_norm(out.with_values(out.values - ref.values)))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_trace_rows_strictly_increasing_and_K_t_running_max():
    g = GridSpec(1, 40.0, 256)
    model = ModelParams(1, 1.0, -1j)
    st = make_initial(g, Gaussian(0.8, 1.0))
    out = run(st, model, SolverConfig(dt=1e-2, t_end=0.5, diagnostics_cadence=5))
    tr = out.trace
    assert np.all(np.diff(tr.t) > 0)
    assert np.array_equal(tr.K_t, np.maximum.accumulate(tr.grad_l2))


def test_run_with_checkpoints_lands_on_times():
    g = GridSpec(1, 40.0, 256)
    model = ModelParams(1, 1.0, 0.5 - 0.5j)
    st = make_initial(g, Gaussian(0.5, 1.0))
    cfg = SolverConfig(dt=7e-3, t_end=1.0, diagnostics_cadence=QUIET)
    out = run(st, model, cfg, probes=ProbeSet(store_at_times=(0.25, 0.5, 0.9)))
    times = [s.time for s in out.checkpoints]
    assert times[0] == 0.0
    for want, got in zip((0.25, 0.5, 0.9), times[1:]):
        assert got == pytest.approx(want, abs=1e-12)


def test_a_target_within_eps_of_the_start_is_the_start():
    # run() treats times within 1e-12 max(1, |t_end|) as one time; a target
    # that close to the start costs no sub-eps step, row or checkpoint
    g = GridSpec(1, 40.0, 256)
    st = make_initial(g, Gaussian(0.5, 1.0))
    cfg = SolverConfig(dt=1e-3, t_end=0.01)
    out = run(st, ModelParams(1, 1.0, -1j), cfg, probes=ProbeSet(store_at_times=(5e-14,)))
    assert out.steps_accepted == 10
    assert [s.time for s in out.checkpoints] == [0.0]
    assert len(out.trace) == 11


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=2.0, t_end=1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.1, t_end=1.0, diagnostics_cadence=0)
    with pytest.raises(ValueError, match="blowup_dt_floor"):
        SolverConfig(dt=1e-13, t_end=1.0)  # below the default floor 1e-12
    # NaN passes a "<= 0" test: a NaN floor never ends the dt halving, and a
    # NaN threshold rejects every step
    with pytest.raises(ValueError, match="positive"):
        SolverConfig(dt=0.1, t_end=1.0, blowup_dt_floor=math.nan)
    with pytest.raises(ValueError, match="positive"):
        SolverConfig(dt=0.1, t_end=1.0, blowup_linf_threshold=math.nan)


def test_spectral_tail_resolution_criterion():
    # production-style run stays resolved: top-octave energy < 1e-8
    from nls.field import spectral_tail_fraction

    g = GridSpec(1, 40.0, 1024)
    model = ModelParams(1, 1.0, -1j)
    st = make_initial(g, Gaussian(0.5, 1.0))
    out = run(st, model, SolverConfig(dt=1e-3, t_end=2.0, diagnostics_cadence=QUIET))
    assert spectral_tail_fraction(out.final_state) < 1e-8


def test_run_2d_kappa_zero_matches_linear_flow():
    g = GridSpec(2, 20.0, 64)
    st = make_initial(g, Gaussian(1.0, 1.0))
    model = ModelParams(2, 1.0, 0.0 + 0.0j)
    out = run(st, model, SolverConfig(dt=1e-2, t_end=0.5, diagnostics_cadence=QUIET))
    want = linear_propagate(st, 0.5)
    assert np.max(np.abs(out.final_state.values - want.values)) < 1e-12


def test_run_2d_mass_conservation_and_amplification():
    g = GridSpec(2, 20.0, 64)
    st = make_initial(g, Gaussian(1.0, 1.0))
    real = run(st, ModelParams(2, 1.0, 2.0 + 0.0j),
               SolverConfig(dt=1e-3, t_end=0.3, diagnostics_cadence=50))
    m = real.trace.mass
    assert np.max(np.abs(m - m[0])) / m[0] < 1e-10
    amp = run(st, ModelParams(2, 1.0, -1j),
              SolverConfig(dt=1e-3, t_end=0.3, diagnostics_cadence=50))
    assert amp.trace.mass[-1] > amp.trace.mass[0]


def test_strang_order_two_in_2d():
    g = GridSpec(2, 20.0, 64)
    model = ModelParams(2, 1.0, -1j)
    st = make_initial(g, Gaussian(1.0, 1.0))
    T = 0.25
    ref = run(st, model, SolverConfig(dt=T / 1024, t_end=T,
                                      diagnostics_cadence=QUIET)).final_state
    errs = []
    dts = (1e-2, 5e-3)
    for dt in dts:
        out = run(st, model, SolverConfig(dt=dt, t_end=T,
                                          diagnostics_cadence=QUIET)).final_state
        errs.append(l2_norm(out.with_values(out.values - ref.values)))
    assert math.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.15)


def test_step_3d_smoke():
    g = GridSpec(3, 10.0, 16)
    model = ModelParams(3, 1.0, -1j)
    st = make_initial(g, Gaussian(0.5, 1.0))
    out = one_step(st, model, 1e-2)
    assert out.values.shape == (16, 16, 16)
    assert l2_norm(out) > l2_norm(st)  # amplifying direction


def test_run_rejects_nonfinite_initial_state():
    g = GridSpec(1, 10.0, 64)
    vals = np.ones(g.shape, complex)
    vals[3] = np.nan
    st = FieldState(grid=g, values=vals)
    with pytest.raises(ValueError, match="finite"):
        run(st, ModelParams(1, 1.0, -1j), SolverConfig(dt=1e-2, t_end=0.1))
