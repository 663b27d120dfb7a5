"""The fused Fourier-space Strang chain against a plain four-FFT Strang step.

reference_run below is the textbook composition, kept here only as a test
oracle: every step goes to Fourier space and back twice, with dense N-D
multipliers and the full-grid nonlinear substep of conftest.py.  The
solver's run() must match it to rounding, with the same step control.
"""

import math
import tracemalloc
import types

import numpy as np
import pytest
import scipy.fft

import nls.diagnostics
import nls.solver
from nls.diagnostics import ProbeSet, TraceRecorder
from nls.exponents import ModelParams
from nls.field import (
    Gaussian,
    GridSpec,
    axis_wavenumbers,
    free_flow,
    linear_propagate,
    make_initial,
)
from nls.oracle import SubstepBlowupError, nonlinear_flow
from nls.solver import RunStatus, SolverConfig, run

from conftest import counted_ffts, reference_flow

QUIET = 10**9


def dense_k2(grid):
    k1 = axis_wavenumbers(grid.box_length, grid.points)
    k2 = np.zeros(grid.shape)
    for d in range(grid.dim):
        shape = (1,) * d + (-1,) + (1,) * (grid.dim - 1 - d)
        k2 = k2 + k1.reshape(shape) ** 2
    return k2


def reference_run(state0, model, cfg, probes=None, kappa_of_time=None):
    """Four FFTs per step; run()'s step control, recording and checkpoints."""
    probes = probes or ProbeSet()
    rec = TraceRecorder(model, probes)
    g = state0.grid
    k2 = dense_k2(g)
    state, t_end, dt = state0, state0.time + cfg.t_end, cfg.dt
    eps = 1e-12 * max(1.0, abs(t_end))
    accepted = rejected = 0
    rec.record(state, scipy.fft.fftn(state.values))
    targets = sorted(t for t in probes.store_at_times if t > state0.time + eps)
    checkpoints = [state] if probes.store_states_every or probes.store_at_times else []
    status = RunStatus.REACHED_T_END
    while state.time < t_end - eps:
        dt_step = min(dt, t_end - state.time)
        if targets:
            dt_step = min(dt_step, targets[0] - state.time)
        kappa = model.kappa
        if kappa_of_time is not None:
            kappa = kappa_of_time(state.time + dt_step / 2)
        half = np.exp(-1j * k2 * (dt_step / 2))
        try:
            u = scipy.fft.ifftn(half * scipy.fft.fftn(state.values))
            u = reference_flow(u, ModelParams(g.dim, model.alpha, kappa), dt_step)
            u = scipy.fft.ifftn(half * scipy.fft.fftn(u))
            ok = float(np.max(np.abs(u))) <= cfg.blowup_linf_threshold
        except SubstepBlowupError:
            ok = False
        if not ok:
            rejected += 1
            dt *= 0.5
            if dt < cfg.blowup_dt_floor:
                status = RunStatus.BLOWUP_DETECTED
                break
            continue
        state = state.with_values(u, time=state.time + dt_step)
        accepted += 1
        if accepted % cfg.diagnostics_cadence == 0:
            rec.record(state, scipy.fft.fftn(state.values))
        if probes.store_states_every and accepted % probes.store_states_every == 0:
            checkpoints.append(state)
        if targets and state.time >= targets[0] - eps:
            while targets and state.time >= targets[0] - eps:
                targets.pop(0)
            if checkpoints[-1] is not state:
                checkpoints.append(state)
    if accepted % cfg.diagnostics_cadence != 0:
        rec.record(state, scipy.fft.fftn(state.values))
    if probes.store_states_every and checkpoints[-1] is not state:
        checkpoints.append(state)
    estimate = state.time if status is RunStatus.BLOWUP_DETECTED else None
    return types.SimpleNamespace(
        status=status, final_state=state, blowup_time_estimate=estimate,
        trace=rec.trace(), checkpoints=checkpoints,
        steps_accepted=accepted, steps_rejected=rejected,
    )


def assert_same_run(got, want, rtol=1e-12):
    assert got.status is want.status
    assert got.steps_accepted == want.steps_accepted
    assert got.steps_rejected == want.steps_rejected
    assert got.blowup_time_estimate == want.blowup_time_estimate
    assert np.array_equal(got.trace.t, want.trace.t)
    np.testing.assert_allclose(got.trace.mass, want.trace.mass, rtol=rtol)
    assert [s.time for s in got.checkpoints] == [s.time for s in want.checkpoints]
    pairs = list(zip(got.checkpoints, want.checkpoints))
    pairs.append((got.final_state, want.final_state))
    for a, b in pairs:
        scale = np.max(np.abs(b.values))
        assert np.max(np.abs(a.values - b.values)) <= rtol * scale


def v_h(t):
    """h(t) of the v-equation at N = 1, alpha = 3: (1 - t)^{-(4 - N alpha)/2}."""
    return (1.0 - t) ** -0.5


CASES = {
    # name: (grid, model, amplitude, cfg kwargs, probes, h); with h, run()
    # steps with weight h(t + dt/2) dt and the reference freezes kappa h there
    "1d_targets": (
        GridSpec(1, 40.0, 512), ModelParams(1, 1.0, -1j), 0.8,
        dict(dt=7e-3, t_end=1.0, diagnostics_cadence=5),
        ProbeSet(median_radius=False, weighted_l2=False,
                 store_at_times=(0.25, 0.5, 0.9)),
        None,
    ),
    "1d_cadence_meets_target": (
        GridSpec(1, 40.0, 256), ModelParams(1, 1.0, -1j), 0.8,
        dict(dt=1e-2, t_end=0.4, diagnostics_cadence=5),
        ProbeSet(median_radius=False, weighted_l2=False, store_states_every=5,
                 store_at_times=(0.1, 0.123, 0.3)),
        None,
    ),
    "1d_real_kappa_part": (
        GridSpec(1, 40.0, 256), ModelParams(1, 1.3, 0.7 - 0.9j), 1.0,
        dict(dt=1e-2, t_end=0.6, diagnostics_cadence=7),
        ProbeSet(median_radius=False, weighted_l2=False, store_states_every=9),
        None,
    ),
    "2d_alpha2": (
        GridSpec(2, 20.0, 32), ModelParams(2, 2.0, 0.5 - 0.5j), 0.7,
        dict(dt=1e-2, t_end=0.3, diagnostics_cadence=4),
        ProbeSet(median_radius=False, weighted_l2=False, store_at_times=(0.155,)),
        None,
    ),
    "3d_alpha1": (
        GridSpec(3, 10.0, 16), ModelParams(3, 1.0, -1j), 0.5,
        dict(dt=1e-2, t_end=0.2, diagnostics_cadence=6),
        ProbeSet(median_radius=False, weighted_l2=False),
        None,
    ),
    "1d_kappa_of_time": (
        GridSpec(1, 40.0, 256), ModelParams(1, 3.0, 0.3 - 1j), 0.5,
        dict(dt=5e-3, t_end=0.5, diagnostics_cadence=10),
        ProbeSet(median_radius=False, weighted_l2=False, store_at_times=(0.21,)),
        v_h,
    ),
    "1d_real_kappa": (
        GridSpec(1, 40.0, 256), ModelParams(1, 2.0, 1.3 + 0.0j), 1.0,
        dict(dt=1e-2, t_end=0.5, diagnostics_cadence=QUIET),
        None,
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fused_run_matches_reference_strang(name):
    grid, model, amp, kw, probes, h = CASES[name]
    st = make_initial(grid, Gaussian(amp, 1.0))
    cfg = SolverConfig(**kw)
    weight = kappa_of_time = None
    if h is not None:
        weight = lambda t, dt: h(t + dt / 2) * dt
        kappa_of_time = lambda t: model.kappa * h(t)
    got = run(st, model, cfg, probes=probes, step_weight=weight)
    want = reference_run(st, model, cfg, probes=probes, kappa_of_time=kappa_of_time)
    assert got.steps_accepted > 10
    assert_same_run(got, want)


def test_a_cadence_checkpoint_on_a_target_is_taken_once():
    # step 10 ends at t = 0.1, both the fifth-step cadence and a target
    grid, model, amp, kw, probes, _ = CASES["1d_cadence_meets_target"]
    out = run(make_initial(grid, Gaussian(amp, 1.0)), model, SolverConfig(**kw), probes=probes)
    times = [s.time for s in out.checkpoints]
    assert times[:5] == pytest.approx([0.0, 0.05, 0.1, 0.123, 0.143], abs=1e-12)
    assert len(times) == len(set(times))
    assert sum(abs(t - 0.1) < 1e-12 for t in times) == 1


def test_rejection_rollback_matches_reference():
    # large amplitude, Im kappa < 0: the first step's bracket fails, and every
    # accepted step follows a rejection that left the chain as it was
    grid = GridSpec(1, 20.0, 256)
    model = ModelParams(1, 2.0, -1j)
    st = make_initial(grid, Gaussian(2.0, 1.0))
    cfg = SolverConfig(dt=0.2, t_end=0.2, diagnostics_cadence=3,
                       blowup_dt_floor=1e-7)
    got = run(st, model, cfg)
    want = reference_run(st, model, cfg)
    assert got.status is RunStatus.BLOWUP_DETECTED
    assert got.steps_accepted > 5 and got.steps_rejected > 5
    assert got.blowup_time_estimate < cfg.dt  # the first attempt was rejected
    # max|u| grows from 2 to about 1.6e3 on the way to the floor, and rounding
    # grows with it: the reference itself moves by about 1.6e-10 relative when
    # the initial data move by one ulp.  "Equal to rounding" here means
    # within that sensitivity, and never looser than 1e-12.
    nudged = reference_run(st.with_values(st.values * (1 + 2**-52)), model, cfg)
    scale = np.max(np.abs(want.final_state.values))
    sensitivity = np.max(np.abs(nudged.final_state.values - want.final_state.values))
    assert_same_run(got, want, rtol=max(1e-12, sensitivity / scale))


@pytest.mark.parametrize("threshold", [1.5, 0.5])
def test_sup_norm_decision_matches_exact_test(threshold):
    # Gaussian A = 1 on a coarse-ish grid: max|u| = 1 at t = 0 but the L2
    # bound (sum |u_j|^2)^(1/2) is near 2.8, so the bound never decides and
    # every step falls back to the exact max|u| test.  At 1.5 the run climbs
    # until the sup norm crosses the threshold; at 0.5 every step is rejected.
    grid = GridSpec(1, 40.0, 256)
    model = ModelParams(1, 2.0, -1j)
    st = make_initial(grid, Gaussian(1.0, 1.0))
    assert np.max(np.abs(st.values)) < 1.5 < math.sqrt(np.vdot(st.values, st.values).real)
    cfg = SolverConfig(dt=1e-2, t_end=1.0, blowup_linf_threshold=threshold,
                       blowup_dt_floor=1e-6, diagnostics_cadence=10)
    got = run(st, model, cfg)
    want = reference_run(st, model, cfg)
    assert got.status is RunStatus.BLOWUP_DETECTED
    assert_same_run(got, want)
    if threshold < 1.0:
        assert got.steps_accepted == 0 and got.blowup_time_estimate == 0.0
    else:
        assert got.steps_accepted > 10
        assert np.max(np.abs(got.final_state.values)) <= threshold


def test_two_ffts_per_accepted_step(monkeypatch):
    # the step's own FFTs, apart from the run's initial transform and its
    # state rebuilds: an accepted step makes two when its L2 bound settles
    # the sup-norm test; its state costs one inverse FFT, once
    grid = GridSpec(1, 40.0, 256)
    st = make_initial(grid, Gaussian(0.5, 1.0))
    model = ModelParams(1, 1.0, -1j)
    chain = nls.solver._StrangChain(st, scipy.fft.fftn(st.values))
    calls = counted_ffts(monkeypatch)
    for n in range(1, 11):
        assert chain.advance(model, 1e-2, 1e-2, 1e6)
        assert calls[-2:] == ["ifftn", "fftn"] and len(calls) == 2 * n
    chain.state()
    chain.state()
    assert len(calls) == 21 and calls[-1] == "ifftn"


@pytest.mark.parametrize("scatter", [False, True], ids=["plain", "scatter"])
def test_fft_calls_per_run(monkeypatch, scatter):
    # every scipy.fft call of a run, its trace rows' included: one forward
    # FFT of the initial state, two per accepted step, one inverse FFT per
    # rebuilt state (each row after the first; the last row is t_end), and
    # with the scatter probe one more inverse FFT per row after the first.
    # A row reads its spectrum from the chain, so it adds no forward FFT.
    calls = counted_ffts(monkeypatch)
    grid = GridSpec(1, 40.0, 256)
    st = make_initial(grid, Gaussian(0.5, 1.0))
    cfg = SolverConfig(dt=1e-2, t_end=1.0, diagnostics_cadence=10)
    probes = ProbeSet(median_radius=False, weighted_l2=False, scatter=scatter)
    out = run(st, ModelParams(1, 1.0, -1j), cfg, probes=probes)
    accepted, rows = out.steps_accepted, len(out.trace)
    assert accepted == 100 and out.steps_rejected == 0 and not out.checkpoints
    assert rows == accepted // 10 + 1
    assert calls.count("fftn") == accepted + 1
    assert len(calls) == 2 * accepted + rows + (rows - 1 if scatter else 0)


def test_step_allocates_one_field_and_one_real_buffer():
    # q (one complex field) plus the substep's real |u|^2 buffer and the one
    # temporary that fills it: 2x the field's bytes.  A substep that returned
    # a fresh array instead of overwriting q would add another whole field.
    grid = GridSpec(3, 16.0, 64)
    st = make_initial(grid, Gaussian(0.5, 1.0))
    model = ModelParams(3, 1.0, -1j)
    chain = nls.solver._StrangChain(st, scipy.fft.fftn(st.values))
    assert chain.advance(model, 1e-3, 1e-3, 1e6)  # caches the half-step factors
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        assert chain.advance(model, 1e-3, 1e-3, 1e6)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * st.values.nbytes


class DefaultNormChain:
    """The chain as written before the inverse FFT's 1/M^N moved onto the
    half-step factor: every inverse FFT is a default-norm ifftn of
    free_flow(...), and the sup-norm test always rebuilds the state."""

    def __init__(self, st):
        self.grid, self.time, self.tau = st.grid, st.time, 0.0
        self.p = scipy.fft.fftn(st.values)

    def advance(self, model, dt, weight, linf_max):
        u = scipy.fft.ifftn(free_flow(self.p, self.grid, dt / 2 + self.tau))
        p = scipy.fft.fftn(nonlinear_flow(u, model, weight))
        if not np.max(np.abs(scipy.fft.ifftn(free_flow(p, self.grid, dt / 2)))) <= linf_max:
            return False
        self.p, self.tau, self.time = p, dt / 2, self.time + dt
        return True

    def state(self):
        return scipy.fft.ifftn(free_flow(self.p, self.grid, self.tau))


FOLD_GRIDS = [GridSpec(1, 40.0, 256), GridSpec(2, 16.0, 32), GridSpec(3, 12.0, 16)]


@pytest.mark.parametrize("grid", FOLD_GRIDS, ids=lambda g: f"{g.dim}d")
def test_normalization_fold_is_bit_identical(grid):
    # 1/M^N is a power of two, so taking it from the half-step factor and
    # running the inverse FFT unscaled changes no bit: bounded steps, the
    # rebuild an unbounded step makes, a rejected step and the rows' state
    # all equal the default-norm chain exactly
    st = make_initial(grid, Gaussian(0.8, 1.0))
    model = ModelParams(grid.dim, 1.0, 0.4 - 1j)
    chain = nls.solver._StrangChain(st, scipy.fft.fftn(st.values))
    ref = DefaultNormChain(st)
    peak = float(np.max(np.abs(st.values)))
    l2 = math.sqrt(np.vdot(st.values, st.values).real)
    assert 1.5 * peak < l2  # the L2 bound cannot settle 1.5 peak
    for dt, linf_max, kind in [
        (1e-2, 1e6, "bounded"),
        (2e-2, 1e6, "bounded"),
        (1e-2, 1.5 * peak, "rebuilt"),
        (1e-2, 0.5 * peak, "rejected"),
        (5e-3, 1e6, "bounded"),
        (5e-3, 1.5 * peak, "rebuilt"),
    ]:
        built = chain.advance(model, dt, dt, linf_max)
        assert built == ref.advance(model, dt, dt, linf_max) == (kind != "rejected")
        if kind != "rejected":  # a rejected step keeps the state it had
            assert (chain._state is not None) == (kind == "rebuilt")
        assert np.array_equal(chain.p, ref.p)
        assert chain.time == ref.time
        assert np.array_equal(chain.state().values, ref.state())
    state, uk = chain.row()
    assert np.array_equal(state.values, ref.state())
    assert np.array_equal(uk, free_flow(ref.p, grid, ref.tau))


@pytest.mark.parametrize("grid", FOLD_GRIDS, ids=lambda g: f"{g.dim}d")
def test_linear_propagate_fold_is_bit_identical(grid):
    st = make_initial(grid, Gaussian(0.8, 1.0))
    for dt in (0.3, -0.7, 0.0):
        want = scipy.fft.ifftn(free_flow(scipy.fft.fftn(st.values), grid, dt))
        assert np.array_equal(linear_propagate(st, dt).values, want)


@pytest.mark.parametrize("grid", FOLD_GRIDS[:2], ids=lambda g: f"{g.dim}d")
def test_confinement_fold_is_bit_identical(grid, monkeypatch):
    # the report from the default-norm composition, patched in where the
    # check turns each propagated spectrum back into a state
    st = make_initial(grid, Gaussian(1.0, 1.0))
    times = (0.0, 0.1, 0.25)
    got = nls.diagnostics.linear_confinement_check(st, times)
    monkeypatch.setattr(
        nls.diagnostics, "free_flow_to_space",
        lambda uk, g, t: scipy.fft.ifftn(free_flow(uk, g, t)),
    )
    want = nls.diagnostics.linear_confinement_check(st, times)
    for name in ("lhs", "rhs", "exterior_fraction"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
