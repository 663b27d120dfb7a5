"""TraceRecorder.record against the per-point formulas it replaced.

OldRecorder below is the earlier trace row, kept here only as a test oracle:
dense |x|^2 and |k|^2 arrays, one FFT per gradient norm, the free propagator
applied in physical space for w(t) = e^{-it Lap} u(t), and one dense tent
cutoff per lambda.  record() must match it to rounding on every column.
"""

import math

import numpy as np
import pytest
import scipy.fft

import nls.solver
from nls.diagnostics import CutoffFamily, ProbeSet, TraceRecorder, tent_profile
from nls.exponents import ModelParams
from nls.field import (
    FieldState,
    Gaussian,
    GridSpec,
    axis_wavenumbers,
    make_initial,
    radial_shells,
)
from nls.solver import SolverConfig, _StrangChain, run

from conftest import counted_ffts


def dense_k(grid):
    """(|k|^2, per-axis derivative wavenumbers with the Nyquist mode zeroed)."""
    k1 = axis_wavenumbers(grid.box_length, grid.points)
    k2 = np.zeros(grid.shape)
    kd = []
    for d in range(grid.dim):
        shape = (1,) * d + (-1,) + (1,) * (grid.dim - 1 - d)
        k2 = k2 + k1.reshape(shape) ** 2
        kder = k1.copy()
        kder[grid.points // 2] = 0.0
        kd.append(kder.reshape(shape))
    return k2, kd


def old_gradient_norm(values, grid):
    _, kd = dense_k(grid)
    uk = scipy.fft.fftn(values)
    s = sum(float(np.sum(kder**2 * (uk.real**2 + uk.imag**2))) for kder in kd)
    return math.sqrt(s * grid.spacing**grid.dim / grid.points**grid.dim)


def old_propagate(values, grid, dt):
    k2, _ = dense_k(grid)
    return scipy.fft.ifftn(np.exp(-1j * k2 * dt) * scipy.fft.fftn(values))


def old_l2(values, grid):
    return math.sqrt(float(np.sum(values.real**2 + values.imag**2)) * grid.spacing**grid.dim)


def old_weighted_l2(values, grid):
    m2 = values.real**2 + values.imag**2
    return math.sqrt(float(np.sum(grid.radius_squared() * m2)) * grid.spacing**grid.dim)


def old_localized_mass(values, grid, cutoffs):
    m2 = values.real**2 + values.imag**2
    r = np.sqrt(grid.radius_squared())
    out = []
    for lam in cutoffs.lambdas:
        w = cutoffs.nu * tent_profile(lam * r)
        out.append(math.sqrt(float(np.sum(m2 * w**2)) * grid.spacing**grid.dim))
    return np.array(out)


def old_median_radius(values, grid):
    m2 = (values.real**2 + values.imag**2).reshape(-1)
    total = float(np.sum(m2))
    r = np.sqrt(grid.radius_squared()).reshape(-1)
    h = grid.spacing
    scaled = r / h
    near = np.rint(scaled)
    on_boundary = (np.abs(scaled - near) < 1e-9) & (near >= 1)
    idx = np.floor(scaled).astype(np.int64)
    idx[on_boundary] = near[on_boundary].astype(np.int64)
    nb = int(np.max(idx)) + 2
    binned = np.bincount(idx, weights=m2, minlength=nb)
    kb = near[on_boundary].astype(np.int64)
    halfmass = 0.5 * m2[on_boundary]
    binned -= np.bincount(kb, weights=halfmass, minlength=nb)
    binned += np.bincount(kb - 1, weights=halfmass, minlength=nb)
    cum = np.concatenate([[0.0], np.cumsum(binned)])
    k = int(np.searchsorted(cum, total / 2.0))
    if k == 0:
        return 0.0
    lo, hi = cum[k - 1], cum[k]
    frac = 0.0 if hi == lo else (total / 2.0 - lo) / (hi - lo)
    return (k - 1 + frac) * h


class OldRecorder:
    def __init__(self, model, probes):
        self.model, self.probes = model, probes
        self.rows, self.K_t, self.w_prev = [], 0.0, None

    def record(self, state):
        g, v, p = state.grid, state.values, self.probes
        grad = old_gradient_norm(v, g)
        self.K_t = max(self.K_t, grad)
        scatter = math.nan
        if p.scatter:
            w = old_propagate(v, g, -state.time)
            if self.w_prev is not None:
                d = w - self.w_prev
                scatter = math.sqrt(old_l2(d, g) ** 2 + old_gradient_norm(d, g) ** 2
                                    + old_weighted_l2(d, g) ** 2)
            self.w_prev = w
        pa = self.model.alpha + 2.0
        self.rows.append((
            state.time,
            old_l2(v, g),
            float(np.sum(np.abs(v) ** pa) * g.spacing**g.dim) ** (1.0 / pa),
            grad,
            self.K_t,
            float(np.max(np.abs(v))),
            old_median_radius(v, g),
            old_weighted_l2(v, g),
            scatter,
            old_localized_mass(v, g, p.cutoffs),
        ))


def boundary_shell_field(grid):
    """1 on the nodes whose |x| is a whole number 1..6 of spacings, else 0.

    All mass sits on bin boundaries, so the median radius depends on the
    half-and-half split of boundary samples.
    """
    r = np.sqrt(grid.radius_squared()) / grid.spacing
    near = np.rint(r)
    on = (np.abs(r - near) < 1e-9) & (near >= 1) & (near <= 6)
    return FieldState(grid, on.astype(np.complex128), time=0.0)


CASES = [
    (GridSpec(1, 40.0, 512), 1.0),
    (GridSpec(2, 24.0, 64), 0.5),
    (GridSpec(3, 16.0, 32), 0.5),
]


def chirped_gaussian(grid):
    """Gaussian(1.5, 1.0) data times the chirp exp(i|x|^2/4)."""
    st = make_initial(grid, Gaussian(1.5, 1.0))
    return st.with_values(st.values * np.exp(1j * grid.radius_squared() / 4))


def evolving_states(grid, alpha):
    """A few states of a focusing-dissipative run (Im kappa < 0) from chirped data."""
    st = chirped_gaussian(grid)
    model = ModelParams(grid.dim, alpha, 0.4 - 1j)
    cfg = SolverConfig(dt=5e-3, t_end=0.1, diagnostics_cadence=10**9)
    out = run(st, model, cfg, probes=ProbeSet(median_radius=False, weighted_l2=False,
                                              store_states_every=4))
    return model, out.checkpoints


def assert_rows_match(model, probes, states):
    new, old = TraceRecorder(model, probes), OldRecorder(model, probes)
    for s in states:
        new.record(s, scipy.fft.fftn(s.values))
        old.record(s)
    got = new.trace()
    cols = ("t", "mass", "lp", "grad_l2", "K_t", "linf", "R_t", "weighted_l2",
            "scatter_residual", "loc_mass")
    for j, name in enumerate(cols):
        want = np.array([r[j] for r in old.rows])
        np.testing.assert_allclose(getattr(got, name), want, rtol=1e-12, atol=0,
                                   err_msg=name)


@pytest.mark.parametrize("grid,alpha", CASES, ids=["1d", "2d", "3d"])
def test_record_matches_per_point_formulas(grid, alpha):
    model, states = evolving_states(grid, alpha)
    assert len(states) >= 5
    cutoffs = CutoffFamily.build(grid.dim, (8.0 / grid.box_length, 1.0, 2.0, 3.5))
    probes = ProbeSet(cutoffs=cutoffs, scatter=True)
    assert_rows_match(model, probes, states)


@pytest.mark.parametrize("grid", [c[0] for c in CASES], ids=["1d", "2d", "3d"])
def test_record_on_boundary_shells(grid):
    st = boundary_shell_field(grid)
    model = ModelParams(grid.dim, 1.0, -1j)
    cutoffs = CutoffFamily.build(grid.dim, (0.5 / grid.spacing, 8.0 / grid.box_length))
    probes = ProbeSet(cutoffs=cutoffs, scatter=True)
    states = [st, FieldState(grid, 0.5j * st.values, time=0.25)]
    assert_rows_match(model, probes, states)


@pytest.mark.parametrize("grid,alpha", CASES, ids=["1d", "2d", "3d"])
def test_row_norms_are_bit_equal_to_lp_norm_and_max(grid, alpha):
    # lp and linf share one |u| array in the row, which lp raises in place
    model, states = evolving_states(grid, alpha)
    rec = TraceRecorder(model, ProbeSet(median_radius=False, weighted_l2=False))
    for s in states:
        before = s.values.copy()
        rec.record(s, scipy.fft.fftn(s.values))
        assert np.array_equal(s.values, before)
        lp, linf = rec.rows[-1]["lp"], rec.rows[-1]["linf"]
        # the out-of-place formula of the L^(alpha+2) norm
        q, h = alpha + 2.0, grid.spacing**grid.dim
        assert lp == float(np.sum(np.abs(s.values) ** q) * h) ** (1.0 / q)
        assert linf == float(np.max(np.abs(s.values)))


@pytest.mark.parametrize("scatter", [False, True])
def test_one_fft_per_row(monkeypatch, scatter):
    # a row as run() records it: the chain's spectrum (no FFT) and the state
    # rebuilt from it (one inverse FFT; the initial state needs none).
    # record runs no forward FFT; the scatter probe adds one inverse FFT per
    # row after the first.
    grid = GridSpec(3, 16.0, 16)
    st = chirped_gaussian(grid)
    model = ModelParams(3, 0.5, 0.4 - 1j)
    probes = ProbeSet(cutoffs=CutoffFamily.build(3, (0.5, 1.0)), scatter=scatter)
    rec = TraceRecorder(model, probes)
    chain = _StrangChain(st, scipy.fft.fftn(st.values))
    calls = counted_ffts(monkeypatch)
    rec.record(*chain.row())
    assert calls == []
    for _ in range(4):
        assert chain.advance(model, 5e-3, 5e-3, 1e6)
        calls.clear()
        rec.record(*chain.row())
        assert calls == ["ifftn"] * (2 if scatter else 1)
    assert len(rec.rows) == 5


def counted_free_flows(monkeypatch):
    """Count the free-flow multiplies the solver makes from here on."""
    calls = []
    free_flow = nls.solver.free_flow

    def counted(*args, **kwargs):
        calls.append(args[2])
        return free_flow(*args, **kwargs)

    monkeypatch.setattr(nls.solver, "free_flow", counted)
    return calls


@pytest.mark.parametrize("scatter", [False, True])
def test_row_makes_one_free_flow_multiply(monkeypatch, scatter):
    # the row's spectrum pending * p is formed once; the state is its inverse
    # FFT, and the steps' half-steps (free_flow_to_space) are not rows
    grid = GridSpec(2, 24.0, 32)
    st = make_initial(grid, Gaussian(0.5, 1.0))
    model = ModelParams(2, 1.0, -1j)
    probes = ProbeSet(median_radius=False, weighted_l2=False, scatter=scatter)
    rec = TraceRecorder(model, probes)
    chain = _StrangChain(st, scipy.fft.fftn(st.values))
    multiplies = counted_free_flows(monkeypatch)
    ffts = counted_ffts(monkeypatch)
    for n in range(1, 5):
        assert chain.advance(model, 1e-2, 1e-2, 1e6)
        multiplies.clear()
        ffts.clear()
        rec.record(*chain.row())
        assert multiplies == [chain._tau]
        assert ffts == ["ifftn"] * (2 if scatter and n > 1 else 1)
    multiplies.clear()
    cfg = SolverConfig(dt=1e-2, t_end=0.2, diagnostics_cadence=3)
    out = run(st, model, cfg, probes=probes)
    assert out.steps_accepted == 20 and len(out.trace) == 8  # rows 0, 3, ..., 18, 20
    assert len(multiplies) == len(out.trace)


def test_shells_built_once_per_grid():
    grid = GridSpec(2, 24.0, 32)
    st = make_initial(grid, Gaussian(1.0, 1.0))
    cfg = SolverConfig(dt=1e-2, t_end=0.2)
    probes = ProbeSet(cutoffs=CutoffFamily.build(2, (0.5, 1.0)), scatter=True)
    radial_shells.cache_clear()
    out = run(st, ModelParams(2, 0.5, -1j), cfg, probes=probes)
    assert len(out.trace) == 21
    info = radial_shells.cache_info()
    assert info.misses == 1 and info.hits > 0
