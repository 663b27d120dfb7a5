"""Pseudo-conformal change of variables and the two-path equivalence harness.

With s = t/(1-t), y = x/(1-t), the map

    u(s, y) = (1-t)^{N/2} e^{+i|x|^2/(4(1-t))} v(t, x),   v(0) = e^{-i|x|^2/4} u(0),

carries solutions of i v_t + Lap v + kappa (1-t)^{-(4-N a)/2} |v|^a v = 0 on
[0,1) to solutions of i u_s + Lap u + kappa |u|^a u = 0 on [0,infty).  Note
the chirp signs: the inverse of the t=0 frame map fixes the minus sign in
the initial multiplier; the opposite pairing does not solve the equation
(checked numerically against the exact free flow).

On the grid the frame map is a pointwise multiply plus a relabeling of the
box from length L to L/(1-t) with the same node count, which makes it an
exact discrete L2 isometry.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .exponents import ModelParams
from .field import FieldState, Gaussian, GridSpec, InitialDataSpec, l2_norm, make_initial
from .solver import RunOutcome, RunStatus, SolverConfig, run


def step_weight(model: ModelParams, t: float, dt: float) -> float:
    """h(t + dt/2) dt, h(t) = (1-t)^{-(4 - N alpha)/2}: the time the v-step
    [t, t + dt] runs the flow of kappa |v|^alpha v for, by the midpoint rule
    for the integral of h over the step (h only reparametrizes time)."""
    expo = (4.0 - model.dim * model.alpha) / 2.0
    return (1.0 - (t + dt / 2)) ** (-expo) * dt


def check_chirp_resolution(grid: GridSpec, scale: float) -> None:
    """Require |x| h / (4 scale) < pi/4 at the box edge.

    The chirp exp(i|x|^2/(4 scale)) has local wavenumber |x|/(2 scale);
    sampling it beyond a quarter of the Nyquist rate anywhere in the box is
    rejected, since chirp aliasing is the dominant failure mode.
    """
    worst = (grid.box_length / 2) * grid.spacing / (2.0 * scale)
    if worst >= math.pi / 4:
        raise ValueError(
            f"quadratic phase under-resolved: |x| h / (2 scale) = {worst:.4g} "
            f"at the box edge (need < pi/4); increase points or shrink the box"
        )


def initial_v_data(u0: FieldState) -> FieldState:
    """v(0) = e^{-i|x|^2/4} u(0) on the same grid."""
    check_chirp_resolution(u0.grid, scale=1.0)
    r2 = u0.grid.radius_squared()
    return u0.with_values(u0.values * np.exp(-1j * r2 / 4), time=0.0)


def to_u_frame(v: FieldState, t: float) -> FieldState:
    """Map a v-side state at time t to the u-side state at s = t/(1-t).

    The returned state lives on the rescaled grid (box L/(1-t), same M);
    no interpolation is involved.
    """
    if not 0 <= t < 1:
        raise ValueError(f"t must be in [0, 1), got {t}")
    scale = 1.0 - t
    check_chirp_resolution(v.grid, scale=scale)
    r2 = v.grid.radius_squared()  # |x|^2 on the source grid
    vals = scale ** (v.grid.dim / 2.0) * np.exp(1j * r2 / (4.0 * scale)) * v.values
    grid_u = GridSpec(
        dim=v.grid.dim, box_length=v.grid.box_length / scale, points=v.grid.points
    )
    return FieldState(grid=grid_u, values=vals, time=t / scale)


def solve_v_problem(
    v0: FieldState, model: ModelParams, cfg: SolverConfig
) -> RunOutcome:
    """Split-step solve of the v-equation, each nonlinear substep over its
    step_weight (second-order consistent with the Strang composition)."""
    if v0.time + cfg.t_end >= 1.0:
        raise ValueError("v-problem runs on [0, 1); t_end too large")
    return run(v0, model, cfg, step_weight=lambda t, dt: step_weight(model, t, dt))


@dataclass(frozen=True)
class EquivalenceReport:
    t_star: float
    s_star: float
    l2_discrepancy: Optional[float]  # None unless both paths reached their times
    v_grid: GridSpec
    u_grid: GridSpec
    dt: float
    path_a_status: str
    path_b_status: str

    def as_dict(self) -> dict:
        return {
            "t_star": self.t_star,
            "s_star": self.s_star,
            "l2_discrepancy": self.l2_discrepancy,
            "grids": {"v": asdict(self.v_grid), "u": asdict(self.u_grid)},
            "dt": self.dt,
            "path_a_status": self.path_a_status,
            "path_b_status": self.path_b_status,
        }


def equivalence_experiment(
    initial: InitialDataSpec,
    grid: GridSpec,
    model: ModelParams,
    cfg: SolverConfig,
    t_star: float,
) -> EquivalenceReport:
    """Relative L2 discrepancy between the two solution paths at s*.

    Path A samples u0 on the given (v-side) grid, solves the v-equation from
    e^{-i|x|^2/4} u0 up to t*, and maps the result to the u frame.  Path B
    samples the same initial-data formula directly on Path A's u-side grid
    (box L/(1-t*), same node count, no interpolation) and solves the
    original equation up to s* = t*/(1-t*).  For t* = 0 the report is the
    trivial zero-discrepancy one.

    Only a Gaussian is the same function on both boxes (a plane wave's
    wavenumber is tied to its box, a file to its grid): other data are a
    ValueError, raised before anything runs, and so is a grid too coarse
    for the chirp of path A's end map (scale 1 - t*).  The discrepancy is
    None when either path ends short of its time (a blowup).  Neither path
    records trace rows beyond its first and last: no cadence can be reached.
    """
    if not isinstance(initial, Gaussian):
        raise ValueError(
            "pct-check needs Gaussian initial data, the same function on both "
            f"boxes; got {type(initial).__name__}"
        )
    if not 0 <= t_star < 1:
        raise ValueError("t_star must be in [0, 1)")
    if t_star == 0.0:
        reached = RunStatus.REACHED_T_END.value
        return EquivalenceReport(0.0, 0.0, 0.0, grid, grid, cfg.dt, reached, reached)
    check_chirp_resolution(grid, 1.0 - t_star)  # path A's end map: the strictest chirp
    s_star = t_star / (1.0 - t_star)
    v0 = initial_v_data(make_initial(grid, initial))
    cfg = replace(cfg, diagnostics_cadence=sys.maxsize)  # both traces are discarded
    cfg_a = replace(cfg, t_end=t_star)
    out_a = solve_v_problem(v0, model, cfg_a)
    u_a = to_u_frame(out_a.final_state, t_star)

    u0_u = make_initial(u_a.grid, initial)
    cfg_b = replace(cfg, t_end=s_star)
    out_b = run(u0_u, model, cfg_b)
    u_b = out_b.final_state

    disc = None
    if out_a.status is out_b.status is RunStatus.REACHED_T_END:
        disc = l2_norm(u_a.with_values(u_a.values - u_b.values)) / l2_norm(u_b)
    return EquivalenceReport(
        t_star,
        s_star,
        disc,
        grid,
        u_a.grid,
        cfg.dt,
        out_a.status.value,
        out_b.status.value,
    )
