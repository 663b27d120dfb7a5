"""Strang split-step time integration with blowup detection.

One step is linear_propagate(dt/2) o nonlinear_flow(dt) o
linear_propagate(dt/2); both substeps are exact flows, so the only time
error is the splitting commutator (second order).  For Im(kappa) < 0 the
nonlinear substep carries its own blowup signal: the Bernoulli bracket
turns nonpositive exactly when the pointwise amplitude leaves its domain.

Steps are chained in Fourier space (the split-step Fourier method).  The
chain carries p = F[w], the spectrum of the last nonlinear output, and
leaves the trailing half-step of the last accepted step pending.  The next
step multiplies p once by its own leading half-step times the pending one,
then runs one inverse FFT, the nonlinear substep and one forward FFT: two
FFTs per step instead of four.  That product q is the step's one new field
array: the inverse FFT, the nonlinear substep and the forward FFT all
overwrite it, and it becomes the next p.  The substep adds one real buffer
(|u|^2, then its powers), and a complex one only when Re(kappa) != 0.
It evaluates its powers only on the active window, the flat range of
nodes it can move by more than rounding, and the complex buffer is the
window's size (see oracle.nonlinear_flow).
The physical state ifftn(pending * p) is rebuilt only where it is read:
trace rows, stored states, store_at_times targets, t_end and the blowup
return.  A trace row forms its spectrum pending * p once: a copy of it is
transformed in place to rebuild the state and the array itself goes to the
row, so a row costs one multiply, one copy and at most that one inverse FFT
(plus one for the scatter probe).  A rejected step leaves p and the pending
half-step alone; only dt changes.
Every half-step uses the separable |k|^2 multiplier of field.free_flow
(exp(-i|k|^2 t) = prod_d exp(-i k_d^2 t)), never stored as a dense N-D
array.  A half-step followed by an inverse FFT (the merged half-step and
every state rebuild) is field.free_flow_to_space: the inverse FFT's 1/M^N
rides on the cached factor applied last and the FFT runs unscaled
(norm="forward").  M^N is a power of two, so this is exact: the result
equals ifftn(free_flow(...)) bit for bit, with one pass over the field
fewer.

Blowup of the discrete system is declared by policy, not by a theorem:
steps are rejected (and dt halved) while the substep bracket fails or the
sup norm exceeds the configured threshold; when dt falls below the floor
the run stops with the time of the last accepted state as the estimate.
The sup-norm test is decided without a rebuild while an L2 bound allows:
by Parseval and |multiplier| <= 1, max_j |u_j| <= (sum_j |u_j|^2)^(1/2)
<= (sum_j |w_j|^2)^(1/2).  A step whose bound is below the threshold (less
a 1e-9 relative margin for rounding) passes; otherwise the state is
rebuilt and max|u| decides, so the decision is that of an exact per-step
max|u| test.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np
import scipy.fft

from .diagnostics import DiagnosticTrace, ProbeSet, TraceRecorder
from .exponents import ModelParams
from .field import FieldState, free_flow, free_flow_to_space
from .oracle import SubstepBlowupError, nonlinear_flow

# relative margin between the L2 bound and the sup-norm threshold
_BOUND_MARGIN = 1.0 - 1e-9


class RunStatus(Enum):
    REACHED_T_END = "ReachedTEnd"
    BLOWUP_DETECTED = "BlowupDetected"


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    blowup_linf_threshold: float = 1e6
    blowup_dt_floor: float = 1e-12
    diagnostics_cadence: int = 1

    def __post_init__(self):
        if not 0 < self.dt <= self.t_end:
            raise ValueError(f"need 0 < dt <= t_end, got dt={self.dt}, t_end={self.t_end}")
        if not (self.blowup_linf_threshold > 0 and self.blowup_dt_floor > 0):  # NaN too
            raise ValueError("thresholds must be positive")
        if self.dt < self.blowup_dt_floor:
            raise ValueError(
                f"dt={self.dt} is below blowup_dt_floor={self.blowup_dt_floor}"
            )
        if self.diagnostics_cadence < 1:
            raise ValueError("diagnostics_cadence must be >= 1")


@dataclass
class RunOutcome:
    status: RunStatus
    final_state: FieldState
    blowup_time_estimate: Optional[float]
    trace: DiagnosticTrace
    checkpoints: list
    steps_accepted: int
    steps_rejected: int


class _StrangChain:
    """Strang steps chained in Fourier space (see the module docstring).

    The pending trailing half-step is exp(-i |k|^2 tau); p and the pending
    half-step together stand for the physical state at `time`.
    """

    def __init__(self, state0: FieldState, p0: np.ndarray):
        self._grid = state0.grid
        self.p = p0  # F[state0.values]; the chain owns it
        self.time = state0.time
        self._tau = 0.0
        self._state: Optional[FieldState] = state0  # physical state, once built

    def advance(self, model: ModelParams, dt: float, weight: float, linf_max: float) -> bool:
        """One Strang step of size dt; its nonlinear substep runs for time weight.

        Returns False, leaving the chain as it was, when the new state's sup
        norm exceeds linf_max; raises SubstepBlowupError (chain unchanged)
        when the nonlinear bracket fails.
        """
        u = free_flow_to_space(self.p, self._grid, dt / 2 + self._tau)
        w = nonlinear_flow(u, model, weight, overwrite_x=True)
        # L2 bound on the new sup norm; needs w before the FFT overwrites it.
        # sum |w_j|^2 is the real dot product of the interleaved parts: one
        # BLAS call, about half the time of vdot's complex one
        wr = w.reshape(-1).view(np.float64)
        bounded = wr @ wr <= (linf_max * _BOUND_MARGIN) ** 2
        p = scipy.fft.fftn(w, overwrite_x=True)
        tau = dt / 2
        state = None
        if not bounded:
            u = free_flow_to_space(p, self._grid, tau)
            if not float(np.max(np.abs(u))) <= linf_max:
                return False
            state = FieldState(self._grid, u, self.time + dt)
        self.p, self._tau = p, tau
        self.time += dt
        self._state = state
        return True

    def state(self) -> FieldState:
        """The physical state at self.time, rebuilt at most once per step."""
        if self._state is None:
            u = free_flow_to_space(self.p, self._grid, self._tau)
            self._state = FieldState(self._grid, u, self.time)
        return self._state

    def row(self) -> tuple:
        """(state(), F[u]) for a trace row, from one free-flow multiply.

        The spectrum is a new array, which the row consumes.  A state not
        built yet is the inverse FFT of a copy of it, run in place in a
        buffer allocated before the spectrum, as the state's own buffer was
        when it took a multiply of its own.  (An out-of-place inverse FFT
        gives the same bits, but 64^3 runs then page-fault about 750 times
        per run: the heap no longer reuses the freed fields.)
        """
        if self._state is not None:
            return self._state, free_flow(self.p, self._grid, self._tau)
        u = np.empty_like(self.p)
        uk = free_flow(self.p, self._grid, self._tau)
        np.copyto(u, uk)
        u = scipy.fft.ifftn(u, overwrite_x=True)
        self._state = FieldState(self._grid, u, self.time)
        return self._state, uk


def run(
    state0: FieldState,
    model: ModelParams,
    cfg: SolverConfig,
    probes: Optional[ProbeSet] = None,
    step_weight: Optional[Callable[[float, float], float]] = None,
) -> RunOutcome:
    """Advance state0 to t_end with halving-only step control.

    The nonlinear substep of the step [t, t + dt] runs the flow of
    model.kappa for step_weight(t, dt), and for dt without it (the conformal
    v-problem's coefficient kappa h(t) only reparametrizes time).
    """
    if not state0.is_finite():
        raise ValueError("initial state contains non-finite values")
    probes = probes or ProbeSet()
    if probes.cutoffs is not None:
        probes.cutoffs.check_support(state0.grid)
    rec = TraceRecorder(model, probes)
    t_end = state0.time + cfg.t_end
    dt = cfg.dt
    accepted = rejected = 0
    checkpoints = []
    chain = _StrangChain(state0, scipy.fft.fftn(state0.values))
    rec.record(*chain.row())
    eps = 1e-12 * max(1.0, abs(t_end))  # times closer than eps are one time
    targets = sorted({t for t in probes.store_at_times if t > state0.time + eps})
    every = probes.store_states_every
    if every or probes.store_at_times:
        checkpoints.append(state0)
    status = RunStatus.REACHED_T_END
    while chain.time < t_end - eps:
        dt_step = min(dt, t_end - chain.time)
        if targets:
            dt_step = min(dt_step, targets[0] - chain.time)
        weight = dt_step if step_weight is None else step_weight(chain.time, dt_step)
        try:
            ok = chain.advance(model, dt_step, weight, cfg.blowup_linf_threshold)
        except SubstepBlowupError:
            ok = False
        if not ok:
            rejected += 1
            dt *= 0.5
            if dt < cfg.blowup_dt_floor:
                status = RunStatus.BLOWUP_DETECTED
                break
            continue
        accepted += 1
        if accepted % cfg.diagnostics_cadence == 0:
            rec.record(*chain.row())
        take = every and accepted % every == 0
        while targets and chain.time >= targets[0] - eps:
            targets.pop(0)
            take = True
        if take:
            checkpoints.append(chain.state())

    if accepted % cfg.diagnostics_cadence != 0:  # the last accepted step has no row
        rec.record(*chain.row())
    state = chain.state()
    if every and checkpoints[-1] is not state:
        checkpoints.append(state)
    estimate = state.time if status is RunStatus.BLOWUP_DETECTED else None
    return RunOutcome(
        status, state, estimate, rec.trace(), checkpoints, accepted, rejected
    )
