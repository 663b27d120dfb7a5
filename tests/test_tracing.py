"""The benchmark's tracer still sees every layer of a run.

perfbench/tracing.py measures layers by replacing the names the package
looks up at call time (nls.solver.nonlinear_flow, scipy.fft.fftn, ...).  A
refactor that calls a private helper instead, or binds an FFT function at
import, would leave the run correct and every metric of that layer 0.  This
test runs a tiny traced run and fails first.  It only reads perfbench.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import Tracer, repetition_metrics  # noqa: E402

import nls.solver  # noqa: E402
from nls.diagnostics import ProbeSet  # noqa: E402
from nls.exponents import ModelParams  # noqa: E402
from nls.field import Gaussian, GridSpec, make_initial  # noqa: E402


def test_traced_run_emits_every_layer():
    st = make_initial(GridSpec(1, 40.0, 128), Gaussian(0.5, 1.0))
    cfg = nls.solver.SolverConfig(dt=1e-2, t_end=0.1, diagnostics_cadence=2)
    tracer = Tracer()
    with tracer.installed():
        out = nls.solver.run(
            st, ModelParams(1, 1.0, -1j), cfg,
            probes=ProbeSet(median_radius=False, weighted_l2=False),
        )
    names = [s.name for s in tracer.spans]
    steps, rows = out.steps_accepted, len(out.trace)
    assert steps == 10 and out.steps_rejected == 0 and rows == 6
    assert names.count("solver.run") == 1
    assert names.count("oracle.nonlinear_flow") == steps
    assert names.count("diagnostics.record") == rows
    assert "fft" in names
    m = repetition_metrics(tracer.spans)
    assert m["solver.steps_accepted"] == steps
    assert m["oracle.nonlinear_flow_calls"] == steps
    assert m["diagnostics.record_calls"] == rows
    assert m["solver.fft_calls_per_step"] >= 2
    assert m["diagnostics.record_fft_calls"] == 0  # a row reads the chain's spectrum


def test_traced_2d_run_sees_the_scatter_frame():
    # the scatter probe's inverse FFT (the |x| part of the increment of w)
    # is the only FFT a row makes; it must reach the tracer as one
    st = make_initial(GridSpec(2, 24.0, 32), Gaussian(0.5, 1.0))
    cfg = nls.solver.SolverConfig(dt=1e-2, t_end=0.1, diagnostics_cadence=2)
    tracer = Tracer()
    with tracer.installed():
        out = nls.solver.run(
            st, ModelParams(2, 1.0, -1j), cfg,
            probes=ProbeSet(median_radius=False, weighted_l2=False, scatter=True),
        )
    rows = len(out.trace)
    assert out.steps_accepted == 10 and out.steps_rejected == 0 and rows == 6
    m = repetition_metrics(tracer.spans)
    assert m["diagnostics.record_fft_calls"] == rows - 1
    assert m["solver.fft_calls_per_step"] >= 2
