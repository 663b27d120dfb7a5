"""Pseudospectral simulator and verification suite for the nonlinear
Schrodinger equation i u_t + Lap u + kappa |u|^alpha u = 0 with complex
kappa."""

__version__ = "0.1.0"

from .exponents import (
    ExponentReport,
    ModelParams,
    critical_exponents,
    gradient_monotone_condition,
    smallest_valid_a,
    strichartz_indices,
)
from .field import (
    FieldState,
    Gaussian,
    GridSpec,
    PlaneWave,
    QuadraticPhaseGaussian,
    linear_propagate,
    make_initial,
)
from .oracle import (
    Classification,
    SelfSimilarParams,
    classify,
    reduced_amplitude,
    weight_integral,
)
from .solver import RunOutcome, RunStatus, SolverConfig, run, step

__all__ = [
    "__version__",
    "ModelParams",
    "ExponentReport",
    "critical_exponents",
    "strichartz_indices",
    "smallest_valid_a",
    "gradient_monotone_condition",
    "GridSpec",
    "FieldState",
    "Gaussian",
    "PlaneWave",
    "QuadraticPhaseGaussian",
    "make_initial",
    "linear_propagate",
    "SelfSimilarParams",
    "Classification",
    "classify",
    "reduced_amplitude",
    "weight_integral",
    "SolverConfig",
    "RunOutcome",
    "RunStatus",
    "run",
    "step",
]
