"""Pseudospectral simulator and verification suite for the nonlinear
Schrodinger equation i u_t + Lap u + kappa |u|^alpha u = 0 with complex
kappa.

Names live in their modules (nls.exponents, nls.field, nls.solver, ...);
importing the package root loads none of the FFT stack."""

__version__ = "0.1.0"

# perfbench reads nls.ModelParams
from .exponents import ModelParams
