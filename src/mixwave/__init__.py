"""Pseudo-spectral toolkit for the damped wave equation with mixed
local-nonlocal diffusion: exact Fourier kernels, radial-quadrature norm
verification, a periodic ETD2 solver, scaling experiments and the
test-function blow-up certificate.
"""

from .params import OperatorParams, ExponentReport, exponents, symbol, theorem_hypotheses
from .kernels import (
    DuhamelWeights,
    KernelValues,
    duhamel_weights,
    kernel_eval,
    profile_hat,
)
from .radial import (
    QuadratureError,
    QuadratureSpec,
    RadialDatum,
    fit_power_law,
    gaussian_datum,
    hs_norm,
    profile_error,
)
from .torus import BlowUpDetected, FieldState, Grid
from .evolve import (
    RunOutcome,
    RunStatus,
    SolutionArchive,
    StepControl,
    duhamel_zero_mode_residual,
    initial_state,
    run,
)
from .experiments import (
    ExperimentInvalid,
    decay_experiment,
    lifespan_sweep,
    profile_experiment,
)
from .blowup import TestFunctions, evaluate_functionals, frac_lap_phi, make_eta, scaling_sweep

__all__ = [
    "OperatorParams",
    "ExponentReport",
    "exponents",
    "symbol",
    "theorem_hypotheses",
    "DuhamelWeights",
    "KernelValues",
    "duhamel_weights",
    "kernel_eval",
    "profile_hat",
    "QuadratureError",
    "QuadratureSpec",
    "RadialDatum",
    "fit_power_law",
    "gaussian_datum",
    "hs_norm",
    "profile_error",
    "BlowUpDetected",
    "FieldState",
    "Grid",
    "RunOutcome",
    "RunStatus",
    "SolutionArchive",
    "StepControl",
    "duhamel_zero_mode_residual",
    "initial_state",
    "run",
    "ExperimentInvalid",
    "decay_experiment",
    "lifespan_sweep",
    "profile_experiment",
    "TestFunctions",
    "evaluate_functionals",
    "frac_lap_phi",
    "make_eta",
    "scaling_sweep",
]
