"""Operator parameters and the closed-form exponents they determine.

The evolution operator is -a*Laplacian + b*(-Laplacian)^sigma with a, b > 0
and fractional order sigma in (0,1) or (1,inf).  Everything downstream
(kernels, quadrature, solver, experiments) consumes an OperatorParams.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OperatorParams:
    """Coefficients of the mixed local-nonlocal diffusion operator.

    a: local diffusivity (> 0)
    b: nonlocal diffusivity (> 0)
    sigma: fractional order, positive and != 1
    n: spatial dimension (positive integer)
    """

    a: float
    b: float
    sigma: float
    n: int

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError(f"a must be positive, got {self.a}")
        if not self.b > 0:
            raise ValueError(f"b must be positive, got {self.b}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.sigma == 1:
            raise ValueError(
                "sigma = 1 excluded: the operator degenerates to a pure "
                "Laplacian with ambiguous diffusion branch; use sigma != 1"
            )
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n}")

    @property
    def sigma_min(self) -> float:
        return min(1.0, self.sigma)

    @property
    def p_crit(self) -> float:
        """Critical nonlinearity power separating blow-up from global existence."""
        return 1.0 + 2.0 * self.sigma_min / self.n

    @property
    def alpha_min(self) -> float:
        """Extra decay order of the kernel-vs-profile error at low frequency."""
        if self.sigma < 1:
            return min(2.0 - 2.0 * self.sigma, 2.0 * self.sigma)
        return min(2.0, 2.0 * self.sigma - 2.0)


def symbol(params: OperatorParams, r):
    """Fourier symbol m(r) = a r^2 + b r^(2 sigma) at radial frequency r >= 0."""
    r = np.asarray(r, dtype=float)
    if (r < 0).any():
        raise ValueError("radial frequency must be nonnegative")
    return params.a * r**2 + params.b * r ** (2.0 * params.sigma)


@dataclass(frozen=True)
class ExponentReport:
    """Closed-form exponents for one (s, p) scenario."""

    p_crit: float
    decay_exp: float        # Sobolev-norm decay rate (n+2s)/(4 sigma_min)
    alpha_min: float
    lifespan_exp: float | None  # defined only for p < p_crit
    is_critical: bool


def exponents(params: OperatorParams, s: float, p: float) -> ExponentReport:
    """Decay, profile-error and lifespan exponents for regularity s and power p.

    The lifespan exponent -2*sigma_min*(p-1)/(2*sigma_min - n*(p-1)) is only
    defined below the critical power; at or above it the field is None.
    """
    if not 0 <= s <= params.sigma_min:
        raise ValueError(f"s must lie in [0, sigma_min]={params.sigma_min}, got {s}")
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    smin = params.sigma_min
    pc = params.p_crit
    critical = math.isclose(p, pc, rel_tol=1e-12)
    if p < pc and not critical:
        lifespan = -2.0 * smin * (p - 1.0) / (2.0 * smin - params.n * (p - 1.0))
    else:
        lifespan = None
    return ExponentReport(
        p_crit=pc,
        decay_exp=(params.n + 2.0 * s) / (4.0 * smin),
        alpha_min=params.alpha_min,
        lifespan_exp=lifespan,
        is_critical=critical,
    )


def theorem_hypotheses(params: OperatorParams, p: float) -> list[str]:
    """List of violated hypotheses of the global-existence statements.

    Empty list means the scenario sits inside the theorems' assumptions.
    Violations do not prevent running an experiment; the CLI prints them
    as an "outside theorem hypotheses" banner.
    """
    issues = []
    smin = params.sigma_min
    if p < 2:
        issues.append(f"p = {p} < 2 (Gagliardo-Nirenberg admissibility requires p >= 2)")
    if params.n > 2 * smin and p > params.n / (params.n - 2 * smin):
        issues.append(
            f"p = {p} > n/(n - 2 sigma_min) = {params.n / (params.n - 2 * smin)}"
        )
    if p <= params.p_crit:
        issues.append(
            f"p = {p} <= p_crit = {params.p_crit} (blow-up range; "
            "global existence not expected)"
        )
    return issues
