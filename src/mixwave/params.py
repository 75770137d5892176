"""Operator parameters and the closed-form exponents they determine.

The evolution operator is -a*Laplacian + b*(-Laplacian)^sigma with a, b > 0
and fractional order sigma in (0,1) or (1,inf).  Everything downstream
(kernels, quadrature, solver, experiments) consumes an OperatorParams.
The input records' range rules, and check_ranges, which applies them, live here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# a range rule: a test that NaN fails, and the words that finish "must ..."
POSITIVE = (lambda v: v > 0, "be positive")
POSITIVE_FINITE = (lambda v: 0 < v < math.inf, "be positive and finite")
EXCEEDS_ONE = (lambda v: v > 1, "exceed 1")
P_RULES = {"p": EXCEEDS_ONE}        # the power of the nonlinearity |u|^p


def check_ranges(record: dict, rules: dict) -> None:
    """Raise ValueError naming the first field of record that breaks its rule."""
    for name, (test, words) in rules.items():
        if not test(record[name]):
            raise ValueError(f"{name} must {words}, got {record[name]}")


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

    RULES = {"a": POSITIVE, "b": POSITIVE,
             "sigma": (lambda v: v > 0 and v != 1, "be positive and not 1"),
             "n": (lambda v: isinstance(v, (int, np.integer)) and v >= 1, "be a positive integer")}

    def __post_init__(self):
        check_ranges(vars(self), self.RULES)

    @property
    def sigma_min(self) -> float:
        return min(1.0, self.sigma)

    @property
    def diffusivity(self) -> float:
        """Coefficient of the term that dominates the symbol at low frequency:
        b r^(2 sigma) for sigma < 1 (anomalous), a r^2 for sigma > 1 (classical).
        The one place the package decides the regime."""
        return self.b if self.sigma < 1 else self.a

    def decay_rate(self, s: float) -> float:
        """Decay rate (n + 2s)/(4 sigma_min) of the order-s Sobolev norm."""
        return (self.n + 2.0 * s) / (4.0 * self.sigma_min)

    @property
    def p_crit(self) -> float:
        """Critical nonlinearity power separating blow-up from global existence."""
        return 1.0 + 2.0 * self.sigma_min / self.n

    def p_regime(self, p: float) -> str:
        """"critical" for p within 1e-12 relative of p_crit, which belongs to
        the blow-up side, else "sub-critical" or "super-critical".  The one
        place the package decides the p regime."""
        check_ranges({"p": p}, P_RULES)
        if math.isclose(p, self.p_crit, rel_tol=1e-12):
            return "critical"
        return "sub-critical" if p < self.p_crit else "super-critical"

    def lifespan_rate(self, p: float) -> float | None:
        """Exponent of the blow-up time T ~ eps^rate for sub-critical p,
        -2 sigma_min (p-1)/(2 sigma_min - n (p-1)); None for any other p."""
        if self.p_regime(p) != "sub-critical":
            return None
        smin = self.sigma_min
        return -2.0 * smin * (p - 1.0) / (2.0 * smin - self.n * (p - 1.0))

    @property
    def alpha_min(self) -> float:
        """Extra decay order of the kernel-vs-profile error at low frequency:
        the gap 2|1 - sigma| between the two orders of the symbol, capped by
        the dominant order 2 sigma_min."""
        return min(2.0 * abs(1.0 - self.sigma), 2.0 * self.sigma_min)


def symbol(params: OperatorParams, r):
    """Fourier symbol m(r) = a r^2 + b r^(2 sigma) at radial frequency r >= 0."""
    r = np.asarray(r, dtype=float)
    if (r < 0).any():
        raise ValueError("radial frequency must be nonnegative")
    return params.a * r**2 + params.b * r ** (2.0 * params.sigma)


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
    regime = params.p_regime(p)
    if regime != "super-critical":
        # a critical p off p_crit may lie on either side of it
        relation = "~" if regime == "critical" and p != params.p_crit else "<="
        issues.append(
            f"p = {p} {relation} p_crit = {params.p_crit} (blow-up range; "
            "global existence not expected)"
        )
    return issues
