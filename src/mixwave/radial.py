"""Radial Fourier-side quadrature for homogeneous Sobolev norms.

Solutions of the linear problem with radial data are radial Fourier
multipliers, so their Hs norms reduce to one-dimensional integrals
over the frequency radius; no spatial grid is involved.  Panels are
geometric towards r = 0 because the late-time integrands concentrate
at radii ~ t^(-1/(2 sigma)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .kernels import kernel_eval, profile_hat
from .params import OperatorParams, symbol


def surface_area(n: int) -> float:
    """Measure of the unit sphere in n dimensions, 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def gaussian_datum(n: int, width: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Radial Fourier transform of the Gaussian bump of unit spatial integral.

    Under the unitary convention a datum's transform at r = 0 is
    (2 pi)^(-n/2) times its spatial integral.
    """
    w2 = width * width
    unit = (2.0 * math.pi) ** (-n / 2.0)

    def profile(r):
        r = np.asarray(r, float)
        return unit * np.exp(-0.5 * w2 * r**2)

    return profile


class QuadratureError(RuntimeError):
    """Panel estimates disagree beyond tolerance; the message names the achieved error."""


@lru_cache(maxsize=32)
def _gauss_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


# radii on which the cutoff is searched
_R_SCAN = np.logspace(-10, 5, 1200)
_R_SCAN.flags.writeable = False


def _adaptive_r_max(integrand_amp: Callable[[np.ndarray], np.ndarray]) -> float:
    # smallest radius beyond which the amplitude drops below 1e-18 of its
    # peak, doubled for safety
    vals = np.abs(integrand_amp(_R_SCAN))
    peak = vals.max()
    if peak == 0.0:
        return 1.0
    above = np.nonzero(vals >= 1e-18 * peak)[0]
    return 2.0 * _R_SCAN[above[-1]]


# decades of radius the geometric panels span below r_max
_TAIL_DECADES = 18.0
# geometric ratio of consecutive panel edges towards r = 0
_REFINEMENT = 2.0
# a Gauss panel of this order resolves roughly this much oscillation phase
_PHASE_PER_PANEL = 20.0


def _panel_splits(edges: np.ndarray,
                  phase: Callable[[np.ndarray], np.ndarray] | None) -> list[int]:
    """Sub-panels per panel between consecutive edges, so that each sees at
    most _PHASE_PER_PANEL of phase; the phase is evaluated once on all edges."""
    if phase is None:
        return [1] * (len(edges) - 1)
    dphis = np.abs(np.diff(phase(edges)))
    return [max(1, int(math.ceil(float(dphi) / _PHASE_PER_PANEL))) for dphi in dphis]


def _panel_bounds(r_max: float, phase: Callable[[np.ndarray], np.ndarray] | None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper edges of every sub-panel, largest radii first, ending
    with the stub [0, smallest edge]."""
    n_panels = int(math.ceil(_TAIL_DECADES * math.log(10.0) / math.log(_REFINEMENT)))
    edges = r_max * _REFINEMENT ** (-np.arange(n_panels + 1, dtype=float))
    subs = [np.linspace(lo, hi, splits + 1)
            for hi, lo, splits in zip(edges[:-1], edges[1:], _panel_splits(edges, phase))]
    # stub below the last edge: integrand there is ~ r^(2s+n-1) * const
    subs.append(np.array([0.0, edges[-1]]))
    return np.concatenate([sub[:-1] for sub in subs]), np.concatenate([sub[1:] for sub in subs])


def _panel_integral(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
                    hi: np.ndarray, order: int) -> float:
    """Gauss-Legendre sum of f over the panels [lo, hi], one call of f per panel."""
    x, w = _gauss_rule(order)
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * x
    weights = half[:, None] * w
    total = 0.0
    for r, wr in zip(nodes, weights):
        total += float(np.dot(wr, f(r)))
    return total


def radial_integral(f: Callable[[np.ndarray], np.ndarray],
                    amplitude: Callable[[np.ndarray], np.ndarray] | None = None,
                    phase: Callable[[np.ndarray], np.ndarray] | None = None,
                    r_max: float | None = None, panel_order: int = 32) -> float:
    """integral_0^r_max f(r) dr with convergence control, on Gauss-Legendre
    panels of panel_order nodes.

    r_max None selects the cutoff from amplitude (f when None).  phase, when
    given, is a monotone estimate of the integrand's oscillation phase; panels
    are subdivided so each sees a bounded phase increment.
    """
    if r_max is None:
        r_max = _adaptive_r_max(amplitude if amplitude is not None else f)
    lo, hi = _panel_bounds(r_max, phase)
    full = _panel_integral(f, lo, hi, panel_order)
    half = _panel_integral(f, lo, hi, max(4, panel_order // 2))
    # the difference is dominated by the half-order error, so the gate only
    # screens for unresolved integrands, not the achieved accuracy
    err = abs(full - half)
    if err > max(1e-12, 1e-7 * abs(full)):
        raise QuadratureError(
            f"radial quadrature did not converge (achieved error estimate {err:.3e})")
    return full


def kernel_phase(params: OperatorParams, t: float):
    """Oscillation-phase estimate t*omega(r) of the kernels at time t."""
    def phase(r):
        m = symbol(params, r)
        return t * 0.5 * np.sqrt(np.maximum(4.0 * m - 1.0, 0.0))

    return phase


def hs_norm(params: OperatorParams, field: Callable[[np.ndarray], np.ndarray],
            s: float, t: float,
            envelope: Callable[[np.ndarray], np.ndarray] | None = None) -> float:
    """Hs norm of the radial field whose transform at time t is field(r).

    Returns (omega_{n-1} * int r^(2s+n-1) field(r)^2 dr)^(1/2).  The cutoff is
    chosen from envelope, or from field when envelope is None; panels are
    subdivided for the kernels' oscillation at time t (harmless for smooth
    fields).
    """
    if s < 0 or t < 0:
        raise ValueError("s and t must be nonnegative")
    n = params.n

    def f(r):
        return r ** (2.0 * s + n - 1.0) * field(r) ** 2

    val = radial_integral(f, amplitude=envelope if envelope is not None else field,
                          phase=kernel_phase(params, t))
    return math.sqrt(surface_area(n) * max(val, 0.0))


def profile_error(params: OperatorParams, datum0: Callable[[np.ndarray], np.ndarray],
                  datum1: Callable[[np.ndarray], np.ndarray], s: float, t: float) -> float:
    """Hs distance between the linear solution and the mass-scaled profile.

    datum0 and datum1 are the radial transforms f0, f1 of u0, u1.  The field
    is the single multiplier K0*f0 + K1*f1 - (2pi)^(-n/2) * P * ghat, so the
    leading parts cancel inside one quadrature instead of between two.
    """
    unit = (2.0 * math.pi) ** (-params.n / 2.0)
    mass = datum0(0.0) / unit + datum1(0.0) / unit     # P = integral of u0 + u1
    const = unit * mass

    def diff(r):
        kv = kernel_eval(params, t, r)
        g = profile_hat(params, t, r)
        return kv.k0 * datum0(r) + kv.k1 * datum1(r) - const * g

    def amp(r):
        # envelope for cutoff selection: individual pieces, not the difference,
        # so cancellation cannot hide the support
        kv = kernel_eval(params, t, r)
        g = profile_hat(params, t, r)
        return (np.abs(kv.k0 * datum0(r)) + np.abs(kv.k1 * datum1(r))
                + abs(const) * g)

    return hs_norm(params, diff, s, t, envelope=amp)


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    intercept: float


def fit_power_law(series) -> PowerLawFit:
    """Ordinary least squares of log(value) against log(t).

    series is a sequence of (t, value) pairs with at least 5 samples,
    strictly increasing t and strictly positive values.
    """
    arr = np.asarray(list(series), float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 5:
        raise ValueError("need at least 5 (t, value) samples")
    t, v = arr[:, 0], arr[:, 1]
    if np.any(np.diff(t) <= 0):
        raise ValueError("t samples must be strictly increasing")
    if np.any(v <= 0) or np.any(t <= 0):
        raise ValueError("degenerate series: values and times must be positive")
    slope, intercept = np.polyfit(np.log(t), np.log(v), 1)
    return PowerLawFit(float(slope), float(intercept))


def power_law_slope(series) -> float:
    """Slope of log(value) against log(t): fit_power_law's with at least 5
    samples, otherwise the two-point slope between the first and last."""
    if len(series) >= 5:
        return fit_power_law(series).slope
    (t0, v0), (t1, v1) = series[0], series[-1]
    return math.log(v1 / v0) / math.log(t1 / t0)
