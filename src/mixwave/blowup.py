"""Numerical test-function machinery for the blow-up argument.

Pairs a stored space-time solution with rescaled weights eta_R(t)*phi_R(x),
where eta is a compactly supported time cutoff and phi an algebraically
decaying spatial weight, evaluates the resulting space-time functionals and
their four error terms, and fits their scaling exponents in the radius R.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .evolve import SolutionArchive
from .params import OperatorParams
from .radial import power_law_slope
from .torus import Grid, to_physical, to_spectral


# --- time cutoff ------------------------------------------------------------

def _smoothstep5(x):
    """Quintic smoothstep: 0 at 0, 1 at 1, C^2-flat at both ends."""
    x = np.clip(x, 0.0, 1.0)
    return x**3 * (10.0 - 15.0 * x + 6.0 * x**2)


def _smoothstep5_d1(x):
    inside = (x > 0.0) & (x < 1.0)
    x = np.clip(x, 0.0, 1.0)
    return np.where(inside, 30.0 * x**2 * (1.0 - x) ** 2, 0.0)


def _smoothstep5_d2(x):
    inside = (x > 0.0) & (x < 1.0)
    x = np.clip(x, 0.0, 1.0)
    return np.where(inside, 60.0 * x * (1.0 - x) * (1.0 - 2.0 * x), 0.0)


@dataclass(frozen=True)
class Eta:
    """Time cutoff: 1 on [0, 1/2], 0 from 1 on, nonincreasing between.

    Realized as (1 - smoothstep(2t-1))^q with q >= 2p', which keeps the
    quotient eta^(-p'/p) (|eta'|^p' + |eta''|^p') bounded on [1/2, 1];
    the measured bound is stored, never assumed.
    """

    q: int
    condition_constant: float

    def __call__(self, t):
        t = np.asarray(t, float)
        tau = 2.0 * t - 1.0
        base = (1.0 - _smoothstep5(tau)) ** self.q
        out = np.where(t <= 0.5, 1.0, np.where(t >= 1.0, 0.0, base))
        return out if out.ndim else float(out)

    def d1(self, t):
        t = np.asarray(t, float)
        tau = 2.0 * t - 1.0
        b = 1.0 - _smoothstep5(tau)
        inside = (t > 0.5) & (t < 1.0)
        val = -2.0 * self.q * np.where(inside, b, 1.0) ** (self.q - 1) * _smoothstep5_d1(tau)
        out = np.where(inside, val, 0.0)
        return out if out.ndim else float(out)

    def d2(self, t):
        t = np.asarray(t, float)
        tau = 2.0 * t - 1.0
        b = np.maximum(1.0 - _smoothstep5(tau), 0.0)
        inside = (t > 0.5) & (t < 1.0)
        bs = np.where(inside, b, 1.0)
        s1 = _smoothstep5_d1(tau)
        s2 = _smoothstep5_d2(tau)
        val = 4.0 * self.q * ((self.q - 1) * bs ** (self.q - 2) * s1**2
                              - bs ** (self.q - 1) * s2)
        out = np.where(inside, val, 0.0)
        return out if out.ndim else float(out)


def eta_condition_value(eta: Eta, p: float, samples: int = 20001) -> float:
    """Measured sup of eta^(-p'/p)(|eta'|^p' + |eta''|^p') over (1/2, 1)."""
    pp = p / (p - 1.0)
    t = np.linspace(0.5, 1.0, samples)[:-1]
    e = np.asarray(eta(t))
    good = e > 0
    val = e[good] ** (-pp / p) * (np.abs(eta.d1(t[good])) ** pp
                                  + np.abs(eta.d2(t[good])) ** pp)
    return float(val.max())


def make_eta(p: float) -> Eta:
    """Concrete cutoff with a finite, measured condition constant for this p."""
    if not p > 1:
        raise ValueError("p must exceed 1")
    pp = p / (p - 1.0)
    q = int(math.ceil(2.0 * pp))
    probe = Eta(q=q, condition_constant=float("nan"))
    c = eta_condition_value(probe, p)
    if not math.isfinite(c):
        raise ValueError(f"cutoff configuration q={q} has unbounded condition value")
    return Eta(q=q, condition_constant=c)


# --- spatial weight ---------------------------------------------------------

def default_sigma0(sigma: float) -> float:
    """Fractional part of sigma, or 0.5 when sigma is an integer."""
    frac = sigma - math.floor(sigma)
    return frac if frac > 0 else 0.5


@dataclass(frozen=True)
class SpatialWeight:
    """phi(x) = (1+|x|^2)^(-(n+2*sigma0)/2) with its closed-form Laplacian."""

    n: int
    sigma0: float

    @property
    def beta(self) -> float:
        return self.n + 2.0 * self.sigma0

    def __call__(self, x_sq):
        return (1.0 + np.asarray(x_sq, float)) ** (-self.beta / 2.0)

    def laplacian(self, x_sq):
        q = 1.0 + np.asarray(x_sq, float)
        b = self.beta
        return q ** (-b / 2.0 - 2.0) * (-b * self.n * q + b * (b + 2.0) * x_sq)


@dataclass(frozen=True)
class FracLapReport:
    ratio_sup: float          # sup over inner half-domain of |(-Lap)^sigma phi| / phi
    field_inner: np.ndarray   # (-Lap)^sigma phi on the inner window
    x_inner: np.ndarray


# frac_lap_phi works on a domain this many times the evaluation window
_PAD_FACTOR = 8


def frac_lap_phi(sigma: float, sigma0: float, L_eval: float,
                 points_per_unit: float = 8.0) -> FracLapReport:
    """Spectral fractional Laplacian of the one-dimensional spatial weight.

    Computed on a domain _PAD_FACTOR times larger than the evaluation window
    to suppress periodization of the slowly decaying tail, then restricted;
    reports the sup of |(-Lap)^sigma phi| / phi over the inner half-window.
    The weight must decay below 1e-8 at the big-domain boundary.
    """
    w = SpatialWeight(1, sigma0)
    L_big = _PAD_FACTOR * L_eval
    if w(L_big**2) >= 1e-8:
        raise ValueError(
            f"boundary decay violated: phi({L_big}) = {w(L_big**2):.3e} >= 1e-8; "
            "increase L_eval")
    N = 1 << int(math.ceil(math.log2(max(64, 2 * L_big * points_per_unit))))
    grid = Grid(1, N, L_big)
    phi = w(grid.radius_sq())
    chat = to_spectral(grid, phi)
    field = to_physical(grid, chat * grid.radii ** (2.0 * sigma))
    inner = np.abs(grid.x) <= 0.5 * L_eval
    ratio = np.abs(field[inner]) / phi[inner]
    return FracLapReport(float(ratio.max()), field[inner], grid.x[inner])


# --- space-time functionals ---------------------------------------------------

@dataclass(frozen=True)
class TestFunctions:
    """Rescaled weight pair for one (R, K)."""

    __test__ = False   # name collides with pytest collection

    sigma0: float
    eta: Eta
    R: float
    K: float = 1.0


@dataclass(frozen=True)
class FunctionalReport:
    j_r: float
    j_r_tilde: float
    terms: tuple[float, float, float, float]   # time-d2, local, nonlocal, time-d1
    data_term: float                            # int (u(0)+u_t(0)) phi_R dx
    identity_residual: float                    # defect of the integration-by-parts identity


def _weight_fields(archive: SolutionArchive, tf: TestFunctions):
    """phi_R, Lap(phi_R) and (-Lap)^sigma(phi_R) on the solution grid.

    Torus-spectral weights keep the discrete self-adjointness identity exact.
    """
    grid = archive.grid
    params = archive.params
    scale = tf.K * tf.R
    w = SpatialWeight(grid.n, tf.sigma0)
    x_sq = grid.radius_sq(scale)
    phi_r = w(x_sq)
    lap_phi = w.laplacian(x_sq) / scale**2
    frac = to_physical(grid, to_spectral(grid, phi_r) * grid.radii ** (2.0 * params.sigma))
    return phi_r, lap_phi, frac


def _interpolant(archive: SolutionArchive) -> CubicSpline:
    """Cubic spline of the snapshots in time.

    Kept on the archive, so all radii of a sweep share one spline; built
    again only after snapshots were appended.
    """
    n = len(archive.times)
    if archive.interp_cache is None or archive.interp_cache[0] != n:
        spline = CubicSpline(np.asarray(archive.times), np.stack(archive.fields), axis=0)
        archive.interp_cache = (n, spline)
    return archive.interp_cache[1]


# uniform time nodes of the space-time trapezoid rule
_TIME_NODES = 801


def evaluate_functionals(archive: SolutionArchive, tf: TestFunctions,
                         p: float) -> FunctionalReport:
    """Space-time quadrature of the weighted functionals for one radius R.

    Trapezoid in time on a uniform refinement of the stored snapshot grid
    (cubic interpolation between snapshots) and plain grid sums in space.
    The archive must cover [0, R^(2 sigma_min)].
    """
    grid = archive.grid
    params = archive.params
    t_span = tf.R ** (2.0 * params.sigma_min)
    t_last = archive.times[-1]
    if t_span > t_last + 1e-12:
        raise ValueError(
            f"archive covers t <= {t_last:.6g} but the cutoff needs {t_span:.6g}")

    phi_r, lap_phi, frac_phi = _weight_fields(archive, tf)
    dv = grid.cell_volume
    spline = _interpolant(archive)

    tq = np.linspace(0.0, t_span, _TIME_NODES)
    tt = tq / t_span
    eta_v = np.asarray(tf.eta(tt))
    eta_d1 = np.asarray(tf.eta.d1(tt)) / t_span
    eta_d2 = np.asarray(tf.eta.d2(tt)) / t_span**2

    uq = spline(tq)
    flat = uq.reshape(_TIME_NODES, -1)
    phi_flat = phi_r.ravel()
    lap_flat = lap_phi.ravel()
    frac_flat = frac_phi.ravel()

    int_u_phi = flat @ phi_flat * dv
    int_u_lap = flat @ lap_flat * dv
    int_u_frac = flat @ frac_flat * dv
    # |u|^p overwrites the interpolated values, which are not read again
    np.abs(flat, out=flat)
    flat **= p
    int_up_phi = flat @ phi_flat * dv

    j_r = float(np.trapezoid(eta_v * int_up_phi, tq))
    half = tt >= 0.5
    j_tilde = float(np.trapezoid((eta_v * int_up_phi)[half], tq[half]))
    j1 = float(np.trapezoid(eta_d2 * int_u_phi, tq))
    j2 = params.a * float(np.trapezoid(eta_v * int_u_lap, tq))
    j3 = params.b * float(np.trapezoid(eta_v * int_u_frac, tq))
    j4 = float(np.trapezoid(eta_d1 * int_u_phi, tq))
    data_term = float(np.sum((archive.u0 + archive.u1) * phi_r) * dv)

    residual = j_r - (-data_term + j1 - j2 + j3 - j4)
    return FunctionalReport(j_r, j_tilde, (j1, j2, j3, j4), data_term, float(residual))


@dataclass(frozen=True)
class ScalingReport:
    radii: list[float]
    exponents: dict[str, float]
    targets: dict[str, float]
    bound_constants: list[float]    # fitted C of the combined inequality per radius
    reports: list[FunctionalReport]


def scaling_targets(params: OperatorParams, p: float) -> dict[str, float]:
    pp = p / (p - 1.0)
    smin = params.sigma_min
    vol = (params.n + 2.0 * smin) / pp
    return {
        "j1": -4.0 * smin + vol,
        "j2": -2.0 + vol,
        "j3": -2.0 * params.sigma + vol,
        "j4": -2.0 * smin + vol,
    }


def scaling_sweep(archive: SolutionArchive, eta: Eta, R_list, p: float,
                  K: float = 1.0) -> ScalingReport:
    """Fit log|J_i| - (1/p) log(J~ or J) against log R and compare to targets.

    Terms normalized by the restricted functional (time-derivative terms) use
    J~; the operator terms use J.  R_list must span at least half a decade.
    """
    R = sorted(float(r) for r in R_list)
    if len(R) < 2:
        raise ValueError("R_list must contain at least two radii")
    if R[-1] / R[0] < math.sqrt(10.0) * (1 - 1e-9):
        raise ValueError("R_list must span at least half a decade")
    params = archive.params
    sigma0 = default_sigma0(params.sigma)

    reports = []
    for r in R:
        tf = TestFunctions(sigma0=sigma0, eta=eta, R=r, K=K)
        reports.append(evaluate_functionals(archive, tf, p))

    noise = 1e-14 * max(abs(rep.j_r) for rep in reports)
    if any(rep.j_r_tilde <= noise for rep in reports):
        raise ValueError(
            "inconclusive: restricted functional at quadrature-noise level "
            "(solution shows no blow-up content on the window)")

    exponents = {}
    series = {"j1": [], "j2": [], "j3": [], "j4": []}
    for r, rep in zip(R, reports):
        j1, j2, j3, j4 = rep.terms
        series["j1"].append((r, abs(j1) / rep.j_r_tilde ** (1.0 / p)))
        series["j4"].append((r, abs(j4) / rep.j_r_tilde ** (1.0 / p)))
        series["j2"].append((r, abs(j2) / rep.j_r ** (1.0 / p)))
        series["j3"].append((r, abs(j3) / rep.j_r ** (1.0 / p)))
    for name, pts in series.items():
        exponents[name] = power_law_slope(pts)

    targets = scaling_targets(params, p)
    pp = p / (p - 1.0)
    smin = params.sigma_min
    # constant of the combined inequality: left side J_R + data term, right
    # side the Holder majorant of the four error terms; the Holder chain is
    # order-tight, so the two sides track each other and the ratio stabilizes
    # (the J-only normalization cannot be R-stable: J_R is nondecreasing in R
    # while its majorant decreases)
    consts = []
    for r, rep in zip(R, reports):
        rhs = (r ** (-2.0 * smin + (params.n + 2.0 * smin) / pp)
               * (rep.j_r_tilde ** (1.0 / p) * K ** (params.n / pp)
                  + rep.j_r ** (1.0 / p) * K ** (params.n / pp - 2.0 * smin)))
        consts.append((rep.j_r + rep.data_term) / rhs)
    return ScalingReport(R, exponents, targets, consts, reports)
