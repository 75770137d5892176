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
        return np.where(t <= 0.5, 1.0, np.where(t >= 1.0, 0.0, base))

    def d1(self, t):
        t = np.asarray(t, float)
        tau = 2.0 * t - 1.0
        b = 1.0 - _smoothstep5(tau)
        inside = (t > 0.5) & (t < 1.0)
        val = -2.0 * self.q * np.where(inside, b, 1.0) ** (self.q - 1) * _smoothstep5_d1(tau)
        return np.where(inside, val, 0.0)

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
        return np.where(inside, val, 0.0)


def eta_condition_value(eta: Eta, p: float, samples: int = 20001) -> float:
    """Measured sup of eta^(-p'/p)(|eta'|^p' + |eta''|^p') over (1/2, 1)."""
    pp = p / (p - 1.0)
    t = np.linspace(0.5, 1.0, samples)[:-1]
    e = eta(t)
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


class _TimeSpline:
    """Not-a-knot cubic spline through snapshots y[i] taken at times x[i].

    From four snapshots on it computes what
    scipy.interpolate.CubicSpline(x, y, axis=0) computes, in the same
    operations and order, so values agree bit for bit: the same slopes and
    boundary rows, the pivoting elimination of LAPACK dgtsv (what
    solve_banded((1, 1), ...) calls), the PPoly coefficients c[0..3] and the
    PPoly sum c3 + c2 s + c1 s^2 + c0 (s^2 s).  Two snapshots give the line
    and three the parabola through them, as in scipy, up to rounding.
    """

    def __init__(self, x, y):
        x = np.asarray(x, float)
        n = len(x)
        if n < 2:
            raise ValueError(f"a spline in time needs at least 2 snapshots, got {n}")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise ValueError("snapshot times must be strictly increasing")
        if not np.isfinite(y).all():
            raise ValueError("snapshot values must be finite")
        self.x = x
        self.shape = y.shape[1:]
        y = y.reshape(n, -1)
        dxr = dx[:, None]
        slope = np.diff(y, axis=0) / dxr
        if n == 2:
            s = np.concatenate((slope, slope))
        elif n == 3:
            mid = (dx[1] * slope[0] + dx[0] * slope[1]) / (dx[0] + dx[1])
            s = np.stack((2 * slope[0] - mid, mid, 2 * slope[1] - mid))
        else:
            s = self._slopes(x, dx, dxr, slope)
        k = (s[:-1] + s[1:] - 2 * slope) / dxr
        # PPoly's sum starts from 0.0, which turns a -0.0 in y into +0.0
        self.c = np.stack((k / dxr, (slope - s[:-1]) / dxr - k, s[:-1], 0.0 + y[:-1]))

    @staticmethod
    def _slopes(x, dx, dxr, slope):
        """Knot derivatives: the not-a-knot tridiagonal system, solved as dgtsv does."""
        n = len(x)
        b = np.empty((n, slope.shape[1]))
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        head = x[2] - x[0]
        b[0] = ((dxr[0] + 2 * head) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / head
        tail = x[-1] - x[-3]
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * tail + dxr[-1]) * dxr[-2] * slope[-1]) / tail
        # sub-, main and super-diagonal; dl[i] becomes the second super-diagonal
        # entry of row i when rows i and i+1 are swapped, and 0 otherwise
        dl = [*dx[1:].tolist(), tail]
        d = [dx[1], *(2 * (dx[:-1] + dx[1:])).tolist(), dx[-2]]
        du = [head, *dx[:-1].tolist()]
        for i in range(n - 1):
            if abs(d[i]) >= abs(dl[i]):
                fact = dl[i] / d[i]
                d[i + 1] = d[i + 1] - fact * du[i]
                b[i + 1] -= fact * b[i]
                dl[i] = 0.0
            else:
                fact = d[i] / dl[i]
                d[i] = dl[i]
                temp = d[i + 1]
                d[i + 1] = du[i] - fact * temp
                if i < n - 2:
                    dl[i] = du[i + 1]
                    du[i + 1] = -fact * dl[i]
                du[i] = temp
                b[i], b[i + 1] = b[i + 1].copy(), b[i] - fact * b[i + 1]
        b[-1] /= d[-1]
        b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
        for i in range(n - 3, -1, -1):
            b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
        return b

    def __call__(self, t):
        """Values at times t, shape t.shape + shape; outside the knots the
        end pieces are extended."""
        t = np.asarray(t, float)
        tf = t.ravel()
        c0, c1, c2, c3 = self.c
        out = np.empty((tf.size, c0.shape[1]))
        piece = np.clip(np.searchsorted(self.x, tf, side="right") - 1, 0, len(self.x) - 2)
        cuts = [0, *(np.flatnonzero(np.diff(piece)) + 1).tolist(), tf.size]
        for lo, hi in zip(cuts, cuts[1:]):
            i = piece[lo]
            s = (tf[lo:hi] - self.x[i])[:, None]
            s2 = s * s
            o = out[lo:hi]
            np.multiply(c2[i], s, out=o)
            o += c3[i]
            o += c1[i] * s2
            o += c0[i] * (s2 * s)
        return out.reshape(t.shape + self.shape)


def _interpolant(archive: SolutionArchive) -> _TimeSpline:
    """Cubic spline of the snapshots in time.

    Kept on the archive, so all radii of a sweep share one spline; built
    again only after snapshots were appended.
    """
    n = len(archive.times)
    if archive.interp_cache is None or archive.interp_cache[0] != n:
        archive.interp_cache = (n, _TimeSpline(archive.times, np.stack(archive.fields)))
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
    eta_v = tf.eta(tt)
    eta_d1 = tf.eta.d1(tt) / t_span
    eta_d2 = tf.eta.d2(tt) / t_span**2

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
