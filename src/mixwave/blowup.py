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
from .params import P_RULES, OperatorParams, check_ranges
from .radial import power_law_slope
from .torus import Grid, to_physical, to_spectral


# --- time cutoff ------------------------------------------------------------

@dataclass(frozen=True)
class Eta:
    """Time cutoff: 1 on [0, 1/2], 0 from 1 on, nonincreasing between.

    Realized as (1 - S(2t-1))^q with the quintic smoothstep
    S(x) = x^3 (10 - 15x + 6x^2), which runs from 0 to 1 and is C^2-flat at
    both ends, and q >= 2p', which keeps the quotient
    eta^(-p'/p) (|eta'|^p' + |eta''|^p') bounded on [1/2, 1]; the log10 of
    the measured bound is stored, never assumed.
    """

    q: int
    condition_log10: float

    def __call__(self, t):
        """eta, eta' and eta'' at the times t, three arrays of t's shape."""
        t = np.asarray(t, float)
        inside = (t > 0.5) & (t < 1.0)
        x = 2.0 * t[inside] - 1.0
        # 1 - S rounds below 0 for some x just under 1
        b = np.maximum(1.0 - x**3 * (10.0 - 15.0 * x + 6.0 * x**2), 0.0)
        s1 = 30.0 * x**2 * (1.0 - x) ** 2
        s2 = 60.0 * x * (1.0 - x) * (1.0 - 2.0 * x)
        q = self.q
        eta = np.where(t <= 0.5, 1.0, 0.0)
        eta[inside] = b**q
        d1 = np.zeros_like(t)
        d1[inside] = -2.0 * q * b ** (q - 1) * s1
        d2 = np.zeros_like(t)
        d2[inside] = 4.0 * q * ((q - 1) * b ** (q - 2) * s1**2 - b ** (q - 1) * s2)
        return eta, d1, d2


def eta_condition_value(eta: Eta, p: float, samples: int = 20001) -> float:
    """log10 of the measured sup of eta^(-p'/p)(|eta'|^p' + |eta''|^p')
    over (1/2, 1).

    Summed in log space, as logaddexp of p' (log|eta^(k)| - log(eta) / p)
    for k = 1, 2, so that it is finite for every p > 1: the sup itself
    leaves the float range for p below about 1.017 (it is about 10^581 at
    p = 1.01).  A zero of eta'' contributes log 0 = -inf, which logaddexp
    absorbs.
    """
    pp = p / (p - 1.0)
    t = np.linspace(0.5, 1.0, samples)[:-1]
    e, d1, d2 = eta(t)
    good = e > 0
    log_root = np.log(e[good]) / p
    with np.errstate(divide="ignore"):
        val = np.logaddexp(pp * (np.log(np.abs(d1[good])) - log_root),
                           pp * (np.log(np.abs(d2[good])) - log_root))
    return float(val.max() / math.log(10.0))


def make_eta(p: float) -> Eta:
    """Concrete cutoff for this p > 1, with q = ceil(2p') and the log10 of
    its measured condition constant."""
    check_ranges({"p": p}, P_RULES)
    q = int(math.ceil(2.0 * p / (p - 1.0)))
    return Eta(q=q, condition_log10=eta_condition_value(Eta(q, float("nan")), p))


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
    dx = grid.dx
    # The window |x| <= L_eval/2 is the index range [lo, hi).  Its end points
    # N/2 -+ N/32 lie on the grid in exact arithmetic; one whose rounded x
    # falls outside is dropped, as the mask |x| <= L_eval/2 drops it.
    lo, hi = N // 2 - N // 32, N // 2 + N // 32 + 1
    lo += abs(-L_big + dx * lo) > 0.5 * L_eval
    hi -= abs(-L_big + dx * (hi - 1)) > 0.5 * L_eval
    # The window arrays are allocated before the full-size ones: one that
    # outlives the call, placed after them, would keep their freed memory
    # resident.
    x_inner = -L_big + dx * np.arange(lo, hi)
    phi_inner = w(x_inner**2)
    field_inner = np.empty_like(x_inner)
    # The big grid has 2^19 points at L_eval = 2560, so the only full-size
    # arrays are the two transforms' operands: the weight, built in place in
    # the buffer that then takes the inverse transform, and its spectrum.
    # The operations are those of w(grid.radius_sq()) and
    # chat * grid.radii ** (2 sigma).
    phi = np.arange(N, dtype=float)     # k, then x = -L + dx k, then w(x^2)
    phi *= dx
    phi += -L_big
    phi **= 2
    phi += 1.0
    phi **= -w.beta / 2.0
    chat = to_spectral(grid, phi)
    xi = np.arange(N // 2 + 1, dtype=float)    # k, then |xi| = k pi / L,
    xi *= math.pi / L_big                      # then |xi|^(2 sigma)
    xi **= 2.0 * sigma
    chat *= xi
    del xi
    field_inner[...] = to_physical(grid, chat, out=phi)[lo:hi]
    return FracLapReport(float((np.abs(field_inner) / phi_inner).max()), field_inner, x_inner)


# --- space-time functionals ---------------------------------------------------

@dataclass(frozen=True)
class FunctionalReport:
    j_r: float
    j_r_tilde: float
    terms: tuple[float, float, float, float]   # time-d2, local, nonlocal, time-d1
    data_term: float                            # int (u(0)+u_t(0)) phi_R dx
    identity_residual: float                    # defect of the integration-by-parts identity


def _weight_fields(archive: SolutionArchive, R: float, K: float):
    """phi_R, Lap(phi_R) and (-Lap)^sigma(phi_R) on the solution grid, for
    the weight of order default_sigma0(sigma) rescaled by K R.

    Torus-spectral weights keep the discrete self-adjointness identity exact.
    """
    grid = archive.grid
    params = archive.params
    scale = K * R
    w = SpatialWeight(grid.n, default_sigma0(params.sigma))
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

    It keeps references to the snapshot rows, never a copy, and one
    field-sized array of its own: the knot slopes s.  The coefficients of a
    piece are formed, in PPoly's order, only while that piece is evaluated.
    So while a spline is in use, no snapshot may be written in place; a
    spline lives no longer than the sweep (or the single radius) it serves.
    """

    def __init__(self, x, y):
        x = np.asarray(x, float)
        n = len(x)
        if n < 2:
            raise ValueError(f"a spline in time needs at least 2 snapshots, got {n}")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise ValueError("snapshot times must be strictly increasing")
        if not all(np.isfinite(row).all() for row in y):
            raise ValueError("snapshot values must be finite")
        self.x = x
        self.dx = dx
        self.shape = np.shape(y[0])
        self.y = [np.asarray(row, float).reshape(-1) for row in y]
        if n == 2:
            slope = self._slope(0)
            self.s = np.stack((slope, slope))
        elif n == 3:
            slope0, slope1 = self._slope(0), self._slope(1)
            mid = (dx[1] * slope0 + dx[0] * slope1) / (dx[0] + dx[1])
            self.s = np.stack((2 * slope0 - mid, mid, 2 * slope1 - mid))
        else:
            self.s = self._knot_slopes()

    def _slope(self, i):
        """Slope of the chord over piece i."""
        return (self.y[i + 1] - self.y[i]) / self.dx[i]

    def _knot_slopes(self):
        """Knot derivatives: the not-a-knot tridiagonal system, solved as dgtsv does."""
        x, dx = self.x, self.dx
        n = len(x)
        b = np.empty((n, self.y[0].size))
        head = x[2] - x[0]
        tail = x[-1] - x[-3]
        # right-hand side row by row, two chord slopes alive at a time;
        # dx[i] * dx[i] is the square that ** 2 takes on an array, while
        # dx[i] ** 2 on a numpy scalar calls pow, which can round otherwise
        last = self._slope(0)
        for i in range(1, n - 1):
            slope = self._slope(i)
            b[i] = 3 * (dx[i] * last + dx[i - 1] * slope)
            if i == 1:
                b[0] = ((dx[0] + 2 * head) * dx[1] * last + dx[0] * dx[0] * slope) / head
            if i == n - 2:
                b[-1] = (dx[-1] * dx[-1] * last + (2 * tail + dx[-1]) * dx[-2] * slope) / tail
            last = slope
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

    def coefficients(self, i):
        """PPoly coefficients c[0..3] of piece i, formed as CubicSpline forms c."""
        h = self.dx[i]
        slope = self._slope(i)
        k = (self.s[i] + self.s[i + 1] - 2 * slope) / h
        # PPoly's sum starts from 0.0, which turns a -0.0 in y into +0.0
        return k / h, (slope - self.s[i]) / h - k, self.s[i], 0.0 + self.y[i]

    def __call__(self, t):
        """Values at times t, shape t.shape + shape; outside the knots the
        end pieces are extended."""
        t = np.asarray(t, float)
        tf = t.ravel()
        out = np.empty((tf.size, self.s.shape[1]))
        piece = np.clip(np.searchsorted(self.x, tf, side="right") - 1, 0, len(self.x) - 2)
        cuts = [0, *(np.flatnonzero(np.diff(piece)) + 1).tolist(), tf.size]
        for lo, hi in zip(cuts, cuts[1:]):
            i = piece[lo]
            c0, c1, c2, c3 = self.coefficients(i)
            s = (tf[lo:hi] - self.x[i])[:, None]
            s2 = s * s
            o = out[lo:hi]
            np.multiply(c2, s, out=o)
            o += c3
            o += c1 * s2
            o += c0 * (s2 * s)
        return out.reshape(t.shape + self.shape)


# uniform time nodes of the space-time trapezoid rule
_TIME_NODES = 801


def evaluate_functionals(archive: SolutionArchive, spline: _TimeSpline, eta: Eta,
                         R: float, p: float, K: float = 1.0) -> FunctionalReport:
    """Space-time quadrature of the weighted functionals for one radius R,
    with the cutoff eta_R and the weight phi rescaled by K R.

    Trapezoid in time on a uniform refinement of the stored snapshot grid
    (cubic interpolation between snapshots) and plain grid sums in space.
    The archive must cover [0, R^(2 sigma_min)].  spline is the time spline
    of the archive's snapshots, which a sweep builds once for all its radii.
    """
    grid = archive.grid
    params = archive.params
    t_span = R ** (2.0 * params.sigma_min)
    t_last = archive.times[-1]
    if t_span > t_last + 1e-12:
        raise ValueError(
            f"archive covers t <= {t_last:.6g} but the cutoff needs {t_span:.6g}")

    phi_r, lap_phi, frac_phi = _weight_fields(archive, R, K)
    dv = grid.cell_volume

    tq = np.linspace(0.0, t_span, _TIME_NODES)
    tt = tq / t_span
    eta_v, eta_d1, eta_d2 = eta(tt)
    eta_d1 /= t_span
    eta_d2 /= t_span**2

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


def radii_fault(R_list) -> str | None:
    """The rule a sweep's positive radii break, as the words that finish
    "must ...", or None: a scaling fit needs at least two radii, spanning at
    least half a decade."""
    if len(R_list) < 2:
        return "contain at least two radii"
    if max(R_list) / min(R_list) < math.sqrt(10.0) * (1 - 1e-9):
        return "span at least half a decade"
    return None


def scaling_sweep(archive: SolutionArchive, eta: Eta, R_list, p: float,
                  K: float = 1.0) -> ScalingReport:
    """Fit log|J_i| - (1/p) log(J~ or J) against log R and compare to targets.

    Terms normalized by the restricted functional (time-derivative terms) use
    J~; the operator terms use J.  R_list must pass radii_fault.
    """
    R = sorted(float(r) for r in R_list)
    fault = radii_fault(R)
    if fault:
        raise ValueError(f"R_list must {fault}")
    params = archive.params
    spline = _TimeSpline(archive.times, archive.fields)
    reports = [evaluate_functionals(archive, spline, eta, r, p, K=K) for r in R]

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
    # constant of the combined inequality: left side J_R + data term, right
    # side the Holder majorant of the four error terms; the Holder chain is
    # order-tight, so the two sides track each other and the ratio stabilizes
    # (the J-only normalization cannot be R-stable: J_R is nondecreasing in R
    # while its majorant decreases)
    consts = []
    for r, rep in zip(R, reports):
        rhs = (r ** targets["j4"]
               * (rep.j_r_tilde ** (1.0 / p) * K ** (params.n / pp)
                  + rep.j_r ** (1.0 / p) * K ** (params.n / pp - 2.0 * params.sigma_min)))
        consts.append((rep.j_r + rep.data_term) / rhs)
    return ScalingReport(R, exponents, targets, consts, reports)
