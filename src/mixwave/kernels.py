"""Exact Fourier-side solution kernels of the damped wave flow.

Per radial frequency r the linear flow reduces to the scalar problem
w'' + w' + m w = 0 with m = a r^2 + b r^(2 sigma).  The position kernel K0,
velocity kernel K1 and their time derivatives are evaluated in real
arithmetic, branch-wise in the sign of the discriminant d = 1 - 4m:

* d > 0: two real roots, both nonpositive, so plain exponentials never
  overflow;
* d < 0: conjugate pair with real part -1/2, trigonometric form;
* near d = 0: series in d*(t/2)^2, where the quadratic-formula expressions
  lose all digits to cancellation.

The tests cross-check these against a naive complex-exponential evaluation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import OperatorParams, symbol

# Branch switch for the kernel series happens on w = d*(t/2)^2, the actual
# argument of the cosh/sinc pair, so the band stays accurate at any t.
_SERIES_W = 1e-4


@dataclass(frozen=True)
class KernelValues:
    """K0, K1 and their time derivatives on the broadcast (t, r) points."""

    k0: np.ndarray
    k1: np.ndarray
    dk0: np.ndarray
    dk1: np.ndarray


# Taylor coefficients of the kernel series, highest order first
_COSH_COEFFS = tuple(1.0 / math.factorial(2 * k) for k in range(5, -1, -1))
_SINHC_COEFFS = tuple(1.0 / math.factorial(2 * k + 1) for k in range(5, -1, -1))


def _cs_series(w):
    """cosh(sqrt(w)) and sinh(sqrt(w))/sqrt(w) as entire series in w, |w| small."""
    # 6 terms: remainder ~ w^6/12! is far below roundoff for |w| <= 1e-4;
    # the Horner start 0*w + c equals c for the finite w of the band
    c = _COSH_COEFFS[0] * w + _COSH_COEFFS[1]
    s = _SINHC_COEFFS[0] * w + _SINHC_COEFFS[1]
    for cc, sc in zip(_COSH_COEFFS[2:], _SINHC_COEFFS[2:]):
        c = c * w + cc
        s = s * w + sc
    return c, s


def _band_kernels(t, w):
    """(k0, k1, dk1) in the series band |w| <= _SERIES_W."""
    c, s = _cs_series(w)
    pref = np.exp(-0.5 * t)
    return pref * (c + 0.5 * t * s), pref * t * s, pref * (c - 0.5 * t * s)


def _real_root_kernels(t, d):
    """(k0, k1, dk1) for two distinct real roots, d > 0."""
    sq = np.sqrt(d)
    lam_p = 0.5 * (-1.0 + sq)
    lam_m = 0.5 * (-1.0 - sq)
    # both roots <= 0: the exponentials only decay
    ep = np.exp(lam_p * t)
    em = np.exp(lam_m * t)
    return (lam_p * em - lam_m * ep) / sq, (ep - em) / sq, (lam_p * ep - lam_m * em) / sq


def _trig_kernels(t, w):
    """(k0, k1, dk1) for a conjugate root pair, w < -_SERIES_W."""
    x = np.sqrt(-w)                    # = omega * t > 0
    pref = np.exp(-0.5 * t)
    cos_x = np.cos(x)
    sinc = np.sin(x) / x
    return (pref * (cos_x + 0.5 * t * sinc), pref * t * sinc,
            pref * (cos_x - 0.5 * t * sinc))


def kernel_eval(params: OperatorParams, t, r) -> KernelValues:
    """Evaluate the solution kernels at time(s) t >= 0 and radii r >= 0.

    Broadcasts over numpy arrays; a scalar t and a scalar r give arrays of
    shape (1,).  The returned values satisfy dk1 + k1 = k0 and dk0 = -m*k1
    up to roundoff, and at t=0 reproduce the initial data (k0=1, k1=0,
    dk0=0, dk1=1).
    """
    t = np.asarray(t, float)
    r = np.asarray(r, float)
    if t.ndim:
        # time arrays: evaluate on the broadcast shape
        t, r = (np.ascontiguousarray(a) for a in np.broadcast_arrays(t, r))
        if (t < 0).any():
            raise ValueError("t must be nonnegative")
    else:
        # one time for all radii: a 1-element array that broadcasts, so every
        # transcendental still runs on contiguous data
        if t < 0:
            raise ValueError("t must be nonnegative")
        t = t.reshape(1)
        r = np.ascontiguousarray(np.atleast_1d(r))

    m = symbol(params, r)
    d = 1.0 - 4.0 * m
    half_t = 0.5 * t
    w = d * (half_t * half_t)

    # w_min/w_max are NaN when w holds a NaN, and no branch test holds then
    w_min, w_max = w.min(), w.max()
    if -_SERIES_W <= w_min and w_max <= _SERIES_W:
        k0, k1, dk1 = _band_kernels(t, w)
    elif w_min > _SERIES_W:
        k0, k1, dk1 = _real_root_kernels(t, d)
    elif w_max < -_SERIES_W:
        k0, k1, dk1 = _trig_kernels(t, w)
    elif math.isnan(w_min):
        # no regime mask would select these entries of the outputs
        if np.isnan(t).any():
            raise ValueError("kernel_eval: time t is NaN")
        if np.isnan(r).any():
            raise ValueError("kernel_eval: radius r is NaN")
        raise ValueError("kernel_eval: d*(t/2)^2 is inf*0, from an infinite "
                         "radius at t = 0 or an infinite time")
    else:
        k0 = np.empty_like(w)
        k1 = np.empty_like(w)
        dk1 = np.empty_like(w)
        for mask, branch, arg in ((np.abs(w) <= _SERIES_W, _band_kernels, w),
                                  (w > _SERIES_W, _real_root_kernels, d),
                                  (w < -_SERIES_W, _trig_kernels, w)):
            if mask.any():
                sub_t = t if t.size == 1 else t[mask]
                k0[mask], k1[mask], dk1[mask] = branch(sub_t, arg[mask])

    dk0 = -m * k1
    return KernelValues(k0, k1, dk0, dk1)


def profile_hat(params: OperatorParams, t, r):
    """Fourier multiplier of the dominant diffusion profile.

    exp(-b r^(2 sigma) t) for sigma < 1 (anomalous branch), exp(-a r^2 t)
    for sigma > 1 (classical branch); sigma = 1 is rejected at parameter
    construction.
    """
    t = np.asarray(t, float)
    r = np.asarray(r, float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    if params.sigma < 1:
        g = np.exp(-params.b * r ** (2.0 * params.sigma) * t)
    else:
        g = np.exp(-params.a * r**2 * t)
    return g


# --- Duhamel weights -------------------------------------------------------
#
# The exponential corrector needs the first two moments of K1 over a step,
#   w0  = int_0^h K1(s) ds,          w1  = (1/h) int_0^h s K1(s) ds,
# and the matching moments of dK1 for the velocity update.  Both reduce to
# divided differences of the entire functions
#   phi1(z) = (e^z - 1)/z,   psi(z) = phi1(z) - phi2(z) = (e^z(z-1)+1)/z^2
# at z = h*lambda_plus, h*lambda_minus; the difference is evaluated directly
# when the roots are well separated and by a Taylor step around the midpoint
# (which is the constant -h/2) otherwise.

_PHI_SERIES_RADIUS = 0.8
_PHI_SERIES_TERMS = 26
_DD_BAND = 1e-3


# Taylor coefficients, highest order first: phi1 = sum z^k/(k+1)!,
# psi = sum (k+1) z^k/(k+2)!, and phi_n = sum z^k/(k+n)! for the ladder
_PHI1_COEFFS = tuple(1.0 / math.factorial(k + 1)
                     for k in range(_PHI_SERIES_TERMS - 1, -1, -1))
_PSI_COEFFS = tuple((k + 1.0) / math.factorial(k + 2)
                    for k in range(_PHI_SERIES_TERMS - 1, -1, -1))
_LADDER_COUNT = 7    # the fifth derivative of phi1 - phi2 reaches phi_7
_LADDER_COEFFS = tuple(tuple(1.0 / math.factorial(k + n)
                             for k in range(_PHI_SERIES_TERMS - 1, -1, -1))
                       for n in range(1, _LADDER_COUNT + 1))
_INV_FACTORIALS = tuple(1.0 / math.factorial(n) for n in range(_LADDER_COUNT))


def _phi1_psi_series(z):
    """Horner sums of phi1 and psi, for |z| < _PHI_SERIES_RADIUS."""
    # phi1 and psi share one buffer, so a Horner step is one multiply by
    # [z, z] and one add per half.  Starting at the leading coefficient equals
    # 0*z + c for finite z.  Products go to tmp, never in place: numpy's
    # in-place complex multiply rounds differently on 1-element arrays.
    n = z.size
    zz = np.concatenate((z.ravel(), z.ravel()))
    acc = np.empty_like(zz)
    tmp = np.empty_like(zz)
    p1, ps, tmp1, tmps = acc[:n], acc[n:], tmp[:n], tmp[n:]
    p1[...] = _PHI1_COEFFS[0]
    ps[...] = _PSI_COEFFS[0]
    for c1, cp in zip(_PHI1_COEFFS[1:], _PSI_COEFFS[1:]):
        np.multiply(acc, zz, out=tmp)
        np.add(tmp1, c1, out=p1)
        np.add(tmps, cp, out=ps)
    return p1.reshape(z.shape), ps.reshape(z.shape)


def _phi1_psi_direct(z):
    """Closed forms of phi1 and psi, for |z| >= _PHI_SERIES_RADIUS."""
    ez = np.exp(z)
    return (ez - 1.0) / z, (ez * (z - 1.0) + 1.0) / z**2


def _phi1_psi(z: np.ndarray):
    """phi1(z) and psi(z), elementwise.

    Both branches use real coefficients only, so phi1/psi at conj(z) are the
    conjugates bit for bit (tests check this on the solver's grids).
    """
    z = np.asarray(z, complex)
    small = np.abs(z) < _PHI_SERIES_RADIUS
    n_small = np.count_nonzero(small)
    if n_small == z.size:
        return _phi1_psi_series(z)
    if n_small == 0:
        return _phi1_psi_direct(z)
    phi1 = np.empty_like(z)
    psi = np.empty_like(z)
    phi1[small], psi[small] = _phi1_psi_series(z[small])
    big = ~small
    phi1[big], psi[big] = _phi1_psi_direct(z[big])
    return phi1, psi


def _phi_ladder(z: complex) -> list[complex]:
    """phi_1(z) .. phi_{_LADDER_COUNT}(z) for a scalar argument."""
    if abs(z) < _PHI_SERIES_RADIUS:
        out = []
        for coeffs in _LADDER_COEFFS:
            acc = 0.0 + 0.0j
            for c in coeffs:
                acc = acc * z + c
            out.append(acc)
        return out
    out = [(np.exp(z) - 1.0) / z]
    for n in range(1, _LADDER_COUNT):
        out.append((out[-1] - _INV_FACTORIALS[n]) / z)
    return out


def _combo_derivative(combo: dict[int, float]) -> dict[int, float]:
    # d/dz phi_n = phi_n - n*phi_{n+1}
    out: dict[int, float] = {}
    for n, c in combo.items():
        out[n] = out.get(n, 0.0) + c
        out[n + 1] = out.get(n + 1, 0.0) - n * c
    return out


def _taylor_combos(base: dict[int, float]):
    """First, third and fifth z-derivatives of a phi combination."""
    c1 = _combo_derivative(base)
    c3 = _combo_derivative(_combo_derivative(c1))
    c5 = _combo_derivative(_combo_derivative(c3))
    return c1, c3, c5


# divided differences of phi1 and of psi = phi1 - phi2 around the midpoint
_DD1_COMBOS = _taylor_combos({1: 1.0})
_DDP_COMBOS = _taylor_combos({1: 1.0, 2: -1.0})


def _combo_eval(combo: dict[int, float], ladder: list[complex]) -> complex:
    return sum(c * ladder[n - 1] for n, c in combo.items())


def _direct_differences(mu: float, delta: np.ndarray):
    """Divided differences of phi1 and psi between z = mu + delta and mu - delta.

    For a conjugate root pair delta is purely imaginary, so mu - delta is
    exactly conj(mu + delta) and its phi values are the conjugates; only
    real-root modes need a second evaluation.  It rides along in the same
    _phi1_psi call, whose cost on a few points is as high as on the grid.
    """
    zp = mu + delta
    zm = mu - delta
    real = delta.real != 0.0
    n = zp.size
    p1, ps = _phi1_psi(np.concatenate((zp.ravel(), zm[real])))
    p1p = p1[:n].reshape(zp.shape)
    psp = ps[:n].reshape(zp.shape)
    p1m = np.conj(p1p)
    psm = np.conj(psp)
    p1m[real] = p1[n:]
    psm[real] = ps[n:]
    dz = zp - zm
    return (p1p - p1m) / dz, (psp - psm) / dz


@dataclass(frozen=True)
class DuhamelWeights:
    """Kernel moments over one step, per the integrator's update formulas."""

    w0: np.ndarray    # int_0^h K1
    w1: np.ndarray    # (1/h) int_0^h s K1(s) ds
    w0t: np.ndarray   # int_0^h dK1 = K1(h)
    w1t: np.ndarray   # (1/h) int_0^h s dK1(s) ds = K1(h) - w0/h


def duhamel_weights(params: OperatorParams, h: float, r) -> DuhamelWeights:
    """Closed-form moments of the velocity kernel over a step of size h > 0,
    at radii r (a scalar r gives arrays of shape (1,)).

    At r = 0 the expressions reduce to the limits of (e^{lambda h}-1)/lambda
    type quantities as lambda -> 0; the divided-difference path takes those
    limits implicitly.
    """
    if not h > 0:
        raise ValueError("step size h must be positive")
    r_arr = np.atleast_1d(np.asarray(r, float))

    m = symbol(params, r_arr)
    sd = np.sqrt((1.0 - 4.0 * m).astype(complex))
    delta = 0.5 * h * sd                     # (z_plus - z_minus)/2
    mu = -0.5 * h                            # midpoint, root-independent

    direct = np.abs(delta) >= _DD_BAND * max(1.0, abs(mu))
    n_direct = np.count_nonzero(direct)
    if n_direct == delta.size:
        dd1, ddp = _direct_differences(mu, delta)
    else:
        dd1 = np.empty_like(delta)
        ddp = np.empty_like(delta)
        if n_direct:
            dd1[direct], ddp[direct] = _direct_differences(mu, delta[direct])
        near = ~direct
        ladder = _phi_ladder(complex(mu))
        d2 = delta[near] ** 2
        for target, (c1, c3, c5) in ((dd1, _DD1_COMBOS), (ddp, _DDP_COMBOS)):
            f1 = _combo_eval(c1, ladder)
            f3 = _combo_eval(c3, ladder)
            f5 = _combo_eval(c5, ladder)
            target[near] = f1 + d2 * (f3 / 6.0 + d2 * f5 / 120.0)

    w0 = (h * h) * dd1.real
    w1 = (h * h) * ddp.real
    w0t = kernel_eval(params, h, r_arr).k1
    w1t = w0t - w0 / h
    return DuhamelWeights(w0, w1, w0t, w1t)
