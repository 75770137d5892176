import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import bisect

from mixwave.kernels import (
    _DD_BAND,
    _LADDER_COEFFS,
    _PHI_SERIES_RADIUS,
    _PSI_COEFFS,
    KernelValues,
    _phi1_psi,
    _phi1_psi_series,
    duhamel_weights,
    kernel_eval,
    profile_hat,
)
from mixwave.params import OperatorParams, symbol
from mixwave.torus import Grid

P = OperatorParams(1.0, 1.0, 0.5, 1)


def kernel_eval_reference(params: OperatorParams, t, r) -> KernelValues:
    """Naive complex-exponential evaluation, the oracle for kernel_eval.

    Loses all accuracy near the degenerate discriminant.
    """
    t = np.asarray(t, float)
    r = np.asarray(r, float)
    m = np.asarray(symbol(params, r), complex)
    sd = np.sqrt(1.0 - 4.0 * m)
    lam_p = 0.5 * (-1.0 + sd)
    lam_m = 0.5 * (-1.0 - sd)
    ep = np.exp(lam_p * t)
    em = np.exp(lam_m * t)
    k0 = (lam_p * em - lam_m * ep) / sd
    k1 = (ep - em) / sd
    dk0 = lam_p * lam_m * (em - ep) / sd
    dk1 = (lam_p * ep - lam_m * em) / sd
    return KernelValues(k0.real, k1.real, dk0.real, dk1.real)


def random_samples(n=10000, seed=0):
    rng = np.random.default_rng(seed)
    t = 10.0 ** rng.uniform(-2, 3, n)
    r = 10.0 ** rng.uniform(-6, 2, n)
    return t, r


class TestKernelValues:
    def test_initial_data_reproduction(self):
        for r in (0.0, 0.3, 1.0, 40.0):
            kv = kernel_eval(P, 0.0, r)
            assert (kv.k0, kv.k1, kv.dk0, kv.dk1) == (1.0, 0.0, -0.0, 1.0)

    def test_zero_frequency_closed_form(self):
        # substituting the roots 0 and -1 into the representation formula
        for t in (0.1, 2.5, 30.0):
            kv = kernel_eval(P, t, 0.0)
            assert kv.k0 == pytest.approx(1.0, abs=1e-14)
            assert kv.k1 == pytest.approx(1.0 - math.exp(-t), rel=1e-13)
            assert kv.dk1 == pytest.approx(math.exp(-t), rel=1e-12)

    def test_degenerate_limit_values(self):
        # L'Hopital limits at discriminant 0: k0=(1+t/2)e^(-t/2), k1=t e^(-t/2)
        r_star = bisect(lambda r: 4.0 * (r * r + r) - 1.0, 0.01, 1.0, xtol=1e-15)
        for t in (0.5, 3.0, 12.0):
            kv = kernel_eval(P, t, r_star)
            assert kv.k0 == pytest.approx((1 + t / 2) * math.exp(-t / 2), rel=1e-9)
            assert kv.k1 == pytest.approx(t * math.exp(-t / 2), rel=1e-9)

    def test_identities_random_samples(self):
        t, r = random_samples()
        kv = kernel_eval(P, t, r)
        m = symbol(P, r)
        res1 = np.abs(kv.dk1 + kv.k1 - kv.k0) / (1.0 + np.abs(kv.k0))
        res2 = np.abs(kv.dk0 + m * kv.k1) / (1.0 + m)
        assert res1.max() <= 1e-10
        assert res2.max() <= 1e-10

    def test_ode_residual_second_order_in_eps(self):
        # (K(t+e) - 2K(t) + K(t-e))/e^2 + dK + m K -> 0 at rate e^2
        rng = np.random.default_rng(2)
        t = 10.0 ** rng.uniform(-0.5, 1.5, 40)
        r = 10.0 ** rng.uniform(-3, 1, 40)
        m = symbol(P, r)
        prev = None
        for eps in (1e-2, 5e-3, 2.5e-3):
            kv = kernel_eval(P, t, r)
            kp = kernel_eval(P, t + eps, r)
            km = kernel_eval(P, t - eps, r)
            res0 = (kp.k0 - 2 * kv.k0 + km.k0) / eps**2 + kv.dk0 + m * kv.k0
            res1 = (kp.k1 - 2 * kv.k1 + km.k1) / eps**2 + kv.dk1 + m * kv.k1
            worst = max(np.abs(res0).max(), np.abs(res1).max())
            if prev is not None:
                assert worst < prev / 3.0   # ~factor 4 for a clean e^2 rate
            prev = worst

    def test_branch_continuity_at_series_switch(self):
        # values on either side of the branch boundary agree to 1e-8 relative
        def r_of_d(d):
            m = (1.0 - d) / 4.0
            return (-1.0 + math.sqrt(1.0 + 4.0 * m)) / 2.0

        for t0 in (0.3, 5.0, 40.0):
            for sign in (1.0, -1.0):
                d_edge = sign * 1e-4 / (t0 / 2.0) ** 2
                ka = kernel_eval(P, t0, r_of_d(d_edge * (1 - 1e-8)))
                kb = kernel_eval(P, t0, r_of_d(d_edge * (1 + 1e-8)))
                assert ka.k0 == pytest.approx(kb.k0, rel=1e-8)
                assert ka.k1 == pytest.approx(kb.k1, rel=1e-8)

    def test_branch_continuity_at_degenerate_band(self):
        def r_of_d(d):
            m = (1.0 - d) / 4.0
            return (-1.0 + math.sqrt(1.0 + 4.0 * m)) / 2.0

        for t0 in (0.5, 7.0):
            for d in (1e-6, -1e-6):
                ka = kernel_eval(P, t0, r_of_d(d * (1 - 1e-6)))
                kb = kernel_eval(P, t0, r_of_d(d * (1 + 1e-6)))
                assert ka.k0 == pytest.approx(kb.k0, rel=1e-8)
                assert ka.k1 == pytest.approx(kb.k1, rel=1e-8)

    def test_against_complex_reference_path(self):
        rng = np.random.default_rng(3)
        t = 10.0 ** rng.uniform(-2, 1.5, 2000)
        r = 10.0 ** rng.uniform(-5, 2, 2000)
        away = np.abs(1.0 - 4.0 * symbol(P, r)) > 1e-3
        kva = kernel_eval(P, t, r)
        kvb = kernel_eval_reference(P, t, r)
        assert np.max(np.abs(kva.k0 - kvb.k0)[away]) < 1e-12
        assert np.max(np.abs(kva.k1 - kvb.k1)[away]) < 1e-12

    def test_small_frequency_bound_fitted(self):
        # |K0| + |K1| <= C exp(-c r^(2 sigma) t) on r <= 0.1 with c the
        # low-frequency rate; C fitted as the measured sup, must be modest
        t = np.linspace(0.0, 200.0, 401)
        r = np.linspace(1e-6, 0.1, 101)
        tt, rr = np.meshgrid(t, r)
        kv = kernel_eval(P, tt, rr)
        c = P.b
        ratio = (np.abs(kv.k0) + np.abs(kv.k1)) * np.exp(c * rr ** (2 * P.sigma) * tt)
        C = ratio.max()
        assert np.isfinite(C) and C < 10.0
        # stability of the fitted constant under sample refinement
        t2 = np.linspace(0.0, 200.0, 801)
        tt2, rr2 = np.meshgrid(t2, r)
        kv2 = kernel_eval(P, tt2, rr2)
        C2 = ((np.abs(kv2.k0) + np.abs(kv2.k1))
              * np.exp(c * rr2 ** (2 * P.sigma) * tt2)).max()
        assert C2 == pytest.approx(C, rel=0.05)

    def test_large_frequency_bound_fitted(self):
        # |K0| <= C exp(-c t) for large radii
        t = np.linspace(0.0, 60.0, 301)
        r = np.geomspace(10.0, 1e3, 40)
        tt, rr = np.meshgrid(t, r)
        kv = kernel_eval(P, tt, rr)
        C = (np.abs(kv.k0) * np.exp(0.45 * tt)).max()
        assert np.isfinite(C) and C < 10.0

    def test_t_negative_rejected(self):
        with pytest.raises(ValueError):
            kernel_eval(P, -1.0, 1.0)
        with pytest.raises(ValueError, match="t must be nonnegative"):
            kernel_eval(P, np.array([1.0, -1.0]), 1.0)

    @pytest.mark.parametrize("t, r, cause", [
        (0.0, [1.0, np.inf, np.nan], "radius r is NaN"),
        (1.0, [0.5, np.nan], "radius r is NaN"),
        (0.0, [1.0, np.inf], "infinite radius at t = 0"),
        (np.nan, [1.0, 2.0], "time t is NaN"),
        ([1.0, np.nan], [1.0, 2.0], "time t is NaN"),
        (np.nan, 1.0, "time t is NaN"),
        (1.0, [0.5, np.inf], "overflows to -inf at radius r = inf"),
    ])
    def test_nan_argument_rejected_by_name(self, t, r, cause):
        # no regime selects a NaN w = d*(t/2)^2, so the outputs would be
        # uninitialized memory
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=cause):
            kernel_eval(P, t, np.asarray(r, float))

    def test_symbol_overflow_at_t0_names_the_radius(self):
        # m(10) = 10^400 is inf, and w = -inf * 0 is NaN at t = 0
        with pytest.raises(ValueError,
                           match=r"overflows to -inf at radius r = 10 \(sigma = 200\)"):
            kernel_eval(OperatorParams(1.0, 1.0, 200.0, 1), 0.0, [1.0, 10.0])


class TestProfileHat:
    def test_direct_substitution(self):
        assert profile_hat(P, 1.0, 1.0) == pytest.approx(math.exp(-1.0))
        q = OperatorParams(2.0, 1.0, 1.5, 1)
        assert profile_hat(q, 3.0, 1.0) == pytest.approx(math.exp(-6.0))

    def test_t_negative_rejected(self):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            profile_hat(P, -1.0, 1.0)

    def test_identity_at_t0_and_r0(self):
        assert profile_hat(P, 0.0, 5.0) == 1.0
        assert profile_hat(P, 7.0, 0.0) == 1.0

    def test_strictly_decreasing_in_t_and_r(self):
        t = np.linspace(0.1, 20.0, 50)
        g_t = profile_hat(P, t, 0.7)
        assert np.all(np.diff(g_t) < 0)
        r = np.linspace(0.1, 20.0, 50)
        g_r = profile_hat(P, 3.0, r)
        assert np.all(np.diff(g_r) < 0)
        assert np.all((g_t > 0) & (g_t <= 1.0))


class TestDuhamelWeights:
    def test_zero_frequency_antiderivative(self):
        # w0 = int_0^h (1 - e^-s) ds = h - 1 + e^-h
        for h in (0.05, 0.3, 1.0):
            w = duhamel_weights(P, h, 0.0)
            assert w.w0 == pytest.approx(h - 1.0 + math.exp(-h), rel=1e-12)

    def test_vanishing_interval(self):
        w = duhamel_weights(P, 1e-8, np.array([0.0, 0.5, 3.0]))
        assert np.all(np.abs(w.w0) < 1e-15)
        assert np.all(np.abs(w.w1) < 1e-15)

    # h = 2.0 takes _phi_ladder's exp recurrence (|z| >= 1.6); at r = 35 there
    # quad itself warns that it cannot reach the tolerance
    @pytest.mark.parametrize("h, r", [
        (h, r) for h in (0.005, 0.05, 0.7, 2.0)
        for r in (0.0, 1e-4, 0.2071067811865476, 1.0, 35.0) if (h, r) != (2.0, 35.0)])
    def test_matches_adaptive_quadrature(self, h, r):
        w = duhamel_weights(P, h, r)
        q0 = quad(lambda s: kernel_eval(P, s, r).k1[0], 0.0, h,
                  epsabs=1e-15, epsrel=1e-13)[0]
        q1 = quad(lambda s: s * kernel_eval(P, s, r).k1[0], 0.0, h,
                  epsabs=1e-16, epsrel=1e-13)[0] / h
        assert w.w0[0] == pytest.approx(q0, rel=1e-10)
        assert w.w1[0] == pytest.approx(q1, rel=1e-10)

    def test_velocity_moments(self):
        for r in (0.0, 0.4, 5.0):
            h = 0.2
            w = duhamel_weights(P, h, r)
            assert w.w0t[0] == pytest.approx(kernel_eval(P, h, r).k1[0], rel=1e-12)
            q = quad(lambda s: s * kernel_eval(P, s, r).dk1[0], 0.0, h,
                     epsabs=1e-16, epsrel=1e-13)[0] / h
            assert w.w1t[0] == pytest.approx(q, rel=1e-9, abs=1e-14)

    def test_h_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            duhamel_weights(P, 0.0, 1.0)


# the grids of the blow-up certificate (criterion 8) and of the lifespan runs
# (criterion 7); the step sizes span both branches of _phi1_psi
GUARD_GRIDS = {"certificate": Grid(1, 2048, 50.0), "lifespan": Grid(1, 16384, 2560.0)}
GUARD_STEPS = (1e-4, 2e-3, 0.02, 0.05, 0.2)


def _half_split(h, r):
    """Midpoint mu and half root distance delta of z = h*lambda at radii r."""
    m = symbol(P, r)
    return -0.5 * h, 0.5 * h * np.sqrt((1.0 - 4.0 * m).astype(complex))


class TestConjugatePairReuse:
    """duhamel_weights takes phi at the second root of a conjugate pair as the
    conjugate of phi at the first; both sides are computed here in one process."""

    @pytest.mark.parametrize("name", sorted(GUARD_GRIDS))
    def test_phi_of_conjugate_is_conjugate_bitwise(self, name):
        radii = GUARD_GRIDS[name].radii
        series = direct = 0
        for h in GUARD_STEPS:
            mu, delta = _half_split(h, radii)
            z = mu + delta[delta.real == 0.0]
            assert z.size > 0
            series += np.count_nonzero(np.abs(z) < _PHI_SERIES_RADIUS)
            direct += np.count_nonzero(np.abs(z) >= _PHI_SERIES_RADIUS)
            for got, want in zip(_phi1_psi(np.conj(z)), _phi1_psi(z)):
                assert got.tobytes() == np.conj(want).tobytes()
        assert series > 0 and direct > 0

    @pytest.mark.parametrize("name", sorted(GUARD_GRIDS))
    def test_weights_match_two_sided_evaluation_bitwise(self, name):
        radii = GUARD_GRIDS[name].radii
        real_roots = pairs = 0
        for h in GUARD_STEPS:
            mu, delta = _half_split(h, radii)
            zp, zm = mu + delta, mu - delta
            p1p, psp = _phi1_psi(zp)
            p1m, psm = _phi1_psi(zm)
            dz = zp - zm
            w0 = (h * h) * ((p1p - p1m) / dz).real
            w1 = (h * h) * ((psp - psm) / dz).real
            # the divided differences are formed directly only off the
            # degenerate band; inside it a Taylor step is used instead
            direct = np.abs(delta) >= _DD_BAND * max(1.0, abs(mu))
            real_roots += np.count_nonzero(direct & (delta.real != 0.0))
            pairs += np.count_nonzero(direct & (delta.real == 0.0))
            w = duhamel_weights(P, h, radii)
            assert w.w0[direct].tobytes() == w0[direct].tobytes()
            assert w.w1[direct].tobytes() == w1[direct].tobytes()
        assert real_roots > 0 and pairs > 0


def _horner_unbuffered(z):
    p1 = np.zeros_like(z)
    ps = np.zeros_like(z)
    for c1, cp in zip(_LADDER_COEFFS[0], _PSI_COEFFS):
        p1 = p1 * z + c1
        ps = ps * z + cp
    return p1, ps


@pytest.mark.parametrize("z", [
    np.array([0.3 + 0.2j]),
    np.array([-0.7 + 0.0j]),
    np.array([-1e-3 - 0.79j]),
    np.linspace(-0.79, 0.79, 1025) * (1.0 + 0.3j),
    -0.01 + 0.5j * GUARD_GRIDS["certificate"].radii / GUARD_GRIDS["certificate"].radii[-1],
], ids=["scalar", "scalar-real", "scalar-imag", "grid", "certificate-grid"])
def test_phi_series_buffers_match_plain_horner_bitwise(z):
    # the buffered loop must round as the allocating one: an in-place
    # complex multiply, for one, changes the bits of 1-element inputs
    for got, want in zip(_phi1_psi_series(z), _horner_unbuffered(z)):
        assert got.tobytes() == want.tobytes()
