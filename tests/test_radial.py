import math
import re

import numpy as np
import pytest
from scipy.special import gamma, gammainc

from mixwave.kernels import kernel_eval, profile_hat
from mixwave.params import OperatorParams
from mixwave.radial import (
    _PHASE_PER_PANEL,
    QuadratureError,
    RadialDatum,
    fit_power_law,
    _panel_splits,
    gaussian_datum,
    hs_norm,
    kernel_phase,
    power_law_slope,
    profile_error,
    radial_integral,
    surface_area,
)

P = OperatorParams(1.0, 1.0, 0.5, 1)


def solution(params, t, datum):
    """Transform of the linear solution at time t from u0 = u1 = datum."""
    def field(r):
        kv = kernel_eval(params, t, r)
        return (kv.k0 + kv.k1) * datum.profile(r)
    return field


def test_surface_area_values():
    closed_forms = [2.0, 2.0 * math.pi, 4.0 * math.pi, 2.0 * math.pi**2,
                    8.0 * math.pi**2 / 3.0, math.pi**3, 16.0 * math.pi**3 / 15.0,
                    math.pi**4 / 3.0]
    for n, closed_form in enumerate(closed_forms, start=1):
        assert abs(surface_area(n) - closed_form) <= 2 * math.ulp(closed_form), n


def test_gaussian_datum_mass_convention():
    # unit spatial integral: profile(0) == (2 pi)^(-n/2)
    for n in (1, 2):
        g = gaussian_datum(n, width=1.3)
        assert g.l1_mass == 1.0
        assert g.profile(np.array([0.0]))[0] == pytest.approx((2 * math.pi) ** (-n / 2))


def test_plancherel_identity():
    # the t = 0 field is the datum: the norm equals its physical-space L2 norm
    g = gaussian_datum(1, width=1.0)
    got = hs_norm(P, g.profile, s=0.0, t=0.0)
    exact = (2 * math.pi) ** (-0.5) * math.pi**0.25
    assert got == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("s,t", [(-0.1, 1.0), (0.0, -1.0)])
def test_hs_norm_rejects_negative_s_or_t(s, t):
    with pytest.raises(ValueError, match="nonnegative"):
        hs_norm(P, gaussian_datum(1).profile, s, t)


def closed_form_truncated(n, s, theta, c, t, eps0):
    a_ = (n + 2 * s) / (2 * theta)
    x = 2 * c * t * eps0 ** (2 * theta)
    return gammainc(a_, x) * gamma(a_) / (2 * theta * (2 * c * t) ** a_)


@pytest.mark.parametrize("n,s,theta", [(1, 0.0, 0.5), (1, 0.5, 0.5), (2, 0.3, 0.7)])
@pytest.mark.parametrize("t", [10.0, 1000.0])
def test_incomplete_gamma_oracle(n, s, theta, t):
    c, eps0 = 0.8, 0.5
    got = radial_integral(lambda r: r ** (2 * s + n - 1) * np.exp(-2 * c * r ** (2 * theta) * t),
                          r_max=eps0)
    assert got == pytest.approx(closed_form_truncated(n, s, theta, c, t, eps0), rel=1e-8)


def test_velocity_kernel_norm_decay_ratio():
    # 100x in time shrinks the norm ~10x for the half-power rate
    g = gaussian_datum(1)
    def velocity(t):
        return lambda r: kernel_eval(P, t, r).k1 * g.profile(r)
    n1 = hs_norm(P, velocity(1e2), 0.0, 1e2)
    n2 = hs_norm(P, velocity(1e4), 0.0, 1e4)
    assert n2 / n1 == pytest.approx(0.1, rel=0.05)


def test_panel_order_doubling_invariance():
    # hs_norm's 32-point panels against the same integral on 64-point panels
    t = 50.0
    field = solution(P, t, gaussian_datum(1))
    a = hs_norm(P, field, 0.0, t)
    b = math.sqrt(surface_area(1) * radial_integral(
        lambda r: field(r) ** 2, amplitude=field, phase=kernel_phase(P, t), panel_order=64))
    assert abs(a - b) <= 1e-10 * a


def test_tail_contribution_negligible():
    g = gaussian_datum(1)
    a = hs_norm(P, g.profile, 0.0, 0.0)
    # profile ~ 1e-18 of peak at the fixed cutoff
    b = math.sqrt(surface_area(1) * radial_integral(lambda r: g.profile(r) ** 2, r_max=9.1))
    assert abs(a - b) <= 1e-14 * a


def test_linearity_in_datum_scale():
    lam, t = 3.7, 5.0
    g = gaussian_datum(1)
    def field(r):
        return kernel_eval(P, t, r).k0 * g.profile(r)
    assert hs_norm(P, lambda r: lam * field(r), 0.3, t) == pytest.approx(
        lam * hs_norm(P, field, 0.3, t), rel=1e-12)


class TestProfileError:
    def test_zero_data(self):
        z = RadialDatum(lambda r: np.zeros_like(np.asarray(r, float)), 0.0)
        assert profile_error(P, z, z, 0.0, 10.0) == 0.0

    def test_scaled_error_decreasing(self):
        g = gaussian_datum(1)
        ts = np.geomspace(10.0, 1000.0, 9)
        scaled = [t**0.5 * profile_error(P, g, g, 0.0, t) for t in ts]
        assert all(a > b for a, b in zip(scaled, scaled[1:]))

    @pytest.mark.parametrize("sigma,target", [(0.5, -1.0), (1.5, -0.5)])
    def test_extra_decay_exponent(self, sigma, target):
        params = OperatorParams(1.0, 1.0, sigma, 1)
        g = gaussian_datum(1)
        decay = 1.0 / (4.0 * params.sigma_min)
        pts = [(t, t**decay * profile_error(params, g, g, 0.0, t))
               for t in np.geomspace(10.0, 1000.0, 13)]
        fit = fit_power_law(pts)
        assert fit.slope == pytest.approx(target, abs=0.15)

    def test_lower_bound_via_profile(self):
        # |v(t)| >= 0.5 |P| |G(t)| once the error term has vanished
        t = 1e3
        nv = hs_norm(P, solution(P, t, gaussian_datum(1)), 0.0, t)
        ng = hs_norm(P, lambda r: (2 * math.pi) ** -0.5 * profile_hat(P, t, r), 0.0, t)
        assert nv >= 0.5 * 2.0 * ng


def test_upper_bound_without_l1_control():
    # data with a near-singular transform (no useful L1 mass): the norm still
    # decays no slower than (1+t)^(-s/(2 sigma_min)); checked as a bounded ratio
    peak = 1e3
    def datum(r):
        r = np.asarray(r, float)
        return np.minimum(r ** -0.3, peak) * np.exp(-r ** 2)
    s = 0.5
    ratios = []
    for t in np.geomspace(10.0, 1000.0, 7):
        field = lambda r: kernel_eval(P, t, r).k0 * datum(r)
        ratios.append(hs_norm(P, field, s, t) * (1 + t) ** (s / (2 * P.sigma_min)))
    assert max(ratios) <= 2.0 * ratios[0]


def test_unresolved_integrand_reports_error_estimate():
    g = gaussian_datum(1)
    wild = lambda r: np.cos(4e4 * r) * g.profile(r)
    with pytest.raises(QuadratureError) as err:
        radial_integral(lambda r: wild(r) ** 2, amplitude=wild, phase=None, panel_order=8)
    found = re.search(r"achieved error estimate (\S+)\)$", str(err.value))
    assert found and float(found.group(1)) > 0


class TestFitPowerLaw:
    def test_exact_power_law(self):
        ts = np.geomspace(1.0, 100.0, 9)
        fit = fit_power_law([(t, 7.0 * t**-0.5) for t in ts])
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-12)

    def test_perturbed_power_law(self):
        ts = np.geomspace(1e2, 1e4, 25)
        fit = fit_power_law([(t, (1.0 / t) * (1.0 + 1.0 / t)) for t in ts])
        assert -1.01 <= fit.slope <= -0.99

    def test_constant_series(self):
        fit = fit_power_law([(t, 4.0) for t in (1.0, 2.0, 4.0, 8.0, 16.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("series", [
        [(1.0, 1.0), (2.0, 0.5)],                                  # too short
        [(1.0, 1.0), (2.0, 0.5), (1.5, 0.3), (3.0, 0.2), (4.0, 0.1)],  # not increasing
        [(1.0, 1.0), (2.0, -0.5), (3.0, 0.3), (4.0, 0.2), (5.0, 0.1)],  # nonpositive
    ])
    def test_degenerate_series_rejected(self, series):
        with pytest.raises(ValueError):
            fit_power_law(series)


class TestPowerLawSlope:
    @staticmethod
    def _series(k):
        # a bent power law, so the two rules give different slopes
        return [(t, t**-0.5 * (1.0 + 0.1 * i * i))
                for i, t in enumerate(np.geomspace(1.0, 100.0, k).tolist())]

    @pytest.mark.parametrize("k", [2, 4])
    def test_short_series_take_the_end_point_slope(self, k):
        pts = self._series(k)
        (t0, v0), (t1, v1) = pts[0], pts[-1]
        assert power_law_slope(pts) == math.log(v1 / v0) / math.log(t1 / t0)
        if k > 2:       # through two points least squares is the same line
            lt, lv = np.log(pts).T
            assert power_law_slope(pts) != pytest.approx(np.polyfit(lt, lv, 1)[0])

    def test_five_points_take_the_least_squares_slope(self):
        pts = self._series(5)
        (t0, v0), (t1, v1) = pts[0], pts[-1]
        assert power_law_slope(pts) == fit_power_law(pts).slope
        assert power_law_slope(pts) != pytest.approx(math.log(v1 / v0) / math.log(t1 / t0))


@pytest.mark.parametrize("sigma", [0.5, 1.5])
def test_vectorised_panel_phases_give_per_edge_splits(sigma):
    params = OperatorParams(1.0, 1.0, sigma, 1)
    edges = 30.0 * 2.0 ** (-np.arange(61, dtype=float))
    split_somewhere = False
    for t in (1.0, 10.0, 1e3, 1e4):
        phase = kernel_phase(params, t)
        per_edge = []
        for hi, lo in zip(edges[:-1], edges[1:]):
            dphi = abs(float(phase(np.array([hi]))[0]) - float(phase(np.array([lo]))[0]))
            per_edge.append(max(1, int(math.ceil(dphi / _PHASE_PER_PANEL))))
        assert _panel_splits(edges, phase) == per_edge
        split_somewhere |= max(per_edge) > 1
    assert split_somewhere
    assert _panel_splits(edges, None) == [1] * 60
