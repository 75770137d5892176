import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from mixwave.blowup import (
    SpatialWeight,
    TestFunctions,
    _interpolant,
    _TimeSpline,
    default_sigma0,
    eta_condition_value,
    evaluate_functionals,
    frac_lap_phi,
    make_eta,
    scaling_sweep,
    scaling_targets,
)
from mixwave.evolve import SolutionArchive, StepControl, initial_state, run
from mixwave.experiments import gate
from mixwave.params import OperatorParams
from mixwave.torus import Grid

P = OperatorParams(1.0, 1.0, 0.5, 1)


class TestEta:
    def test_plateau_values(self):
        eta = make_eta(1.5)
        assert eta(0.25) == 1.0
        assert eta(0.0) == 1.0
        assert eta(2.0) == 0.0
        assert eta(1.0) == 0.0

    def test_monotone_nonincreasing(self):
        eta = make_eta(1.5)
        t = np.linspace(0.0, 1.5, 400)
        assert np.all(np.diff(eta(t)) <= 1e-15)

    def test_condition_constant_finite(self):
        eta = make_eta(1.5)
        assert math.isfinite(eta.condition_constant)
        assert eta.condition_constant > 0
        # measured on a denser grid: same value within sampling error
        dense = eta_condition_value(eta, 1.5, samples=80001)
        assert dense == pytest.approx(eta.condition_constant, rel=0.05)

    def test_derivatives_match_finite_differences(self):
        eta = make_eta(2.0)
        t = np.linspace(0.52, 0.98, 97)
        fd1 = (eta(t + 1e-6) - eta(t - 1e-6)) / 2e-6
        assert np.max(np.abs(fd1 - eta.d1(t))) < 1e-7
        fd2 = (eta(t + 1e-5) - 2 * eta(t) + eta(t - 1e-5)) / 1e-10
        assert np.max(np.abs(fd2 - eta.d2(t)) / np.maximum(np.abs(eta.d2(t)), 1.0)) < 1e-4

    def test_invalid_power_rejected(self):
        with pytest.raises(ValueError):
            make_eta(1.0)


def test_default_sigma0():
    assert default_sigma0(0.5) == 0.5
    assert default_sigma0(1.5) == 0.5
    assert default_sigma0(2.0) == 0.5   # integer order: configured constant
    assert default_sigma0(2.7) == pytest.approx(0.7)


class TestSpatialWeight:
    def test_laplacian_matches_finite_differences(self):
        w = SpatialWeight(1, 0.5)
        x = np.linspace(-5.0, 5.0, 201)
        h = 1e-4
        fd = (w((x + h) ** 2) - 2 * w(x**2) + w((x - h) ** 2)) / h**2
        assert np.max(np.abs(fd - w.laplacian(x**2))) < 1e-6


class TestFracLap:
    def test_boundary_decay_precondition(self):
        with pytest.raises(ValueError, match="boundary decay"):
            frac_lap_phi(0.5, 0.5, L_eval=40.0)

    def test_ratio_stable_under_domain_doubling(self):
        r1 = frac_lap_phi(0.5, 0.5, L_eval=1280.0)
        r2 = frac_lap_phi(0.5, 0.5, L_eval=2560.0)
        assert gate("fraclap_change", abs(r1.ratio_sup - r2.ratio_sup) / r1.ratio_sup)[0]

    def test_zeroth_power_is_identity(self):
        rep = frac_lap_phi(0.0, 0.5, L_eval=1280.0)
        phi = (1.0 + rep.x_inner**2) ** (-1.0)
        assert np.max(np.abs(rep.field_inner - phi) / phi) < 1e-9
        assert rep.ratio_sup == pytest.approx(1.0, abs=1e-9)

    def test_integer_order_matches_biharmonic_differences(self):
        rep = frac_lap_phi(2.0, 0.5, L_eval=1280.0, points_per_unit=16.0)
        x = rep.x_inner
        phi = (1.0 + x**2) ** (-1.0)
        h = x[1] - x[0]
        f4 = (phi[4:] - 4 * phi[3:-1] + 6 * phi[2:-2] - 4 * phi[1:-3] + phi[:-4]) / h**4
        mask = np.abs(x[2:-2]) < 20.0
        diff = np.abs(rep.field_inner[2:-2] - f4)[mask]
        assert diff.max() <= 0.01 * np.abs(f4[mask]).max()


@pytest.fixture(scope="module")
def smooth_archive():
    grid = Grid(1, 1024, 50.0)
    state, u0, u1 = initial_state(grid, eps=0.05)
    ctrl = StepControl(t_end=12.0, dt_max=0.01, record_t0=0.005,
                       record_ratio=1.03, snapshots=True)
    out = run(P, state, ctrl, p=3.0, eps=0.05, u0=u0, u1=u1)
    return out.archive


@pytest.fixture(scope="module")
def blowup_archive():
    grid = Grid(1, 2048, 50.0)
    state, u0, u1 = initial_state(grid, eps=1.0)
    ctrl = StepControl(t_end=100.0, dt_max=0.02, record_t0=0.02,
                       record_ratio=1.04, snapshots=True)
    out = run(P, state, ctrl, p=1.5, eps=1.0, u0=u0, u1=u1)
    return out.archive, out.t_final


class TestFunctionals:
    def test_zero_solution_gives_zero_functionals(self):
        grid = Grid(1, 256, 20.0)
        z = np.zeros(grid.N)
        arc = SolutionArchive(grid, P, 0.0, z, z,
                              times=[0.0, 1.0, 2.0, 3.0, 4.0],
                              fields=[z, z, z, z, z])
        rep = evaluate_functionals(arc, TestFunctions(0.5, make_eta(1.5), 1.5), 1.5)
        assert rep.j_r == 0.0 and rep.j_r_tilde == 0.0
        assert rep.terms == (0.0, 0.0, 0.0, 0.0)
        assert rep.data_term == 0.0

    def test_tilde_le_full_always(self, blowup_archive):
        arc, T = blowup_archive
        eta = make_eta(1.5)
        for R in np.geomspace(0.5, 0.9 * T, 9):
            rep = evaluate_functionals(arc, TestFunctions(0.5, eta, R), 1.5)
            assert rep.j_r_tilde <= rep.j_r * (1 + 1e-12)

    def test_integration_by_parts_identity(self, smooth_archive):
        eta = make_eta(3.0)
        rep = evaluate_functionals(smooth_archive, TestFunctions(0.5, eta, 10.0), 3.0)
        scale = abs(rep.data_term) + abs(rep.j_r) + sum(abs(x) for x in rep.terms)
        assert abs(rep.identity_residual) <= 1e-4 * scale

    def test_insufficient_coverage_rejected(self, smooth_archive):
        eta = make_eta(3.0)
        with pytest.raises(ValueError, match="covers"):
            evaluate_functionals(smooth_archive, TestFunctions(0.5, eta, 100.0), 3.0)

    def test_rescaling_change_of_variables(self):
        # evaluating with (R, K) equals evaluating the rescaled solution with
        # unit weights, up to the Jacobian factor R^(2 smin) (KR)^n
        grid = Grid(1, 512, 40.0)
        smin = P.sigma_min
        R, K = 2.0, 1.5

        def u_exact(t, x):
            return np.exp(-((x / 6.0) ** 2)) / (1.0 + t)

        times = list(np.linspace(0.0, 4.2, 43))
        arc = SolutionArchive(grid, P, 1.0,
                              u_exact(0.0, grid.x), 0.0 * grid.x,
                              times=times,
                              fields=[u_exact(t, grid.x) for t in times])
        # rescaled solution on the shrunken grid: v(t~, x~) = u(R^2smin t~, K R x~)
        grid2 = Grid(1, 512, 40.0 / (K * R))
        times2 = list(np.linspace(0.0, 4.2 / R ** (2 * smin), 43))
        arc2 = SolutionArchive(grid2, P, 1.0,
                               u_exact(0.0, K * R * grid2.x), 0.0 * grid2.x,
                               times=times2,
                               fields=[u_exact(R ** (2 * smin) * t, K * R * grid2.x)
                                       for t in times2])
        eta = make_eta(1.5)
        rep = evaluate_functionals(arc, TestFunctions(0.5, eta, R, K), 1.5)
        rep2 = evaluate_functionals(arc2, TestFunctions(0.5, eta, 1.0, 1.0), 1.5)
        jac = R ** (2 * smin) * (K * R)
        assert rep.j_r == pytest.approx(jac * rep2.j_r, rel=1e-6)
        assert rep.j_r_tilde == pytest.approx(jac * rep2.j_r_tilde, rel=1e-6)
        # time-derivative terms pick up the eta-rescaling factors as well
        assert rep.terms[3] == pytest.approx(
            jac * R ** (-2 * smin) * rep2.terms[3], rel=1e-5)


def _knots(rng, n):
    """n strictly increasing times from 0 with uneven steps, so that the
    tridiagonal elimination swaps rows for most draws."""
    return np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 2.0, n - 1))])


class TestTimeSpline:
    """The numpy spline against scipy's CubicSpline as the oracle."""

    @pytest.mark.parametrize("seed", range(10))
    def test_bitwise_equal_to_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n = 4 if seed == 0 else int(rng.integers(5, 40))
        x = _knots(rng, n)
        y = rng.normal(size=(n, 3, 5)) * 10.0 ** rng.uniform(-3, 3)
        ref = CubicSpline(x, y, axis=0)
        spline = _TimeSpline(x, y)
        assert spline.c.reshape(ref.c.shape).tobytes() == ref.c.tobytes()
        # at the knots, inside, at t = 0 and just past (and before) the ends
        t = np.sort(np.concatenate([x, rng.uniform(0.0, x[-1], 200),
                                    [-0.5, 0.0, x[-1] + 1e-12, x[-1] + 0.5]]))
        got = spline(t)
        assert got.shape == (t.size, 3, 5)
        assert got.tobytes() == ref(t).tobytes()
        assert spline(x[1]).tobytes() == ref(x[1]).tobytes()

    def test_archive_knots_bitwise_equal_to_scipy(self):
        # geometric snapshot times, as record_ratio stores them
        rng = np.random.default_rng(11)
        x = np.concatenate([[0.0], 0.02 * 1.04 ** np.arange(104)])
        y = rng.normal(size=(x.size, 64))
        t = np.linspace(0.0, x[-1], 801)
        assert _TimeSpline(x, y)(t).tobytes() == CubicSpline(x, y, axis=0)(t).tobytes()

    def test_sign_of_zero_as_scipy(self):
        # -t - t^2 - t^3 is -0.0 at t = 0 and its c0, c1, c2 are negative, so
        # the value there is +0.0 only when the sum starts from 0.0, as PPoly's
        x = np.array([0.0, 1.0, 2.5, 3.0, 4.5])
        y = (-x - x**2 - x**3)[:, None]
        assert _TimeSpline(x, y)(x).tobytes() == CubicSpline(x, y, axis=0)(x).tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_line_and_parabola_match_scipy(self, n):
        rng = np.random.default_rng(n)
        x = _knots(rng, n)
        y = rng.normal(size=(n, 7))
        t = np.concatenate([x, np.linspace(-0.5, x[-1] + 0.5, 101)])
        want = CubicSpline(x, y, axis=0)(t)
        np.testing.assert_allclose(_TimeSpline(x, y)(t), want, rtol=1e-14,
                                   atol=1e-14 * np.abs(want).max())

    def test_needs_two_snapshots(self):
        with pytest.raises(ValueError, match="at least 2 snapshots, got 1"):
            _TimeSpline([0.0], np.ones((1, 4)))

    @pytest.mark.parametrize("times, value, match", [
        ([0.0, 1.0, 1.0, 2.0], 1.0, "strictly increasing"),
        ([0.0, 1.0, 2.0, 3.0], np.nan, "finite"),
    ])
    def test_bad_snapshots_rejected(self, times, value, match):
        y = np.ones((4, 8))
        y[2, 3] = value
        with pytest.raises(ValueError, match=match):
            _TimeSpline(times, y)


class TestScalingSweep:
    def test_j4_exponent_near_target(self, blowup_archive):
        arc, T = blowup_archive
        eta = make_eta(1.5)
        r_hi = 0.45 * T
        sweep = scaling_sweep(arc, eta, np.geomspace(r_hi / math.sqrt(10), r_hi, 7), 1.5)
        assert sweep.targets["j4"] == pytest.approx(-1.0 / 3.0)
        assert gate("j4_exponent", sweep.exponents["j4"], sweep.targets["j4"])[0]

    def test_combined_bound_constant_stable(self, blowup_archive):
        arc, T = blowup_archive
        eta = make_eta(1.5)
        r_hi = 0.45 * T
        sweep = scaling_sweep(arc, eta, np.geomspace(r_hi / math.sqrt(10), r_hi, 7), 1.5)
        cs = sweep.bound_constants
        mid = 0.5 * (max(cs) + min(cs))
        assert max(cs) <= 1.2 * mid and min(cs) >= 0.8 * mid

    def test_shared_interpolant_matches_fresh_one_per_radius(self, blowup_archive):
        arc, T = blowup_archive
        eta = make_eta(1.5)
        r_hi = 0.45 * T
        radii = np.geomspace(r_hi / math.sqrt(10), r_hi, 7)
        sweep = scaling_sweep(arc, eta, radii, 1.5)
        for r, rep in zip(sweep.radii, sweep.reports):
            fresh = SolutionArchive(arc.grid, arc.params, arc.eps, arc.u0, arc.u1,
                                    times=list(arc.times), fields=list(arc.fields))
            assert evaluate_functionals(fresh, TestFunctions(0.5, eta, r), 1.5) == rep

    def test_interpolant_rebuilt_after_append(self):
        grid = Grid(1, 64, 10.0)
        z = np.zeros(grid.N)
        arc = SolutionArchive(grid, P, 0.0, z, z, times=[0.0, 1.0, 2.0],
                              fields=[z, z + 1.0, z + 4.0])
        spline = _interpolant(arc)
        assert _interpolant(arc) is spline
        # three snapshots give the parabola t^2 through them
        t = np.linspace(0.0, 2.0, 21)
        assert np.all(np.isfinite(spline(t)))
        np.testing.assert_allclose(spline(t)[:, 0], t**2, rtol=1e-14, atol=1e-14)
        arc.times.append(3.0)
        arc.fields.append(z + 9.0)
        spline = _interpolant(arc)
        assert spline.x.shape == (4,)
        assert spline(3.0)[0] == pytest.approx(9.0)

    def test_targets_arithmetic(self):
        t = scaling_targets(P, 1.5)   # p' = 3
        assert t["j4"] == pytest.approx(-1.0 + 2.0 / 3.0)
        assert t["j2"] == pytest.approx(-2.0 + 2.0 / 3.0)
        assert t["j1"] == pytest.approx(-2.0 + 2.0 / 3.0)
        assert t["j3"] == pytest.approx(-1.0 + 2.0 / 3.0)

    def test_short_radius_list_rejected(self, blowup_archive):
        arc, _ = blowup_archive
        with pytest.raises(ValueError):
            scaling_sweep(arc, make_eta(1.5), [2.0], 1.5)
        with pytest.raises(ValueError, match="half a decade"):
            scaling_sweep(arc, make_eta(1.5), [2.0, 3.0], 1.5)

    def test_zero_solution_inconclusive(self):
        grid = Grid(1, 256, 20.0)
        z = np.zeros(grid.N)
        times = list(np.linspace(0.0, 8.0, 33))
        arc = SolutionArchive(grid, P, 0.0, z, z, times=times,
                              fields=[z for _ in times])
        with pytest.raises(ValueError, match="inconclusive"):
            scaling_sweep(arc, make_eta(1.5), [1.0, 2.0, 4.0], 1.5)


@given(B=st.floats(min_value=1e-3, max_value=1e3),
       y=st.floats(min_value=0.0, max_value=1e4),
       gamma=st.floats(min_value=1e-3, max_value=1.0, exclude_max=True))
@settings(max_examples=300, deadline=None)
def test_elementary_inequality(B, y, gamma):
    # B y^gamma - y <= B^(1/(1-gamma)): the scalar guard behind the
    # lifespan-bound arithmetic (bound computed in logs so gamma -> 1 cannot
    # overflow; the inequality is trivial once the bound exceeds any float)
    lhs = B * y**gamma - y
    log_bound = math.log(B) / (1.0 - gamma)
    if log_bound > 700.0:
        assert lhs < math.inf
    else:
        assert lhs <= math.exp(log_bound) * (1 + 1e-9) + 1e-12
