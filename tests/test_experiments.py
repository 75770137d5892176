import pytest

from mixwave.experiments import (
    ExperimentInvalid,
    decay_experiment,
    lifespan_sweep,
    profile_experiment,
)
from mixwave.params import OperatorParams
from mixwave.radial import gaussian_datum, profile_error
from mixwave.torus import Grid

P = OperatorParams(1.0, 1.0, 0.5, 1)


class TestDecayExperiment:
    def test_radial_slopes_hit_targets(self):
        rep = decay_experiment(P, s_list=(0.0, None), mode="radial",
                               t_window=(1e2, 1e4), n_samples=13)
        by_s = {f.s: f for f in rep.fits}
        assert by_s[0.0].target == -0.5
        assert by_s[0.0].deviation <= 0.03
        assert by_s[0.5].target == -1.0
        assert by_s[0.5].deviation <= 0.05

    def test_radial_sigma_above_one(self):
        q = OperatorParams(1.0, 1.0, 1.5, 1)
        rep = decay_experiment(q, s_list=(0.0,), mode="radial", n_samples=11)
        assert rep.fits[0].target == -0.25
        assert rep.fits[0].deviation <= 0.03

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            decay_experiment(P, mode="magic")


class TestProfileExperiment:
    def test_l2_fit_agrees_with_radial_decay_fit(self):
        grid = Grid(1, 1024, 100.0)
        f = profile_experiment(P, p=3.0, eps=0.01, horizon=30.0, grid=grid).l2_fit
        # the latest decade below the resolution horizon L^(2 sigma) / (4^(2 sigma) b)
        assert f.window == (2.5, 25.0)
        assert f.target == -0.5
        # radial fit over the same window agrees within 0.05
        rad = decay_experiment(P, s_list=(0.0,), mode="radial",
                               t_window=f.window, n_samples=11)
        assert abs(rad.fits[0].slope - f.slope) <= 0.05

    def test_blowup_scenario_invalid(self):
        grid = Grid(1, 256, 30.0)
        with pytest.raises(ExperimentInvalid):
            profile_experiment(P, p=1.5, eps=1.0, horizon=50.0, grid=grid)

    def test_zero_amplitude_trivial(self):
        grid = Grid(1, 512, 50.0)
        rep = profile_experiment(P, p=3.0, eps=0.0, horizon=5.0, grid=grid)
        assert rep.theta == 0.0
        assert all(v == 0.0 for v in rep.scaled_error)

    def test_linear_theta_is_initial_mass_exactly(self):
        grid = Grid(1, 512, 50.0)
        rep = profile_experiment(P, p=3.0, eps=0.3, horizon=5.0, grid=grid,
                                 linear_only=True)
        assert rep.theta == rep.outcome.mass.initial_mass
        assert rep.tail_correction == 0.0
        assert rep.outcome.mass.nonlinear_mass == 0.0

    def test_theta_decomposition_nonlinear(self):
        grid = Grid(1, 512, 50.0)
        rep = profile_experiment(P, p=3.0, eps=0.05, horizon=10.0, grid=grid)
        acc = rep.outcome.mass
        assert acc.nonlinear_mass >= 0.0
        assert rep.theta == pytest.approx(
            acc.initial_mass + acc.nonlinear_mass + rep.tail_correction)
        nl = rep.outcome.series.nonlinear_mass
        assert all(a <= b + 1e-15 for a, b in zip(nl, nl[1:]))

    def test_linear_variant_matches_radial_quadrature(self):
        # big box so the concentrating error integrand stays resolved
        grid = Grid(1, 8192, 2000.0)
        rep = profile_experiment(P, p=3.0, eps=0.05, horizon=60.0, grid=grid,
                                 linear_only=True, dt_max=1.0)
        g = gaussian_datum(1)
        checked = 0
        for t, sc in zip(rep.times, rep.scaled_error):
            if 5.0 <= t <= 60.0:
                want = t**0.5 * 0.05 * profile_error(P, g, g, 0.0, t)
                assert sc == pytest.approx(want, rel=0.05)
                checked += 1
        assert checked >= 5


class TestLifespanSweep:
    def test_single_epsilon_rejected(self):
        grid = Grid(1, 256, 30.0)
        with pytest.raises(ValueError):
            lifespan_sweep(P, 1.5, [1.0], grid)

    def test_narrow_span_rejected(self):
        grid = Grid(1, 256, 30.0)
        with pytest.raises(ValueError):
            lifespan_sweep(P, 1.5, [1.0, 2.0], grid)

    def test_supercritical_power_rejected(self):
        grid = Grid(1, 256, 30.0)
        with pytest.raises(ValueError):
            lifespan_sweep(P, 3.0, [0.1, 1.0], grid)

    def test_blowup_times_monotone_in_epsilon(self):
        grid = Grid(1, 512, 100.0)
        rep = lifespan_sweep(P, 1.5, [0.3, 1.0, 3.0], grid)
        ts = [r.t_blowup for r in rep.records]
        assert all(t is not None for t in ts)
        assert ts[0] > ts[1] > ts[2]
        for r in rep.records:
            lo, hi = r.threshold_band
            assert lo <= r.t_blowup <= hi
        assert rep.target == -1.0
        assert any("p >= 2" in n for n in rep.hypothesis_notes)

    def test_no_blowup_everywhere_is_invalid(self):
        grid = Grid(1, 256, 30.0)
        with pytest.raises(ExperimentInvalid):
            lifespan_sweep(P, 1.95, [1e-4, 2e-3], grid, t_cap=2.0)

    def test_slow_runs_excluded_and_flagged(self):
        # the smallest amplitude cannot blow up inside the resolution horizon;
        # it must be excluded from the fit and carry a flag
        grid = Grid(1, 512, 60.0)
        rep = lifespan_sweep(P, 1.5, [0.08, 1.0, 8.0], grid)
        flagged = [r for r in rep.records if r.t_blowup is None]
        usable = [r for r in rep.records if r.t_blowup is not None]
        assert len(flagged) == 1 and flagged[0].epsilon == 0.08
        assert "resolution" in flagged[0].flagged
        assert len(usable) == 2
        assert rep.slope is not None


def test_fit_stability_under_grid_and_step_refinement():
    # the profile run's L2 decay fit moves by under 1% when N doubles or
    # dt_max halves
    slope = {}
    for tag, (N, dt) in {"base": (1024, 0.05), "fine_N": (2048, 0.05),
                         "fine_dt": (1024, 0.025)}.items():
        rep = profile_experiment(P, p=3.0, eps=0.01, horizon=25.0,
                                 grid=Grid(1, N, 100.0), dt_max=dt)
        slope[tag] = rep.l2_fit.slope
    assert abs(slope["fine_N"] - slope["base"]) <= 0.01 * abs(slope["base"])
    assert abs(slope["fine_dt"] - slope["base"]) <= 0.01 * abs(slope["base"])
