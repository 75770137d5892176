import importlib.util
import operator
import os
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from mixwave.experiments import (
    GATES,
    ExperimentInvalid,
    _map_members,
    decay_experiment,
    gate,
    lifespan_member,
    lifespan_sweep,
    profile_experiment,
)
from mixwave.params import OperatorParams
from mixwave.radial import gaussian_datum, profile_error
from mixwave.torus import Grid

P = OperatorParams(1.0, 1.0, 0.5, 1)
P15 = OperatorParams(1.0, 1.0, 1.5, 1)
CRITERIA = Path(__file__).resolve().parent.parent / "perfbench" / "criteria.py"


class TestGates:
    def test_table_is_pinned(self):
        # an edit that loosens (or tightens) a gate must edit this literal too
        le, lt = operator.le, operator.lt
        assert GATES == {
            "kernel_identity": (le, 1e-10),
            "quadrature_oracle": (le, 1e-8),
            "decay_slope_l2": (le, 0.03),
            "decay_slope_hs": (le, 0.05),
            "profile_collapse": (le, 1.0 / 3.0),
            "profile_exponent": (le, 0.15),
            "integrator_order": (le, 0.2),
            "linear_exactness": (le, 1e-11),
            "l2_slope": (le, 0.05),
            "profile_ratio": (le, 0.1),
            "duhamel_residual": (le, 1e-6),
            "lifespan_slope": (le, 0.2),
            "lifespan_n_doubling": (le, 0.10),
            "j4_exponent": (le, 0.15),
            "fraclap_change": (lt, 0.05),
            "j_tilde_slack": (le, 1e-12),
        }

    def test_benchmark_tolerances_agree(self):
        # perfbench/criteria.py keeps its own copy of the shared tolerances
        spec = importlib.util.spec_from_file_location("perfbench_criteria", CRITERIA)
        criteria = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(criteria)
        shared = {
            ("lifespan", "t_blowup"): "lifespan_n_doubling",
            ("profile", "l2_slope"): "l2_slope",
            ("profile", "ratio"): "profile_ratio",
            ("profile", "duhamel_residual"): "duhamel_residual",
            ("profile", "profile_collapse"): "profile_collapse",
            ("certificate", "j4_exponent"): "j4_exponent",
            ("certificate", "fraclap_change_0.5"): "fraclap_change",
            ("certificate", "fraclap_change_1.5"): "fraclap_change",
            ("radial", "c3_s0_sigma0.5"): "decay_slope_l2",
            ("radial", "c3_s0.5_sigma0.5"): "decay_slope_hs",
            ("radial", "c3_s0_sigma1.5"): "decay_slope_l2",
            ("radial", "c4_ratio_sigma0.5"): "profile_collapse",
            ("radial", "c4_ratio_sigma1.5"): "profile_collapse",
            ("radial", "c4_exponent_sigma0.5"): "profile_exponent",
            ("radial", "c4_exponent_sigma1.5"): "profile_exponent",
        }
        tolerances = {(w, q): tol for w, table in criteria.TOLERANCES.items()
                      for q, (_, tol) in table.items()}
        assert tolerances == {k: GATES[g][1] for k, g in shared.items()}

    def test_margin_and_comparison(self):
        passed, margin = gate("profile_ratio", 1.05, 1.0)
        assert passed and margin == pytest.approx(0.5)
        passed, margin = gate("lifespan_slope", -1.3, -1.0)
        assert not passed and margin == pytest.approx(-0.5)
        # the strict comparison fails at the tolerance itself, with margin 0
        assert gate("fraclap_change", 0.05) == (False, 0.0)
        assert gate("j4_exponent", 0.15) == (True, 0.0)


class TestDecayExperiment:
    def test_radial_slopes_hit_targets(self):
        rep = decay_experiment(P, s_list=(0.0, None), mode="radial",
                               t_window=(1e2, 1e4), n_samples=13)
        by_s = {f.s: f for f in rep.fits}
        assert by_s[0.0].target == -0.5
        assert gate("decay_slope_l2", by_s[0.0].slope, by_s[0.0].target)[0]
        assert by_s[0.5].target == -1.0
        assert gate("decay_slope_hs", by_s[0.5].slope, by_s[0.5].target)[0]

    def test_radial_sigma_above_one(self):
        q = OperatorParams(1.0, 1.0, 1.5, 1)
        rep = decay_experiment(q, s_list=(0.0,), mode="radial", n_samples=11)
        assert rep.fits[0].target == -0.25
        assert gate("decay_slope_l2", rep.fits[0].slope, rep.fits[0].target)[0]

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
        # the radial fit over the same window agrees to the criterion-6 slope gate
        rad = decay_experiment(P, s_list=(0.0,), mode="radial",
                               t_window=f.window, n_samples=11)
        assert gate("l2_slope", f.slope, rad.fits[0].slope)[0]

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

    def test_parallel_records_equal_serial_members(self):
        # the members run in worker processes and come back in eps order
        grid = Grid(1, 512, 100.0)
        rep = lifespan_sweep(P, 1.5, [3.0, 0.3], grid)
        serial = [lifespan_member(P, 1.5, e, grid, 0.05, 4000.0, 1e6)
                  for e in (0.3, 3.0)]
        assert rep.records == serial

    def test_worker_warning_meets_the_callers_filters(self):
        # the suite's filters make every warning an error, in the workers too
        raise_in_worker = partial(warnings.warn, "raised in a worker")
        with pytest.raises(RuntimeWarning, match="raised in a worker"):
            _map_members(raise_in_worker, [RuntimeWarning])
        with pytest.warns(UserWarning, match="raised in a worker"):
            assert _map_members(raise_in_worker, [UserWarning, UserWarning]) == [None, None]

    def test_killed_worker_exits_as_memory_error(self):
        with pytest.raises(MemoryError, match="lifespan sweep: a worker process ended"):
            _map_members(os._exit, [1])

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


class TestClassicalDiffusion:
    """The classical branch, sigma > 1 (1.5, and 3 for the lifespan law):
    a|xi|^2 dominates at low frequency and sigma_min = 1.  The gates are those
    that criteria 6 and 7 apply at sigma = 1/2."""

    def test_profile(self):
        # p = 4 above p_crit = 1 + 2 sigma_min/n = 3; L2 decays as t^(-1/4)
        rep = profile_experiment(P15, p=4.0, eps=0.01, horizon=1e3,
                                 grid=Grid(1, 1024, 200.0))
        assert rep.l2_fit.target == -0.25
        assert gate("l2_slope", rep.l2_fit.slope, rep.l2_fit.target)[0]
        assert gate("profile_ratio", rep.ratio, 1.0)[0]
        assert gate("duhamel_residual", rep.duhamel_residual)[0]
        e10 = min(e for t, e in zip(rep.times, rep.scaled_error) if 10.0 <= t < 12.0)
        assert gate("profile_collapse", rep.scaled_error[-1] / e10)[0]

    @pytest.mark.parametrize("sigma", [1.5, 3.0])
    def test_lifespan(self, sigma):
        # sub-critical p = 1.5: T ~ eps^(-2/3) for every sigma > 1, since the
        # law reads sigma through min{1, sigma}; the horizon (L/4)^2/a is long
        # enough at L = 256 for the small data that reach the law
        params = OperatorParams(1.0, 1.0, sigma, 1)
        eps_list = list(np.geomspace(0.0004, 0.004, 6))
        rep = lifespan_sweep(params, 1.5, eps_list, Grid(1, 2048, 256.0), dt_max=0.05)
        assert all(r.t_blowup is not None for r in rep.records)
        assert rep.target == P15.lifespan_rate(1.5) == pytest.approx(-2.0 / 3.0)
        assert gate("lifespan_slope", rep.slope, rep.target)[0]


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
