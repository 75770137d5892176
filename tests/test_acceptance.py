"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (written to the real stdout so it shows under capture).
"""
import math
import sys
import time

import numpy as np
import pytest
from scipy.special import gamma, gammainc

from mixwave.blowup import default_sigma0, frac_lap_phi, make_eta, scaling_sweep
from mixwave.evolve import (
    build_propagator,
    etd2_step,
    initial_state,
    linear_step,
    RunStatus,
)
from mixwave.experiments import (
    GATES,
    decay_experiment,
    gate,
    lifespan_sweep,
    profile_experiment,
)
from mixwave.kernels import kernel_eval
from mixwave.params import OperatorParams, symbol
from mixwave.radial import fit_power_law, gaussian_datum, profile_error, radial_integral
from mixwave.torus import FieldState, Grid, to_spectral

P05 = OperatorParams(1.0, 1.0, 0.5, 1)
P15 = OperatorParams(1.0, 1.0, 1.5, 1)


def report(name: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_1_kernel_algebra():
    start = time.time()
    rng = np.random.default_rng(12345)
    t = 10.0 ** rng.uniform(-2, 3, 10000)
    r = 10.0 ** rng.uniform(-6, 2, 10000)
    kv = kernel_eval(P05, t, r)
    m = symbol(P05, r)
    res1 = float((np.abs(kv.dk1 + kv.k1 - kv.k0) / (1 + np.abs(kv.k0))).max())
    res2 = float((np.abs(kv.dk0 + m * kv.k1) / (1 + m)).max())
    elapsed = time.time() - start
    ok = (gate("kernel_identity", res1)[0] and gate("kernel_identity", res2)[0]
          and elapsed < 1.0)
    report("1 kernel algebra", ok,
           f"residuals {res1:.2e}/{res2:.2e}, {elapsed:.2f}s over 10^4 samples")


def test_criterion_2_radial_quadrature_oracle():
    start = time.time()
    c, eps0 = 0.8, 0.5
    worst = 0.0
    combos = 0
    for n in (1, 2, 3):
        for s in (0.0, 0.25, 0.5):
            for theta in (0.5, 1.0, 1.5):
                a_ = (n + 2 * s) / (2 * theta)
                for t in (10.0, 100.0, 1000.0):
                    got = radial_integral(
                        lambda rr: rr ** (2 * s + n - 1) * np.exp(-2 * c * rr ** (2 * theta) * t),
                        r_max=eps0)
                    x = 2 * c * t * eps0 ** (2 * theta)
                    want = gammainc(a_, x) * gamma(a_) / (2 * theta * (2 * c * t) ** a_)
                    worst = max(worst, abs(got - want) / want)
                combos += 1
    elapsed = time.time() - start
    ok = gate("quadrature_oracle", worst)[0] and elapsed < 1.0 and combos >= 9
    report("2 incomplete-gamma oracle", ok,
           f"worst rel err {worst:.2e} over {combos} combos x 3 times, {elapsed:.2f}s")


def test_criterion_3_linear_decay_rates():
    start = time.time()
    rep = decay_experiment(P05, s_list=(0.0, None), mode="radial",
                           t_window=(1e2, 1e4), n_samples=17)
    by_s = {f.s: f for f in rep.fits}
    rep15 = decay_experiment(P15, s_list=(0.0,), mode="radial",
                             t_window=(1e2, 1e4), n_samples=17)
    f15 = rep15.fits[0]
    elapsed = time.time() - start
    ok = (by_s[0.0].target == -0.5 and by_s[0.5].target == -1.0 and f15.target == -0.25
          and gate("decay_slope_l2", by_s[0.0].slope, by_s[0.0].target)[0]
          and gate("decay_slope_hs", by_s[0.5].slope, by_s[0.5].target)[0]
          and gate("decay_slope_l2", f15.slope, f15.target)[0]
          and elapsed < 10.0)
    report("3 linear decay rates", ok,
           f"slopes {by_s[0.0].slope:.3f}/{by_s[0.5].slope:.3f}/{f15.slope:.3f} "
           f"vs -0.5/-1.0/-0.25, {elapsed:.1f}s")


def test_criterion_4_linear_profile_convergence():
    start = time.time()
    msgs = []
    ok = True
    for params in (P05, P15):
        g = gaussian_datum(1)
        decay = 1.0 / (4.0 * params.sigma_min)
        pts = [(t, t**decay * profile_error(params, g, g, 0.0, t))
               for t in np.geomspace(10.0, 1000.0, 13)]
        ratio = pts[-1][1] / pts[0][1]
        fit = fit_power_law(pts)
        target = -params.alpha_min / (2.0 * params.sigma_min)
        ok = (ok and gate("profile_collapse", ratio)[0]
              and gate("profile_exponent", fit.slope, target)[0])
        msgs.append(f"sigma={params.sigma}: ratio {ratio:.3f}, "
                    f"exponent {fit.slope:.3f} vs {target}")
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    report("4 linear profile convergence", ok, "; ".join(msgs) + f", {elapsed:.1f}s")


def test_criterion_5_integrator_order_and_linear_exactness():
    start = time.time()
    grid = Grid(1, 512, 50.0)
    r1 = math.pi / grid.L
    m1 = P05.a * r1**2 + P05.b * r1 ** (2 * P05.sigma)
    base = np.cos(math.pi * grid.x / grid.L)
    cb = to_spectral(grid, base)
    cb2 = to_spectral(grid, base**2)
    A, T = 0.5, 2.0

    def exact(t):
        return A * math.exp(-t) * base

    def forcing(t):
        a_t = A * math.exp(-t)
        return m1 * a_t * cb - a_t**2 * cb2

    errs = []
    for k in range(5):
        h = 0.2 / 2**k
        state = FieldState.from_fields(grid, exact(0.0), -exact(0.0))
        prop = build_propagator(P05, grid, h)
        for _ in range(int(round(T / h))):
            state = etd2_step(state, prop, 2.0, forcing=forcing)
        errs.append(np.max(np.abs(state.physical_u() - exact(T))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(4)]

    st, _, _ = initial_state(grid, eps=1.0)
    state = st.copy()
    prop = build_propagator(P05, grid, 0.03)
    for _ in range(1000):
        state = linear_step(state, prop)
    kv = kernel_eval(P05, 30.0, grid.radii)
    exact_u = kv.k0 * st.uhat + kv.k1 * st.vhat
    lin_err = float(np.max(np.abs(state.uhat - exact_u)) / np.max(np.abs(st.uhat)))

    elapsed = time.time() - start
    ok = (all(gate("integrator_order", o, 2.0)[0] for o in orders)
          and gate("linear_exactness", lin_err)[0] and elapsed < 30.0)
    report("5 integrator order", ok,
           f"orders {['%.2f' % o for o in orders]}, linear defect {lin_err:.2e}, "
           f"{elapsed:.1f}s")


@pytest.fixture(scope="module")
def supercritical_run():
    grid = Grid(1, 4096, 200.0)
    return profile_experiment(P05, p=3.0, eps=0.01, horizon=1e3, grid=grid,
                              dt_max=0.05, record_ratio=1.08)


def test_criterion_6_semilinear_supercritical(supercritical_run):
    start = time.time()
    rep = supercritical_run
    out = rep.outcome
    completed = out.status is RunStatus.COMPLETED
    slope_ok = rep.l2_fit is not None and gate("l2_slope", rep.l2_fit.slope, -0.5)[0]
    ratio_ok = gate("profile_ratio", rep.ratio, 1.0)[0]
    duh = rep.duhamel_residual
    duh_ok = duh is not None and gate("duhamel_residual", duh)[0]
    # vanishing-limit property: the scaled profile error collapses by 10^3
    e10 = min(e for t, e in zip(rep.times, rep.scaled_error) if t >= 10.0 and t < 12.0)
    e1000 = rep.scaled_error[-1]
    prof_ok = gate("profile_collapse", e1000 / e10)[0]
    ok = completed and slope_ok and ratio_ok and duh_ok and prof_ok
    report("6 semilinear super-critical", ok,
           f"status={out.status.value}, slope {rep.l2_fit.slope:.3f} (window "
           f"{rep.l2_fit.window}), ratio {rep.ratio:.4f}, duhamel {duh:.2e}, "
           f"scaled err {e1000:.2e} vs {e10:.2e}/3")
    _ = time.time() - start


@pytest.mark.slow
def test_criterion_7_subcritical_lifespan_scaling():
    start = time.time()
    eps_list = list(np.geomspace(0.004, 0.04, 6))
    slopes = {}
    times = {}
    for N in (16384, 32768):
        grid = Grid(1, N, 2560.0)
        rep = lifespan_sweep(P05, 1.5, eps_list, grid, dt_max=0.05)
        assert all(r.t_blowup is not None for r in rep.records)
        slopes[N] = rep.slope
        times[N] = {r.epsilon: r.t_blowup for r in rep.records}
        assert rep.target == -1.0
    stable = max(abs(times[32768][e] - times[16384][e]) / times[32768][e]
                 for e in times[16384])
    elapsed = time.time() - start
    ok = (gate("lifespan_slope", slopes[16384], -1.0)[0]
          and gate("lifespan_n_doubling", stable)[0])
    report("7 sub-critical lifespan scaling", ok,
           f"slope {slopes[16384]:.3f} (target -1 +/- {GATES['lifespan_slope'][1]}), "
           f"N-doubling shift {stable:.2%}, {elapsed:.0f}s")


def test_criterion_8_blowup_certificate(stored_blowup):
    start = time.time()
    changes = {}
    for sigma in (0.5, 1.5):
        s0 = default_sigma0(sigma)
        r1 = frac_lap_phi(sigma, s0, L_eval=1280.0)
        r2 = frac_lap_phi(sigma, s0, L_eval=2560.0)
        changes[sigma] = abs(r1.ratio_sup - r2.ratio_sup) / r1.ratio_sup
    ratio_ok = all(gate("fraclap_change", v)[0] for v in changes.values())

    arc = stored_blowup.archive
    T = stored_blowup.t_final
    eta = make_eta(1.5)
    r_hi = 0.45 * T
    sweep = scaling_sweep(arc, eta, np.geomspace(r_hi / math.sqrt(10.0), r_hi, 7), 1.5)
    j4_ok = gate("j4_exponent", sweep.exponents["j4"], sweep.targets["j4"])[0]
    _, slack = GATES["j_tilde_slack"]
    tilde_ok = all(rep.j_r_tilde <= rep.j_r * (1 + slack) for rep in sweep.reports)
    elapsed = time.time() - start
    ok = ratio_ok and j4_ok and tilde_ok and elapsed < 300.0
    report("8 blow-up certificate", ok,
           f"ratio-sup changes {changes[0.5]:.2%}/{changes[1.5]:.2%}, j4 "
           f"{sweep.exponents['j4']:.3f} vs {sweep.targets['j4']:.3f}, "
           f"tilde<=full {tilde_ok}, {elapsed:.0f}s")


def test_criterion_9_critical_case_exploratory():
    # not reproducible at desk scale: the exponential lifespan constant and the
    # existential constants; the deliverable is the linear fit of log T in
    # eps^-(p-1) with its residual, reported without a pass/fail gate
    start = time.time()
    grid = Grid(1, 1024, 100.0)
    rep = lifespan_sweep(P05, 2.0, [1.2, 2.0, 3.5, 6.0, 12.0], grid, threshold=1e4)
    usable = [r for r in rep.records if r.t_blowup is not None]
    elapsed = time.time() - start
    ok = rep.critical_fit is not None and len(usable) >= 4
    report("9 critical case (exploratory)", ok,
           f"log T = {rep.critical_fit.slope:.3f} * eps^-1 + "
           f"{rep.critical_fit.intercept:.3f}, linearity residual "
           f"{rep.linear_residual:.3f} (no gate), {elapsed:.0f}s")
