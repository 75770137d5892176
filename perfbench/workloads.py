"""The four benchmark workloads: acceptance-criterion runs at their settings.

Each workload has a prepare step (input generation, counted in set-up time)
and an execute step (the measured run).  execute returns a Verdict: the
criterion's gates at their current tolerances, the verdict quantities that
are compared with the stored references, and deterministic counters read off
the returned outcome.  Seed handling lives in criteria.factors.

Layer functions are called through their modules (evolve.run, not an
imported run), so that a Tracer's wrappers see every call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from mixwave import blowup, evolve, experiments, radial
from mixwave.params import OperatorParams
from mixwave.torus import Grid

from criteria import factors

P05 = OperatorParams(1.0, 1.0, 0.5, 1)
P15 = OperatorParams(1.0, 1.0, 1.5, 1)


@dataclass
class Verdict:
    gates: dict[str, bool]
    quantities: dict[str, float]
    counters: dict[str, float] = field(default_factory=dict)


def _outcome_counters(outcome) -> dict[str, float]:
    arc = outcome.archive
    return {
        "steps": outcome.diagnostics["steps"],
        "snapshots": len(arc.times) if arc is not None else 0,
        "archive_mb": sum(f.nbytes for f in arc.fields) / 1e6 if arc is not None else 0.0,
    }


# --- lifespan: one criterion-7 member -----------------------------------------

def prepare_lifespan(seed: int) -> dict:
    f_eps, f_w = factors(seed)
    eps = 0.04 * f_eps
    grid = Grid(1, 16384, 2560.0)
    state, u0, u1 = evolve.initial_state(grid, eps=eps, width=f_w)
    # the control lifespan_sweep builds for a sub-critical member
    ctrl = evolve.StepControl(t_end=min(4000.0, evolve.resolution_horizon(P05, grid.L)),
                              dt_max=0.05, blowup_threshold=1e6, track_band=True,
                              record_t0=1.0, record_ratio=1.3)
    return {"eps": eps, "state": state, "u0": u0, "u1": u1, "ctrl": ctrl}


def execute_lifespan(inp: dict) -> Verdict:
    out = evolve.run(P05, inp["state"], inp["ctrl"], p=1.5, eps=inp["eps"],
                     u0=inp["u0"], u1=inp["u1"])
    ladder = [out.crossings.get(thr) for thr in evolve.THRESHOLD_LADDER]
    warn = " ".join(out.diagnostics["warnings"])
    gates = {
        "blew_up": out.status is evolve.RunStatus.BLEW_UP,
        "no_truncation": "truncated" not in warn,
        "no_underflow": "underflow" not in warn,
        "crossings_ordered": (None not in ladder
                              and all(a < b for a, b in zip(ladder, ladder[1:]))),
    }
    return Verdict(gates, {"t_blowup": out.t_final}, _outcome_counters(out))


# --- profile: criterion 6 -------------------------------------------------------

def prepare_profile(seed: int) -> dict:
    f_eps, f_w = factors(seed)
    return {"eps": 0.01 * f_eps, "width": f_w, "grid": Grid(1, 4096, 200.0)}


def execute_profile(inp: dict) -> Verdict:
    rep = experiments.profile_experiment(P05, p=3.0, eps=inp["eps"], horizon=1e3,
                                         grid=inp["grid"], dt_max=0.05,
                                         datum_width=inp["width"], record_ratio=1.08)
    e10 = min(e for t, e in zip(rep.times, rep.scaled_error) if 10.0 <= t < 12.0)
    collapse = rep.scaled_error[-1] / e10
    slope = rep.l2_fit.slope if rep.l2_fit is not None else math.nan
    duh = rep.duhamel_residual if rep.duhamel_residual is not None else math.nan
    gates = {
        "completed": rep.outcome.status is evolve.RunStatus.COMPLETED,
        "l2_slope": abs(slope - (-0.5)) <= 0.05,
        "ratio": 0.9 <= rep.ratio <= 1.1,
        "duhamel": duh <= 1e-6,
        "profile_collapse": collapse <= 1.0 / 3.0,
    }
    quantities = {"l2_slope": slope, "ratio": rep.ratio, "duhamel_residual": duh,
                  "profile_collapse": collapse}
    return Verdict(gates, quantities, _outcome_counters(rep.outcome))


# --- certificate: criterion 8 ---------------------------------------------------

def prepare_certificate(seed: int) -> dict:
    f_eps, f_w = factors(seed)
    eps = 1.0 * f_eps
    grid = Grid(1, 2048, 50.0)
    state, u0, u1 = evolve.initial_state(grid, eps=eps, width=f_w)
    ctrl = evolve.StepControl(t_end=100.0, dt_max=0.02, record_t0=0.02,
                              record_ratio=1.04, snapshots=True)
    return {"eps": eps, "state": state, "u0": u0, "u1": u1, "ctrl": ctrl}


def execute_certificate(inp: dict) -> Verdict:
    out = evolve.run(P05, inp["state"], inp["ctrl"], p=1.5, eps=inp["eps"],
                     u0=inp["u0"], u1=inp["u1"])
    changes = {}
    for sigma in (0.5, 1.5):
        s0 = blowup.default_sigma0(sigma)
        r1 = blowup.frac_lap_phi(sigma, s0, L_eval=1280.0)
        r2 = blowup.frac_lap_phi(sigma, s0, L_eval=2560.0)
        changes[sigma] = abs(r1.ratio_sup - r2.ratio_sup) / r1.ratio_sup
    eta = blowup.make_eta(1.5)
    r_hi = 0.45 * out.t_final
    sweep = blowup.scaling_sweep(out.archive, eta,
                                 np.geomspace(r_hi / math.sqrt(10.0), r_hi, 7), 1.5)
    j4_dev = abs(sweep.exponents["j4"] - sweep.targets["j4"])
    gates = {
        "blew_up": out.status is evolve.RunStatus.BLEW_UP,
        "fraclap_ratio": all(v < 0.05 for v in changes.values()),
        "j4": j4_dev <= 0.15,
        "tilde_le_full": all(r.j_r_tilde <= r.j_r * (1 + 1e-12) for r in sweep.reports),
    }
    quantities = {"j4_exponent": sweep.exponents["j4"],
                  "fraclap_change_0.5": changes[0.5], "fraclap_change_1.5": changes[1.5]}
    return Verdict(gates, quantities, _outcome_counters(out))


# --- radial: criteria 3 and 4 ---------------------------------------------------

def prepare_radial(seed: int) -> dict:
    _, f_w = factors(seed)
    return {"width": f_w, "datum": radial.gaussian_datum(1, width=f_w)}


def execute_radial(inp: dict) -> Verdict:
    w = inp["width"]
    rep = experiments.decay_experiment(P05, s_list=(0.0, None), mode="radial",
                                       t_window=(1e2, 1e4), n_samples=17, datum_width=w)
    by_s = {f.s: f for f in rep.fits}
    f15 = experiments.decay_experiment(P15, s_list=(0.0,), mode="radial",
                                       t_window=(1e2, 1e4), n_samples=17,
                                       datum_width=w).fits[0]
    gates = {
        "c3_s0_sigma0.5": by_s[0.0].target == -0.5 and by_s[0.0].deviation <= 0.03,
        "c3_s0.5_sigma0.5": by_s[0.5].target == -1.0 and by_s[0.5].deviation <= 0.05,
        "c3_s0_sigma1.5": f15.target == -0.25 and f15.deviation <= 0.03,
    }
    quantities = {"c3_s0_sigma0.5": by_s[0.0].slope, "c3_s0.5_sigma0.5": by_s[0.5].slope,
                  "c3_s0_sigma1.5": f15.slope}
    g = inp["datum"]
    for params in (P05, P15):
        decay = 1.0 / (4.0 * params.sigma_min)
        pts = [(t, t**decay * radial.profile_error(params, g, g, 0.0, t))
               for t in np.geomspace(10.0, 1000.0, 13)]
        ratio = pts[-1][1] / pts[0][1]
        slope = radial.fit_power_law(pts).slope
        target = -params.alpha_min / (2.0 * params.sigma_min)
        tag = f"sigma{params.sigma}"
        gates[f"c4_ratio_{tag}"] = ratio <= 1.0 / 3.0
        gates[f"c4_exponent_{tag}"] = abs(slope - target) <= 0.15
        quantities[f"c4_ratio_{tag}"] = ratio
        quantities[f"c4_exponent_{tag}"] = slope
    return Verdict(gates, quantities)


WORKLOADS = {
    "lifespan": (prepare_lifespan, execute_lifespan),
    "profile": (prepare_profile, execute_profile),
    "certificate": (prepare_certificate, execute_certificate),
    "radial": (prepare_radial, execute_radial),
}
