"""Scenario drivers turning solver and quadrature output into quantitative
claims: decay-rate fits, profile convergence, and lifespan scaling.
"""
from __future__ import annotations

import math
import operator
import os
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .evolve import (
    RunOutcome,
    RunStatus,
    StepControl,
    duhamel_zero_mode_residual,
    initial_state,
    resolution_horizon,
    run,
)
from .kernels import kernel_eval, profile_hat
from .params import OperatorParams
from .radial import PowerLawFit, fit_power_law, gaussian_datum, hs_norm, power_law_slope
from .torus import Grid, spectral_norm, to_spectral


# Acceptance gates, name -> (comparison, tolerance): a value passes when
# comparison(|value - target|, tolerance) holds; the CLI and the criteria read them.
GATES = {
    "kernel_identity": (operator.le, 1e-10),       # criterion 1, kernels
    "quadrature_oracle": (operator.le, 1e-8),      # criterion 2
    "decay_slope_l2": (operator.le, 0.03),         # criterion 3 (s = 0), linear-decay
    "decay_slope_hs": (operator.le, 0.05),         # criterion 3 (s > 0), linear-decay
    "profile_collapse": (operator.le, 1.0 / 3.0),  # criteria 4 and 6
    "profile_exponent": (operator.le, 0.15),       # criterion 4
    "integrator_order": (operator.le, 0.2),        # criterion 5, target order 2
    "linear_exactness": (operator.le, 1e-11),      # criterion 5
    "l2_slope": (operator.le, 0.05),               # criterion 6
    "profile_ratio": (operator.le, 0.1),           # criterion 6, profile; target 1
    "duhamel_residual": (operator.le, 1e-6),       # criterion 6
    "lifespan_slope": (operator.le, 0.2),          # criterion 7, lifespan-sweep
    "lifespan_n_doubling": (operator.le, 0.10),    # criterion 7, relative shift
    "j4_exponent": (operator.le, 0.15),            # criterion 8, blowup-functional
    "fraclap_change": (operator.lt, 0.05),         # criterion 8, fraclap-check
    "j_tilde_slack": (operator.le, 1e-12),         # criterion 8: J~ <= (1+slack) J, no margin
}


def gate(name: str, value: float, target: float = 0.0) -> tuple[bool, float]:
    """(passed, margin) of value against GATES[name], where
    margin = 1 - |value - target| / tolerance (negative when the gate fails)."""
    compare, tol = GATES[name]
    deviation = abs(value - target)
    return bool(compare(deviation, tol)), 1.0 - deviation / tol


@dataclass(frozen=True)
class SlopeFit:
    s: float
    slope: float
    target: float
    window: tuple[float, float]

    @property
    def deviation(self) -> float:
        return abs(self.slope - self.target)


@dataclass
class DecayReport:
    fits: list[SlopeFit]
    series: dict[float, list[tuple[float, float]]]


class ExperimentInvalid(RuntimeError):
    """The scenario cannot produce a valid fit (e.g. window lost to resolution)."""


def decay_experiment(params: OperatorParams, s_list=(0.0, None), mode: str = "radial",
                     t_window: tuple[float, float] = (1e2, 1e4), n_samples: int = 21,
                     datum_width: float = 1.0) -> DecayReport:
    """Fit Sobolev-norm decay slopes against params.decay_rate(s).

    Evaluates the linear solution by radial quadrature on the given window.
    mode must be "radial", the only route (the benchmark still names it); the
    solver-side decay fit is profile_experiment's l2_fit.
    """
    if mode != "radial":
        raise ValueError(f"unknown decay mode {mode!r}")
    s_vals = [params.sigma_min if s is None else float(s) for s in s_list]
    fits: list[SlopeFit] = []
    series: dict[float, list[tuple[float, float]]] = {}
    datum = gaussian_datum(params.n, width=datum_width)

    def norm(s, t):
        def field(r):        # transform of the linear solution at time t
            kv = kernel_eval(params, t, r)
            return (kv.k0 + kv.k1) * datum(r)
        return hs_norm(params, field, s, t)

    ts = np.geomspace(t_window[0], t_window[1], n_samples)
    for s in s_vals:
        pts = [(float(t), norm(s, float(t))) for t in ts]
        series[s] = pts
        target = -params.decay_rate(s)
        fits.append(SlopeFit(s, fit_power_law(pts).slope, target, t_window))
    return DecayReport(fits, series)


@dataclass
class ProfileReport:
    """Scaled distance to the mass-weighted diffusion profile over time."""

    times: list[float]
    scaled_error: list[float]
    theta: float
    tail_correction: float
    ratio: float                      # |u| / (theta |G|) at the horizon
    extra_decay: PowerLawFit | None
    outcome: RunOutcome | None = None
    duhamel_residual: float | None = None
    l2_fit: SlopeFit | None = None


def profile_experiment(params: OperatorParams, p: float, eps: float, horizon: float,
                       grid: Grid, dt_max: float = 0.05,
                       datum_width: float = 1.0, linear_only: bool = False,
                       record_ratio: float = 1.08) -> ProfileReport:
    """Evolve the semilinear problem and compare with theta * profile.

    theta accumulates the initial mass plus the space-time integral of the
    nonlinearity; the tail beyond the horizon is extrapolated from the fitted
    power law of the nonlinear-mass rate and reported as a correction.
    """
    ctrl = StepControl(t_end=horizon, dt_max=dt_max, record_t0=0.05,
                       record_ratio=record_ratio, snapshots=True)
    state, u0, u1 = initial_state(grid, eps=eps, width=datum_width)
    outcome = run(params, state, ctrl, p=p, eps=eps, u0=u0, u1=u1,
                  linear_only=linear_only)
    if outcome.status is not RunStatus.COMPLETED:
        raise ExperimentInvalid(f"run blew up at t = {outcome.t_final}")

    # tail of the nonlinear mass beyond the horizon, by power-law extrapolation
    tail = 0.0
    if eps > 0:
        ts = np.asarray(outcome.series.t)
        nl = np.asarray(outcome.series.nonlinear_mass)
        rate = np.diff(nl) / np.diff(ts)
        mid = 0.5 * (ts[1:] + ts[:-1])
        sel = (mid > horizon / 20.0) & (rate > 0)
        if sel.sum() >= 5:
            fit = fit_power_law(list(zip(mid[sel], rate[sel])))
            if fit.slope < -1.05:
                t_end = ts[-1]
                tail = math.exp(fit.intercept) * t_end ** (fit.slope + 1.0) / (
                    -(fit.slope + 1.0))
    theta = float(outcome.mass.initial_mass + outcome.mass.nonlinear_mass + tail)

    times: list[float] = []
    scaled: list[float] = []
    decay = params.decay_rate(0.0)
    arc = outcome.archive
    g = grid
    ratio = float("nan")
    for t, u_phys in zip(arc.times, arc.fields):
        if t <= 0:
            continue
        chat = to_spectral(g, u_phys)
        # point mass at the origin carries the grid's (-1)^k phase
        ghat = profile_hat(params, t, g.radii) * g.origin_phase / g.volume
        err = spectral_norm(g, chat - theta * ghat, 0.0)
        times.append(t)
        scaled.append(t**decay * err)
        if t == arc.times[-1]:
            un = spectral_norm(g, chat, 0.0)
            gn = spectral_norm(g, ghat, 0.0)
            ratio = float(un / (theta * gn)) if theta * gn != 0 else float("nan")

    extra = None
    pts = [(t, v) for t, v in zip(times, scaled) if v > 0]
    if len(pts) >= 5:
        extra = fit_power_law(pts)

    l2_fit = None
    horizon_valid = min(resolution_horizon(params, grid.L), horizon)
    ts = np.asarray(outcome.series.t)
    sel = (ts >= horizon_valid / 10.0) & (ts <= horizon_valid)
    sel &= np.asarray(outcome.series.l2) > 0
    if sel.sum() >= 5:
        f = fit_power_law(list(zip(ts[sel], np.asarray(outcome.series.l2)[sel])))
        l2_fit = SlopeFit(0.0, f.slope, -decay, (horizon_valid / 10.0, horizon_valid))

    return ProfileReport(
        times=times, scaled_error=scaled, theta=theta, tail_correction=tail,
        ratio=ratio, extra_decay=extra, outcome=outcome,
        duhamel_residual=duhamel_zero_mode_residual(outcome) if not linear_only else None,
        l2_fit=l2_fit)


@dataclass(frozen=True)
class LifespanRecord:
    epsilon: float
    t_blowup: float | None
    threshold_band: tuple[float | None, float | None]
    flagged: str = ""


@dataclass
class LifespanReport:
    records: list[LifespanRecord]
    slope: float | None          # log T vs log eps (sub-critical)
    target: float | None
    critical_fit: PowerLawFit | None   # log T vs eps^-(p-1), critical case
    linear_residual: float | None


def lifespan_member(params: OperatorParams, p: float, eps: float, grid: Grid,
                    dt_max: float, t_cap: float, threshold: float) -> LifespanRecord:
    """The blow-up record of one lifespan_sweep run at data size eps."""
    state, u0, u1 = initial_state(grid, eps=eps)
    # critical-case divergences crawl once the spike outruns the grid, so
    # the exploratory sweep stops at the configured threshold without
    # pushing on to the 1e8 band edge
    ctrl = StepControl(t_end=min(t_cap, resolution_horizon(params, grid.L)), dt_max=dt_max,
                       blowup_threshold=threshold,
                       track_band=params.p_regime(p) != "critical",
                       record_t0=1.0, record_ratio=1.3)
    out = run(params, state, ctrl, p=p, eps=eps, u0=u0, u1=u1)
    if out.status is not RunStatus.BLEW_UP:
        return LifespanRecord(eps, None, (None, None),
                              flagged="no blow-up before resolution loss")
    return LifespanRecord(eps, out.t_final, (out.crossings.get(1e4), out.crossings.get(1e8)))


def _recording_warnings(fn, item):
    """fn(item) and the distinct warnings it raised, as warn_explicit arguments."""
    with warnings.catch_warnings(record=True) as caught:
        # every distinct warning once: the caller's filters decide its fate
        warnings.simplefilter("default")
        result = fn(item)
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def _map_members(member, eps: list[float]) -> list[LifespanRecord]:
    """[member(e) for e in eps] on up to one spawned process per usable CPU.

    A warning raised in a worker is raised again here, through this process's
    filters, as a serial loop would raise it.
    """
    # imported here: loading the process pool costs every importer of this
    # module tens of milliseconds, and only the sweep uses it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(eps), cpus or 1)
    try:
        # spawned workers start from a fresh import, so no thread state is forked
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(partial(_recording_warnings, member), eps))
    except BrokenProcessPool as exc:
        raise MemoryError(f"lifespan sweep: a worker process ended abruptly, as when it is "
                          f"killed for memory; each of the {workers} workers holds one run") from exc
    for _, caught in results:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
    return [record for record, _ in results]


def lifespan_fault(params: OperatorParams, p: float, eps_list) -> tuple[str, str] | None:
    """The key that a lifespan sweep of (params, p, eps_list) breaks and the
    words that finish "must ...", or None: p must not be super-critical, and
    the fit needs at least two amplitudes, spanning at least one decade."""
    if params.p_regime(p) == "super-critical":
        return "p", f"be <= p_crit = {params.p_crit}"
    if len(eps_list) < 2:
        return "eps_list", "contain at least two values"
    if max(eps_list) / min(eps_list) < 10.0 * (1 - 1e-9):
        return "eps_list", "span at least one decade"
    return None


def lifespan_sweep(params: OperatorParams, p: float, eps_list, grid: Grid,
                   dt_max: float = 0.05, t_cap: float = 4000.0,
                   threshold: float = 1e6) -> LifespanReport:
    """Fit the blow-up-time scaling law over a sweep of data sizes.

    The members run in up to one worker process per usable CPU.  Sub-critical p
    fits log T against log eps and reports the slope next to the closed-form
    target; the critical case fits log T linearly in eps^-(p-1) and reports
    the largest residual of that linear model.  (p, eps_list) must pass
    lifespan_fault.
    """
    eps = sorted(float(e) for e in eps_list)
    fault = lifespan_fault(params, p, eps)
    if fault:
        raise ValueError(f"{fault[0]} must {fault[1]}")
    regime = params.p_regime(p)

    member = partial(lifespan_member, params, p, grid=grid, dt_max=dt_max, t_cap=t_cap,
                     threshold=threshold)
    records = _map_members(member, eps)

    usable = [(r.epsilon, r.t_blowup) for r in records if r.t_blowup is not None]
    if regime == "critical":
        xs = [e ** (-(p - 1.0)) for e, _ in usable]
        ys = [math.log(t) for _, t in usable]
        if len(usable) >= 3:
            slope, intercept = np.polyfit(xs, ys, 1)
            resid = float(np.abs(np.asarray(ys) - (slope * np.asarray(xs) + intercept)).max())
            crit = PowerLawFit(float(slope), float(intercept))
        else:
            crit, resid = None, None
        return LifespanReport(records, None, None, crit, resid)
    if len(usable) < 2:
        raise ExperimentInvalid("fewer than two usable blow-up records")
    return LifespanReport(records, power_law_slope(usable), params.lifespan_rate(p), None, None)
