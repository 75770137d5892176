"""Time integration: exact linear propagation plus a second-order exponential
Duhamel corrector, with blow-up detection and norm recording.

The linear flow is applied exactly per Fourier mode through the solution
kernels, so all stiffness of the fractional diffusion is absorbed; only the
nonlinearity limits the step size, which adapts as safety/|u|_inf^(p-1).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import duhamel_weights, kernel_eval
from .params import OperatorParams
from .torus import (
    BlowUpDetected,
    FieldState,
    Grid,
    enforce_symmetry,
    gaussian_field,
    mass,
    nonlinearity,
    norms,
)

THRESHOLD_LADDER = (1e3, 1e4, 1e6, 1e8)


@dataclass(frozen=True)
class StepControl:
    """Step-size and stopping policy for one run."""

    t_end: float
    dt_max: float = 0.05
    safety: float = 0.1
    blowup_threshold: float = 1e6
    track_band: bool = False       # keep running to 1e8 for the uncertainty band
    record_t0: float = 0.1
    record_ratio: float = 1.1
    snapshots: bool = False

    def __post_init__(self):
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not self.dt_max > 0:
            raise ValueError("dt_max must be positive")
        if not 0 < self.safety <= 1:
            raise ValueError("safety must lie in (0, 1]")
        if self.blowup_threshold < 1e3:
            raise ValueError("blowup_threshold must be at least 1e3")
        if self.record_ratio <= 1:
            raise ValueError("record_ratio must exceed 1")
        if not self.record_t0 > 0:
            raise ValueError("record_t0 must be positive")


class RunStatus(enum.Enum):
    COMPLETED = "completed"
    BLEW_UP = "blew_up"


@dataclass
class NormSeries:
    """Time-stamped norm samples on the geometric recording grid."""

    t: list[float] = field(default_factory=list)
    l2: list[float] = field(default_factory=list)
    hs: list[float] = field(default_factory=list)
    linf: list[float] = field(default_factory=list)
    l1: list[float] = field(default_factory=list)
    mass: list[float] = field(default_factory=list)
    nonlinear_mass: list[float] = field(default_factory=list)
    duhamel_q: list[float] = field(default_factory=list)

    def as_rows(self):
        return list(zip(self.t, self.l2, self.hs, self.linf, self.l1,
                        self.mass, self.nonlinear_mass))


@dataclass
class MassAccumulator:
    """Running mass functionals feeding the asymptotic-profile constant."""

    initial_mass: float = 0.0       # integral of eps*(u0 + u1)
    velocity_mass: float = 0.0      # integral of eps*u1
    nonlinear_mass: float = 0.0     # int_0^t int |u|^p dx dtau (trapezoid)
    damped_memory: float = 0.0      # int_0^t e^(-(t-tau)) N(tau) dtau


@dataclass
class SolutionArchive:
    """Stored physical snapshots of u for the space-time functionals."""

    grid: Grid
    params: OperatorParams
    eps: float
    u0: np.ndarray           # eps-scaled position datum
    u1: np.ndarray           # eps-scaled velocity datum
    times: list[float] = field(default_factory=list)
    fields: list[np.ndarray] = field(default_factory=list)
    # (snapshot count, blowup._TimeSpline of the snapshots), built by the
    # blowup module's space-time quadrature on first use, again after appends
    interp_cache: tuple | None = field(default=None, init=False, repr=False,
                                       compare=False)


@dataclass
class RunOutcome:
    status: RunStatus
    t_final: float
    series: NormSeries
    mass: MassAccumulator
    crossings: dict[float, float]
    diagnostics: dict
    archive: SolutionArchive | None = None


@dataclass
class Propagator:
    """Mode-wise kernels and Duhamel weights for one step size."""

    h: float
    k0: np.ndarray
    k1: np.ndarray
    dk0: np.ndarray
    dk1: np.ndarray
    w0: np.ndarray
    w1: np.ndarray
    # corrector weights of etd2_step, formed once per build
    w0_minus_w1: np.ndarray = field(init=False, repr=False)
    w0_over_h: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.w0_minus_w1 = self.w0 - self.w1
        self.w0_over_h = self.w0 / self.h


def build_propagator(params: OperatorParams, grid: Grid, h: float) -> Propagator:
    r = grid.radii
    kv = kernel_eval(params, h, r)
    w = duhamel_weights(params, h, r)
    return Propagator(h, kv.k0, kv.k1, kv.dk0, kv.dk1, w.w0, w.w1)


def linear_step(state: FieldState, prop: Propagator) -> FieldState:
    """Exact propagation of the linear flow over one step."""
    uhat = prop.k0 * state.uhat + prop.k1 * state.vhat
    vhat = prop.dk0 * state.uhat + prop.dk1 * state.vhat
    return FieldState(uhat, vhat, state.t + prop.h, state.grid)


def etd2_step(state: FieldState, prop: Propagator, p: float,
              forcing=None, f0=None) -> FieldState:
    """Predictor-corrector exponential step, second order in h.

    The correction applies the exact Duhamel moments for forcing linear in
    time: weight (w0 - w1) on the u update and w0/h on the velocity update.
    f0 may pass in the already-computed dealiased transform of |u(t)|^p.
    """
    g = state.grid
    t1 = state.t + prop.h
    if f0 is None:
        f0, _, _ = nonlinearity(g, state.uhat, p, state.t)
        if forcing is not None:
            f0 = f0 + forcing(state.t)
    uhat, vhat = state.uhat, state.vhat
    # u and v become the new state.  Products go to tmp, never over one of
    # their operands (an aliased complex multiply can round differently);
    # the in-place sums round as out-of-place ones do.
    tmp = np.empty_like(uhat)
    # predictor: exact linear flow plus constant-forcing Duhamel
    u = np.multiply(prop.k0, uhat)
    u += np.multiply(prop.k1, vhat, out=tmp)
    u += np.multiply(prop.w0, f0, out=tmp)
    v = np.multiply(prop.dk0, uhat)
    v += np.multiply(prop.dk1, vhat, out=tmp)
    v += np.multiply(prop.k1, f0, out=tmp)
    df, _, _ = nonlinearity(g, u, p, t1)
    if forcing is not None:
        df += forcing(t1)
    df -= f0
    u += np.multiply(prop.w0_minus_w1, df, out=tmp)
    v += np.multiply(prop.w0_over_h, df, out=tmp)
    enforce_symmetry(g, u)
    enforce_symmetry(g, v)
    return FieldState(u, v, t1, g)


def resolution_horizon(params: OperatorParams, L: float) -> float:
    """Largest time with diffusion length below L/4 (periodization guard)."""
    if params.sigma < 1:
        return (L / 4.0) ** (2.0 * params.sigma) / params.b
    return (L / 4.0) ** 2 / params.a


def initial_state(grid: Grid, eps: float, width: float = 1.0):
    """Default data: u0 = u1 = eps * unit-mass Gaussian bump (positive)."""
    bump = gaussian_field(grid, width=width, total_mass=1.0)
    u0 = eps * bump
    u1 = eps * bump
    return FieldState.from_fields(grid, u0, u1), u0, u1


def run(params: OperatorParams, state: FieldState, ctrl: StepControl, p: float, *,
        u0: np.ndarray, u1: np.ndarray, eps: float = float("nan"),
        linear_only: bool = False) -> RunOutcome:
    """Evolve the state to t_end or finite-time blow-up.

    Records norms on the geometric grid t0 * ratio^k, accumulates the mass
    functionals, tracks threshold-crossing times, and (optionally) archives
    physical snapshots and the data u0, u1 for the space-time functionals.
    Raises ValueError on non-finite data or data already at the threshold.
    """
    grid = state.grid
    series = NormSeries()
    acc = MassAccumulator()
    state = state.copy()
    acc.initial_mass = mass(state) + grid.volume * float(np.real(state.vhat.flat[0]))
    acc.velocity_mass = grid.volume * float(np.real(state.vhat.flat[0]))

    archive = None
    if ctrl.snapshots:
        archive = SolutionArchive(grid, params, eps, u0, u1)

    stop_threshold = max(ctrl.blowup_threshold,
                         THRESHOLD_LADDER[-1] if ctrl.track_band else 0.0)
    thresholds = sorted(set(THRESHOLD_LADDER) | {ctrl.blowup_threshold})
    crossings: dict[float, float] = {}
    warnings: list[str] = []
    next_record = ctrl.record_t0
    prev_n = None
    n_steps = 0
    band_steps = 0
    min_h = math.inf
    prop = None

    while True:
        t = state.t
        try:
            if linear_only:
                u_phys = state.physical_u()
                if not np.all(np.isfinite(u_phys)):
                    raise BlowUpDetected(t)
                f0 = None
                linf = float(np.max(np.abs(u_phys)))
                n_now = 0.0
            else:
                f0, linf, n_now = nonlinearity(grid, state.uhat, p, t)
        except BlowUpDetected:
            if n_steps == 0:
                raise ValueError("non-finite initial data") from None
            warnings.append(f"non-finite values at t = {t}")
            break
        if n_steps == 0 and linf >= ctrl.blowup_threshold:
            raise ValueError(f"initial data at or over the blow-up threshold: sup|u| = "
                             f"{linf:g} >= {ctrl.blowup_threshold:g}")

        # trapezoid accumulation of the nonlinear mass and damped memory
        if prev_n is not None:
            h_prev, n_prev = prev_n
            acc.nonlinear_mass += 0.5 * h_prev * (n_prev + n_now)
            acc.damped_memory = (math.exp(-h_prev) * acc.damped_memory
                                 + 0.5 * h_prev * (math.exp(-h_prev) * n_prev + n_now))

        if t == 0.0 or t >= next_record or t >= ctrl.t_end:
            ns = norms(state, params.sigma_min)
            series.t.append(t)
            series.l2.append(ns.l2)
            series.hs.append(ns.hs)
            series.linf.append(ns.linf)
            series.l1.append(ns.l1)
            series.mass.append(mass(state))
            series.nonlinear_mass.append(acc.nonlinear_mass)
            series.duhamel_q.append(acc.nonlinear_mass - acc.damped_memory)
            if archive is not None:
                archive.times.append(t)
                archive.fields.append(state.physical_u())
            while next_record <= t:
                next_record *= ctrl.record_ratio

        for thr in thresholds:
            if linf > thr and thr not in crossings:
                crossings[thr] = t
        if ctrl.blowup_threshold in crossings:
            if not ctrl.track_band or linf > stop_threshold:
                break
            band_steps += 1
            # an unresolved spike can crawl below the band edge indefinitely
            if band_steps > 50000:
                warnings.append("band tracking truncated (slow divergence)")
                break
        if t >= ctrl.t_end:
            break

        h = min(ctrl.dt_max, ctrl.t_end - t)
        if not linear_only and linf > 0.0:
            try:
                denom = linf ** (p - 1.0)
            except OverflowError:   # float ** raises where numpy returns inf
                denom = math.inf    # a zero step: the underflow exit below
            if denom > 0.0:
                h = min(h, ctrl.safety / denom)
        if t + h == t:
            # the adaptive step underflowed the clock: an unresolved divergence
            warnings.append(f"step size underflow at t = {t}; treating as blow-up")
            break
        if prop is None or prop.h != h:
            prop = build_propagator(params, grid, h)
        try:
            if linear_only:
                state = linear_step(state, prop)
            else:
                state = etd2_step(state, prop, p, f0=f0)
        except BlowUpDetected as exc:
            t = exc.t
            warnings.append(f"non-finite values during step at t = {t}")
            break
        prev_n = (h, n_now)
        n_steps += 1
        min_h = min(min_h, h)

    # the threshold crossing is the blow-up time, also when band tracking ran on
    # to t_end; every exit but t_end left a warning and is a blow-up at t
    if ctrl.blowup_threshold in crossings:
        status, t_final = RunStatus.BLEW_UP, crossings[ctrl.blowup_threshold]
    else:
        status = RunStatus.BLEW_UP if warnings else RunStatus.COMPLETED
        t_final = t

    horizon = resolution_horizon(params, grid.L)
    if t_final > horizon:
        warnings.append(
            f"resolution rule violated: diffusion length exceeds L/4 beyond t = {horizon:.6g}")
    diagnostics = {
        "steps": n_steps,
        "min_h": min_h if n_steps else 0.0,
        "resolution_t_max": horizon,
        "resolution_violated": t_final > horizon,
        "warnings": warnings,
    }
    return RunOutcome(status, t_final, series, acc, crossings, diagnostics, archive)


def duhamel_zero_mode_residual(outcome: RunOutcome) -> float:
    """Largest relative defect of the spatial-mean identity.

    The zero Fourier mode obeys M'' + M' = N(t) with N the nonlinear mass
    rate, so M(t) must equal M(0) + (1-e^-t) M'(0) + int (1-e^-(t-tau)) N dtau;
    the integral is what the series' duhamel_q column accumulated.
    """
    s = outcome.series
    m0 = s.mass[0]
    v0 = outcome.mass.velocity_mass
    worst = 0.0
    for t, m_t, q in zip(s.t, s.mass, s.duhamel_q):
        if t == 0.0:
            continue
        predicted = m0 + (1.0 - math.exp(-t)) * v0 + q
        worst = max(worst, abs(m_t - predicted) / max(abs(m_t), 1e-300))
    return worst
