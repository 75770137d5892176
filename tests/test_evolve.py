import math
import tracemalloc

import numpy as np
import pytest

from mixwave import evolve
from mixwave.evolve import (
    RunStatus,
    StepBuffers,
    StepControl,
    build_propagator,
    duhamel_zero_mode_residual,
    etd2_step,
    initial_state,
    linear_step,
    resolution_horizon,
    run,
)
from mixwave.kernels import duhamel_weights, kernel_eval
from mixwave.params import OperatorParams
from mixwave.torus import (
    FieldState,
    Grid,
    enforce_symmetry,
    nonlinearity,
    to_physical,
    to_spectral,
)

P = OperatorParams(1.0, 1.0, 0.5, 1)


@pytest.fixture
def grid():
    return Grid(1, 512, 50.0)


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, dt_max=0.0)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, safety=1.5)
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, blowup_threshold=100.0)
    with pytest.raises(ValueError, match="record_ratio must exceed 1"):
        StepControl(t_end=1.0, record_ratio=1.0)
    with pytest.raises(ValueError, match="record_t0 must be positive"):
        StepControl(t_end=1.0, record_t0=0.0)


@pytest.mark.parametrize("t_end", [float("nan"), float("inf"), 0.0, -1.0])
def test_step_control_t_end_positive_and_finite(t_end):
    with pytest.raises(ValueError, match="t_end"):
        StepControl(t_end=t_end)


class TestLinearStep:
    def test_two_half_steps_equal_one_full(self, grid):
        st, _, _ = initial_state(grid, eps=1.0)
        full = linear_step(st, build_propagator(P, grid, 0.06))
        half = build_propagator(P, grid, 0.03)
        twice = linear_step(linear_step(st, half), half)
        assert np.max(np.abs(full.uhat - twice.uhat)) < 1e-12
        assert np.max(np.abs(full.vhat - twice.vhat)) < 1e-12

    def test_zero_frequency_closed_form(self, grid):
        st, _, _ = initial_state(grid, eps=1.0)
        h = 0.25
        out = linear_step(st, build_propagator(P, grid, h))
        expect = st.uhat[0] + (1.0 - math.exp(-h)) * st.vhat[0]
        assert out.uhat[0] == pytest.approx(expect, rel=1e-14)

    def test_high_frequency_envelope(self, grid):
        # modes with m > 1/4: the one-step propagator matrix has spectral
        # radius exactly e^(-h/2) (complex conjugate roots)
        h = 0.1
        prop = build_propagator(P, grid, h)
        k = grid.N // 4
        mat = np.array([[prop.k0[k], prop.k1[k]], [prop.dk0[k], prop.dk1[k]]])
        eig = np.linalg.eigvals(mat)
        assert np.max(np.abs(eig)) == pytest.approx(math.exp(-h / 2), rel=1e-12)

    @pytest.mark.parametrize("g", [Grid(1, 512, 50.0), Grid(1, 2048, 50.0),
                                   Grid(2, 64, 16.0)])
    def test_matches_kernel_products_bit_for_bit(self, g):
        params = P if g.n == 1 else OperatorParams(1.0, 1.0, 1.5, 2)
        state, _, _ = initial_state(g, eps=2.0)
        state.vhat = state.vhat + 1e-4 * to_spectral(
            g, np.random.default_rng(3).standard_normal((g.N,) * g.n))
        buffers = StepBuffers(g)
        out = (np.empty_like(state.uhat), np.empty_like(state.vhat))
        for h in (0.05, 0.013, 1e-4):
            kv = kernel_eval(params, h, g.radii)
            want_u = kv.k0 * state.uhat + kv.k1 * state.vhat
            want_v = kv.dk0 * state.uhat + kv.dk1 * state.vhat
            prop = build_propagator(params, g, h)
            for kwargs in ({}, {"out": out, "buffers": buffers}):
                got = linear_step(state, prop, **kwargs)
                assert got.uhat.tobytes() == want_u.tobytes()
                assert got.vhat.tobytes() == want_v.tobytes()
                assert got.t == state.t + h
            assert got.uhat is out[0] and got.vhat is out[1]

    def test_multi_step_matches_single_exact_propagation(self, grid):
        st, _, _ = initial_state(grid, eps=1.0)
        prop = build_propagator(P, grid, 0.03)
        state = st
        for _ in range(1000):
            state = linear_step(state, prop)
        kv = kernel_eval(P, 30.0, grid.radii)
        exact_u = kv.k0 * st.uhat + kv.k1 * st.vhat
        exact_v = kv.dk0 * st.uhat + kv.dk1 * st.vhat
        scale = np.max(np.abs(st.uhat))
        assert np.max(np.abs(state.uhat - exact_u)) < 1e-11 * scale
        assert np.max(np.abs(state.vhat - exact_v)) < 1e-11 * scale


def manufactured_setup(grid, amplitude=0.5):
    """Forced problem with exact solution A e^(-t) cos(pi x / L), p = 2."""
    r1 = math.pi / grid.L
    m1 = P.a * r1**2 + P.b * r1 ** (2 * P.sigma)
    base = np.cos(math.pi * grid.x / grid.L)
    cb = to_spectral(grid, base)
    cb2 = to_spectral(grid, base**2)

    def exact(t):
        return amplitude * math.exp(-t) * base

    def forcing(t):
        a_t = amplitude * math.exp(-t)
        # residual of the exact solution: u_tt + u_t = 0, leaving Lu - u^2
        return m1 * a_t * cb - a_t**2 * cb2

    return exact, forcing


class TestEtd2:
    def test_zero_data_stays_zero(self, grid):
        st = FieldState.from_fields(grid, np.zeros(grid.N), np.zeros(grid.N))
        out = etd2_step(st, build_propagator(P, grid, 0.05), p=2.0)
        assert np.all(out.uhat == 0) and np.all(out.vhat == 0)

    def test_manufactured_solution_order(self, grid):
        exact, forcing = manufactured_setup(grid)
        T = 2.0
        errs = []
        for k in range(5):
            h = 0.2 / 2**k
            state = FieldState.from_fields(grid, exact(0.0), -exact(0.0))
            prop = build_propagator(P, grid, h)
            for _ in range(int(round(T / h))):
                state = etd2_step(state, prop, 2.0, forcing=forcing)
            errs.append(np.max(np.abs(state.physical_u() - exact(T))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(4)]
        assert all(1.8 <= o <= 2.2 for o in orders)

    def test_richardson_step_doubling(self, grid):
        # one macro step vs two half steps differ at the local-error order h^3;
        # the leading term sits in the velocity component (the displacement
        # update gains an extra power of h from the vanishing kernel weight)
        exact, forcing = manufactured_setup(grid)
        diffs_v, diffs_u = [], []
        for h in (0.2, 0.1, 0.05):
            state = FieldState.from_fields(grid, exact(0.0), -exact(0.0))
            one = etd2_step(state, build_propagator(P, grid, h), 2.0, forcing=forcing)
            half = build_propagator(P, grid, h / 2)
            two = etd2_step(etd2_step(state, half, 2.0, forcing=forcing),
                            half, 2.0, forcing=forcing)
            diffs_v.append(np.max(np.abs(one.vhat - two.vhat)))
            diffs_u.append(np.max(np.abs(one.uhat - two.uhat)))
        rates_v = [math.log2(diffs_v[i] / diffs_v[i + 1]) for i in range(2)]
        assert all(2.5 <= rate <= 3.5 for rate in rates_v)
        rates_u = [math.log2(diffs_u[i] / diffs_u[i + 1]) for i in range(2)]
        assert all(rate >= 2.5 for rate in rates_u)


def etd2_step_unfused(params, state, h, p, forcing=None, f0=None):
    """The step as plain out-of-place array expressions, one temporary each,
    on the real kernels and Duhamel weights."""
    g = state.grid
    kv = kernel_eval(params, h, g.radii)
    w = duhamel_weights(params, h, g.radii)
    if f0 is None:
        f0, _, _ = nonlinearity(g, state.uhat, p, state.t)
        if forcing is not None:
            f0 = f0 + forcing(state.t)
    base_u = kv.k0 * state.uhat + kv.k1 * state.vhat
    base_v = kv.dk0 * state.uhat + kv.dk1 * state.vhat
    pred_u = base_u + w.w0 * f0
    pred_v = base_v + kv.k1 * f0
    f1, _, _ = nonlinearity(g, pred_u, p, state.t + h)
    if forcing is not None:
        f1 = f1 + forcing(state.t + h)
    df = f1 - f0
    uhat = pred_u + (w.w0 - w.w1) * df
    vhat = pred_v + (w.w0 / h) * df
    return enforce_symmetry(g, uhat), enforce_symmetry(g, vhat)


class TestEtd2BitExact:
    """etd2_step writes products into reused buffers; the sums must round as
    the plain expressions do, on every grid the solver runs."""

    @pytest.mark.parametrize("g", [Grid(1, 512, 50.0), Grid(1, 2048, 50.0),
                                   Grid(2, 64, 16.0)])
    @pytest.mark.parametrize("with_forcing", [False, True])
    def test_matches_unfused_formula(self, g, with_forcing):
        params = P if g.n == 1 else OperatorParams(1.0, 1.0, 1.5, 2)
        forcing = None
        if with_forcing:
            def forcing(t):
                return np.full(g.spectral_shape, 1e-3 * (1.0 + t), complex)
        state, _, _ = initial_state(g, eps=2.0)
        rng = np.random.default_rng(3)
        state.vhat = state.vhat + 1e-4 * to_spectral(
            g, rng.standard_normal((g.N,) * g.n))
        # one set of buffers for every call, as a run reuses them: what an
        # earlier step left in them must not reach the next
        buffers = StepBuffers(g)
        out = (np.empty_like(state.uhat), np.empty_like(state.vhat))
        for h in (0.05, 0.013, 1e-4):
            prop = build_propagator(params, g, h)
            for p in (1.5, 3.0):
                f0, _, _ = nonlinearity(g, state.uhat, p, state.t)
                f0_before = f0.copy()
                got = etd2_step(state, prop, p, forcing=forcing, f0=f0)
                assert f0.tobytes() == f0_before.tobytes()
                want_u, want_v = etd2_step_unfused(params, state, h, p, forcing, f0)
                assert got.uhat.tobytes() == want_u.tobytes()
                assert got.vhat.tobytes() == want_v.tobytes()
                assert got.t == state.t + h
                # with buffers, the same bits in the given pair
                got = etd2_step(state, prop, p, forcing=forcing, f0=f0, out=out,
                                buffers=buffers)
                assert got.uhat is out[0] and got.vhat is out[1]
                assert got.uhat.tobytes() == want_u.tobytes()
                assert got.vhat.tobytes() == want_v.tobytes()
                assert f0.tobytes() == f0_before.tobytes()
                # and with the step computing f0 itself, without and with buffers
                want_u, want_v = etd2_step_unfused(params, state, h, p, forcing)
                for kwargs in ({}, {"out": out, "buffers": buffers}):
                    got = etd2_step(state, prop, p, forcing=forcing, **kwargs)
                    assert got.uhat.tobytes() == want_u.tobytes()
                    assert got.vhat.tobytes() == want_v.tobytes()

    def test_state_arrays_untouched(self, grid):
        state, _, _ = initial_state(grid, eps=1.0)
        before = state.copy()
        out = etd2_step(state, build_propagator(P, grid, 0.02), 1.5)
        assert state.uhat.tobytes() == before.uhat.tobytes()
        assert state.vhat.tobytes() == before.vhat.tobytes()
        assert out.uhat is not state.uhat and out.vhat is not state.vhat


class TestRun:
    def test_zero_amplitude_completes_identically_zero(self, grid):
        st, u0, u1 = initial_state(grid, eps=0.0)
        out = run(P, st, StepControl(t_end=2.0), p=3.0, eps=0.0, u0=u0, u1=u1)
        assert out.status is RunStatus.COMPLETED
        assert max(out.series.linf) == 0.0

    def test_supercritical_small_data_completes_and_decays(self, grid):
        st, u0, u1 = initial_state(grid, eps=0.01)
        ctrl = StepControl(t_end=10.0, record_t0=0.05, record_ratio=1.2)
        out = run(P, st, ctrl, p=3.0, eps=0.01, u0=u0, u1=u1)
        assert out.status is RunStatus.COMPLETED
        assert out.series.l2[-1] < out.series.l2[0]
        assert all(a < b for a, b in zip(out.series.t, out.series.t[1:]))

    def test_subcritical_blow_up_and_grid_stability(self):
        times = {}
        for N in (512, 1024):
            g = Grid(1, N, 50.0)
            st, u0, u1 = initial_state(g, eps=1.0)
            ctrl = StepControl(t_end=100.0, track_band=True)
            out = run(P, st, ctrl, p=1.5, eps=1.0, u0=u0, u1=u1)
            assert out.status is RunStatus.BLEW_UP
            assert out.t_final < 100.0
            times[N] = out.t_final
        assert abs(times[1024] - times[512]) <= 0.1 * times[1024]

    def test_threshold_crossings_monotone(self):
        g = Grid(1, 512, 50.0)
        st, u0, u1 = initial_state(g, eps=1.0)
        out = run(P, st, StepControl(t_end=100.0, track_band=True), p=1.5,
                  eps=1.0, u0=u0, u1=u1)
        c = out.crossings
        assert c[1e3] <= c[1e4] <= c[1e6] <= c[1e8]
        # the detected lifespan at a higher threshold is never earlier
        assert c[1e6] >= c[1e3]

    def test_threshold_spread_shrinks_under_dt_refinement(self):
        g = Grid(1, 512, 50.0)
        spreads = []
        for dt in (0.05, 0.0125):
            st, u0, u1 = initial_state(g, eps=1.0)
            ctrl = StepControl(t_end=100.0, dt_max=dt, track_band=True)
            out = run(P, st, ctrl, p=1.5, eps=1.0, u0=u0, u1=u1)
            spreads.append(out.crossings[1e8] - out.crossings[1e4])
        assert spreads[1] <= spreads[0]

    def test_linear_run_matches_kernel_at_t_end(self, grid):
        st, u0, u1 = initial_state(grid, eps=1.0)
        snap = st.copy()
        ctrl = StepControl(t_end=5.0, dt_max=0.05, snapshots=True,
                           record_t0=10.0)   # record only start and end
        out = run(P, st, ctrl, p=3.0, eps=1.0, u0=u0, u1=u1, linear_only=True)
        kv = kernel_eval(P, 5.0, grid.radii)
        exact = kv.k0 * snap.uhat + kv.k1 * snap.vhat
        got = to_spectral(grid, out.archive.fields[-1])
        assert np.max(np.abs(got - exact)) < 1e-11 * np.max(np.abs(snap.uhat))

    def test_zero_mode_duhamel_identity(self, grid):
        st, u0, u1 = initial_state(grid, eps=0.05)
        ctrl = StepControl(t_end=20.0, record_t0=0.05, record_ratio=1.15)
        out = run(P, st, ctrl, p=3.0, eps=0.05, u0=u0, u1=u1)
        assert duhamel_zero_mode_residual(out) < 1e-6

    def test_time_weighted_norm_bounded_on_valid_window(self, grid):
        # sup of (1+t)^(n/4smin) |u|_L2 + (1+t)^((n+2smin)/4smin) |u|_Hs
        # over the resolution-valid window stays bounded for small data
        st, u0, u1 = initial_state(grid, eps=0.01)
        horizon = resolution_horizon(P, grid.L)
        ctrl = StepControl(t_end=horizon, record_t0=0.05, record_ratio=1.15)
        out = run(P, st, ctrl, p=3.0, eps=0.01, u0=u0, u1=u1)
        smin = P.sigma_min
        ts = np.asarray(out.series.t)
        weighted = ((1 + ts) ** (1 / (4 * smin)) * np.asarray(out.series.l2)
                    + (1 + ts) ** ((1 + 2 * smin) / (4 * smin)) * np.asarray(out.series.hs))
        early = weighted[ts <= horizon / 10].max()
        assert weighted.max() <= 3.0 * early

    def test_resolution_warning_metadata(self):
        g = Grid(1, 256, 20.0)     # horizon (L/4)^1 = 5
        st, u0, u1 = initial_state(g, eps=0.01)
        out = run(P, st, StepControl(t_end=20.0), p=3.0, eps=0.01, u0=u0, u1=u1)
        assert out.diagnostics["resolution_t_max"] == pytest.approx(5.0)
        assert out.diagnostics["resolution_violated"]
        assert any("resolution" in w for w in out.diagnostics["warnings"])

    def test_two_dimensional_run(self):
        g = Grid(2, 64, 20.0)
        st, u0, u1 = initial_state(g, eps=0.05)
        ctrl = StepControl(t_end=2.0, record_t0=0.05, record_ratio=1.3)
        out = run(P, st, ctrl, p=3.0, eps=0.05, u0=u0, u1=u1)
        assert out.status is RunStatus.COMPLETED
        assert out.mass.initial_mass == pytest.approx(0.1, abs=1e-9)
        assert duhamel_zero_mode_residual(out) < 1e-6


class TestRunBuffers:
    """run steps in buffers it allocates once; none of them leaves the run."""

    @staticmethod
    def _spy(monkeypatch, on_call, step="etd2_step"):
        real = getattr(evolve, step)

        def spy(*args, **kwargs):
            on_call(args, kwargs)
            return real(*args, **kwargs)
        monkeypatch.setattr(evolve, step, spy)

    def test_no_buffer_escapes(self, monkeypatch, grid):
        seen = {}

        def record(args, kwargs):
            b = kwargs["buffers"]
            seen.update((id(a), a) for a in (*kwargs["out"], args[0].uhat, args[0].vhat,
                                             b.f0, b.df, b.tmp, b.phys, b.spec))
        self._spy(monkeypatch, record)
        st, u0, u1 = initial_state(grid, eps=1.0)
        before = st.copy()
        ctrl = StepControl(t_end=3.0, record_t0=0.05, record_ratio=1.2, snapshots=True)
        out = run(P, st, ctrl, p=1.5, eps=1.0, u0=u0, u1=u1)
        assert len(out.archive.fields) > 10 and seen
        handed = [st.uhat, st.vhat, *out.archive.fields]
        assert not any(np.shares_memory(a, b) for a in handed for b in seen.values())
        # the caller's state is read, never stepped in
        assert st.uhat.tobytes() == before.uhat.tobytes()
        assert st.vhat.tobytes() == before.vhat.tobytes()

    def _step_excess(self, monkeypatch, linear_only):
        """Traced memory above the level at the start of a step, per step, of
        a run at N=4096; the size of a real field, 8 N bytes."""
        g = Grid(1, 4096, 50.0)
        excess = []

        def measure(args, kwargs):
            current, peak = tracemalloc.get_traced_memory()
            excess.append(peak - current)
            tracemalloc.reset_peak()
        self._spy(monkeypatch, measure, "linear_step" if linear_only else "etd2_step")
        st, u0, u1 = initial_state(g, eps=0.01)
        # one step size (dt_max 1/16 divides t_end); records at t = 0 and t_end
        # only, before the first measured step and after the last
        ctrl = StepControl(t_end=1.0, dt_max=0.0625, record_t0=10.0)
        tracemalloc.start()
        try:
            out = run(P, st, ctrl, p=3.0, eps=0.01, u0=u0, u1=u1,
                      linear_only=linear_only)
        finally:
            tracemalloc.stop()
        assert out.diagnostics["steps"] == len(excess) == 16
        return excess, 8 * g.N

    def test_steps_allocate_no_field_sized_array(self, monkeypatch):
        # a complex coefficient array is 8 N + 16 bytes; each entry after the
        # first spans one whole step: the corrector, the next step's
        # nonlinearity and the bookkeeping between them
        excess, field_bytes = self._step_excess(monkeypatch, linear_only=False)
        assert max(excess[1:]) < field_bytes

    def test_linear_steps_allocate_no_field_sized_array(self, monkeypatch):
        # the linear flow and the sup-norm check between its steps
        excess, field_bytes = self._step_excess(monkeypatch, linear_only=True)
        assert max(excess[1:]) < field_bytes


class TestRunExits:
    """One case per way out of the stepping loop: status, t_final, warnings."""

    g = Grid(1, 256, 50.0)        # resolution horizon (L/4)^1 = 12.5

    def _run(self, ctrl, p, eps, t0=0.0):
        st, u0, u1 = initial_state(self.g, eps=eps)
        st = FieldState(st.uhat, st.vhat, t0, self.g)
        return run(P, st, ctrl, p=p, eps=eps, u0=u0, u1=u1)

    @pytest.fixture(scope="class")
    def band_run(self):
        return self._run(StepControl(t_end=100.0, track_band=True), 1.5, 1.0)

    def test_completes_at_t_end(self):
        out = self._run(StepControl(t_end=2.0), 3.0, 0.01)
        assert out.status is RunStatus.COMPLETED
        assert out.t_final == 2.0
        assert out.crossings == {}
        assert out.diagnostics["warnings"] == []

    def test_crossing_without_band_tracking(self):
        out = self._run(StepControl(t_end=100.0), 1.5, 1.0)
        assert out.status is RunStatus.BLEW_UP
        assert out.t_final == out.crossings[1e6]
        assert 1e8 not in out.crossings
        assert out.diagnostics["warnings"] == []

    def test_band_stop_at_1e8(self, band_run):
        out = band_run
        assert out.status is RunStatus.BLEW_UP
        assert out.t_final == out.crossings[1e6] < out.crossings[1e8]
        assert out.diagnostics["warnings"] == []

    def test_band_tracking_reaches_t_end_after_threshold(self, band_run):
        c = band_run.crossings
        t_end = 0.5 * (c[1e6] + c[1e8])
        out = self._run(StepControl(t_end=t_end, track_band=True), 1.5, 1.0)
        assert out.status is RunStatus.BLEW_UP
        assert out.t_final == c[1e6]
        assert 1e8 not in out.crossings
        assert out.diagnostics["warnings"] == []

    def test_band_cap_truncates_slow_divergence(self):
        # dt_max caps the step at 1e-5, so sup|u| climbs from the threshold 1e3
        # towards the band's end at 1e8 too slowly for the 50000 band steps
        g = Grid(1, 64, 10.0)
        st, u0, u1 = initial_state(g, eps=2400.0)
        ctrl = StepControl(t_end=10.0, dt_max=1e-5, blowup_threshold=1e3, track_band=True)
        out = run(P, st, ctrl, p=1.5, eps=2400.0, u0=u0, u1=u1)
        assert out.status is RunStatus.BLEW_UP
        assert out.t_final == out.crossings[1e3] < out.crossings[1e4]
        assert 1e6 not in out.crossings
        assert out.diagnostics["steps"] == 53088
        assert out.diagnostics["warnings"] == ["band tracking truncated (slow divergence)"]

    def test_non_finite_step(self):
        # |u|^2 overflows at once; the first step is safety / sup|u| long
        ctrl = StepControl(t_end=1.0, blowup_threshold=1e300)
        st, _, _ = initial_state(self.g, eps=1e200)
        h = ctrl.safety / float(np.max(np.abs(to_physical(self.g, st.uhat))))
        with np.errstate(over="ignore", invalid="ignore"):
            out = self._run(ctrl, 2.0, 1e200)
        assert out.status is RunStatus.BLEW_UP
        assert out.t_final == h
        assert out.diagnostics["steps"] == 0
        assert out.diagnostics["warnings"] == [f"non-finite values during step at t = {h}"]

    def test_non_finite_state_after_a_step(self, monkeypatch):
        # a step that hands back NaN without raising: the sup norm at the top
        # of the next step catches it, and the run ends as a blow-up there
        step = evolve.etd2_step

        def poisoned(*args, **kwargs):
            new = step(*args, **kwargs)
            new.uhat[1] = np.nan
            return new

        monkeypatch.setattr(evolve, "etd2_step", poisoned)
        with np.errstate(invalid="ignore"):
            out = self._run(StepControl(t_end=2.0), 3.0, 0.01)
        assert out.status is RunStatus.BLEW_UP
        assert out.diagnostics["steps"] == 1
        assert out.t_final == 0.05
        assert out.diagnostics["warnings"] == ["non-finite values at t = 0.05"]

    def test_step_size_underflow(self):
        out = self._run(StepControl(t_end=2e17), 3.0, 0.01, t0=1e17)
        assert out.status is RunStatus.BLEW_UP
        assert out.t_final == 1e17
        assert out.diagnostics["warnings"] == [
            "step size underflow at t = 1e+17; treating as blow-up",
            "resolution rule violated: diffusion length exceeds L/4 beyond t = 12.5"]

    @pytest.mark.parametrize("dt_max", [math.inf, 1e20])
    def test_unbounded_dt_max_completes(self, dt_max):
        # the adaptive step, about safety/sup|u|^2, is far below the clock's
        # resolution at dt_max but not at t_end: the run steps to t_end
        out = self._run(StepControl(t_end=1.0, dt_max=dt_max), 3.0, 1.0)
        assert out.status is RunStatus.COMPLETED
        assert out.t_final == 1.0
        assert out.diagnostics["steps"] > 1
        assert out.diagnostics["warnings"] == []

    def test_step_size_denominator_overflow(self):
        # sup|u| is about 8, far below the threshold, but 8^399 overflows a float:
        # the blow-up time, about 8^-399/399, is below the smallest double
        out = self._run(StepControl(t_end=1.0), 400.0, 20.0)
        assert out.status is RunStatus.BLEW_UP
        assert out.t_final == 0.0
        assert out.diagnostics["steps"] == 0
        assert out.diagnostics["warnings"] == [
            "step size underflow at t = 0.0; treating as blow-up"]


class TestInitialData:
    def test_non_finite_initial_state_rejected(self, grid):
        for bad in (np.nan, np.inf):
            for linear_only in (False, True):
                st, u0, u1 = initial_state(grid, eps=0.01)
                st.uhat[3] = bad
                with pytest.raises(ValueError, match="non-finite initial data"):
                    run(P, st, StepControl(t_end=1.0), p=3.0, eps=0.01, u0=u0, u1=u1,
                        linear_only=linear_only)

    @pytest.mark.parametrize("eps, threshold", [(1e7, 1e6), (1e300, 1e6), (1e4, 1e3)])
    def test_initial_state_at_threshold_rejected(self, grid, eps, threshold):
        st, u0, u1 = initial_state(grid, eps=eps)
        ctrl = StepControl(t_end=1.0, blowup_threshold=threshold, track_band=True)
        with pytest.raises(ValueError, match="at or over the blow-up threshold"):
            run(P, st, ctrl, p=2.0, eps=eps, u0=u0, u1=u1)
