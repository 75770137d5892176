import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from mixwave.params import OperatorParams, symbol
from mixwave.torus import (
    SNAPSHOT_MAGIC,
    BlowUpDetected,
    FieldState,
    Grid,
    Scratch,
    gaussian_field,
    mass,
    nonlinearity,
    norms,
    read_snapshot,
    spectral_norm,
    to_physical,
    to_spectral,
    write_slice_csv,
    write_snapshot,
)

P = OperatorParams(1.0, 1.0, 0.5, 1)


@pytest.fixture
def grid():
    return Grid(1, 256, 20.0)


def _flip_bits(blob: bytes, bits) -> bytes:
    out = bytearray(blob)
    for b in bits:
        out[b // 8] ^= 1 << (b % 8)
    return bytes(out)


class TestGrid:
    @pytest.mark.parametrize("bad", [
        dict(n=3, N=128, L=10.0),
        dict(n=1, N=100, L=10.0),   # not a power of two
        dict(n=1, N=32, L=10.0),    # too small
        dict(n=1, N=128, L=0.0),
        dict(n=1, N=128, L=math.inf),
        dict(n=1, N=128, L=math.nan),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            Grid(**bad)

    def test_frequencies(self, grid):
        r = grid.radii
        assert r[0] == 0.0
        assert r[1] == pytest.approx(math.pi / grid.L)
        assert r[-1] == pytest.approx(grid.N / 2 * math.pi / grid.L)


class TestTransforms:
    def test_single_mode_roundtrip(self, grid):
        u = np.cos(math.pi * grid.x / grid.L)
        c = to_spectral(grid, u)
        nz = np.nonzero(np.abs(c) > 1e-13)[0]
        assert list(nz) == [1]
        assert np.max(np.abs(to_physical(grid, c) - u)) < 1e-14

    def test_plancherel_random_field(self, grid):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(grid.N)
        c = to_spectral(grid, u)
        phys = math.sqrt(np.sum(u**2) * grid.dx)
        assert spectral_norm(grid, c, 0.0) == pytest.approx(phys, rel=1e-12)

    def test_constant_field_zero_mode_only(self, grid):
        c = to_spectral(grid, np.full(grid.N, 3.25))
        assert c[0] == pytest.approx(3.25)
        assert np.max(np.abs(c[1:])) < 1e-13

    def test_2d_roundtrip_and_plancherel(self):
        g = Grid(2, 64, 10.0)
        rng = np.random.default_rng(6)
        u = rng.standard_normal((64, 64))
        c = to_spectral(g, u)
        assert np.max(np.abs(to_physical(g, c) - u)) < 1e-12
        phys = math.sqrt(np.sum(u**2) * g.cell_volume)
        assert spectral_norm(g, c, 0.0) == pytest.approx(phys, rel=1e-12)

    @pytest.mark.parametrize("n, N", [(1, 64), (1, 2048), (2, 64)])
    def test_forward_normalization_is_bit_exact(self, n, N):
        # norm="forward" must equal scaling the unnormalized transforms by
        # N^n (a power of two, so exact) bit for bit
        g = Grid(n, N, 7.0)
        rng = np.random.default_rng(N + n)
        u = rng.standard_normal((N,) * n) * 10.0 ** rng.uniform(-8, 8, (N,) * n)
        c_old = np.fft.rfftn(u) / N**n
        assert to_spectral(g, u).tobytes() == c_old.tobytes()
        u_old = np.fft.irfftn(c_old * N**n, s=(N,) * n, axes=tuple(range(n)))
        assert to_physical(g, c_old).tobytes() == u_old.tobytes()

    @pytest.mark.parametrize("n, N", [(1, 64), (1, 2048), (1, 16384), (1, 32768),
                                      (2, 64)])
    def test_out_arrays_give_the_same_bits(self, n, N):
        g = Grid(n, N, 7.0)
        rng = np.random.default_rng(N - n)
        u = rng.standard_normal((N,) * n) * 10.0 ** rng.uniform(-8, 8, (N,) * n)
        c = to_spectral(g, u)
        c_out = np.full(g.spectral_shape, np.nan, complex)
        assert to_spectral(g, u, c_out) is c_out
        assert c_out.tobytes() == c.tobytes()
        u_out = np.full((N,) * n, np.nan)
        assert to_physical(g, c, u_out) is u_out
        assert u_out.tobytes() == to_physical(g, c).tobytes()


class TestMultipliers:
    def test_single_mode_eigenvalue(self, grid):
        r1 = math.pi / grid.L
        u = np.cos(math.pi * grid.x / grid.L)
        lu = to_physical(grid, to_spectral(grid, u) * symbol(P, grid.radii))
        eig = P.a * r1**2 + P.b * r1 ** (2 * P.sigma)
        assert np.max(np.abs(lu - eig * u)) < 1e-12

    def test_classical_laplacian_limit(self, grid):
        # a' = a + b with vanishing b reproduces -a' Lap on a sigma > 1 instance
        q = OperatorParams(2.0, 1e-30, 1.5, 1)
        u = np.exp(-grid.x**2)
        lu = to_physical(grid, to_spectral(grid, u) * symbol(q, grid.radii))
        exact = -2.0 * (4.0 * grid.x**2 - 2.0) * np.exp(-grid.x**2)
        assert np.max(np.abs(lu - exact)) < 1e-10

    def test_operator_image_has_zero_mass(self, grid):
        u = gaussian_field(grid, 1.0, 2.0)
        chat = to_spectral(grid, u) * symbol(P, grid.radii)
        st = FieldState(chat, 0 * chat, 0.0, grid)
        assert mass(st) == 0.0


class TestNonlinearity:
    def test_zero_field(self, grid):
        fhat, linf, nm = nonlinearity(grid, to_spectral(grid, np.zeros(grid.N)), 1.5)
        assert np.all(fhat == 0) and linf == 0.0 and nm == 0.0

    def test_power_below_one_rejected(self, grid):
        with pytest.raises(ValueError, match="p must be >= 1"):
            nonlinearity(grid, to_spectral(grid, np.zeros(grid.N)), 0.5)

    def test_constant_field(self, grid):
        c = to_spectral(grid, np.full(grid.N, -2.0))
        fhat, linf, nm = nonlinearity(grid, c, 1.5)
        assert fhat[0] == pytest.approx(2.0**1.5)
        assert np.max(np.abs(fhat[1:])) < 1e-12
        assert linf == 2.0
        assert nm == pytest.approx(grid.volume * 2.0**1.5)

    def test_quadratic_single_mode_doubles_frequency(self, grid):
        u = np.cos(2 * math.pi * grid.x / grid.L)   # mode 2
        fhat, _, _ = nonlinearity(grid, to_spectral(grid, u), 2.0)
        nz = set(np.nonzero(np.abs(fhat) > 1e-13)[0])
        assert nz == {0, 4}
        assert fhat[0] == pytest.approx(0.5)
        assert abs(fhat[4]) == pytest.approx(0.25)

    def test_quadratic_products_alias_free(self, grid):
        # two modes inside the retained band: the dealiased product matches
        # the analytic convolution exactly
        k1, k2 = 11, 30
        assert k2 + k1 <= grid.N // 3
        u = (np.cos(k1 * math.pi * grid.x / grid.L)
             + np.cos(k2 * math.pi * grid.x / grid.L))
        fhat, _, _ = nonlinearity(grid, to_spectral(grid, u), 2.0)
        expect = {0: 1.0, 2 * k1: 0.25, 2 * k2: 0.25,
                  k2 - k1: 0.5, k2 + k1: 0.5}
        for k in range(grid.N // 2 + 1):
            assert abs(fhat[k]) == pytest.approx(expect.get(k, 0.0), abs=1e-13)

    def test_dealias_zeroes_top_third(self, grid):
        rng = np.random.default_rng(8)
        c = to_spectral(grid, rng.standard_normal(grid.N))
        out, _, _ = nonlinearity(grid, c, 2.0)
        full = to_spectral(grid, to_physical(grid, c) ** 2)
        keep = grid.N // 3 + 1
        assert np.all(out[keep:] == 0)
        # the kept band is the undealiased transform, up to the exactly real
        # zero mode that enforce_symmetry writes
        assert np.all(out[1:keep] == full[1:keep])
        assert out[0] == full[0].real

    def test_nonfinite_raises_blowup(self, grid):
        u = np.zeros(grid.N)
        u[3] = np.inf
        with np.errstate(invalid="ignore"):
            chat = to_spectral(grid, u)
        with pytest.raises(BlowUpDetected):
            nonlinearity(grid, chat, 2.0, t=1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_each_nonfinite_kind_raises_blowup(self, grid, bad):
        # the sup norm doubles as the finiteness test: a field of only NaN,
        # only +inf or only -inf must each be caught
        chat = np.zeros(grid.spectral_shape, complex)
        chat[0] = bad
        with np.errstate(invalid="ignore"):
            u = to_physical(grid, chat)
        assert np.all(np.isnan(u)) if np.isnan(bad) else np.all(u == bad)
        with pytest.raises(BlowUpDetected) as info:
            nonlinearity(grid, chat, 1.5, t=2.5)
        assert info.value.t == 2.5

    def test_nonlinearity_matches_unfused_formula_bitwise(self, grid):
        rng = np.random.default_rng(11)
        c = to_spectral(grid, gaussian_field(grid) + 0.1 * rng.standard_normal(grid.N))
        for p in (1.5, 2.0, 3.0):
            u = to_physical(grid, c)
            want = to_spectral(grid, np.abs(u) ** p) * grid.dealias_mask
            want[0] = want[0].real
            want[-1] = want[-1].real
            got, linf, n_mass = nonlinearity(grid, c, p)
            assert got.tobytes() == want.tobytes()
            assert linf == float(np.max(np.abs(u)))
            assert n_mass == grid.volume * float(to_spectral(grid, np.abs(u) ** p)[0].real)

    @pytest.mark.parametrize("g", [Grid(1, 256, 20.0), Grid(2, 64, 10.0)])
    def test_out_and_scratch_give_the_same_bits(self, g):
        rng = np.random.default_rng(12)
        c = to_spectral(g, gaussian_field(g) + 0.1 * rng.standard_normal((g.N,) * g.n))
        scratch, out = Scratch(g), np.empty(g.spectral_shape, complex)
        for p in (1.5, 2.0, 3.0):
            want = nonlinearity(g, c, p)
            got = nonlinearity(g, c, p, out=out, scratch=scratch)
            assert got[0] is out
            assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]

    @pytest.mark.parametrize("n", [1, 2])
    def test_dealias_factor_is_the_mask(self, n):
        g = Grid(n, 64, 10.0)
        assert g.dealias_factor.dtype == complex
        assert np.array_equal(g.dealias_factor, g.dealias_mask)
        assert not g.dealias_factor.imag.any()


class TestNormsAndMass:
    def test_gaussian_unit_mass(self, grid):
        st = FieldState.from_fields(grid, gaussian_field(grid, 1.0, 1.0),
                                    np.zeros(grid.N))
        assert mass(st) == pytest.approx(1.0, abs=1e-10)

    def test_hs_zero_equals_l2(self, grid):
        rng = np.random.default_rng(9)
        st = FieldState.from_fields(grid, rng.standard_normal(grid.N),
                                    np.zeros(grid.N))
        ns = norms(st, 0.0)
        assert ns.hs == pytest.approx(ns.l2, rel=1e-14)

    def test_negative_s_rejected(self, grid):
        st = FieldState.from_fields(grid, np.zeros(grid.N), np.zeros(grid.N))
        with pytest.raises(ValueError, match="s must be nonnegative"):
            norms(st, -0.1)

    def test_single_mode_hs_cross_checked_by_quadrature(self, grid):
        k = 13
        A = 0.7
        u = A * np.cos(k * math.pi * grid.x / grid.L)
        st = FieldState.from_fields(grid, u, np.zeros(grid.N))
        s = 0.6
        r_k = k * math.pi / grid.L
        direct_l2 = math.sqrt(np.sum(u**2) * grid.dx)      # physical quadrature
        ns = norms(st, s)
        assert ns.l2 == pytest.approx(direct_l2, rel=1e-12)
        assert ns.hs == pytest.approx(r_k**s * direct_l2, rel=1e-12)
        assert ns.linf == pytest.approx(A, rel=1e-12)

    def test_hs_monotone_in_s_for_high_frequency_field(self, grid):
        # field supported at radii >= 1: hs grows with s
        ks = [k for k in range(grid.N // 2) if k * math.pi / grid.L >= 1.0][:8]
        u = sum(np.cos(k * math.pi * grid.x / grid.L) for k in ks)
        st = FieldState.from_fields(grid, u, np.zeros(grid.N))
        smin = P.sigma_min
        vals = [norms(st, s).hs for s in (0.0, smin / 2, smin)]
        assert vals[0] < vals[1] < vals[2]


class TestSnapshots:
    def test_roundtrip(self, grid, tmp_path):
        u = gaussian_field(grid, 1.0, 1.0)
        path = tmp_path / "snap.bin"
        write_snapshot(path, grid, 4.5, u)
        g2, t2, u2 = read_snapshot(path)
        assert g2 == grid and t2 == 4.5
        assert np.array_equal(u2, u)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_truncated_payload_rejected(self, grid, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(path, grid, 1.0, gaussian_field(grid, 1.0, 1.0))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="payload"):
            read_snapshot(path)

    def test_truncated_header_rejected(self, grid, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(path, grid, 1.0, gaussian_field(grid, 1.0, 1.0))
        data = path.read_bytes()
        # cuts inside version/n/N, inside L and inside t
        for cut in (6, 4 + 12, 4 + 12 + 8 + 3):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="truncated snapshot header"):
                read_snapshot(path)

    @pytest.mark.parametrize("L, t, message", [
        (math.inf, 1.0, "box half-length"), (math.nan, 1.0, "box half-length"),
        (10.0, math.nan, "snapshot time"), (10.0, -math.inf, "snapshot time"),
    ])
    def test_non_finite_header_rejected(self, tmp_path, L, t, message):
        path = tmp_path / "snap.bin"
        path.write_bytes(SNAPSHOT_MAGIC + struct.pack("<IIIdd", 1, 1, 64, L, t)
                         + bytes(64 * 8))
        with pytest.raises(ValueError, match=message):
            read_snapshot(path)

    @staticmethod
    def _read_or_value_error(path, blob):
        """read_snapshot on blob: either ValueError, or a finite header."""
        path.write_bytes(blob)
        try:
            grid, t, u = read_snapshot(path)
        except ValueError:
            return
        assert math.isfinite(grid.L) and math.isfinite(t)
        assert u.shape == (grid.N,) * grid.n

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=hst.data())
    def test_malformed_bytes_raise_only_value_error(self, tmp_path, data):
        path = tmp_path / "snap.bin"
        write_snapshot(path, Grid(1, 64, 10.0), 2.5, np.linspace(-1.0, 1.0, 64))
        valid = path.read_bytes()
        blob = data.draw(hst.one_of(
            hst.binary(max_size=600),
            hst.binary(max_size=600).map(lambda b: valid[:8] + b),
            hst.integers(0, len(valid) - 1).map(lambda k: valid[:k]),
            hst.lists(hst.integers(0, 8 * len(valid) - 1), min_size=1, max_size=4).map(
                lambda bits: _flip_bits(valid, bits))))
        self._read_or_value_error(path, blob)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=hst.sampled_from([1, 2]), L=hst.floats(), t=hst.floats())
    def test_random_header_fields_raise_only_value_error(self, tmp_path, n, L, t):
        header = SNAPSHOT_MAGIC + struct.pack("<IIIdd", 1, n, 64, L, t)
        self._read_or_value_error(tmp_path / "snap.bin", header + bytes(64 * 8))

    def test_slice_csv(self, grid, tmp_path):
        path = tmp_path / "slice.csv"
        u = gaussian_field(grid, 1.0, 1.0)
        write_slice_csv(path, grid, 2.0, u)
        lines = path.read_text().splitlines()
        assert lines[1] == "x,u"
        assert len(lines) == grid.N + 2
        assert [[float(v) for v in line.split(",")] for line in lines[2:]] == [
            [xv, uv] for xv, uv in zip(grid.x.tolist(), u.tolist())]

    def test_slice_csv_2d_is_the_y0_row(self, tmp_path):
        g = Grid(2, 64, 10.0)
        u = np.arange(g.N * g.N, dtype=float).reshape(g.N, g.N) / 7.0
        path = tmp_path / "slice.csv"
        write_slice_csv(path, g, 0.5, u)
        lines = path.read_text().splitlines()
        row = u[:, g.N // 2]      # y = x[N/2] = 0
        assert lines == ["# t = 0.5", "x,u"] + [
            f"{xv!r},{uv!r}" for xv, uv in zip(g.x.tolist(), row.tolist())]
        assert [[float(v) for v in line.split(",")] for line in lines[2:]] == [
            [xv, uv] for xv, uv in zip(g.x.tolist(), row.tolist())]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


class TestGeometryMatchesPerDimensionFormulas:
    """The dimension-generic Grid geometry against the explicit 1-D and 2-D
    formulas it replaced, bit for bit."""

    @staticmethod
    def _oracle(g: Grid):
        full = np.fft.fftfreq(g.N, d=1.0 / g.N)
        half = np.arange(g.N // 2 + 1, dtype=float)
        keep = g.N // 3
        if g.n == 1:
            shape = (g.N // 2 + 1,)
            radii = half * (math.pi / g.L)
            weights = np.full(shape, 2.0)
            weights[0] = 1.0
            weights[-1] = 1.0
            mask = np.abs(half) <= keep
            phase = (-1.0) ** half
        else:
            shape = (g.N, g.N // 2 + 1)
            radii = np.hypot(full[:, None], half[None, :]) * (math.pi / g.L)
            weights = np.full(shape, 2.0)
            weights[:, 0] = 1.0
            weights[:, -1] = 1.0
            mask = (np.abs(full[:, None]) <= keep) & (np.abs(half[None, :]) <= keep)
            phase = (-1.0) ** full[:, None] * (-1.0) ** half[None, :]
        return shape, radii, weights, mask, phase

    @staticmethod
    def _radius_sq_oracle(g: Grid, scale: float):
        x = g.x / scale
        if g.n == 1:
            return x**2
        return x[:, None] ** 2 + x[None, :] ** 2

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("N", [64, 256])
    def test_spectral_geometry(self, n, N):
        g = Grid(n, N, 37.5)
        shape, radii, weights, mask, phase = self._oracle(g)
        assert g.spectral_shape == shape
        _same_bits(g.radii, radii)
        _same_bits(g.conjugate_weights, weights)
        _same_bits(g.dealias_mask, mask)
        _same_bits(g.origin_phase, phase)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("N", [64, 256])
    @pytest.mark.parametrize("scale", [1.0, 0.3, 3.0, 12.5])
    def test_radius_sq(self, n, N, scale):
        g = Grid(n, N, 37.5)
        _same_bits(g.radius_sq(scale), self._radius_sq_oracle(g, scale))

    @pytest.mark.parametrize("n", [1, 2])
    def test_gaussian_field(self, n):
        g = Grid(n, 64, 10.0)
        q = self._radius_sq_oracle(g, 1.0)
        want = 0.5 * (2.0 * math.pi * 1.3**2) ** (-n / 2.0) * np.exp(-q / (2.0 * 1.3**2))
        _same_bits(gaussian_field(g, 1.3, 0.5), want)
