"""Grid, transforms, differentiation, norms, interpolation, dealiasing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvgauge.spectral import (
    GridSizeError,
    Interpolant,
    SpectralState,
    derivative,
    edge_mass_fraction,
    inner_product,
    interpolate,
    l2_norm,
    make_grid,
    mass,
    sobolev_norm,
)


class TestMakeGrid:
    def test_basic_sizing(self):
        g = make_grid(32 * np.pi, 1024)
        assert g.dx == pytest.approx(64 * np.pi / 1024)
        assert g.x[0] == pytest.approx(-32 * np.pi)
        assert g.dx * g.num_points == pytest.approx(2 * g.half_width)

    def test_smallest_legal_grid(self):
        g = make_grid(np.pi, 16)
        # the half band: integer wavenumbers 0..8, Nyquist last
        assert g.wavenumbers == pytest.approx(list(range(9)))
        assert g.multiplicity.tolist() == [1.0] + [2.0] * 7 + [1.0]

    @pytest.mark.parametrize("n", [1000, 15, 0, -64])
    def test_rejects_bad_num_points(self, n):
        with pytest.raises(GridSizeError):
            make_grid(32 * np.pi, n)

    def test_rejects_bad_half_width(self):
        with pytest.raises(GridSizeError):
            make_grid(-1.0, 64)

    def test_half_band_ends_at_nyquist(self):
        g = make_grid(2.0, 64)
        k = g.wavenumbers
        assert k.shape == (33,) and k[g.nyquist_index] == pytest.approx(g.k_max)
        assert np.allclose(np.diff(k), np.pi / g.half_width)

    def test_equal_sizing_compares_and_hashes_equal(self):
        # the derived arrays are left out, so comparing grids never compares arrays
        a, b = make_grid(1, 16), make_grid(1, 16)
        assert a == b and hash(a) == hash(b)
        assert a != make_grid(1, 32) and a != make_grid(2, 16)

    def test_spec_with_a_rebuilt_grid_is_equal(self):
        from dataclasses import replace

        from kdvgauge.coefficients import CoefficientSet
        from kdvgauge.experiments import ContinuitySpec

        spec = ContinuitySpec(cset=CoefficientSet.constant_kdv(-6.0), grid=make_grid(np.pi, 64))
        assert replace(spec, grid=make_grid(np.pi, 64)) == spec
        assert replace(spec, grid=make_grid(np.pi, 128)) != spec

    def test_nodes_contain_origin(self):
        g = make_grid(7.3, 128)
        assert 0.0 in g.x


class TestDerivative:
    def test_single_mode(self):
        g = make_grid(np.pi, 64)
        st = SpectralState.from_physical(g, np.sin(g.x))
        d = derivative(st, 1)
        assert np.abs(d.physical() - np.cos(g.x)).max() < 1e-12

    def test_eigenfunction_third_order(self):
        g = make_grid(np.pi, 64)
        kmode = 5.0
        st = SpectralState.from_physical(g, np.cos(kmode * g.x))
        d3 = derivative(st, 3)
        expected = kmode**3 * np.sin(kmode * g.x)
        assert np.abs(d3.physical() - expected).max() < 1e-10

    def test_constant_field(self):
        g = make_grid(np.pi, 32)
        st = SpectralState.from_physical(g, np.full(32, 4.2))
        for order in (1, 2, 3):
            assert np.abs(derivative(st, order).physical()).max() < 1e-13

    def test_composition_matches_second_order(self):
        g = make_grid(3.0, 128)
        rng = np.random.default_rng(0)
        st = SpectralState.from_physical(g, rng.standard_normal(128))
        st = SpectralState(g, np.where(g.dealias_mask, st.coefficients, 0.0))
        twice = derivative(derivative(st, 1), 1)
        once = derivative(st, 2)
        assert np.abs(twice.coefficients - once.coefficients).max() < 1e-12

    def test_real_field_stays_hermitian(self):
        # the derivative's half spectrum is the spectrum of its real samples
        g = make_grid(np.pi, 64)
        rng = np.random.default_rng(1)
        st = SpectralState.from_physical(g, rng.standard_normal(64))
        for order in (1, 3):
            d = derivative(st, order)
            again = SpectralState.from_physical(g, d.physical())
            assert np.abs(again.coefficients - d.coefficients).max() < 1e-12 * np.abs(
                d.coefficients
            ).max()


class TestSobolevNorm:
    def test_sine_parseval(self):
        g = make_grid(np.pi, 64)
        st = SpectralState.from_physical(g, np.sin(g.x))
        assert sobolev_norm(st, 0.0) == pytest.approx(np.sqrt(np.pi), rel=1e-12)

    def test_sine_multiplier(self):
        g = make_grid(np.pi, 64)
        st = SpectralState.from_physical(g, np.sin(g.x))
        assert sobolev_norm(st, 1.0) == pytest.approx(
            np.sqrt(2.0) * np.sqrt(np.pi), rel=1e-12
        )

    def test_random_field_against_quadrature(self):
        # independent oracle: trapezoid quadrature of the samples
        g = make_grid(5.0, 256)
        rng = np.random.default_rng(2)
        vals = rng.standard_normal(256)
        st = SpectralState.from_physical(g, vals)
        quad = np.sqrt(np.sum(vals**2) * g.dx)
        assert sobolev_norm(st, 0.0) == pytest.approx(quad, rel=1e-10)

    def test_mass_is_zero_mode(self):
        g = make_grid(2.0, 64)
        st = SpectralState.from_physical(g, 3.0 + np.sin(np.pi * g.x / 2))
        assert mass(st) == pytest.approx(3.0 * 4.0, rel=1e-12)


class TestInterpolate:
    def test_band_limited_point(self):
        g = make_grid(np.pi, 64)
        st = SpectralState.from_physical(g, np.sin(g.x))
        assert abs(interpolate(st, 0.3) - np.sin(0.3)) < 1e-10

    def test_collocation(self):
        g = make_grid(4.0, 128)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(128)
        st = SpectralState.from_physical(g, vals)
        got = interpolate(st, g.x[17])
        assert got == pytest.approx(vals[17], abs=1e-12)

    def test_sech_squared_against_refined_grid(self):
        # oracle: re-sample the same function on a 4x finer grid
        g = make_grid(8 * np.pi, 256)
        fine = make_grid(8 * np.pi, 1024)
        st = SpectralState.from_physical(g, 1.0 / np.cosh(g.x) ** 2)
        ref = SpectralState.from_physical(fine, 1.0 / np.cosh(fine.x) ** 2)
        mid = g.x + g.dx / 2.0
        got = interpolate(st, mid)
        want = interpolate(ref, mid)
        assert np.abs(got - want).max() < 1e-8

    def test_periodic_folding(self):
        g = make_grid(np.pi, 64)
        st = SpectralState.from_physical(g, np.sin(g.x))
        assert interpolate(st, 0.3 + 2 * np.pi) == pytest.approx(
            np.sin(0.3), abs=1e-10
        )


def full_spectrum(state):
    """(wavenumbers, coefficients) of the full spectrum in numpy FFT order,
    the half spectrum mirrored by conjugation; the Nyquist mode sits at -K."""
    n = state.grid.num_points
    half = state.coefficients
    c = np.concatenate([half[:-1], np.conj(half[:0:-1])])
    return 2.0 * np.pi * np.fft.fftfreq(n, d=state.grid.dx), c


def dense_interpolate(state, query_points):
    """Reference: the dense m x n phase-matrix sum over the full spectrum,
    one exp per (point, mode)."""
    scalar = np.isscalar(query_points) or np.ndim(query_points) == 0
    y = state.grid.fold(np.atleast_1d(np.asarray(query_points, dtype=float)))
    k, c = full_spectrum(state)
    offset = y + state.grid.half_width
    out = np.empty(y.shape[0], dtype=complex)
    chunk = 512
    for start in range(0, y.shape[0], chunk):
        stop = min(start + chunk, y.shape[0])
        phases = np.exp(1j * np.outer(offset[start:stop], k))
        out[start:stop] = phases @ c
    out = out.real
    return out[0] if scalar else out


class TestInterpolateMatchesDense:
    @settings(max_examples=60, deadline=None)
    @given(
        log2n=st.integers(4, 10),
        half_width=st.floats(0.5, 100.0),
        nyquist=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_dense_sum(self, log2n, half_width, nyquist, seed):
        n = 2**log2n
        g = make_grid(half_width, n)
        rng = np.random.default_rng(seed)
        state = SpectralState.from_physical(g, rng.standard_normal(n))
        state.coefficients[n // 2] = nyquist
        L = half_width
        # inside and outside [-L, L) (folding), the nodes, and the fold edges
        query = np.concatenate([
            rng.uniform(-3.0 * L, 3.0 * L, 97), g.x[::max(1, n // 16)],
            [-L, L, 3.0 * L, -5.0 * L + 1e-3],
        ])
        got = interpolate(state, query)
        want = dense_interpolate(state, query)
        assert np.isrealobj(got) and got.shape == query.shape
        # |u| <= sum |c| over the full spectrum: the scale of the sum and of
        # its round-off
        scale = np.abs(full_spectrum(state)[1]).sum()
        assert np.abs(got - want).max() <= 1e-13 * scale
        one = interpolate(state, float(query[0]))
        assert np.ndim(one) == 0
        assert abs(one - dense_interpolate(state, float(query[0]))) <= 1e-13 * scale


class TestInterpolant:
    def test_shared_tables_match_each_state(self):
        g = make_grid(6.0, 256)
        rng = np.random.default_rng(5)
        query = rng.uniform(-9.0, 9.0, 200)
        states = [SpectralState.from_physical(g, rng.standard_normal(256)) for _ in range(3)]
        shared = Interpolant(g, query)
        for state in states:
            got = shared(state)
            assert np.array_equal(got, interpolate(state, query))
            scale = np.abs(full_spectrum(state)[1]).sum()
            assert np.abs(got - dense_interpolate(state, query)).max() <= 1e-13 * scale

    def test_other_grid_refused(self):
        shared = Interpolant(make_grid(6.0, 64), [0.1, 0.2])
        with pytest.raises(ValueError, match="grid"):
            shared(SpectralState.zero(make_grid(6.0, 128)))
        with pytest.raises(ValueError, match="grid"):
            shared(SpectralState.zero(make_grid(7.0, 64)))


class TestHalfSpectrumProperties:
    """On random real fields with Nyquist content, the half spectrum agrees
    with the samples it came from: transforms, norms, products, nodes."""

    @settings(max_examples=60, deadline=None)
    @given(
        log2n=st.integers(4, 9),
        half_width=st.floats(0.5, 50.0),
        nyquist=st.floats(-2.0, 2.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_half_spectrum_matches_samples(self, log2n, half_width, nyquist, seed):
        n = 2**log2n
        g = make_grid(half_width, n)
        rng = np.random.default_rng(seed)
        alternating = (-1.0) ** np.arange(n)  # the Nyquist mode at the nodes
        vals = rng.standard_normal(n) + nyquist * alternating
        other = rng.standard_normal(n) + 0.5 * alternating
        u = SpectralState.from_physical(g, vals)
        w = SpectralState.from_physical(g, other)
        assert u.coefficients.shape == (n // 2 + 1,)
        # the Nyquist entry is the samples' alternating mean, and real
        nyq = u.coefficients[-1]
        assert abs(nyq - np.mean(alternating * vals)) <= 1e-14 * np.abs(vals).max()
        assert nyq.imag == 0.0

        again = SpectralState.from_physical(g, u.physical())
        assert np.abs(again.coefficients - u.coefficients).max() <= 1e-14 * np.abs(vals).max()
        assert np.abs(u.physical() - vals).max() <= 1e-13 * np.abs(vals).max()

        quad = np.sqrt(np.sum(vals**2) * g.dx)
        assert l2_norm(u) == pytest.approx(quad, rel=1e-13)
        assert sobolev_norm(u, 0.0) == pytest.approx(quad, rel=1e-13)
        bound = quad * np.sqrt(np.sum(other**2) * g.dx)
        assert abs(inner_product(u, w) - np.sum(vals * other) * g.dx) <= 1e-13 * bound
        assert abs(mass(u) - np.sum(vals) * g.dx) <= 1e-13 * np.sum(np.abs(vals)) * g.dx

        at_nodes = Interpolant(g, g.x)(u)
        assert np.abs(at_nodes - vals).max() <= 1e-13 * np.abs(full_spectrum(u)[1]).sum()


class TestDealias:
    """The 2/3-rule band `Grid.dealias_mask` that the solver keeps."""

    def test_low_modes_unchanged(self):
        g = make_grid(np.pi, 64)
        st = SpectralState.from_physical(g, np.sin(3 * g.x) + np.cos(5 * g.x))
        out = np.where(g.dealias_mask, st.coefficients, 0.0)
        assert np.abs(out - st.coefficients).max() < 1e-15

    def test_nyquist_mode_removed(self):
        g = make_grid(np.pi, 16)
        vals = np.cos(8 * g.x)
        st = SpectralState.from_physical(g, vals)
        out = np.where(g.dealias_mask, st.coefficients, 0.0)
        assert np.abs(out).max() < 1e-15


class TestStateBookkeeping:
    def test_roundtrip_physical(self):
        g = make_grid(1.5, 64)
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(64)
        st = SpectralState.from_physical(g, vals)
        assert np.abs(st.physical() - vals).max() < 1e-12 * np.abs(vals).max()

    def test_complex_values_refused(self):
        g = make_grid(1.5, 64)
        with pytest.raises(ValueError, match="real"):
            SpectralState.from_physical(g, np.exp(1j * g.x))

    def test_lone_mode_norm_matches_its_samples(self):
        # c[1] = 1 stands for k = +-1, the real field 2 cos(x + pi), so both
        # the norm and the samples' quadrature are sqrt(4 pi)
        g = make_grid(np.pi, 16)
        c = np.zeros(9, dtype=complex)
        c[1] = 1.0
        st = SpectralState(g, c)
        assert np.abs(st.physical() + 2 * np.cos(g.x)).max() < 1e-14
        quad = np.sqrt(np.sum(st.physical() ** 2) * g.dx)
        assert l2_norm(st) == pytest.approx(quad, rel=1e-14)
        assert l2_norm(st) == pytest.approx(np.sqrt(4 * np.pi), rel=1e-14)

    def test_full_length_coefficients_refused(self):
        g = make_grid(np.pi, 16)
        with pytest.raises(ValueError, match=r"half spectrum \(9,\)"):
            SpectralState(g, np.fft.fft(np.cos(g.x)) / 16)

    @pytest.mark.parametrize("end", [0, -1])
    def test_complex_end_coefficient_refused(self, end):
        g = make_grid(np.pi, 16)
        c = np.zeros(9, dtype=complex)
        c[end] = 1.0 + 0.5j
        with pytest.raises(ValueError, match="k = 0 and Nyquist"):
            SpectralState(g, c)

    def test_edge_mass_localized_vs_wide(self):
        g = make_grid(10.0, 128)
        tight = SpectralState.from_physical(g, np.exp(-g.x**2))
        assert edge_mass_fraction(tight) < 1e-30
        flat = SpectralState.from_physical(g, np.ones(128))
        assert edge_mass_fraction(flat) == pytest.approx(0.1, abs=0.02)

    def test_l2_norm_alias(self):
        g = make_grid(np.pi, 32)
        st = SpectralState.from_physical(g, np.sin(g.x))
        assert l2_norm(st) == sobolev_norm(st, 0.0)
