"""Dyadic projectors, the dissipation sum, commutators, and the resonance function."""

import numpy as np
import pytest

from kdvgauge.dyadic import (
    ProjectorBank,
    _b_energy,
    _truncated_product,
    bump_eta,
    bump_eta_prime,
    commutator,
    comcom_residual,
    double_commutator,
    project,
    resonance_omega3,
)
from kdvgauge.experiments import fit_loglog, random_smooth_field
from kdvgauge.spectral import Interpolant, SpectralState, derivative, l2_norm, make_grid


class TestBump:
    def test_plateau_and_support(self):
        assert bump_eta(0.5) == 1.0
        assert bump_eta(-1.0) == 1.0
        assert bump_eta(3.0) == 0.0
        assert bump_eta(-2.5) == 0.0

    def test_transition_midpoint(self):
        # q(1/2) = m(1/2)/(m(1/2)+m(1/2)) = 1/2 exactly by symmetry
        assert bump_eta(1.5) == pytest.approx(0.5, abs=1e-15)
        assert bump_eta(-1.5) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_on_transition(self):
        xs = np.linspace(1.0, 2.0, 200)
        vals = bump_eta(xs)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_even(self):
        xs = np.linspace(0, 3, 100)
        assert np.allclose(bump_eta(xs), bump_eta(-xs))

    def test_c1_smooth_numerically(self):
        # centered differences across the transition stay bounded and agree
        # with the analytic derivative
        xs = np.linspace(0.5, 2.5, 801)
        h = 1e-6
        fd = (bump_eta(xs + h) - bump_eta(xs - h)) / (2 * h)
        exact = bump_eta_prime(xs)
        assert np.abs(fd).max() < 3.0
        assert np.abs(fd - exact).max() < 1e-5


class TestProjectors:
    def test_partition_of_unity(self):
        g = make_grid(np.pi, 256)
        bank = ProjectorBank(g)
        total = sum(bank.p_n(N).symbol for N in bank.dyadic_ns)
        assert np.abs(total - 1.0).max() < 1e-12

    def test_partition_reassembles_random_field(self):
        g = make_grid(2.0, 128)
        bank = ProjectorBank(g)
        rng = np.random.default_rng(0)
        f = SpectralState.from_physical(g, rng.standard_normal(128))
        total = sum(
            (project(f, bank.p_n(N)).coefficients for N in bank.dyadic_ns),
            start=np.zeros(65, dtype=complex),
        )
        assert np.abs(total - f.coefficients).max() < 1e-12

    def test_band_symbol_value(self):
        # P_4 on cos(5x): the +5 coefficient is scaled by phi(5/4) = eta(5/4) - eta(5/2)
        g = make_grid(np.pi, 64)
        bank = ProjectorBank(g)
        f = SpectralState.from_physical(g, np.cos(5 * g.x))
        p = project(f, bank.p_n(4))
        idx = np.argmin(np.abs(g.wavenumbers - 5))
        want = (bump_eta(5 / 4) - bump_eta(5 / 2)) * f.coefficients[idx]
        assert p.coefficients[idx] == pytest.approx(want, rel=1e-14)

    def test_disjoint_supports_annihilate(self):
        g = make_grid(np.pi, 256)
        bank = ProjectorBank(g)
        rng = np.random.default_rng(1)
        f = SpectralState.from_physical(g, rng.standard_normal(256))
        both = project(project(f, bank.p_n(4)), bank.p_n(32))
        assert l2_norm(both) < 1e-14

    def test_symbols_in_unit_interval(self):
        g = make_grid(np.pi, 128)
        bank = ProjectorBank(g)
        for N in bank.dyadic_ns:
            for kind in ("p_n", "p_leq", "p_ll", "p_tilde"):
                sym = getattr(bank, kind)(N).symbol
                assert sym.min() >= -1e-15
                assert sym.max() <= 1.0 + 1e-12

    def test_grid_mismatch_rejected(self):
        g1 = make_grid(np.pi, 64)
        g2 = make_grid(np.pi, 128)
        bank = ProjectorBank(g1)
        f = SpectralState.from_physical(g2, np.sin(g2.x))
        with pytest.raises(ValueError, match="different grid"):
            project(f, bank.p_n(2))

    def test_tilde_almost_orthogonality(self):
        # five overlapping bands per mode: the tilde-square sum is pinched
        # between 1 and 7 times the squared norm
        g = make_grid(np.pi, 256)
        bank = ProjectorBank(g)
        rng = np.random.default_rng(2)
        for _ in range(5):
            f = random_smooth_field(g, rng, decay=0.8)
            total = sum(
                l2_norm(project(f, bank.p_tilde(N))) ** 2 for N in bank.dyadic_ns
            )
            ratio = total / l2_norm(f) ** 2
            assert 1.0 <= ratio <= 7.0


class TestWeightedSeminorm:
    """Closed forms of the dyadic dissipation sum sum_N (1+N)^(2s) int b |P_N u_x|^2."""

    def test_zero_weight(self):
        g = make_grid(np.pi, 64)
        st = SpectralState.from_physical(g, np.sin(g.x))
        assert _b_energy(st.coefficients, np.zeros(64), 0.0, ProjectorBank(g)) == 0.0

    def test_stationary_single_mode(self):
        # u = sin(x), b = 1, s = 0: only P_1 acts on k = 1, with symbol 1,
        # so the sum is ||cos||^2 = pi
        g = make_grid(np.pi, 64)
        st = SpectralState.from_physical(g, np.sin(g.x))
        val = _b_energy(st.coefficients, np.ones(64), 0.0, ProjectorBank(g))
        assert val == pytest.approx(np.pi, rel=1e-12)

    def test_single_mode_closed_form(self):
        # oracle: for one mode at k the only active band has symbol phi_N(k);
        # s = -1 weights it by (1+N)^{-2}
        g = make_grid(np.pi, 64)
        kmode = 2
        st = SpectralState.from_physical(g, np.sin(kmode * g.x))
        bank = ProjectorBank(g)
        got = _b_energy(st.coefficients, np.ones(64), -1.0, bank)
        ux_sq = np.pi * kmode**2  # ||d/dx sin(kx)||^2 on [-pi, pi)
        want = sum(
            (1.0 + N) ** (-2.0) * (bank.p_n(N).symbol[kmode]) ** 2 * ux_sq
            for N in bank.dyadic_ns
        )
        assert got == pytest.approx(want, rel=1e-10)

    def test_weight_past_the_float_range_is_inf(self):
        # (1 + 32)^(2 s) passes the float range at s = 110 while (1 + 1)^(2 s)
        # does not; the Python-float power used to raise OverflowError, which
        # ended a bona_smith run at [solver] s = 52.  The empty band N = 64
        # then adds inf * 0, so the sum is nan.
        g = make_grid(np.pi, 64)
        bank = ProjectorBank(g)
        rng = np.random.default_rng(0)
        fields = np.stack([
            SpectralState.from_physical(g, rng.standard_normal(64)).coefficients
            for _ in range(2)
        ])
        assert np.all(np.isnan(_b_energy(fields, np.ones(64), 110.0, bank)))
        assert np.all(np.isfinite(_b_energy(fields, np.ones(64), 60.0, bank)))


class TestTruncatedProduct:
    def test_matches_product_of_interpolants_with_nyquist_content(self):
        # oracle: both fields evaluated by their interpolants (Nyquist term
        # c_N cos(K o)) at the nodes of the doubled grid, multiplied there,
        # and cut back to the resolved band, real at Nyquist
        g, fine = make_grid(2.0, 32), make_grid(2.0, 64)
        rng = np.random.default_rng(4)
        f = SpectralState.from_physical(g, rng.standard_normal(32))
        h = SpectralState.from_physical(g, rng.standard_normal(32))
        assert abs(f.coefficients[-1]) > 0.1 and abs(h.coefficients[-1]) > 0.1
        on_fine = Interpolant(g, fine.x)
        want = SpectralState.from_physical(fine, on_fine(f) * on_fine(h)).coefficients[:17]
        want[-1] = want[-1].real
        got = _truncated_product(f, h).coefficients
        assert np.abs(got - want).max() < 1e-14 * np.abs(want).max()


class TestCommutators:
    def setup_method(self):
        self.grid = make_grid(np.pi, 256)
        self.bank = ProjectorBank(self.grid)
        self.rng = np.random.default_rng(7)

    def test_constant_f_commutes(self):
        f = SpectralState.from_physical(self.grid, np.full(256, 2.0))
        g = random_smooth_field(self.grid, self.rng, decay=1.0)
        assert l2_norm(commutator(f, g, 16, self.bank)) < 1e-14
        assert l2_norm(double_commutator(f, g, 16, self.bank)) < 1e-14

    def test_annihilates_outside_tilde_band(self):
        # the bracket only sees the tilde-band part of g
        f = random_smooth_field(self.grid, self.rng, decay=1.5)
        g = random_smooth_field(self.grid, self.rng, decay=1.0)
        N = 32
        tilde = self.bank.p_tilde(N)
        g_out = SpectralState(self.grid, g.coefficients * (tilde.symbol == 0.0))
        assert l2_norm(commutator(f, g_out, N, self.bank)) < 1e-13

    def test_single_bracket_bound(self):
        N = 16
        worst = 0.0
        for _ in range(10):
            f = random_smooth_field(self.grid, self.rng, decay=1.5)
            g = random_smooth_field(self.grid, self.rng, decay=1.0)
            com = commutator(f, g, N, self.bank)
            f_low = project(f, self.bank.p_ll(N))
            denom = np.abs(derivative(f_low, 1).physical()).max() * l2_norm(
                project(g, self.bank.p_tilde(N))
            )
            worst = max(worst, l2_norm(com) * N / denom)
        assert worst < 10.0

    def test_double_bracket_scaling(self):
        # fixed low-frequency f: magnitude should fall like N^{-2}
        f = SpectralState.from_physical(self.grid, np.sin(self.grid.x))
        fxx = np.abs(derivative(f, 2).physical()).max()
        ns, vals = [], []
        for N in (8, 16, 32, 64):
            acc = []
            for _ in range(6):
                g = random_smooth_field(self.grid, self.rng, decay=1.0)
                d = double_commutator(f, g, N, self.bank)
                acc.append(
                    l2_norm(d) / (fxx * l2_norm(project(g, self.bank.p_tilde(N))))
                )
            ns.append(N)
            vals.append(np.median(acc))
        slope, _, _ = fit_loglog(ns, vals)
        assert slope == pytest.approx(-2.0, abs=0.3)

    def test_double_bracket_matches_expansion_oracle(self):
        # oracle: [P,[P,F]] = P(P(Fg)) - 2 P(F P g) + F P^2 g with the same
        # truncated-product operator
        from kdvgauge.dyadic import _truncated_product

        f = random_smooth_field(self.grid, self.rng, decay=1.5)
        g = random_smooth_field(self.grid, self.rng, decay=1.0)
        N = 16
        pn = self.bank.p_n(N)
        F = project(f, self.bank.p_ll(N))
        direct = double_commutator(f, g, N, self.bank)
        t1 = project(project(_truncated_product(F, g), pn), pn)
        t2 = project(_truncated_product(F, project(g, pn)), pn)
        t3 = _truncated_product(F, project(project(g, pn), pn))
        expanded = t1 - (2.0 * t2) + t3
        assert l2_norm(direct - expanded) < 1e-13 * max(1.0, l2_norm(direct))

    def test_comcom_identity_random(self):
        for _ in range(20):
            f = random_smooth_field(self.grid, self.rng, decay=1.2)
            g = random_smooth_field(self.grid, self.rng, decay=1.0)
            N = int(2 ** self.rng.integers(3, 7))
            assert comcom_residual(f, g, N, self.bank) < 1e-10

    def test_comcom_degenerate_band_mode(self):
        f = random_smooth_field(self.grid, self.rng, decay=1.2)
        g = SpectralState.from_physical(self.grid, np.sin(16 * self.grid.x))
        assert comcom_residual(f, g, 16, self.bank) < 1e-10

    def test_comcom_constant_f_both_sides_zero(self):
        f = SpectralState.from_physical(self.grid, np.full(256, 3.0))
        g = random_smooth_field(self.grid, self.rng, decay=1.0)
        assert comcom_residual(f, g, 16, self.bank) < 1e-12


class TestResonance:
    def test_integer_triple(self):
        assert resonance_omega3(1, 2, 3) == 180

    def test_cancelling_pair(self):
        assert resonance_omega3(2.5, -2.5, 7.1) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_point(self):
        assert resonance_omega3(1, 1, 1) == 24

    def test_factorization_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            x1, x2, x3 = rng.uniform(-10, 10, size=3)
            om = resonance_omega3(x1, x2, x3)
            fac = 3.0 * (x1 + x2) * (x2 + x3) * (x1 + x3)
            assert abs(om - fac) <= 1e-12 * max(1.0, abs(om))
