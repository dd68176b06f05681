"""Dyadic projectors, norms, commutators, and the resonance function."""

import numpy as np
import pytest

from kdvgauge.dyadic import (
    ProjectorBank,
    bump_eta,
    bump_eta_prime,
    commutator,
    comcom_residual,
    double_commutator,
    project,
    resonance_omega3,
    weighted_b_seminorm,
    zygmund_norm,
)
from kdvgauge.experiments import fit_loglog, random_smooth_field
from kdvgauge.spectral import SpectralState, derivative, l2_norm, make_grid


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
            start=np.zeros(128, dtype=complex),
        )
        assert np.abs(total - f.coefficients).max() < 1e-12

    def test_band_symbol_value(self):
        # P_4 on e^{i 5x}: coefficient is phi(5/4) = eta(5/4) - eta(5/2)
        g = make_grid(np.pi, 64)
        bank = ProjectorBank(g)
        f = SpectralState.from_physical(g, np.exp(1j * 5 * g.x))
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
            for kind in ("p_n", "p_leq", "p_ll", "p_geq", "p_tilde"):
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


class TestZygmund:
    def test_zero_field(self):
        g = make_grid(np.pi, 64)
        assert zygmund_norm(SpectralState.zero(g), 1.5) == 0.0

    def test_single_dyadic_mode(self):
        # e^{i 8x}: only the N=8 band is active with symbol 1
        g = make_grid(np.pi, 64)
        f = SpectralState.from_physical(g, np.exp(1j * 8 * g.x))
        assert zygmund_norm(f, 1.0) == pytest.approx(8.0, rel=1e-12)

    def test_constant_field(self):
        g = make_grid(np.pi, 64)
        f = SpectralState.from_physical(g, np.ones(64))
        assert zygmund_norm(f, 0.0) == pytest.approx(1.0, rel=1e-12)


class _FrozenTrajectory:
    def __init__(self, times, states):
        self.times = np.asarray(times)
        self.states = states


class TestWeightedSeminorm:
    def test_zero_weight(self):
        g = make_grid(np.pi, 64)
        st = SpectralState.from_physical(g, np.sin(g.x))
        traj = _FrozenTrajectory([0.0, 0.5, 1.0], [st, st, st])
        assert weighted_b_seminorm(traj, np.zeros(64), 0.0) == 0.0

    def test_stationary_single_mode(self):
        # u = sin(x), b = 1, theta = 0, T = 1: ||cos||^2 * T = pi
        g = make_grid(np.pi, 64)
        st = SpectralState.from_physical(g, np.sin(g.x))
        times = np.linspace(0, 1, 5)
        traj = _FrozenTrajectory(times, [st] * 5)
        val = weighted_b_seminorm(traj, np.ones(64), 0.0)
        assert val**2 == pytest.approx(np.pi, rel=1e-12)

    def test_single_mode_closed_form(self):
        # oracle: for one mode at k the only active band has symbol phi_N(k);
        # theta = -1 weights it by (1+N)^{-2}
        g = make_grid(np.pi, 64)
        kmode = 2
        st = SpectralState.from_physical(g, np.sin(kmode * g.x))
        times = np.linspace(0, 1, 3)
        traj = _FrozenTrajectory(times, [st] * 3)
        got = weighted_b_seminorm(traj, np.ones(64), -1.0)
        ux_sq = np.pi * kmode**2  # ||d/dx sin(kx)||^2 on [-pi, pi)
        bank = ProjectorBank(g)
        want = sum(
            (1.0 + N) ** (-2.0) * (bank.p_n(N).symbol[kmode]) ** 2 * ux_sq
            for N in bank.dyadic_ns
        )
        assert got**2 == pytest.approx(want, rel=1e-10)

    def test_negative_weight_rejected(self):
        g = make_grid(np.pi, 64)
        st = SpectralState.from_physical(g, np.sin(g.x))
        traj = _FrozenTrajectory([0.0, 1.0], [st, st])
        with pytest.raises(ValueError, match="negative weight"):
            weighted_b_seminorm(traj, np.full(64, -0.5), 0.0)


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
        g_out = SpectralState(
            self.grid, g.coefficients * (tilde.symbol == 0.0), True
        )
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


class TestHighLowComplement:
    def test_geq_complements_leq_half(self):
        g = make_grid(np.pi, 256)
        bank = ProjectorBank(g)
        for N in (4, 16, 64):
            total = bank.p_geq(N).symbol + bank.p_leq(N // 2).symbol
            assert np.abs(total - 1.0).max() < 1e-12
