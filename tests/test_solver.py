"""Time stepping, blow-up detection, weak residuals, monitors."""

import importlib.util
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from kdvgauge import solver as solver_module
from kdvgauge.coefficients import CoefficientSet
from kdvgauge.dyadic import ProjectorBank, project
from kdvgauge.gauge import GaugeSystem, TransformedCoefficients, forward_transform
from kdvgauge.solver import (
    EDGE_MASS_LIMIT,
    SolverConfig,
    SpaceTimeBump,
    _simpson,
    auto_dt,
    solve,
    weak_residual,
)
from kdvgauge.spectral import SpectralState, derivative, l2_norm, make_grid, mass
from kdvgauge.experiments import (
    exact_soliton_values,
    gaussian_state,
    soliton_state,
)


def one_step(state, problem, dt, dealias=True):
    """The state after one RK4 step from t = 0: a solve to t_final = dt."""
    cfg = SolverConfig(t_final=dt, dt=dt, dealias=dealias, warn_domain_edge=False)
    return solve(state, cfg, problem).final_state


def cosine_mode(g, kmode):
    """(cos(k o), the index of k) with o = x + half_width: 0.5 at k, which
    stands for +k and -k."""
    idx = int(np.argmin(np.abs(g.wavenumbers - kmode)))
    state = SpectralState.zero(g)
    state.coefficients[idx] = 0.5
    return state, idx


def full_spectrum(half):
    """The full spectrum in numpy FFT order, the half spectrum mirrored by
    conjugation; the Nyquist mode sits at -K."""
    return np.concatenate([half[:-1], np.conj(half[:0:-1])])


def full_wavenumbers(grid):
    """The full band in numpy FFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.num_points, d=grid.dx)


class TestStepTransformed:
    def test_pure_dispersion_exact(self):
        g = make_grid(np.pi, 64)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=0.0)
        kmode = 3.0
        v, idx = cosine_mode(g, kmode)
        dt = 1e-3
        out = one_step(v, tc, dt, dealias=False)
        want = 0.5 * np.exp(1j * kmode**3 * dt)
        assert abs(out.coefficients[idx] - want) < 1e-14
        others = np.abs(out.coefficients)
        others[idx] = 0.0
        assert others.max() < 1e-15

    def test_diffusive_decay_rate(self):
        # b = 1 only: each mode decays like exp(-k^2 dt) up to O(dt^5)
        g = make_grid(np.pi, 64)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=0.0)
        tc.b = np.ones(64)
        kmode = 2.0
        v, idx = cosine_mode(g, kmode)
        dt = 1e-3
        out = one_step(v, tc, dt, dealias=False)
        got = abs(out.coefficients[idx])
        assert abs(got - 0.5 * np.exp(-(kmode**2) * dt)) < 1e-12

    def test_soliton_accuracy(self):
        g = make_grid(8 * np.pi, 512)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=-6.0)
        u0 = soliton_state(g, 1.0, -6.0, center=-1.0)
        cfg = SolverConfig(t_final=0.5, dt=1e-4, s=1.0)
        traj = solve(u0, cfg, tc)
        exact = SpectralState.from_physical(
            g, exact_soliton_values(g.x, 0.5, 1.0, -6.0, -1.0)
        )
        assert l2_norm(traj.final_state - exact) < 1e-6


class TestStepOriginal:
    def test_zero_solution_stays_zero(self):
        g = make_grid(np.pi, 64)
        cs = CoefficientSet.from_strings(alpha="1", epsilon="3")
        u = SpectralState.zero(g)
        out = one_step(u, cs, 1e-3)
        assert np.abs(out.coefficients).max() == 0.0

    def test_linear_phase_advance(self):
        g = make_grid(np.pi, 64)
        cs = CoefficientSet.from_strings(alpha="1", epsilon="0")
        kmode = 2.0
        u, idx = cosine_mode(g, kmode)
        dt = 1e-3
        out = one_step(u, cs, dt, dealias=False)
        want = 0.5 * np.exp(1j * kmode**3 * dt)
        # plain RK4: phase defect O((k^3 dt)^5)
        assert abs(out.coefficients[idx] - want) < (kmode**3 * dt) ** 5

    def test_matches_transformed_on_soliton(self):
        g = make_grid(8 * np.pi, 256)
        cs = CoefficientSet.constant_kdv(-6.0)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=-6.0)
        u0 = soliton_state(g, 1.0, -6.0, center=-1.0)
        cfg_o = SolverConfig(t_final=0.05, dt=5e-5, s=1.0)
        cfg_t = SolverConfig(t_final=0.05, dt=5e-5, s=1.0)
        a = solve(u0, cfg_o, cs).final_state
        b = solve(u0, cfg_t, tc).final_state
        assert l2_norm(a - b) < 1e-6


class TestSolve:
    def test_conservation_constant_kdv(self):
        g = make_grid(8 * np.pi, 256)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=-6.0)
        u0 = soliton_state(g, 1.0, -6.0, center=-2.0)
        cfg = SolverConfig(t_final=1.0, dt=5e-4, s=1.0)
        traj = solve(u0, cfg, tc, monitor_times=np.linspace(0, 1, 11)[1:])
        l2s = np.array([l2_norm(st) for st in traj.states])
        ms = np.array([mass(st) for st in traj.states])
        assert np.abs(l2s - l2s[0]).max() / l2s[0] < 1e-7
        assert np.abs(ms - ms[0]).max() / abs(ms[0]) < 1e-7

    def test_blowup_matches_linear_growth_oracle(self):
        # beta = +0.5 everywhere (gauge skipped), single mode k0: the mode
        # grows like exp(0.5 k0^2 t), so the flagged time is predictable
        g = make_grid(8 * np.pi, 128)
        cs = CoefficientSet.from_strings(alpha="1", beta="0.5", epsilon="0",
                                         beta1="0.5", beta2="0")
        k0 = 4.0
        u0 = SpectralState.from_physical(g, 0.01 * np.cos(k0 * g.x))
        cfg = SolverConfig(t_final=3.0, dt=1e-3, s=1.0,
                           dealias=False, blowup_threshold=10.0,
                           warn_domain_edge=False)
        traj = solve(u0, cfg, cs)
        assert traj.blowup
        predicted = np.log(10.0 / 0.01) / (0.5 * k0**2)
        assert traj.blowup_time == pytest.approx(predicted, abs=0.02)
        # unmonitored: the cap is checked every CAP_CHECK_STRIDE steps, and the
        # state that crossed it is stored after the datum
        assert round(traj.blowup_time / 1e-3) % solver_module.CAP_CHECK_STRIDE == 0
        assert traj.times.tolist() == [0.0, traj.blowup_time] and traj.sup_norms[-1] > 10.0
        # determinism: identical config flags the identical time
        traj2 = solve(u0, cfg, cs)
        assert traj2.blowup_time == traj.blowup_time

    def test_unmonitored_solve_stores_datum_and_final_state(self):
        g = make_grid(8 * np.pi, 128)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=-6.0)
        u0 = soliton_state(g, 1.0, -6.0)
        traj = solve(u0, SolverConfig(t_final=0.05, dt=1e-3), tc)
        assert traj.times.tolist() == [0.0, pytest.approx(0.05, abs=1e-15)]
        assert len(traj.states) == len(traj.hs_norms) == len(traj.sup_norms) == 2
        assert not traj.blowup

    def test_zero_data_zero_norms(self):
        g = make_grid(np.pi, 64)
        tc = TransformedCoefficients.constant_kdv(g)
        cfg = SolverConfig(t_final=0.05, dt=1e-3, s=1.0)
        traj = solve(SpectralState.zero(g), cfg, tc)
        assert np.all(traj.hs_norms == 0.0)
        assert np.all(traj.sup_norms == 0.0)
        assert not traj.blowup

    def test_first_row_describes_the_stored_datum(self):
        # cos(25x) lies beyond the dealiased band (|k| <= 21.3 on 64 points),
        # so the stored datum is cos(2x) alone, and so is its sup-norm
        g = make_grid(np.pi, 64)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=0.0)
        u0 = SpectralState.from_physical(g, np.cos(2 * g.x) + np.cos(25 * g.x))
        cfg = SolverConfig(t_final=0.01, dt=1e-3, s=1.0,
                           warn_domain_edge=False)
        traj = solve(u0, cfg, tc)
        assert traj.sup_norms[0] == np.abs(traj.states[0].physical()).max()
        assert traj.sup_norms[0] == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_datum_dissipation_is_parseval(self):
        # constant b: int b |P_N u_x|^2 = b 2L sum_k |phi_N(k) k c_k|^2
        g = make_grid(np.pi, 64)
        b = 0.3
        tc = TransformedCoefficients.constant_kdv(g, epsilon=0.0)
        tc.b = np.full(64, b)
        coeffs = np.zeros(33, dtype=complex)
        coeffs[[1, 3, 5, 7]] = [0.5 + 0.2j, -0.3j, 0.25, 0.1 - 0.1j]
        u0 = SpectralState(g, coeffs)
        cfg = SolverConfig(t_final=0.01, dt=1e-3, s=1.0,
                           warn_domain_edge=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = solve(u0, cfg, tc)
        bank = ProjectorBank(g)
        k = full_wavenumbers(g)
        c = full_spectrum(traj.states[0].coefficients)
        want = -b * 2 * np.pi * sum(
            (1.0 + N) ** 2 * np.sum(np.abs(full_spectrum(bank.p_n(N).symbol) * k * c) ** 2)
            for N in bank.dyadic_ns
        )
        assert traj.dissipation[0] == pytest.approx(want, rel=1e-12)

    def test_temporal_convergence_sixteenfold(self):
        # halving dt shrinks the self-convergence error about 16x
        g = make_grid(8 * np.pi, 256)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=-6.0)
        u0 = soliton_state(g, 2.0, -6.0, center=-1.0)
        ref_cfg = SolverConfig(t_final=0.05, dt=1e-5, s=1.0)
        ref = solve(u0, ref_cfg, tc).final_state
        errs = []
        for dt in (4e-4, 2e-4):
            cfg = SolverConfig(t_final=0.05, dt=dt, s=1.0)
            errs.append(l2_norm(solve(u0, cfg, tc).final_state - ref))
        ratio = errs[0] / errs[1]
        assert ratio == pytest.approx(16.0, rel=0.25)

    def test_problem_type_selects_the_form(self):
        g = make_grid(np.pi, 64)
        u0 = gaussian_state(g, 1.0, 0.5)
        cfg = SolverConfig(t_final=1e-3, dt=1e-3, warn_domain_edge=False)
        system = GaugeSystem(CoefficientSet.constant_kdv(-6.0), g, image_grid=g)
        for problem, form in [
            (CoefficientSet.constant_kdv(-6.0), "original"),
            (TransformedCoefficients.constant_kdv(g), "transformed"),
            (system, "transformed"),
        ]:
            assert solve(u0, cfg, problem).equation_form == form
        with pytest.raises(TypeError, match="not dict"):
            solve(u0, cfg, {"alpha": 1.0})

    def test_auto_dt_respects_cfl(self):
        g = make_grid(8 * np.pi, 256)
        cs = CoefficientSet.from_strings(alpha="2.5", epsilon="0", alpha0=0.4)
        u0 = gaussian_state(g, 1.0, 1.0)
        cfg = SolverConfig(t_final=1.0, dt="auto", s=1.0)
        dt = auto_dt(cfg, g, cs, u0)
        kb = (2.0 / 3.0) * g.k_max
        assert dt <= 1.0 / (2.5 * kb**3) + 1e-15

    # form, the one term's coefficient, and its cap in (kb, sup|u0|); every
    # other coefficient is zero, or alpha = 1e-9 in the original form
    DT_CAPS = [
        ("original", "alpha", 2.5, lambda kb, sup0: 1.0 / (2.5 * kb**3)),
        ("original", "beta", 5.0, lambda kb, sup0: 1.0 / (5.0 * kb**2)),
        ("original", "gamma", -3.0, lambda kb, sup0: 1.0 / (3.0 * kb)),
        ("original", "delta", 7.0, lambda kb, sup0: 0.5 / 7.0),
        ("original", "epsilon", -6.0, lambda kb, sup0: 1.0 / (4.0 * 6.0 * sup0 * kb)),
        ("transformed", "b", 3.0, lambda kb, sup0: 1.0 / (3.0 * kb**2)),
        ("transformed", "c", -2.0, lambda kb, sup0: 1.0 / (2.0 * kb)),
        ("transformed", "d", -7.0, lambda kb, sup0: 0.5 / 7.0),
        ("transformed", "e", 6.0, lambda kb, sup0: 1.0 / (4.0 * 6.0 * sup0 * kb)),
        ("transformed", "f", 9.0, lambda kb, sup0: 0.5 / (9.0 * max(sup0, 1.0))),
    ]

    @pytest.mark.parametrize("form, name, value, cap", DT_CAPS, ids=[c[1] for c in DT_CAPS])
    @pytest.mark.parametrize("height", [0.5, 3.0])
    def test_auto_dt_each_term_alone_sets_dt(self, form, name, value, cap, height):
        g = make_grid(8 * np.pi, 256)
        u0 = gaussian_state(g, height)
        cfg = SolverConfig(t_final=1.0, dt="auto")
        if form == "original":
            fields = {"alpha": "1e-9", "epsilon": "0", name: repr(value)}
            problem = CoefficientSet.from_strings(**fields)
        else:
            z = np.zeros(g.num_points)
            fields = {**dict.fromkeys("bcdef", z), name: np.full(g.num_points, value)}
            problem = TransformedCoefficients(t=0.0, grid=g, **fields)
        kb = (2.0 / 3.0) * g.k_max
        sup0 = float(np.abs(u0.physical()).max())
        assert auto_dt(cfg, g, problem, u0) == pytest.approx(cap(kb, sup0), rel=1e-14)

    def test_auto_dt_adds_the_order_zero_rates(self):
        g = make_grid(8 * np.pi, 256)
        u0 = gaussian_state(g, 3.0)
        z = np.zeros(g.num_points)
        tc = TransformedCoefficients(
            t=0.0, grid=g, b=z, c=z, d=np.full(g.num_points, 2.0), e=z,
            f=np.full(g.num_points, -0.5),
        )
        sup0 = float(np.abs(u0.physical()).max())
        dt = auto_dt(SolverConfig(t_final=1.0, dt="auto"), g, tc, u0)
        assert dt == pytest.approx(0.5 / (2.0 + 0.5 * sup0), rel=1e-14)

    def test_identity_gauge_path_equivalence(self):
        # transporting the original-path solution through the identity gauge
        # matches the transformed-path solution within 10x scheme error
        g = make_grid(8 * np.pi, 256)
        cs = CoefficientSet.constant_kdv(-6.0)
        system = GaugeSystem(cs, g, image_grid=g)
        u0 = soliton_state(g, 1.0, -6.0, center=-1.0)
        T = 0.05
        cfg_o = SolverConfig(t_final=T, dt=5e-5, s=1.0)
        cfg_t = SolverConfig(t_final=T, dt=5e-5, s=1.0)
        traj_o = solve(u0, cfg_o, cs, monitor_times=[T])
        traj_t = solve(
            forward_transform(u0, system.map_at(0.0)), cfg_t, system,
            monitor_times=[T],
        )
        moved = forward_transform(traj_o.final_state, system.map_at(T))
        exact = SpectralState.from_physical(
            g, exact_soliton_values(g.x, T, 1.0, -6.0, -1.0)
        )
        scheme_err = l2_norm(traj_t.final_state - exact)
        assert l2_norm(moved - traj_t.final_state) <= 10 * max(scheme_err, 1e-12)


class TestWeakResidual:
    def test_exact_linear_solution(self):
        g = make_grid(8 * np.pi, 256)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=0.0)
        u0 = SpectralState.from_physical(g, np.sin(2 * g.x) + 0.3 * np.cos(3 * g.x))
        T = 0.4
        cfg = SolverConfig(t_final=T, dt=5e-4, s=1.0,
                           warn_domain_edge=False)
        traj = solve(u0, cfg, tc, monitor_times=np.linspace(0, T, 161)[1:])
        phi = SpaceTimeBump(x0=0.0, x_width=4.0, t_width=0.1)
        res = weak_residual(traj, phi, tc)
        scale = l2_norm(u0) * 4.0
        assert abs(res) < 1e-6 * scale

    def test_zero_solution_zero_residual(self):
        g = make_grid(np.pi, 64)
        tc = TransformedCoefficients.constant_kdv(g)
        cfg = SolverConfig(t_final=0.2, dt=1e-3, s=1.0)
        traj = solve(SpectralState.zero(g), cfg, tc,
                     monitor_times=np.linspace(0, 0.2, 21)[1:])
        phi = SpaceTimeBump(x0=0.0, x_width=0.5, t_width=0.05)
        assert weak_residual(traj, phi, tc) == 0.0

    def test_original_form_exact_linear(self):
        g = make_grid(8 * np.pi, 256)
        cs = CoefficientSet.from_strings(alpha="1", gamma="0.3", epsilon="0")
        u0 = SpectralState.from_physical(g, np.sin(2 * g.x))
        T = 0.4
        cfg = SolverConfig(t_final=T, dt=2e-4, s=1.0,
                           warn_domain_edge=False)
        traj = solve(u0, cfg, cs, monitor_times=np.linspace(0, T, 161)[1:])
        phi = SpaceTimeBump(x0=1.0, x_width=4.0, t_width=0.1)
        res = weak_residual(traj, phi, cs)
        assert abs(res) < 1e-6 * l2_norm(u0) * 4.0

    def test_soliton_residual_at_production_resolution(self):
        g = make_grid(8 * np.pi, 512)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=-6.0)
        u0 = soliton_state(g, 1.0, -6.0, center=-1.0)
        T = 0.3
        cfg = SolverConfig(t_final=T, dt=2e-4, s=1.0)
        traj = solve(u0, cfg, tc, monitor_times=np.linspace(0, T, 241)[1:])
        phi = SpaceTimeBump(x0=-1.0, x_width=4.0, t_width=0.08)
        res = weak_residual(traj, phi, tc)
        scale = l2_norm(u0) * 4.0
        assert abs(res) < 1e-5 * scale

    def test_problem_of_the_other_form_refused(self):
        # a transformed trajectory checked against the original-form equation
        # would report the residual of an equation it never solved
        g = make_grid(np.pi, 64)
        tc = TransformedCoefficients.constant_kdv(g)
        cfg = SolverConfig(t_final=0.2, dt=1e-3, s=1.0)
        traj = solve(SpectralState.zero(g), cfg, tc,
                     monitor_times=np.linspace(0, 0.2, 21)[1:])
        phi = SpaceTimeBump(x0=0.0, x_width=0.5, t_width=0.05)
        with pytest.raises(TypeError, match="transformed-form trajectory"):
            weak_residual(traj, phi, CoefficientSet.constant_kdv(-6.0))

    def test_support_violation_rejected(self):
        g = make_grid(np.pi, 64)
        tc = TransformedCoefficients.constant_kdv(g)
        cfg = SolverConfig(t_final=0.2, dt=1e-3, s=1.0)
        traj = solve(SpectralState.zero(g), cfg, tc,
                     monitor_times=np.linspace(0, 0.2, 11)[1:])
        wide = SpaceTimeBump(x0=0.0, x_width=3.0, t_width=0.05)  # reaches edge
        with pytest.raises(ValueError, match="domain edge"):
            weak_residual(traj, wide, tc)
        late = SpaceTimeBump(x0=0.0, x_width=0.5, t_width=0.2)  # alive at T
        with pytest.raises(ValueError, match="final time"):
            weak_residual(traj, late, tc)


_SCIPY_CARTWRIGHT = tuple(int(v) for v in scipy.__version__.split(".")[:2]) >= (1, 11)


class TestSimpson:
    @pytest.mark.parametrize("parity", ["odd", "even"])
    @pytest.mark.parametrize("spacing", ["random", "uniform"])
    def test_matches_scipy(self, parity, spacing):
        # odd counts: scipy's composite rule for irregular spacing, bit for
        # bit under every scipy; even counts: the last-interval correction of
        # scipy >= 1.11 (scipy 1.10 averages two end rules instead), which is
        # exact on quadratics
        rng = np.random.default_rng(7)
        counts = range(3, 242, 2) if parity == "odd" else range(4, 241, 2)
        for n in counts:
            if spacing == "random":
                x = np.cumsum(rng.uniform(0.05, 1.0, n)) - 3.0
            else:
                x = np.linspace(-1.0, 2.0, n)
            a, b, c = rng.normal(size=3)
            quadratic = a + b * x + c * x**2
            if parity == "even":

                def antiderivative(s):
                    return a * s + b * s**2 / 2 + c * s**3 / 3

                exact = antiderivative(x[-1]) - antiderivative(x[0])
                scale = (abs(a) + abs(b) + abs(c)) * (x[-1] - x[0]) * (1 + x[-1] ** 2)
                assert abs(_simpson(quadratic, x) - exact) <= 1e-13 * scale, n
            if parity == "odd" or _SCIPY_CARTWRIGHT:
                for y in (quadratic, rng.normal(size=n)):
                    assert _simpson(y, x) == simpson(y, x=x), n


class TestEnergyMonitor:
    """The H^s norms and dyadic dissipation `solve` records at each sample."""

    def test_unitary_when_b_zero(self):
        g = make_grid(8 * np.pi, 256)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=0.0)
        u0 = gaussian_state(g, 1.0, 1.0)
        cfg = SolverConfig(t_final=0.3, dt=5e-4, s=1.0)
        traj = solve(u0, cfg, tc, monitor_times=np.linspace(0, 0.3, 7)[1:])
        drift = np.abs(traj.hs_norms - traj.hs_norms[0]).max() / traj.hs_norms[0]
        assert drift < 1e-8
        assert np.all(traj.dissipation <= 1e-12)

    def test_diffusive_monotone_decay(self):
        g = make_grid(8 * np.pi, 256)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=0.0)
        tc.b = np.ones(256)
        u0 = gaussian_state(g, 1.0, 1.0)
        cfg = SolverConfig(t_final=0.3, dt=2e-4, s=1.0)
        traj = solve(u0, cfg, tc, monitor_times=np.linspace(0, 0.3, 7)[1:])
        hs = traj.hs_norms
        assert np.all(np.diff(hs) <= 1e-12 * max(hs.max(), 1.0))
        assert np.all(np.diff(hs) < 0)
        assert np.all(traj.dissipation <= 1e-12)
        assert np.all(np.diff(traj.seminorm_cumulative) >= 0)

    def test_sum_controlled_by_datum(self):
        # the H^s energy plus harvested dissipation stays near the datum for
        # a localized anti-diffusion compensated by the gauge
        cs = CoefficientSet.from_strings(
            alpha="1", beta="-sech(x)^2", beta1="0", beta2="-sech(x)^2"
        )
        g = make_grid(8 * np.pi, 256)
        system = GaugeSystem(cs, g, image_grid=g)
        tc = system.coefficients_at(0.0)
        u0 = gaussian_state(g, 0.5, 1.0)
        cfg = SolverConfig(t_final=0.3, dt=2e-4, s=1.0)
        traj = solve(u0, cfg, tc, monitor_times=np.linspace(0, 0.3, 7)[1:])
        total = traj.hs_norms**2 + traj.seminorm_cumulative
        base = traj.hs_norms[0] ** 2
        assert total.max() <= 2.0 * base
        assert total.min() >= 0.5 * base


class TestTrajectoryInvariants:
    def test_stored_states_stay_hermitian(self):
        g = make_grid(8 * np.pi, 256)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=-6.0)
        u0 = soliton_state(g, 1.0, -6.0, center=-1.0)
        cfg = SolverConfig(t_final=0.05, dt=2e-4, s=1.0)
        traj = solve(u0, cfg, tc, monitor_times=np.linspace(0, 0.05, 6)[1:])
        # each stored half spectrum is the spectrum of its real samples
        for state in traj.states:
            again = SpectralState.from_physical(g, state.physical())
            scale = np.abs(state.coefficients).max()
            assert np.abs(again.coefficients - state.coefficients).max() <= 1e-14 * scale
        assert np.all(np.diff(traj.times) > 0)

    def test_domain_warning_fires_for_wide_data(self):
        import warnings as _w

        g = make_grid(np.pi, 64)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=0.0)
        wide = SpectralState.from_physical(g, np.cos(g.x / 1.0) + 1.5)
        cfg = SolverConfig(t_final=0.01, dt=1e-3, s=1.0)
        with _w.catch_warnings(record=True) as caught:
            _w.simplefilter("always")
            traj = solve(wide, cfg, tc)
        assert traj.edge_mass_max > EDGE_MASS_LIMIT
        assert any("outer 10%" in str(c.message) for c in caught)


class TestStageTimeSampling:
    def test_time_dependent_advection_fourth_order(self):
        # u_t + u_xxx + gamma(t) u_x = 0 has the exact multiplier solution
        # exp(i k^3 t - i k Gamma(t)); stage-time resampling of gamma must
        # keep the step fourth-order accurate (frozen-per-step sampling
        # would drop it to second order).  Smallest legal grid so the
        # explicit k^3 stability bound leaves a measurable dt window.
        g = make_grid(np.pi, 16)
        cs = CoefficientSet.from_strings(alpha="1", gamma="cos(t)", epsilon="0")
        kmode = 2.0
        errs = []
        dts = (4e-3, 2e-3, 1e-3)
        for dt in dts:
            u0, idx = cosine_mode(g, kmode)
            cfg = SolverConfig(t_final=0.4, dt=dt, dealias=False,
                               warn_domain_edge=False)
            traj = solve(u0, cfg, cs)
            u, t = traj.final_state, traj.times[-1]
            want = 0.5 * np.exp(1j * (kmode**3 * t - kmode * np.sin(t)))
            errs.append(abs(u.coefficients[idx] - want))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert order1 == pytest.approx(4.0, abs=0.4)
        assert order2 == pytest.approx(4.0, abs=0.4)


# -- reference: the complex-FFT RK4 / integrating-factor RK4 ----------------


def _reference_rhs(form, chat, k, co, mask):
    n = chat.size
    u, d1, d2, d3 = (np.fft.ifft((1j * k) ** p * chat * n).real for p in range(4))
    if form == "original":
        rhs = (-co["alpha"] * d3 - co["beta"] * d2 - co["gamma"] * d1
               - co["delta"] * u + co["epsilon"] * u * d1)
    else:
        rhs = (co["b"] * d2 - co["c"] * d1 - co["d"] * u
               + co["e"] * u * d1 + co["f"] * u * u)
    out = np.fft.fft(rhs) / n
    return out if mask is None else np.where(mask, out, 0.0)


def _reference_step(form, chat, k, coeffs_at, t, dt, mask):
    def rhs(c, tt):
        return _reference_rhs(form, c, k, coeffs_at(tt), mask)

    if form == "original":  # classical RK4
        k1 = rhs(chat, t)
        k2 = rhs(chat + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(chat + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(chat + dt * k3, t + dt)
        return chat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    E = np.exp(1j * k**3 * dt)
    E2 = np.exp(1j * k**3 * (0.5 * dt))
    n1 = rhs(chat, t)
    n2 = rhs(E2 * chat + 0.5 * dt * E2 * n1, t + 0.5 * dt)
    n3 = rhs(E2 * chat + 0.5 * dt * n2, t + 0.5 * dt)
    n4 = rhs(E * chat + dt * E2 * n3, t + dt)
    return E * chat + (dt / 6.0) * (E * n1 + 2.0 * E2 * (n2 + n3) + n4)


def _reference_solve(u0, form, coeffs_at, t_final, dt, monitor_times, dealias):
    """Final full spectrum after landing on every monitor time, as `solve` does."""
    grid = u0.grid
    k = full_wavenumbers(grid)
    mask = np.abs(k) <= (2.0 / 3.0) * np.abs(k).max() if dealias else None
    chat = full_spectrum(u0.coefficients)
    chat[grid.nyquist_index] = 0.0
    if mask is not None:
        chat = np.where(mask, chat, 0.0)
    targets = iter(sorted(monitor_times))
    target = next(targets, None)
    t, eps = 0.0, 1e-12 * t_final
    while t < t_final - eps:
        upper = t_final if target is None else min(target, t_final)
        step = min(dt, upper - t)
        chat = _reference_step(form, chat, k, coeffs_at, t, step, mask)
        t += step
        if target is not None and t >= target - eps:
            target = next(targets, None)
    return chat


# coefficients that all drift in time; the gauge straightens them for the
# transformed form, so b..f are time-dependent there too
_DRIFTING = dict(
    alpha="2+0.5*cos(t)*sech(x/4)^2",
    beta="0.2*sech(x/4)^2-0.1*sech(x/8)^2",
    gamma="0.1*sech(x/4)^2",
    delta="0.05",
    epsilon="1",
    beta1="0.2*sech(x/4)^2",
    beta2="-0.1*sech(x/8)^2",
    alpha0=0.4,
)


@pytest.fixture(scope="module")
def setting():
    """(grid, form -> (problem of the _DRIFTING set, t -> its coefficients))."""
    g = make_grid(16 * np.pi, 256)
    cs = CoefficientSet.from_strings(**_DRIFTING)
    system = GaugeSystem(cs, g, image_grid=g)

    def original_at(t):
        return {name: np.asarray(getattr(cs, name).eval(t, g.x), dtype=float)
                for name in ("alpha", "beta", "gamma", "delta", "epsilon")}

    def transformed_at(t):
        tc = system.coefficients_at(t)
        return {"b": tc.b, "c": tc.c, "d": tc.d, "e": tc.e, "f": tc.f}

    return g, {"original": (cs, original_at), "transformed": (system, transformed_at)}


class TestCoreMatchesReference:
    T = 0.004
    DT = 5e-4
    MONITOR = (0.0013, 0.0026, 0.0037)  # none on the dt lattice

    @pytest.mark.parametrize("form", ["original", "transformed"])
    @pytest.mark.parametrize("dealias", [True, False])
    def test_final_state_matches(self, setting, form, dealias):
        g, problems = setting
        problem, coeffs_at = problems[form]
        u0 = SpectralState.from_physical(g, 0.8 * np.exp(-(((g.x - 1.0) / 3.0) ** 2)))
        cfg = SolverConfig(t_final=self.T, dt=self.DT, s=1.0, dealias=dealias)
        traj = solve(u0, cfg, problem, monitor_times=self.MONITOR)
        want = _reference_solve(u0, form, coeffs_at, self.T, self.DT, self.MONITOR,
                                dealias)
        got = full_spectrum(traj.final_state.coefficients)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert traj.times[1:-1].tolist() == pytest.approx(list(self.MONITOR), abs=1e-15)


class TestTermPlanReuse:
    def test_time_dependent_transformed_solve_reuses_plan_on_hits(self, monkeypatch):
        # four steps read the stage times 0, dt/2, dt/2, dt, dt, 3dt/2, ...:
        # 16 right-hand sides on 9 distinct times, and a slice cache hit must
        # hand back the same coefficients so the term plan is not rebuilt
        g = make_grid(16 * np.pi, 128)
        system = GaugeSystem(CoefficientSet.from_strings(**_DRIFTING), g, image_grid=g)
        rebuilt = []
        plan_for = solver_module._RK4._plan_for

        def spy(self, co):
            rebuilt.append(co is not self._plan_source)
            return plan_for(self, co)

        monkeypatch.setattr(solver_module._RK4, "_plan_for", spy)
        u0 = SpectralState.from_physical(g, 0.8 * np.exp(-(((g.x - 1.0) / 3.0) ** 2)))
        dt = 5e-4
        solve(u0, SolverConfig(t_final=4 * dt, dt=dt, s=1.0), system)
        assert len(rebuilt) == 16
        assert sum(rebuilt) == 9


# -- oracle: the allocating RK4 step that the in-place one replaced ----------


def _allocating_rhs(rk, chat, t):
    plan = rk._plan_for(rk.sampler(t))
    if plan is None:
        return np.zeros(rk.spectrum.k.size, dtype=complex)
    if isinstance(plan, np.ndarray):  # the flux row
        return plan * rk.spectrum.forward(rk.spectrum.inverse(chat) ** 2)
    rows, linear, quadratic, field_slot = plan
    fields = rk.spectrum.inverse(rows * chat)
    total = sum((sign * coef) * fields[i] for coef, sign, i in linear)
    if quadratic:
        total = total + fields[field_slot] * sum(
            (sign * coef) * fields[i] for coef, sign, i in quadratic
        )
    out = rk.spectrum.forward(total)
    out *= rk.spectrum.keep.real
    return out


def _allocating_step(rk, chat, t, dt):
    e_half, e_full = rk._integrating_factors(dt)
    half = 0.5 * dt
    shifted = e_half * chat
    n1 = _allocating_rhs(rk, chat, t)
    n2 = _allocating_rhs(rk, shifted + half * (e_half * n1), t + half)
    n3 = _allocating_rhs(rk, shifted + half * n2, t + half)
    n4 = _allocating_rhs(rk, e_full * chat + dt * (e_half * n3), t + dt)
    return e_full * chat + (dt / 6.0) * (e_full * n1 + 2.0 * (e_half * (n2 + n3)) + n4)


def _integrator(problem, grid, dealias):
    """A solve's RK4 for `problem` and its datum's kept half spectrum."""
    form, sampler = solver_module._sampler(problem, grid)
    spectrum = solver_module._Spectrum(grid, dealias)
    u0 = SpectralState.from_physical(grid, 0.8 * np.exp(-(((grid.x - 1.0) / 3.0) ** 2)))
    return solver_module._RK4(spectrum, form, sampler), u0.coefficients * spectrum.keep


def _frozen(setting, form):
    """A time-independent problem of `form` on the setting's grid."""
    if form == "original":
        return CoefficientSet.from_strings(**dict(_DRIFTING, alpha="2+0.5*sech(x/4)^2"))
    return setting[1]["transformed"][0].coefficients_at(0.0)


class TestInPlaceStep:
    DT = 5e-4

    @pytest.mark.parametrize(
        "drifting, dealias, form",
        [
            (drifting, dealias, form)
            for drifting in (True, False)
            for dealias in (True, False)
            for form in ("original", "transformed")
        ]
        + [(False, True, "constant_kdv")]  # the flux plan
        + [(True, True, "linear_original")],  # every term linear, each of sign -1
    )
    def test_matches_allocating_step_bit_for_bit(self, setting, form, dealias, drifting):
        g, problems = setting
        if form == "constant_kdv":
            problem = TransformedCoefficients.constant_kdv(g, -6.0)
        elif form == "linear_original":
            problem = CoefficientSet.from_strings(**dict(_DRIFTING, epsilon="0"))
        else:
            problem = problems[form][0] if drifting else _frozen(setting, form)
        rk, chat = _integrator(problem, g, dealias)
        flux = isinstance(rk._plan_for(rk.sampler(0.0)), np.ndarray)
        assert flux == (form == "constant_kdv")
        start, want, t = chat.copy(), chat.copy(), 0.0
        for dt in [self.DT] * 20 + [0.37 * self.DT]:  # 20 steps and a landing step
            chat = rk.step(chat, t, dt)
            want = _allocating_step(rk, want, t, dt)
            t += dt
            assert np.array_equal(chat, want)
        assert not np.array_equal(chat, start)

    def test_plan_without_terms_matches(self):
        g = make_grid(np.pi, 64)
        rk, chat = _integrator(TransformedCoefficients.constant_kdv(g, epsilon=0.0), g, True)
        want = chat.copy()
        for i in range(3):
            chat = rk.step(chat, i * self.DT, self.DT)
            want = _allocating_step(rk, want, i * self.DT, self.DT)
            assert np.array_equal(chat, want)


def _plan(problem, grid, dealias=True):
    rk, _ = _integrator(problem, grid, dealias)
    return rk._plan_for(rk.sampler(0.0))


class TestFluxPlan:
    """A lone u u_x term with a coefficient constant in x is taken in flux
    form, (e/2) (u^2)_x, when products are dealiased, and only then."""

    GRID = make_grid(8 * np.pi, 256)

    def test_taken_for_constant_kdv(self):
        g = self.GRID
        plan = _plan(TransformedCoefficients.constant_kdv(g, -6.0), g)
        assert isinstance(plan, np.ndarray)
        keep = solver_module._Spectrum(g, True).keep
        np.testing.assert_allclose(plan, -3.0 * (1j * g.wavenumbers) * keep, rtol=1e-15)

    @pytest.mark.parametrize(
        "case", ["undealiased", "e varies in x", "c beside e", "f beside e", "original form"]
    )
    def test_not_taken(self, case):
        g = self.GRID
        kdv = TransformedCoefficients.constant_kdv(g, -6.0)
        bump = 0.1 / np.cosh(g.x) ** 2
        problem, dealias = {
            "undealiased": (kdv, False),
            "e varies in x": (replace(kdv, e=kdv.e + bump), True),
            "c beside e": (replace(kdv, c=bump), True),
            "f beside e": (replace(kdv, f=bump), True),
            "original form": (CoefficientSet.constant_kdv(-6.0), True),  # alpha is linear
        }[case]
        plan = _plan(problem, g, dealias)
        assert isinstance(plan, tuple)  # (rows, linear, quadratic, slot of u)
        assert len(plan[2]) == 1 + (case == "f beside e")

    def test_one_rhs_matches_product_form(self):
        # a random datum inside the kept band: the flux right-hand side
        # against the complex-FFT reference, which forms e u u_x pointwise
        g = self.GRID
        tc = TransformedCoefficients.constant_kdv(g, -6.0)
        rk, _ = _integrator(tc, g, True)
        rng = np.random.default_rng(7)
        size = g.wavenumbers.size
        chat = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * rk.spectrum.keep
        chat[0] = chat[0].real
        got = np.empty_like(chat)
        rk.rhs(chat, 0.0, got)
        k = full_wavenumbers(g)
        mask = np.abs(k) <= (2.0 / 3.0) * np.abs(k).max()
        co = {name: getattr(tc, name) for name in "bcdef"}
        want = _reference_rhs("transformed", full_spectrum(chat), k, co, mask)[:size]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestNoWorkArrayEscapes:
    @pytest.mark.parametrize("form", ["original", "transformed"])
    def test_returned_step_survives_the_next(self, setting, form):
        g, problems = setting
        rk, chat = _integrator(problems[form][0], g, True)
        held = rk.step(chat, 0.0, 5e-4)
        kept = held.copy()
        rk.step(held, 5e-4, 5e-4)
        assert np.array_equal(held, kept)

    @pytest.mark.parametrize("form", ["original", "transformed"])
    def test_stored_states_and_reruns(self, setting, form):
        g, problems = setting
        problem = problems[form][0]
        u0 = SpectralState.from_physical(g, 0.8 * np.exp(-(((g.x - 1.0) / 3.0) ** 2)))
        cfg = SolverConfig(t_final=0.004, dt=5e-4, s=1.0)
        monitor = (0.0013, 0.0026, 0.0037)
        first = solve(u0, cfg, problem, monitor_times=monitor)
        coefficients = [state.coefficients for state in first.states]
        assert len(coefficients) == 5
        for i, a in enumerate(coefficients):
            for b in coefficients[i + 1 :]:
                assert not np.shares_memory(a, b)
        second = solve(u0, cfg, problem, monitor_times=monitor)
        assert np.array_equal(first.times, second.times)
        for a, b in zip(first.states, second.states):
            assert np.array_equal(a.coefficients, b.coefficients)
        for name in ("hs_norms", "sup_norms", "dissipation", "seminorm_cumulative"):
            assert np.array_equal(getattr(first, name), getattr(second, name))


class TestConservationProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        amplitude=st.floats(0.1, 1.0),
        band=st.floats(1.0, 3.0),
        form=st.sampled_from(["original", "transformed"]),
    )
    def test_l2_and_mass_conserved_for_constant_kdv(self, seed, amplitude, band, form):
        # random real datum with Gaussian spectral decay; u_t + u_xxx = -6 u u_x
        # conserves the L2 norm and the mass
        g = make_grid(np.pi, 64)
        k = g.wavenumbers
        rng = np.random.default_rng(seed)
        c = (rng.standard_normal(33) + 1j * rng.standard_normal(33)) * np.exp(-(k / band) ** 2)
        u0 = SpectralState.from_physical(g, np.fft.irfft(c, 64, norm="forward"))
        u0 = (amplitude / np.abs(u0.physical()).max()) * u0
        if form == "original":
            problem, dt = CoefficientSet.constant_kdv(-6.0), 2e-5
        else:
            problem, dt = TransformedCoefficients.constant_kdv(g, epsilon=-6.0), 1e-4
        cfg = SolverConfig(t_final=0.005, dt=dt, s=1.0, warn_domain_edge=False)
        traj = solve(u0, cfg, problem, monitor_times=[0.0025, 0.005])
        l2s = np.array([l2_norm(state) for state in traj.states])
        ms = np.array([mass(state) for state in traj.states])
        assert not traj.blowup
        assert np.abs(l2s - l2s[0]).max() <= 1e-9 * l2s[0]
        assert np.abs(ms - ms[0]).max() <= 1e-12 * l2s[0]


# -- oracle: the per-time analysis that the stacked one replaced -------------


def _per_state_sobolev_norm(state, s):
    k = state.grid.wavenumbers
    weights = state.grid.multiplicity * (1.0 + k * k) ** s
    total = np.sum(weights * np.abs(state.coefficients) ** 2)
    return float(np.sqrt(total * 2.0 * state.grid.half_width))


def _per_state_b_energy(state, b, s, bank):
    ux = derivative(state, 1)
    total = 0.0
    for N in bank.dyadic_ns:
        piece = np.abs(project(ux, bank.p_n(N)).physical())
        total += (1.0 + N) ** (2.0 * s) * state.grid.dx * float(np.sum(b * piece * piece))
    return total


def _per_state_ledger(grid, states, weights, s):
    """(hs_norms, dissipation) of `states`, one state at a time; the
    dissipation is zero without weights (the original form)."""
    bank = ProjectorBank(grid)
    hs = [_per_state_sobolev_norm(state, s) for state in states]
    diss = [
        -_per_state_b_energy(state, np.clip(b, 0.0, None), s, bank)
        for state, b in zip(states, weights)
    ] if weights else [0.0] * len(states)
    return np.asarray(hs), np.asarray(diss)


def _weights(problem, traj):
    """The b of each stored time's slice in the transformed form, else none."""
    form, sampler = solver_module._sampler(problem, traj.grid)
    return [sampler(float(t)).b for t in traj.times] if form == "transformed" else []


def _per_time_weak_residual(traj, phi, problem):
    """(residual, its time integrand g at the stored times)."""
    grid = traj.grid
    form, sampler = solver_module._sampler(problem, grid)
    value, dt_value = phi.on(grid.x)
    ddx = solver_module._Spectrum(grid, dealias_products=False).derivative
    g = np.empty(len(traj.times))
    for i, (tt, state) in enumerate(zip(traj.times, traj.states)):
        tt = float(tt)
        u = state.physical()
        p = np.asarray(value(tt), dtype=float)
        co = sampler(tt)
        lin = -np.asarray(dt_value(tt), dtype=float)
        if form == "transformed":
            lin = lin - ddx(p, 3)
        quad = 0.0
        for name, (order, sign, is_quadratic) in solver_module._TERMS[form].items():
            weighted = getattr(co, name) * p
            moved = weighted if order == 0 else ddx(weighted, order)
            if is_quadratic:
                quad = quad + (-sign * (-0.5) ** order) * moved
            else:
                lin = lin + (-sign * (-1.0) ** order) * moved
        g[i] = grid.dx * float(np.sum(u * lin + u * u * quad))
    space_time = float(_simpson(g, traj.times))
    u0 = traj.states[0].physical()
    init_term = grid.dx * float(np.sum(u0 * np.asarray(value(0.0), dtype=float)))
    return space_time - init_term, g


def _first(traj, count):
    """The trajectory cut to its first `count` stored times."""
    return replace(
        traj, times=traj.times[:count], states=traj.states[:count],
        hs_norms=traj.hs_norms[:count], sup_norms=traj.sup_norms[:count],
        dissipation=traj.dissipation[:count],
        seminorm_cumulative=traj.seminorm_cumulative[:count],
    )


STORED = 81  # stored times of the stacked-analysis solves: five blocks and one row


@pytest.fixture(scope="module")
def stored(setting):
    """(drifting, form) -> (problem, a solve storing STORED times)."""
    g, problems = setting
    u0 = SpectralState.from_physical(g, 0.8 * np.exp(-(((g.x - 1.0) / 3.0) ** 2)))
    cfg = SolverConfig(t_final=0.004, dt=5e-4, s=1.0)
    out = {}
    for drifting in (True, False):
        for form in ("original", "transformed"):
            problem = problems[form][0] if drifting else _frozen(setting, form)
            monitor = np.linspace(0.0, cfg.t_final, STORED)[1:]
            out[drifting, form] = problem, solve(u0, cfg, problem, monitor_times=monitor)
    return out


CASES = [(drifting, form) for drifting in (True, False) for form in ("original", "transformed")]


class TestStackedAnalysis:
    """The ledger and the weak residual run over blocks of STACK_ROWS stored
    times; each value equals the per-time computation bit for bit."""

    def test_block_size(self):
        assert solver_module.STACK_ROWS == 16
        assert solver_module._blocks(33) == [slice(0, 16), slice(16, 32), slice(32, 48)]
        assert solver_module._blocks(0) == []

    @pytest.mark.parametrize("drifting, form", CASES)
    def test_solve_ledger_matches_per_state(self, stored, drifting, form):
        problem, traj = stored[drifting, form]
        assert len(traj.times) == STORED
        hs, diss = _per_state_ledger(traj.grid, traj.states, _weights(problem, traj), 1.0)
        assert np.array_equal(traj.hs_norms, hs)
        assert np.array_equal(traj.dissipation, diss)
        assert np.any(diss != 0.0) == (form == "transformed")

    @pytest.mark.parametrize("count", [1, 15, 16, 17, STORED])
    @pytest.mark.parametrize("drifting, form", CASES)
    def test_ledger_blocks_match_per_state(self, stored, drifting, form, count):
        problem, traj = stored[drifting, form]
        cut = _first(traj, count)
        # b >= 0 here; the shift makes the clip at zero act
        weights = [b - 0.5 * b.max() for b in _weights(problem, cut)]
        for s in (1.0, -0.5):
            hs, diss = solver_module._ledger(traj.grid, cut.states, weights, s)
            want_hs, want_diss = _per_state_ledger(traj.grid, cut.states, weights, s)
            assert hs.shape == diss.shape == (count,)
            assert np.array_equal(hs, want_hs)
            assert np.array_equal(diss, want_diss)

    @pytest.mark.parametrize("count", [2, 15, 16, 17, STORED])
    @pytest.mark.parametrize("drifting, form", CASES)
    def test_weak_residual_matches_per_time(self, stored, drifting, form, count, monkeypatch):
        # two times are the fewest a residual can use: the field must vanish
        # at the last one.  The residual is a difference of O(1) integrals, so
        # the integrand g handed to _simpson is compared as well
        problem, traj = stored[drifting, form]
        cut = _first(traj, count)
        phi = SpaceTimeBump(x0=1.0, x_width=4.0, t_width=0.45 * float(cut.times[-1]))
        want, want_g = _per_time_weak_residual(cut, phi, problem)
        integrands = []
        monkeypatch.setattr(
            solver_module, "_simpson", lambda y, x: integrands.append(y.copy()) or _simpson(y, x)
        )
        got = weak_residual(cut, phi, problem)
        assert got != 0.0
        assert got == want
        assert len(integrands) == 1 and np.array_equal(integrands[0], want_g)

    @pytest.mark.parametrize("t", [0.0, 0.05, 0.13, 0.17, 0.2, 0.5])
    def test_bump_column_of_times_matches_scalar_calls(self, t):
        x = make_grid(8 * np.pi, 128).x
        value, dt_value = SpaceTimeBump(x0=0.5, x_width=3.0, t_width=0.1).on(x)
        times = np.array([0.0, t, 0.11, t, 0.19, 0.3])
        for f in (value, dt_value):
            stacked = f(times[:, None])
            assert stacked.shape == (times.size, x.size)
            for row, tt in zip(stacked, times.tolist()):
                assert np.array_equal(row, f(tt))


class TestStackedTransformsProperty:
    """ROADMAP item 3's condition for stacks: each row of a stacked rfft,
    irfft and last-axis sum is the one-row call's result bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        log_n=st.integers(4, 12),
        rows=st.integers(1, 81),
        seed=st.integers(0, 2**31 - 1),
        scale=st.sampled_from([1e-200, 1e-8, 1.0, 1e8, 1e200]),
    )
    def test_rows_match_per_row_calls(self, log_n, rows, seed, scale):
        n = 2**log_n
        rng = np.random.default_rng(seed)
        values = scale * rng.standard_normal((rows, n))
        spectra = np.fft.rfft(values, norm="forward")
        back = np.fft.irfft(spectra, n, norm="forward")
        sums = np.sum(values, axis=-1)
        for i in range(rows):
            assert np.array_equal(spectra[i], np.fft.rfft(values[i], norm="forward"))
            assert np.array_equal(back[i], np.fft.irfft(spectra[i], n, norm="forward"))
            assert sums[i] == np.sum(values[i])


# -- the transform pair: numpy's pocketfft ufuncs, or np.fft's pair ----------

# one field, and stacks of 1, 2, 16 and 81 rows
_STACKS = [(), (1,), (2,), (16,), (81,)]


def _fields_and_spectra(n, rows):
    """Real fields and complex half spectra of `rows` leading shape on n points."""
    rng = np.random.default_rng(n + sum(rows))
    values = rng.standard_normal(rows + (n,))
    spectra = rng.standard_normal(rows + (n // 2 + 1,)) * np.exp(
        2j * np.pi * rng.random(rows + (n // 2 + 1,))
    )
    return values, spectra


def _pair_outputs(spectrum, values, spectra):
    """forward and inverse of one field set, without and with `out=`."""
    outs = (np.empty(spectra.shape, dtype=complex), np.empty(values.shape))
    return (
        spectrum.forward(values),
        spectrum.forward(values, out=outs[0]),
        spectrum.inverse(spectra),
        spectrum.inverse(spectra, out=outs[1]),
    ), outs


class TestTransformPair:
    """`_Spectrum.forward`/`inverse` call numpy's pocketfft ufuncs where the
    private module imports, and give np.fft.rfft/irfft(norm="forward")'s
    bits either way."""

    def test_ufunc_pair_selected_when_the_module_imports(self):
        # on the declared numpy floor too: a signature there that the pair
        # cannot call must fail here, not fall back unseen
        try:
            from numpy.fft import _pocketfft_umath
        except ImportError:
            assert not isinstance(solver_module._rfft, np.ufunc)
            return
        assert solver_module._rfft is _pocketfft_umath.rfft_n_even
        assert solver_module._irfft is _pocketfft_umath.irfft

    @pytest.mark.parametrize("rows", _STACKS)
    @pytest.mark.parametrize("n", [2**p for p in range(4, 13)])
    def test_matches_np_fft_bit_for_bit(self, n, rows):
        spectrum = solver_module._Spectrum(make_grid(np.pi, n), dealias_products=False)
        values, spectra = _fields_and_spectra(n, rows)
        want_forward = np.fft.rfft(values, norm="forward")
        want_inverse = np.fft.irfft(spectra, n, norm="forward")
        got, outs = _pair_outputs(spectrum, values, spectra)
        assert got[1] is outs[0] and got[3] is outs[1]
        for result, want in zip(got, (want_forward, want_forward, want_inverse, want_inverse)):
            assert result.dtype == want.dtype and result.shape == want.shape
            assert np.array_equal(result, want)

    def test_fallback_gives_the_same_bits(self, monkeypatch):
        # a copy of the module imported as if numpy had no _pocketfft_umath
        name = "kdvgauge._solver_without_pocketfft_umath"
        monkeypatch.setitem(sys.modules, "numpy.fft._pocketfft_umath", None)
        spec = importlib.util.spec_from_file_location(name, solver_module.__file__)
        fallback = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, fallback)
        spec.loader.exec_module(fallback)
        assert not isinstance(fallback._rfft, np.ufunc)
        for n in (16, 512, 4096):
            for rows in ((), (2,), (81,)):
                grid = make_grid(np.pi, n)
                values, spectra = _fields_and_spectra(n, rows)
                got, _ = _pair_outputs(fallback._Spectrum(grid, False), values, spectra)
                want, _ = _pair_outputs(solver_module._Spectrum(grid, False), values, spectra)
                for result, reference in zip(got, want):
                    assert result.dtype == reference.dtype
                    assert np.array_equal(result, reference)

    @pytest.mark.parametrize("case", ["flux", "product, transformed", "product, original"])
    def test_each_step_costs_four_inverse_and_four_forward_transforms(self, monkeypatch, case):
        # the module-level bindings are the solver's one way to a transform
        calls = {"forward": 0, "inverse": 0}

        def counting(name, transform):
            def spy(*args, **kwargs):
                calls[name] += 1
                return transform(*args, **kwargs)
            return spy

        monkeypatch.setattr(solver_module, "_rfft", counting("forward", solver_module._rfft))
        monkeypatch.setattr(solver_module, "_irfft", counting("inverse", solver_module._irfft))
        g = make_grid(8 * np.pi, 128)
        problem = {
            "flux": TransformedCoefficients.constant_kdv(g, -6.0),
            "product, transformed": TransformedCoefficients.constant_kdv(g, -6.0),
            "product, original": CoefficientSet.from_strings(
                **dict(_DRIFTING, alpha="2+0.5*sech(x/4)^2")
            ),
        }[case]
        dealias = case != "product, transformed"  # undealiased KdV takes products
        rk, _ = _integrator(problem, g, dealias)
        assert isinstance(rk._plan_for(rk.sampler(0.0)), np.ndarray) == (case == "flux")
        dt, steps = 2.0**-14, 5
        u0 = SpectralState.from_physical(g, 0.8 * np.exp(-(((g.x - 1.0) / 3.0) ** 2)))
        traj = solve(u0, SolverConfig(t_final=steps * dt, dt=dt, dealias=dealias), problem)
        assert traj.times.tolist() == [0.0, steps * dt]
        assert calls == {"forward": 4 * steps, "inverse": 4 * steps}


class TestSharedOriginalFields:
    def test_fields_fixed_in_t_are_sampled_once_and_read_only(self):
        g = make_grid(16 * np.pi, 128)
        # alpha drifts; beta and gamma are one node, so one slot of the program
        cs = CoefficientSet.from_strings(**dict(_DRIFTING, gamma="0.2*sech(x/4)^2-0.1*sech(x/8)^2"))
        names = tuple(solver_module._TERMS["original"])
        form, sampler = solver_module._sampler(cs, g)
        assert form == "original"
        early, late = sampler(0.1), sampler(0.35)
        for t, co in ((0.1, early), (0.35, late)):
            for name, want in zip(names, cs.sample(names, t, g.x)):
                got = getattr(co, name)
                assert got.tobytes() == np.asarray(want, dtype=float).tobytes()
        for name in names:
            a, b = getattr(early, name), getattr(late, name)
            if getattr(cs, name).depends_on_t:
                assert a is not b
            else:
                assert a is b and not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 1.0
        assert early.beta is not early.gamma  # each field its own array

    def test_plan_holds_the_shared_array_of_a_shared_field(self):
        g = make_grid(16 * np.pi, 128)
        cs = CoefficientSet.from_strings(**_DRIFTING)
        _, sampler = solver_module._sampler(cs, g)
        rk = solver_module._RK4(solver_module._Spectrum(g, True), "original", sampler)
        early, late = sampler(0.1), sampler(0.2)
        first, second = rk._plan_for(early), rk._plan_for(late)
        # linear terms in table order: alpha (drifts), beta, gamma, delta
        assert first[1][0][0] is early.alpha and second[1][0][0] is late.alpha
        assert early.alpha is not late.alpha
        for a, b, name in zip(first[1][1:], second[1][1:], ("beta", "gamma", "delta")):
            assert a[0] is b[0] is getattr(early, name) is getattr(late, name)
        assert first[2][0][0] is second[2][0][0] is early.epsilon  # shared by both slices


def test_auto_dt_beyond_the_step_budget_is_refused_by_solve():
    # auto_dt gives 7.8e-10 on this grid: solve refuses before its first step
    g = make_grid(1e-5, 256)
    u0 = soliton_state(g, 1.0, e=-6.0)
    problem = TransformedCoefficients.constant_kdv(g, -6.0)
    with pytest.raises(ValueError, match="exceeds the step budget of 1e"):
        solve(u0, SolverConfig(t_final=0.2), problem)
