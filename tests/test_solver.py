"""Time stepping, blow-up detection, weak residuals, monitors."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvgauge.coefficients import CoefficientSet
from kdvgauge.dyadic import ProjectorBank
from kdvgauge.gauge import GaugeSystem, TransformedCoefficients, forward_transform
from kdvgauge.solver import (
    SolverConfig,
    SpaceTimeBump,
    auto_dt,
    energy_monitor,
    solve,
    step_original,
    step_transformed,
    weak_residual,
)
from kdvgauge.spectral import SpectralState, l2_norm, make_grid, mass
from kdvgauge.experiments import (
    exact_soliton_values,
    gaussian_state,
    soliton_state,
)


class TestStepTransformed:
    def test_pure_dispersion_exact(self):
        g = make_grid(np.pi, 64)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=0.0)
        kmode = 3.0
        v = SpectralState(g, np.zeros(64, dtype=complex), is_real_field=False)
        idx = np.argmin(np.abs(g.wavenumbers - kmode))
        v.coefficients[idx] = 1.0
        dt = 1e-3
        out = step_transformed(v, tc, 0.0, dt, dealias_products=False)
        want = np.exp(1j * kmode**3 * dt)
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
        v = SpectralState(g, np.zeros(64, dtype=complex), is_real_field=False)
        idx = np.argmin(np.abs(g.wavenumbers - kmode))
        v.coefficients[idx] = 1.0
        dt = 1e-3
        out = step_transformed(v, tc, 0.0, dt, dealias_products=False)
        got = abs(out.coefficients[idx])
        assert abs(got - np.exp(-(kmode**2) * dt)) < 1e-12

    def test_soliton_accuracy(self):
        g = make_grid(8 * np.pi, 512)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=-6.0)
        u0 = soliton_state(g, 1.0, -6.0, center=-1.0)
        cfg = SolverConfig("transformed", t_final=0.5, dt=1e-4, s=1.0)
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
        out = step_original(u, cs, 0.0, 1e-3)
        assert np.abs(out.coefficients).max() == 0.0

    def test_linear_phase_advance(self):
        g = make_grid(np.pi, 64)
        cs = CoefficientSet.from_strings(alpha="1", epsilon="0")
        kmode = 2.0
        u = SpectralState(g, np.zeros(64, dtype=complex), is_real_field=False)
        idx = np.argmin(np.abs(g.wavenumbers - kmode))
        u.coefficients[idx] = 1.0
        dt = 1e-3
        out = step_original(u, cs, 0.0, dt, dealias_products=False)
        want = np.exp(1j * kmode**3 * dt)
        # plain RK4: phase defect O((k^3 dt)^5)
        assert abs(out.coefficients[idx] - want) < (kmode**3 * dt) ** 5

    def test_matches_transformed_on_soliton(self):
        g = make_grid(8 * np.pi, 256)
        cs = CoefficientSet.constant_kdv(-6.0)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=-6.0)
        u0 = soliton_state(g, 1.0, -6.0, center=-1.0)
        cfg_o = SolverConfig("original", t_final=0.05, dt=5e-5, s=1.0)
        cfg_t = SolverConfig("transformed", t_final=0.05, dt=5e-5, s=1.0)
        a = solve(u0, cfg_o, cs).final_state
        b = solve(u0, cfg_t, tc).final_state
        assert l2_norm(a - b) < 1e-6


class TestSolve:
    def test_conservation_constant_kdv(self):
        g = make_grid(8 * np.pi, 256)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=-6.0)
        u0 = soliton_state(g, 1.0, -6.0, center=-2.0)
        cfg = SolverConfig("transformed", t_final=1.0, dt=5e-4, s=1.0)
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
        cfg = SolverConfig("original", t_final=3.0, dt=1e-3, s=1.0,
                           dealias=False, blowup_threshold=10.0,
                           monitor_stride=5, warn_domain_edge=False)
        traj = solve(u0, cfg, cs)
        assert traj.blowup
        predicted = np.log(10.0 / 0.01) / (0.5 * k0**2)
        assert traj.blowup_time == pytest.approx(predicted, abs=0.02)
        # determinism: identical config flags the identical time
        traj2 = solve(u0, cfg, cs)
        assert traj2.blowup_time == traj.blowup_time

    def test_zero_data_zero_norms(self):
        g = make_grid(np.pi, 64)
        tc = TransformedCoefficients.constant_kdv(g)
        cfg = SolverConfig("transformed", t_final=0.05, dt=1e-3, s=1.0)
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
        cfg = SolverConfig("transformed", t_final=0.01, dt=1e-3, s=1.0,
                           warn_domain_edge=False)
        traj = solve(u0, cfg, tc)
        assert traj.sup_norms[0] == np.abs(traj.states[0].physical()).max()
        assert traj.sup_norms[0] == pytest.approx(1.0, abs=1e-12)

    def test_complex_datum_dissipation_is_parseval(self):
        # constant b: int b |P_N u_x|^2 = b 2L sum_k |phi_N(k) k c_k|^2
        g = make_grid(np.pi, 64)
        b = 0.3
        tc = TransformedCoefficients.constant_kdv(g, epsilon=0.0)
        tc.b = np.full(64, b)
        coeffs = np.zeros(64, dtype=complex)
        coeffs[[1, 3, -5, 7]] = [0.5 + 0.2j, -0.3j, 0.25, 0.1 - 0.1j]
        u0 = SpectralState(g, coeffs, False)
        cfg = SolverConfig("transformed", t_final=0.01, dt=1e-3, s=1.0,
                           warn_domain_edge=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = solve(u0, cfg, tc)
        bank = ProjectorBank(g)
        k = g.wavenumbers
        c = traj.states[0].coefficients
        want = -b * 2 * np.pi * sum(
            (1.0 + N) ** 2 * np.sum(np.abs(bank.p_n(N).symbol * k * c) ** 2)
            for N in bank.dyadic_ns
        )
        assert traj.dissipation[0] == pytest.approx(want, rel=1e-12)

    def test_temporal_convergence_sixteenfold(self):
        # halving dt shrinks the self-convergence error about 16x
        g = make_grid(8 * np.pi, 256)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=-6.0)
        u0 = soliton_state(g, 2.0, -6.0, center=-1.0)
        ref_cfg = SolverConfig("transformed", t_final=0.05, dt=1e-5, s=1.0,
                               monitor_stride=10**9)
        ref = solve(u0, ref_cfg, tc).final_state
        errs = []
        for dt in (4e-4, 2e-4):
            cfg = SolverConfig("transformed", t_final=0.05, dt=dt, s=1.0,
                               monitor_stride=10**9)
            errs.append(l2_norm(solve(u0, cfg, tc).final_state - ref))
        ratio = errs[0] / errs[1]
        assert ratio == pytest.approx(16.0, rel=0.25)

    def test_auto_dt_respects_cfl(self):
        g = make_grid(8 * np.pi, 256)
        cs = CoefficientSet.from_strings(alpha="2.5", epsilon="0", alpha0=0.4)
        u0 = gaussian_state(g, 1.0, 1.0)
        cfg = SolverConfig("original", t_final=1.0, dt="auto", s=1.0)
        dt = auto_dt(cfg, g, cs, u0)
        kb = (2.0 / 3.0) * g.k_max
        assert dt <= 1.0 / (2.5 * kb**3) + 1e-15

    def test_identity_gauge_path_equivalence(self):
        # transporting the original-path solution through the identity gauge
        # matches the transformed-path solution within 10x scheme error
        g = make_grid(8 * np.pi, 256)
        cs = CoefficientSet.constant_kdv(-6.0)
        system = GaugeSystem(cs, g, image_grid=g)
        u0 = soliton_state(g, 1.0, -6.0, center=-1.0)
        T = 0.05
        cfg_o = SolverConfig("original", t_final=T, dt=5e-5, s=1.0)
        cfg_t = SolverConfig("transformed", t_final=T, dt=5e-5, s=1.0)
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
        cfg = SolverConfig("transformed", t_final=T, dt=5e-4, s=1.0,
                           warn_domain_edge=False)
        traj = solve(u0, cfg, tc, monitor_times=np.linspace(0, T, 161)[1:])
        phi = SpaceTimeBump(x0=0.0, x_width=4.0, t_width=0.1)
        res = weak_residual(traj, phi, tc, "transformed")
        scale = l2_norm(u0) * 4.0
        assert abs(res) < 1e-6 * scale

    def test_zero_solution_zero_residual(self):
        g = make_grid(np.pi, 64)
        tc = TransformedCoefficients.constant_kdv(g)
        cfg = SolverConfig("transformed", t_final=0.2, dt=1e-3, s=1.0)
        traj = solve(SpectralState.zero(g), cfg, tc,
                     monitor_times=np.linspace(0, 0.2, 21)[1:])
        phi = SpaceTimeBump(x0=0.0, x_width=0.5, t_width=0.05)
        assert weak_residual(traj, phi, tc, "transformed") == 0.0

    def test_original_form_exact_linear(self):
        g = make_grid(8 * np.pi, 256)
        cs = CoefficientSet.from_strings(alpha="1", gamma="0.3", epsilon="0")
        u0 = SpectralState.from_physical(g, np.sin(2 * g.x))
        T = 0.4
        cfg = SolverConfig("original", t_final=T, dt=2e-4, s=1.0,
                           warn_domain_edge=False)
        traj = solve(u0, cfg, cs, monitor_times=np.linspace(0, T, 161)[1:])
        phi = SpaceTimeBump(x0=1.0, x_width=4.0, t_width=0.1)
        res = weak_residual(traj, phi, cs, "original")
        assert abs(res) < 1e-6 * l2_norm(u0) * 4.0

    def test_soliton_residual_at_production_resolution(self):
        g = make_grid(8 * np.pi, 512)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=-6.0)
        u0 = soliton_state(g, 1.0, -6.0, center=-1.0)
        T = 0.3
        cfg = SolverConfig("transformed", t_final=T, dt=2e-4, s=1.0)
        traj = solve(u0, cfg, tc, monitor_times=np.linspace(0, T, 241)[1:])
        phi = SpaceTimeBump(x0=-1.0, x_width=4.0, t_width=0.08)
        res = weak_residual(traj, phi, tc, "transformed")
        scale = l2_norm(u0) * 4.0
        assert abs(res) < 1e-5 * scale

    def test_support_violation_rejected(self):
        g = make_grid(np.pi, 64)
        tc = TransformedCoefficients.constant_kdv(g)
        cfg = SolverConfig("transformed", t_final=0.2, dt=1e-3, s=1.0)
        traj = solve(SpectralState.zero(g), cfg, tc,
                     monitor_times=np.linspace(0, 0.2, 11)[1:])
        wide = SpaceTimeBump(x0=0.0, x_width=3.0, t_width=0.05)  # reaches edge
        with pytest.raises(ValueError, match="domain edge"):
            weak_residual(traj, wide, tc, "transformed")
        late = SpaceTimeBump(x0=0.0, x_width=0.5, t_width=0.2)  # alive at T
        with pytest.raises(ValueError, match="final time"):
            weak_residual(traj, late, tc, "transformed")


class TestEnergyMonitor:
    def test_unitary_when_b_zero(self):
        g = make_grid(8 * np.pi, 256)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=0.0)
        u0 = gaussian_state(g, 1.0, 1.0)
        cfg = SolverConfig("transformed", t_final=0.3, dt=5e-4, s=1.0)
        traj = solve(u0, cfg, tc, monitor_times=np.linspace(0, 0.3, 7)[1:])
        rep = energy_monitor(traj, 1.0, np.zeros(256))
        drift = np.abs(rep.hs_norms - rep.hs_norms[0]).max() / rep.hs_norms[0]
        assert drift < 1e-8
        assert rep.dissipation_nonpositive

    def test_diffusive_monotone_decay(self):
        g = make_grid(8 * np.pi, 256)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=0.0)
        tc.b = np.ones(256)
        u0 = gaussian_state(g, 1.0, 1.0)
        cfg = SolverConfig("transformed", t_final=0.3, dt=2e-4, s=1.0)
        traj = solve(u0, cfg, tc, monitor_times=np.linspace(0, 0.3, 7)[1:])
        rep = energy_monitor(traj, 1.0, np.ones(256))
        assert rep.hs_nonincreasing
        assert np.all(np.diff(rep.hs_norms) < 0)
        assert rep.dissipation_nonpositive
        assert np.all(rep.dissipation <= 1e-12)
        assert np.all(np.diff(rep.seminorm_cumulative) >= 0)

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
        cfg = SolverConfig("transformed", t_final=0.3, dt=2e-4, s=1.0)
        traj = solve(u0, cfg, tc, monitor_times=np.linspace(0, 0.3, 7)[1:])
        rep = energy_monitor(traj, 1.0, tc.b)
        total = rep.hs_norms**2 + rep.seminorm_cumulative
        base = rep.hs_norms[0] ** 2
        assert total.max() <= 2.0 * base
        assert total.min() >= 0.5 * base


class TestTrajectoryInvariants:
    def test_stored_states_stay_hermitian(self):
        g = make_grid(8 * np.pi, 256)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=-6.0)
        u0 = soliton_state(g, 1.0, -6.0, center=-1.0)
        cfg = SolverConfig("transformed", t_final=0.05, dt=2e-4, s=1.0)
        traj = solve(u0, cfg, tc, monitor_times=np.linspace(0, 0.05, 6)[1:])
        assert all(st.check_hermitian() for st in traj.states)
        assert np.all(np.diff(traj.times) > 0)

    def test_domain_warning_fires_for_wide_data(self):
        import warnings as _w

        g = make_grid(np.pi, 64)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=0.0)
        wide = SpectralState.from_physical(g, np.cos(g.x / 1.0) + 1.5)
        cfg = SolverConfig("transformed", t_final=0.01, dt=1e-3, s=1.0)
        with _w.catch_warnings(record=True) as caught:
            _w.simplefilter("always")
            traj = solve(wide, cfg, tc)
        assert traj.domain_size_suspect
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
        idx = np.argmin(np.abs(g.wavenumbers - kmode))
        errs = []
        dts = (4e-3, 2e-3, 1e-3)
        for dt in dts:
            u = SpectralState(g, np.zeros(16, dtype=complex), is_real_field=False)
            u.coefficients[idx] = 1.0
            t, steps = 0.0, int(round(0.4 / dt))
            for _ in range(steps):
                u = step_original(u, cs, t, dt, dealias_products=False)
                t += dt
            want = np.exp(1j * (kmode**3 * t - kmode * np.sin(t)))
            errs.append(abs(u.coefficients[idx] - want))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert order1 == pytest.approx(4.0, abs=0.4)
        assert order2 == pytest.approx(4.0, abs=0.4)


# -- reference: the complex-FFT RK4 / integrating-factor RK4 ----------------


def _reference_rhs(form, chat, k, co, mask, real_field):
    n = chat.size
    u, d1, d2, d3 = (np.fft.ifft((1j * k) ** p * chat * n) for p in range(4))
    if real_field:
        u, d1, d2, d3 = u.real, d1.real, d2.real, d3.real
    if form == "original":
        rhs = (-co["alpha"] * d3 - co["beta"] * d2 - co["gamma"] * d1
               - co["delta"] * u + co["epsilon"] * u * d1)
    else:
        rhs = (co["b"] * d2 - co["c"] * d1 - co["d"] * u
               + co["e"] * u * d1 + co["f"] * u * u)
    out = np.fft.fft(rhs) / n
    return out if mask is None else np.where(mask, out, 0.0)


def _reference_step(form, chat, k, coeffs_at, t, dt, mask, real_field):
    def rhs(c, tt):
        return _reference_rhs(form, c, k, coeffs_at(tt), mask, real_field)

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
    """Final coefficients after landing on every monitor time, as `solve` does."""
    grid = u0.grid
    mask = grid.dealias_mask if dealias else None
    chat = u0.coefficients.copy()
    chat[grid.nyquist_index] = 0.0
    if mask is not None:
        chat = np.where(mask, chat, 0.0)
    targets = iter(sorted(monitor_times))
    target = next(targets, None)
    t, eps = 0.0, 1e-12 * t_final
    while t < t_final - eps:
        upper = t_final if target is None else min(target, t_final)
        step = min(dt, upper - t)
        chat = _reference_step(form, chat, grid.wavenumbers, coeffs_at, t, step,
                               mask, u0.is_real_field)
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


class TestCoreMatchesReference:
    T = 0.004
    DT = 5e-4
    MONITOR = (0.0013, 0.0026, 0.0037)  # none on the dt lattice

    @pytest.fixture(scope="class")
    def setting(self):
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

    @pytest.mark.parametrize("form", ["original", "transformed"])
    @pytest.mark.parametrize("dealias", [True, False])
    def test_final_state_matches(self, setting, form, dealias):
        g, problems = setting
        problem, coeffs_at = problems[form]
        u0 = SpectralState.from_physical(g, 0.8 * np.exp(-(((g.x - 1.0) / 3.0) ** 2)))
        cfg = SolverConfig(form, t_final=self.T, dt=self.DT, s=1.0, dealias=dealias)
        traj = solve(u0, cfg, problem, monitor_times=self.MONITOR)
        want = _reference_solve(u0, form, coeffs_at, self.T, self.DT, self.MONITOR,
                                dealias)
        got = traj.final_state.coefficients
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert traj.times[1:-1].tolist() == pytest.approx(list(self.MONITOR), abs=1e-15)
        assert all(state.check_hermitian() for state in traj.states)

    @pytest.mark.parametrize("form", ["original", "transformed"])
    def test_single_step_matches_on_complex_field(self, setting, form):
        # complex fields take the full-spectrum transform pair
        g, problems = setting
        problem, coeffs_at = problems[form]
        rng = np.random.default_rng(7)
        noise = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        state = SpectralState(g, np.where(np.abs(g.wavenumbers) < 4.0, 1e-2 * noise, 0.0),
                              is_real_field=False)
        t = 0.1
        if form == "original":
            got = step_original(state, problem, t, self.DT)
            sample = coeffs_at
        else:
            got = step_transformed(state, problem.coefficients_at(t), t, self.DT)
            frozen = coeffs_at(t)

            def sample(_t):
                return frozen

        want = _reference_step(form, state.coefficients, g.wavenumbers, sample, t,
                               self.DT, g.dealias_mask, False)
        assert np.abs(got.coefficients - want).max() <= 1e-12 * np.abs(want).max()


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
        c = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * np.exp(-(k / band) ** 2)
        u0 = SpectralState.from_physical(g, np.fft.ifft(c * 64).real)
        u0 = (amplitude / np.abs(u0.physical()).max()) * u0
        if form == "original":
            problem, dt = CoefficientSet.constant_kdv(-6.0), 2e-5
        else:
            problem, dt = TransformedCoefficients.constant_kdv(g, epsilon=-6.0), 1e-4
        cfg = SolverConfig(form, t_final=0.005, dt=dt, s=1.0, warn_domain_edge=False)
        traj = solve(u0, cfg, problem, monitor_times=[0.0025, 0.005])
        l2s = np.array([l2_norm(state) for state in traj.states])
        ms = np.array([mass(state) for state in traj.states])
        assert not traj.blowup
        assert np.abs(l2s - l2s[0]).max() <= 1e-9 * l2s[0]
        assert np.abs(ms - ms[0]).max() <= 1e-12 * l2s[0]
