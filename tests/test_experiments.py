"""Experiment studies, fits, initial data, and report emission."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kdvgauge
from kdvgauge import gauge
from kdvgauge.coefficients import CoefficientSet
from kdvgauge.dyadic import ProjectorBank, project
from kdvgauge.experiments import (
    BonaSmithSpec,
    CommutatorSurveySpec,
    ContinuitySpec,
    SolitonBenchmarkSpec,
    TransformConsistencySpec,
    WavepacketSpec,
    envelope_peak,
    exact_soliton_values,
    fit_loglog,
    packet_state,
    run_experiment,
    soliton_state,
    spectrum_state,
    successive_difference_order,
    write_report,
)
from kdvgauge.solver import SolverConfig, auto_dt, solve
from kdvgauge.spectral import SpectralState, l2_norm, make_grid, sobolev_norm


class TestFitLoglog:
    def test_recovers_power_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        ys = 3.0 * xs**-1.7
        slope, intercept, resid = fit_loglog(xs, ys)
        assert slope == pytest.approx(-1.7, abs=1e-12)
        assert resid < 1e-12

    def test_reports_scatter(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        ys = np.array([1.0, 0.9, 0.1, 0.3])
        _, _, resid = fit_loglog(xs, ys)
        assert resid > 0.1

    @pytest.mark.parametrize("xs", [[4.0, 4.0], [2.0, 2.0, 2.0]])
    def test_refuses_repeated_abscissae(self, xs):
        # polyfit on one distinct abscissa returns a slope that means nothing
        with pytest.raises(ValueError, match="distinct abscissae"):
            fit_loglog(xs, np.arange(1.0, len(xs) + 1.0))

    def test_fit_does_not_import_numpy_ma(self):
        # np.unique imported numpy.ma (about 14 ms) on the first fit only to
        # count the distinct abscissae.  A subprocess, because other test
        # modules may have imported numpy.ma into this interpreter already.
        program = (
            "import sys\n"
            "from kdvgauge.experiments import fit_loglog\n"
            "fit_loglog([1.0, 2.0, 4.0], [1.0, 4.0, 16.0])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        path = [str(Path(kdvgauge.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        done = subprocess.run(
            [sys.executable, "-c", program], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["False"]


class TestSuccessiveDifferenceOrder:
    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("ratio", [10 ** (-1 / 4), 0.5])
    def test_recovers_order_on_geometric_sweeps(self, p, ratio):
        # u_dt = u* + C dt^p w: every successive difference is
        # C (1 - r^p) dt_j^p w up to rounding, whatever the field u*
        g = make_grid(np.pi, 64)
        u_star = SpectralState.from_physical(g, np.exp(-g.x**2))
        w = SpectralState.from_physical(g, np.sin(g.x) + 0.5 * np.cos(3 * g.x))
        dts = [0.5 * ratio**j for j in range(5)]
        finals = [u_star + (2.0 * dt**p) * w for dt in dts]
        rows, slope, resid = successive_difference_order(dts, finals)
        assert [r[0] for r in rows] == dts[:-1]
        assert slope == pytest.approx(p, abs=1e-9)
        assert resid < 1e-9


class TestInitialData:
    def test_spectrum_state_decay_and_norm(self):
        g = make_grid(np.pi, 512)
        rng = np.random.default_rng(0)
        u = spectrum_state(g, 1.0, 0.6, rng, target_hs=1.0)
        assert sobolev_norm(u, 1.0) == pytest.approx(1.0, rel=1e-12)
        c = np.abs(u.coefficients)
        k = g.wavenumbers
        sel = (k > 0) & (k < g.k_max)
        ratio = c[sel] * (1.0 + k[sel]) ** 1.6
        assert ratio.std() / ratio.mean() < 1e-12  # exact prescribed profile
        assert c[0] == 0.0 and c[-1] == 0.0  # no mean, no Nyquist content

    def test_soliton_closed_form(self):
        # the travelling wave solves the equation: residual via spectral ops
        g = make_grid(8 * np.pi, 512)
        from kdvgauge.spectral import SpectralState, derivative

        u = SpectralState.from_physical(
            g, exact_soliton_values(g.x, 0.0, 1.0, -6.0, 0.0)
        )
        # u_t = 4 kappa^2 * (-u_x) for the travelling profile
        ux = derivative(u, 1).physical()
        u3x = derivative(u, 3).physical()
        lhs = -4.0 * ux + u3x
        rhs = -6.0 * u.physical() * ux
        assert np.abs(lhs - rhs).max() < 1e-7

    def test_envelope_peak_reads_through_carrier(self):
        g = make_grid(16 * np.pi, 512)
        u = packet_state(g, 10.0, width=2.0, center=3.0, amplitude=0.7)
        assert envelope_peak(u) == pytest.approx(0.7, rel=1e-3)


class TestBonaSmith:
    def test_band_limited_datum_collapses(self):
        # if the datum already sits below every cutoff, all runs coincide
        cs = CoefficientSet.constant_kdv(-6.0)
        spec = BonaSmithSpec(
            cset=cs, grid=make_grid(np.pi, 256),
            solver=SolverConfig(t_final=0.02), n_sweep=(16, 32), reference_n=64, seed=1,
        )
        g = make_grid(np.pi, 256)
        bank = ProjectorBank(g)
        rng = np.random.default_rng(1)
        u0 = spectrum_state(g, 1.0, 0.6, rng, target_hs=0.5)
        low = project(u0, bank.p_leq(8))
        from kdvgauge.gauge import TransformedCoefficients
        from kdvgauge.solver import solve

        tc = TransformedCoefficients.constant_kdv(g, epsilon=-6.0)
        cfg = SolverConfig(t_final=0.02, dt=1e-4, s=1.0,
                           warn_domain_edge=False)
        monitor = np.linspace(0, 0.02, 5)[1:]
        t16 = solve(project(low, bank.p_leq(16)), cfg, tc, monitor_times=monitor)
        t64 = solve(project(low, bank.p_leq(64)), cfg, tc, monitor_times=monitor)
        diffs = [
            sobolev_norm(a - b, 0.0) for a, b in zip(t16.states, t64.states)
        ]
        assert max(diffs) < 1e-12

    def test_rate_small_case(self):
        cs = CoefficientSet.constant_kdv(-6.0)
        spec = BonaSmithSpec(
            cset=cs, grid=make_grid(np.pi, 1024),
            solver=SolverConfig(t_final=0.05), n_sweep=(8, 16, 32, 64), reference_n=128, seed=3,
        )
        rep = run_experiment(spec)
        slope = rep.slopes["bona_smith_rate"]["slope"]
        assert slope <= -0.75
        assert rep.passed

    def test_rejects_variable_coefficients(self):
        cs = CoefficientSet.from_strings(alpha="2+tanh(x)", alpha0=0.3)
        spec = BonaSmithSpec(cset=cs)
        with pytest.raises(ValueError, match="alpha identically 1"):
            run_experiment(spec)


class TestWavepacket:
    def test_no_region_unit_gain(self):
        cs = CoefficientSet.from_strings(alpha="1", epsilon="0")
        spec = WavepacketSpec(
            cset=cs, grid=make_grid(16 * np.pi, 512),
            xi0_sweep=(8.0,), region_beta0=0.0, packet_launch=6.0,
        )
        rep = run_experiment(spec)
        gain = rep.tables["gains"][1][0][2]
        assert gain == pytest.approx(1.0, abs=0.02)

    def test_gain_tracks_crossing_integral(self):
        # one carrier, small case: gain should approach
        # exp(integral beta / (3 alpha)) = exp(2 R beta0 / 3)
        cs = CoefficientSet.from_strings(alpha="1", epsilon="0")
        spec = WavepacketSpec(
            cset=cs, grid=make_grid(16 * np.pi, 1024),
            xi0_sweep=(12.0,), region_beta0=0.3, region_half_width=1.5,
            packet_launch=6.0,
        )
        rep = run_experiment(spec)
        gain = rep.tables["gains"][1][0][2]
        assert gain == pytest.approx(np.exp(2 * 1.5 * 0.3 / 3.0), rel=0.05)


class TestContinuity:
    def test_zero_perturbation_is_exact(self):
        from kdvgauge.gauge import TransformedCoefficients
        from kdvgauge.solver import solve
        from kdvgauge.experiments import soliton_state

        g = make_grid(8 * np.pi, 256)
        tc = TransformedCoefficients.constant_kdv(g, epsilon=-6.0)
        u0 = soliton_state(g, 1.0, -6.0)
        cfg = SolverConfig(t_final=0.1, dt=5e-4, s=1.0)
        a = solve(u0, cfg, tc).final_state
        b = solve(SpectralState(g, u0.coefficients.copy()), cfg, tc).final_state
        assert l2_norm(a - b) == 0.0

    def test_linear_ratio_exactly_stable(self):
        cs = CoefficientSet.from_strings(alpha="1", epsilon="0")
        spec = ContinuitySpec(
            cset=cs, grid=make_grid(8 * np.pi, 256),
            solver=SolverConfig(t_final=0.2),
        )
        rep = run_experiment(spec)
        ratios = [row[2] for row in rep.tables["sensitivity"][1]]
        assert max(ratios) / min(ratios) - 1.0 < 1e-10
        assert rep.passed

    def test_soliton_base_bounded(self):
        cs = CoefficientSet.constant_kdv(-6.0)
        spec = ContinuitySpec(
            cset=cs, grid=make_grid(8 * np.pi, 256),
            solver=SolverConfig(t_final=0.2),
        )
        rep = run_experiment(spec)
        assert rep.passed


class TestPlainKdVSolvesItsOwnSet:
    """Plain KdV solved as its CoefficientSet (the original form, whose a is
    the midrange 1 of alpha) is the solve of TransformedCoefficients.constant_kdv
    (the transformed form, a = 1), bit for bit; the plain-KdV kinds solve
    their own set."""

    GRID = make_grid(8 * np.pi, 256)

    @pytest.mark.parametrize("epsilon", ["0", "-6", "-6+sech(x)^2"])
    @pytest.mark.parametrize("dealias", [True, False])
    def test_either_form_gives_the_same_solve(self, dealias, epsilon):
        g = self.GRID
        cs = CoefficientSet.from_strings(alpha="1", epsilon=epsilon, alpha0=1.0)
        tc = gauge.TransformedCoefficients.constant_kdv(g, epsilon=0.0)
        tc.e = np.asarray(cs.epsilon.eval(0.0, g.x), dtype=float) * np.ones(g.num_points)
        rng = np.random.default_rng(5)
        u0 = soliton_state(g, 1.0, -6.0, center=-1.0) + 0.1 * spectrum_state(g, 1.0, 1.0, rng)
        cfg = SolverConfig(t_final=0.05, dealias=dealias, warn_domain_edge=False)
        assert auto_dt(cfg, cs, u0) == auto_dt(cfg, tc, u0)
        monitor = np.linspace(0.0, 0.05, 6)[1:]
        original, transformed = (solve(u0, cfg, problem, monitor_times=monitor)
                                 for problem in (cs, tc))
        assert original.times.tolist() == transformed.times.tolist()
        assert len(original.states) == len(transformed.states) == 6
        for a, b in zip(original.states, transformed.states):
            assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(original.hs_norms, transformed.hs_norms)
        assert np.array_equal(original.sup_norms, transformed.sup_norms)
        # the ledger is zero in both forms (+0 in the original, which has no b;
        # -0 in the transformed, whose b is 0), and each integrates to +0
        assert not original.dissipation.any() and not transformed.dissipation.any()
        assert original.seminorm_cumulative.tobytes() == transformed.seminorm_cumulative.tobytes()

    @pytest.mark.parametrize("kind", [BonaSmithSpec, ContinuitySpec, SolitonBenchmarkSpec])
    def test_each_kind_solves_its_own_set(self, kind):
        spec = kind(cset=CoefficientSet.constant_kdv(-6.0), grid=self.GRID)
        plans = spec.solves()
        assert plans and all(plan.problem is spec.cset for plan in plans)


class TestReportEmission:
    def _tiny_report(self):
        cs = CoefficientSet.constant_kdv()
        spec = CommutatorSurveySpec(
            cset=cs, grid=make_grid(8 * np.pi, 256),
            band_sweep=(8, 16, 32), draws=4, identity_draws=6,
            resonance_draws=50, seed=5,
        )
        return run_experiment(spec)

    def test_csv_and_json_layout(self, tmp_path):
        rep = self._tiny_report()
        write_report(rep, tmp_path, run_id="abc123", config_hash="ff" * 32)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["run_id"] == "abc123"
        assert summary["passed"] is True
        assert {v["name"] for v in summary["verdicts"]} >= {
            "comcom_identity",
            "resonance_factorization",
        }
        # every verdict cites its threshold
        assert all(v["threshold"] for v in summary["verdicts"])
        commu = (tmp_path / "commu.csv").read_text().splitlines()
        assert commu[0].startswith("# run_id: abc123")
        assert "N,measured_ratio,bound" in commu[2:4][-1] or commu[3] == "N,measured_ratio,bound"

    def test_emission_deterministic(self, tmp_path):
        rep = self._tiny_report()
        write_report(rep, tmp_path / "a", run_id="x", config_hash="y")
        rep2 = self._tiny_report()
        write_report(rep2, tmp_path / "b", run_id="x", config_hash="y")
        for name in ("summary.json", "commu.csv", "comcom.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_watermark_in_every_row(self, tmp_path):
        rep = self._tiny_report()
        rep.watermark = True
        write_report(rep, tmp_path, run_id="w", config_hash="h")
        lines = (tmp_path / "commu.csv").read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert all(ln.endswith("HYPOTHESIS-VIOLATING") for ln in data)

    def test_gnuplot_tables(self, tmp_path):
        rep = self._tiny_report()
        write_report(rep, tmp_path, run_id="g", config_hash="h", gnuplot=True)
        dat = (tmp_path / "commu.dat").read_text().splitlines()
        assert dat[0] == "# run_id: g"
        assert any(ln.startswith("# N measured_ratio bound") for ln in dat[:5])
        data = [ln for ln in dat if not ln.startswith("#")]
        assert len(data[0].split()) == 3

    def test_sign_note_in_survey(self):
        rep = self._tiny_report()
        assert any("sign" in note for note in rep.notes)


class TestSolverSettingsReachEverySolve:
    """Each solve gets the spec's `solver`, apart from the fields its kind
    replaces: bona_smith's edge warning and shared auto step, the
    wavepacket's traversal time and undealiased runs, and the order sweep's
    time and steps."""

    SOLVER = SolverConfig(t_final=0.01, dt=1e-3, s=2.0, dealias=False, blowup_threshold=50.0)

    @staticmethod
    def _recorded_configs(monkeypatch, spec):
        import kdvgauge.experiments as experiments

        configs = []
        solve = experiments.solve

        def recording(u0, cfg, *args, **kwargs):
            configs.append(cfg)
            return solve(u0, cfg, *args, **kwargs)

        monkeypatch.setattr(experiments, "solve", recording)
        run_experiment(spec)
        return configs

    def test_soliton_benchmark_order_sweep(self, monkeypatch):
        spec = SolitonBenchmarkSpec(
            cset=CoefficientSet.constant_kdv(-6.0), grid=make_grid(8 * np.pi, 256),
            solver=self.SOLVER, order_t_final=0.004, dt_sweep=(1e-3, 5e-4, 2.5e-4),
        )
        configs = self._recorded_configs(monkeypatch, spec)
        assert len(configs) == 4  # the benchmark run and three sweep runs
        assert configs[0] == spec.solver
        assert configs[1:] == [
            replace(spec.solver, t_final=0.004, dt=dt) for dt in spec.dt_sweep
        ]

    def test_soliton_benchmark_steps_at_auto_dt(self, monkeypatch):
        # the monitored run keeps dt = "auto", which solve resolves by auto_dt
        import kdvgauge.solver as solver

        spec = SolitonBenchmarkSpec(
            cset=CoefficientSet.constant_kdv(-6.0), grid=make_grid(8 * np.pi, 256),
            solver=replace(self.SOLVER, dt="auto"), order_t_final=0.004,
            dt_sweep=(1e-3, 5e-4, 2.5e-4),
        )
        steps, step_size = [], solver._step_size

        def recording(*args):
            steps.append(step_size(*args))
            return steps[-1]

        monkeypatch.setattr(solver, "_step_size", recording)
        configs = self._recorded_configs(monkeypatch, spec)
        assert configs[0] == spec.solver
        monitored = spec.solves()[0]
        assert steps == [auto_dt(spec.solver, monitored.problem, monitored.u0),
                         *spec.dt_sweep]

    def test_wavepacket_keeps_its_undealiased_runs(self, monkeypatch):
        spec = WavepacketSpec(
            cset=CoefficientSet.from_strings(alpha="1", epsilon="0"),
            grid=make_grid(16 * np.pi, 256), xi0_sweep=(4.0,), region_beta0=0.0,
            packet_launch=6.0, solver=replace(self.SOLVER, dealias=True),
        )
        configs = self._recorded_configs(monkeypatch, spec)
        T = 2.0 * 6.0 / (3.0 * 4.0**2)
        assert configs == [replace(spec.solver, t_final=T, dealias=False)]

    def test_bona_smith_shares_one_auto_dt(self, monkeypatch):
        spec = BonaSmithSpec(
            cset=CoefficientSet.constant_kdv(-6.0), grid=make_grid(np.pi, 256),
            solver=replace(self.SOLVER, dt="auto"), n_sweep=(16, 32), reference_n=64,
        )
        configs = self._recorded_configs(monkeypatch, spec)
        assert len(configs) == 3  # the reference and two cutoffs
        assert isinstance(configs[0].dt, float)
        assert configs == 3 * [replace(spec.solver, warn_domain_edge=False, dt=configs[0].dt)]

    def test_continuity(self, monkeypatch):
        spec = ContinuitySpec(
            cset=CoefficientSet.constant_kdv(-6.0), grid=make_grid(8 * np.pi, 256),
            solver=self.SOLVER,
        )
        configs = self._recorded_configs(monkeypatch, spec)
        assert configs == 4 * [spec.solver]  # the base and three perturbations

    def test_transform_consistency(self, monkeypatch):
        spec = TransformConsistencySpec(
            cset=CoefficientSet.from_strings(alpha="1", epsilon="0"),
            grid=make_grid(8 * np.pi, 256), solver=self.SOLVER, refine_sweep=(64,),
        )
        configs = self._recorded_configs(monkeypatch, spec)
        assert configs == 2 * [spec.solver]  # the original and transformed forms


class TestTimeDependentGaugePath:
    @pytest.mark.slow
    def test_mutual_oracle_with_drifting_coefficients(self, monkeypatch):
        # every coefficient depends on t; the transformed path rebuilds the
        # gauge at the RK stage times, so agreement with the original-form
        # discretization validates the drift terms (A_t and h_t/h) end to end
        built, blocks, unannounced = [], [], []
        build_map, build_maps = gauge.build_gauge_map, gauge.build_gauge_maps

        def counted_map(cset, t, source_grid, image_grid):
            unannounced.append((source_grid.num_points, t))
            return build_map(cset, t, source_grid, image_grid)

        def counted_maps(cset, times, source_grid, image_grid):
            # every slice is built here, one row per time
            built.extend((source_grid.num_points, t) for t in times)
            blocks.append(len(times))
            return build_maps(cset, times, source_grid, image_grid)

        monkeypatch.setattr(gauge, "build_gauge_map", counted_map)
        monkeypatch.setattr(gauge, "build_gauge_maps", counted_maps)
        cs = CoefficientSet.from_strings(
            alpha="2+0.5*cos(t)*sech(x/4)^2",
            beta="0.2*sech(x/4)^2-0.1*sech(x/8)^2",
            beta1="0.2*sech(x/4)^2",
            beta2="-0.1*sech(x/8)^2",
            gamma="0.1*sech(x/4)^2",
            delta="0.05",
            epsilon="1",
            alpha0=0.4,
        )
        spec = TransformConsistencySpec(
            cset=cs, grid=make_grid(16 * np.pi, 512),
            refine_sweep=(256, 512), solver=SolverConfig(t_final=0.1, s=1.0), gaussian_width=1.5,
        )
        rep = run_experiment(spec)
        rows = rep.tables["discrepancy"][1]
        assert rows[-1][1] < 1e-8
        assert rows[0][1] > rows[-1][1]
        # each (grid, t) slice, map and b..f together, is built once: the 81
        # kept times 0 and the monitor times plus the 80 half steps, on each
        # of the two grids
        assert len(built) == len(set(built)) == 2 * (81 + 80)
        # the solves' stage times come in blocks; only the t = 0 slice of
        # each grid, asked for before its solve announces, is built alone
        assert max(blocks) > 1
        assert sorted(unannounced) == [(256, 0.0), (512, 0.0)]


class TestSingleLevelSweep:
    def test_no_fit_for_one_level(self):
        cs = CoefficientSet.from_strings(alpha="1", epsilon="0")
        spec = TransformConsistencySpec(
            cset=cs, grid=make_grid(8 * np.pi, 512),
            refine_sweep=(256,), solver=SolverConfig(t_final=0.05), gaussian_width=1.0,
        )
        rep = run_experiment(spec)
        assert "refinement_order" not in rep.slopes
        assert any("single-level" in n for n in rep.notes)
        assert rep.passed  # identity gauge: tiny path difference

    def test_repeated_level_is_single_level(self):
        # one distinct grid gives no refinement to fit
        cs = CoefficientSet.from_strings(alpha="1", epsilon="0")
        spec = TransformConsistencySpec(
            cset=cs, grid=make_grid(8 * np.pi, 512),
            refine_sweep=(256, 256), solver=SolverConfig(t_final=0.05), gaussian_width=1.0,
        )
        rep = run_experiment(spec)
        assert "refinement_order" not in rep.slopes
        assert any("single-level" in n for n in rep.notes)

    def test_fit_loglog_needs_two_points(self):
        with pytest.raises(ValueError, match="two points"):
            fit_loglog([4.0], [1.0])
