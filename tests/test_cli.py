"""Config ingestion, schema diagnostics, run orchestration, determinism."""

import io
import json
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kdvgauge
from kdvgauge import solver as solver_module
from kdvgauge.cli import ConfigError, main, parse_config, run
from kdvgauge.coefficients import CoefficientSet, check_hypotheses
from kdvgauge.experiments import EXPERIMENTS, SolitonBenchmarkSpec
from kdvgauge.solver import STEP_BUDGET, SolverConfig, _step_size, auto_dt, solve
from kdvgauge.spectral import make_grid
from test_expressions import _TREES, _text

MINIMAL = """
[coefficients]
alpha = 1
epsilon = -6

[experiment]
kind = soliton_benchmark
"""

SURVEY = """
[grid]
half_width = pi
num_points = 256

[coefficients]
alpha = 1

[experiment]
kind = commutator_survey
band_sweep = 8, 16, 32
draws = 4
identity_draws = 6
resonance_draws = 50
seed = 5
"""

VIOLATING = """
[coefficients]
alpha = 1
beta = 1

[split]
strategy = user
beta1 = 1
beta2 = 0

[grid]
half_width = pi
num_points = 256

[experiment]
kind = commutator_survey
band_sweep = 8, 16
draws = 2
identity_draws = 2
resonance_draws = 10
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParseConfig:
    def test_minimal_valid(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.spec.kind == "soliton_benchmark"
        assert cfg.values["grid"]["half_width"] == pytest.approx(8 * np.pi)
        assert len(cfg.run_id) == 12
        assert len(cfg.config_hash) == 64

    def test_typo_suggestion(self, tmp_path):
        bad = MINIMAL.replace("alpha = 1", "alpa = 1")
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, bad))
        text = "\n".join(err.value.violations)
        assert "alpa" in text and "did you mean 'alpha'" in text

    def test_expression_error_with_column(self, tmp_path):
        bad = MINIMAL.replace("alpha = 1", "alpha = 2+tanh(")
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, bad))
        assert "column 7" in "\n".join(err.value.violations)

    def test_all_violations_reported(self, tmp_path):
        bad = """
[coefficients]
alpa = 1
beta = tanh(

[experiment]
kind = nonsense
"""
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, bad))
        text = "\n".join(err.value.violations)
        assert "alpa" in text
        assert "unclosed" in text
        assert "kind" in text

    def test_missing_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="kind"):
            parse_config(write_cfg(tmp_path, "[coefficients]\nalpha = 1\n"))

    def test_unknown_section_suggested(self, tmp_path):
        bad = MINIMAL + "\n[solvr]\ndt = 0.1\n"
        with pytest.raises(ConfigError, match=r"\[solver\]"):
            parse_config(write_cfg(tmp_path, bad))

    def test_non_constant_half_width_rejected(self, tmp_path):
        bad = MINIMAL + "\n[grid]\nhalf_width = 2*x\n"
        with pytest.raises(ConfigError, match="constant"):
            parse_config(write_cfg(tmp_path, bad))

    def test_hash_ignores_nothing_semantic(self, tmp_path):
        a = parse_config(write_cfg(tmp_path, MINIMAL, "a.cfg"))
        b = parse_config(write_cfg(tmp_path, MINIMAL + "\n# comment\n", "b.cfg"))
        assert a.config_hash == b.config_hash


class TestRun:
    def test_survey_run_exit_zero(self, tmp_path, capsys):
        cfg = parse_config(write_cfg(tmp_path, SURVEY))
        code = run(cfg, tmp_path / "out")
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.slow
    def test_soliton_run_emits_norms_csv(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        code = run(cfg, tmp_path / "out")
        assert code == 0
        norms = (tmp_path / "out" / "norms.csv").read_text().splitlines()
        header = [ln for ln in norms if not ln.startswith("#")][0]
        assert header == "t,hs_norm,seminorm_cumulative,sup_norm,dissipation"

    def test_soliton_solves_take_the_flux_plan(self, tmp_path, monkeypatch):
        # plain KdV with a constant e: every solve of the benchmark steps in
        # flux form, one inverse transform per right-hand side, which is
        # where the soliton workload's time goes
        built = []
        plan_for = solver_module._RK4._plan_for

        def spy(self, co):
            if co is not self._plan_source:
                built.append(plan_for(self, co))
            return plan_for(self, co)

        monkeypatch.setattr(solver_module._RK4, "_plan_for", spy)
        short = MINIMAL + "order_t_final = 0.004\n\n[solver]\nt_final = 0.01\n"
        assert main(["run", str(write_cfg(tmp_path, short)), "-o", str(tmp_path / "out")]) == 0
        assert len(built) == 6  # the monitored run and the five of the dt sweep
        assert all(isinstance(plan, np.ndarray) for plan in built)

    def test_hypothesis_gate_blocks(self, tmp_path, capsys):
        cfg = parse_config(write_cfg(tmp_path, VIOLATING))
        code = run(cfg, tmp_path / "out")
        assert code == 2
        out = capsys.readouterr().out
        assert "H3b gauge bounded below" in out
        assert "FAIL" in out
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_override_watermarks(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, VIOLATING))
        code = run(cfg, tmp_path / "out", allow_hypothesis_violation=True)
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["hypothesis_violating"] is True
        rows = [
            ln
            for ln in (tmp_path / "out" / "commu.csv").read_text().splitlines()
            if not ln.startswith("#")
        ][1:]
        assert all(ln.endswith("HYPOTHESIS-VIOLATING") for ln in rows)

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SURVEY)
        for sub in ("o1", "o2"):
            code = main(["run", str(cfg_path), "-o", str(tmp_path / sub)])
            assert code == 0
        for name in ("summary.json", "commu.csv", "comcom.csv", "resonance.csv"):
            a = (tmp_path / "o1" / name).read_bytes()
            b = (tmp_path / "o2" / name).read_bytes()
            assert a == b

    def test_seed_override_changes_run_id(self, tmp_path):
        cfg_path = write_cfg(tmp_path, SURVEY)
        main(["run", str(cfg_path), "-o", str(tmp_path / "s0")])
        main(["run", str(cfg_path), "-o", str(tmp_path / "s9"), "--seed", "9"])
        a = json.loads((tmp_path / "s0" / "summary.json").read_text())
        b = json.loads((tmp_path / "s9" / "summary.json").read_text())
        assert a["run_id"] != b["run_id"]
        assert a["config_sha256"] == b["config_sha256"]


class TestMain:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for kind in ("soliton_benchmark", "wavepacket", "bona_smith"):
            assert kind in out

    def test_check_pass_and_fail(self, tmp_path, capsys):
        ok = write_cfg(tmp_path, MINIMAL, "ok.cfg")
        assert main(["check", str(ok)]) == 0
        bad = write_cfg(tmp_path, VIOLATING, "bad.cfg")
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "unbounded trend" in out

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, MINIMAL.replace("alpha", "alpa"))
        assert main(["run", str(bad), "-o", str(tmp_path / "x")]) == 2
        assert "did you mean" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg"), "-o", str(tmp_path)]) == 2

    @pytest.mark.slow
    def test_run_and_check_without_scipy(self, tmp_path):
        # scipy is only a test oracle: with every scipy import blocked, both
        # commands complete.  A subprocess, because other test modules have
        # imported scipy into this interpreter already.
        cfg, out = str(write_cfg(tmp_path, MINIMAL)), str(tmp_path / "out")
        program = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from kdvgauge.cli import main\n"
            f"codes = [main(['check', {cfg!r}]), main(['run', {cfg!r}, '-o', {out!r}])]\n"
            "print('exit codes', codes)\n"
        )
        path = [str(Path(kdvgauge.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        done = subprocess.run(
            [sys.executable, "-c", program], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "exit codes [0, 0]", done.stdout + done.stderr


KIND_CONFIGS = {
    "transform_consistency": """
[grid]
half_width = 32*pi
num_points = 512

[coefficients]
alpha = 2+0.5*tanh(x/4)
beta = -0.2*sech(x/4)^2
alpha0 = 0.4

[split]
strategy = user
beta1 = 0
beta2 = -0.2*sech(x/4)^2

[solver]
t_final = 0.1

[experiment]
kind = transform_consistency
refine_sweep = 256, 512
""",
    "bona_smith": """
[grid]
half_width = pi
num_points = 1024

[coefficients]
alpha = 1
epsilon = -6

[solver]
t_final = 0.05

[experiment]
kind = bona_smith
n_sweep = 8, 16, 32, 64
reference_n = 128
seed = 3
""",
    "wavepacket": """
[grid]
half_width = 16*pi
num_points = 512

[coefficients]
alpha = 1
epsilon = 0

[experiment]
kind = wavepacket
xi0_sweep = 8
region_beta0 = 0.3
region_half_width = 1.5
packet_launch = 6
""",
    "continuity": """
[grid]
half_width = 8*pi
num_points = 256

[coefficients]
alpha = 1
epsilon = -6

[solver]
t_final = 0.2

[experiment]
kind = continuity
""",
}

# every [solver] key set explicitly, none at its default
EXPLICIT_SOLVER = """
[grid]
half_width = 8*pi
num_points = 256

[coefficients]
alpha = 1
epsilon = -6

[solver]
t_final = 0.1
dt = 1e-4
s = 2
dealias = false
blowup_threshold = 1e3

[experiment]
kind = continuity
"""


def _with_line(text: str, section: str, line: str) -> str:
    """`text` with `line` added to its [section], appended if absent."""
    header = f"[{section}]\n"
    if header in text:
        return text.replace(header, header + line + "\n", 1)
    return text + f"\n{header}{line}\n"


# case -> a config whose solves blow up or carry mass to the domain edge:
# each solving kind under a sup-norm cap below its datum's height, and
# transform_consistency run long enough to blow up at dt = 0.01 on n = 512
# and to reach the edge of its domain; the first on half the domain, where
# n = 512's explicit (alpha - a) u_xxx caps dt at 1.6e-3
BLOWN_UP = {
    **{kind: _with_line(text, "solver", "blowup_threshold = 1e-3")
       for kind, text in [("soliton_benchmark", MINIMAL), *KIND_CONFIGS.items()]},
    "transform_consistency t_final = 1": KIND_CONFIGS["transform_consistency"].replace(
        "t_final = 0.1", "t_final = 1\ndt = 0.01"
    ).replace("half_width = 32*pi", "half_width = 16*pi"),
    "transform_consistency t_final = 10": KIND_CONFIGS["transform_consistency"].replace(
        "t_final = 0.1", "t_final = 10"
    ),
}


# case -> (config, the refusal that names its key); each used to pass `check`
# and end `run` in a bare error or a verdict with nothing to measure
REFUSED_VALUES = {
    "soliton alpha": (
        MINIMAL.replace("alpha = 1", "alpha = 2\nalpha0 = 0.5"),
        "[coefficients] alpha: soliton_benchmark needs alpha identically 1, got '2'",
    ),
    "soliton epsilon": (
        MINIMAL.replace("epsilon = -6", "epsilon = 0"),
        "[coefficients] epsilon: soliton_benchmark needs a nonzero constant epsilon",
    ),
    "bona_smith gamma": (
        _with_line(KIND_CONFIGS["bona_smith"], "coefficients", "gamma = 0.3*sech(x)^2"),
        "[coefficients] gamma: bona_smith needs gamma identically 0",
    ),
    # the datum's spectrum or its H^s norm leaves the float range: offset 1000
    # used to end run in a bare "float division by zero", and -300 and s = 400
    # in nan verdicts (exit 1)
    **{
        f"bona_smith datum at {where}": (
            _with_line(KIND_CONFIGS["bona_smith"], section, line),
            "[experiment] spectrum_decay_offset, [solver] s: the datum of "
            f"spectrum_decay_offset = {offset} scaled to unit H^s norm at s = {s} is not "
            "finite on this grid",
        )
        for where, section, line, offset, s in [
            ("offset 1000", "experiment", "spectrum_decay_offset = 1000", "1000", "1"),
            ("offset -300", "experiment", "spectrum_decay_offset = -300", "-300", "1"),
            ("s 400", "solver", "s = 400", "0.6", "400"),
        ]
    },
    # the datum's tail past the largest cutoff underflows to 0: check passed,
    # and run ended in a bare "float division by zero" at the structure ratio
    "bona_smith datum tail at offset 300": (
        _with_line(KIND_CONFIGS["bona_smith"], "experiment", "spectrum_decay_offset = 300"),
        "[experiment] spectrum_decay_offset, [solver] s: the datum's H^s tail past the "
        "largest cutoff (64) must be nonzero, since the structure ratio divides by it; got "
        "0 with spectrum_decay_offset = 300 and s = 1",
    ),
    "bona_smith auto dt beyond the step budget": (
        KIND_CONFIGS["bona_smith"].replace("t_final = 0.05", "t_final = 1e4"),
        "[solver] dt: t_final / dt = 1.58e+07 steps exceeds the step budget of 1e+07; "
        "got dt = 0.000633184 with t_final = 10000",
    ),
    # the weight (1 + k^2)^s of the direction's norm overflows: check passed,
    # and run ended with "FAIL ratio_bounded: value nan"
    "continuity s 200": (
        _with_line(KIND_CONFIGS["continuity"], "solver", "s = 200"),
        "[solver] s: the perturbation direction's H^s norm must be finite and positive "
        "on this grid; got inf with s = 200",
    ),
    # kappa^2 overflows: parsed, then run ended in a bare OverflowError
    "continuity kappa past the float range": (
        KIND_CONFIGS["continuity"] + "kappa = 1e155\n",
        "[experiment] kappa: the soliton of kappa = 1e+155 is not finite on this grid",
    ),
    "continuity epsilon(t)": (
        KIND_CONFIGS["continuity"].replace("epsilon = -6", "epsilon = -6*cos(t)"),
        "[coefficients] epsilon: continuity needs time-independent coefficients",
    ),
    "alpha0": (
        _with_line(MINIMAL, "coefficients", "alpha0 = 0"),
        "[coefficients] alpha0: must be positive and finite, got 0",
    ),
    "softplus kappa": (
        _with_line(SURVEY, "split", "strategy = softplus\nkappa = -1"),
        "[split] kappa: must be positive and finite, got -1",
    ),
    "t_final": (
        _with_line(MINIMAL, "solver", "t_final = 0"),
        "[solver] t_final: must be positive and finite, got 0",
    ),
    "dt": (
        _with_line(MINIMAL, "solver", "dt = -1e-3"),
        "[solver] dt: must be positive and finite, got -0.001",
    ),
    # t += dt stops advancing t once dt is below half an ulp of t, so the
    # solve never ended (run was still going, with no output, at 15 s)
    "dt beyond the step budget": (
        _with_line(MINIMAL, "solver", "dt = 1e-300"),
        "[solver] dt: t_final / dt = 5e+299 steps exceeds the step budget of 1e+07; "
        "got dt = 1e-300 with t_final = 0.5",
    ),
    "t_final beyond the step budget": (
        _with_line(MINIMAL, "solver", "t_final = 1e300\ndt = 1e-3"),
        "[solver] dt: t_final / dt = 1e+303 steps exceeds the step budget of 1e+07; "
        "got dt = 0.001 with t_final = 1e+300",
    ),
    # the wavepacket's solves step to the traversal time 0.25, not to t_final
    "dt beyond the step budget of a traversal": (
        _with_line(
            KIND_CONFIGS["wavepacket"].replace("xi0_sweep = 8", "xi0_sweep = 4"),
            "solver", "t_final = 1e-9\ndt = 1e-16",
        ),
        "[solver] dt: the solve of xi0 = 4 steps to its traversal time 0.25, not to "
        "[solver] t_final: t_final / dt = 2.5e+15 steps exceeds the step budget of 1e+07; "
        "got dt = 1e-16 with t_final = 0.25",
    ),
    "blowup_threshold": (
        _with_line(MINIMAL, "solver", "blowup_threshold = -1"),
        "[solver] blowup_threshold: must be positive and finite, got -1",
    ),
    "num_points": (
        _with_line(MINIMAL, "grid", "num_points = 100"),
        "[grid] num_points must be a power of two >= 16, got 100",
    ),
    "draws": (
        SURVEY.replace("draws = 4", "draws = 0"),
        "[experiment] draws: must be positive and finite, got 0",
    ),
    "identity_draws": (
        SURVEY.replace("identity_draws = 6", "identity_draws = 0"),
        "[experiment] identity_draws: must be positive and finite, got 0",
    ),
    "resonance_draws": (
        SURVEY.replace("resonance_draws = 50", "resonance_draws = 0"),
        "[experiment] resonance_draws: must be positive and finite, got 0",
    ),
    "perturbation_sizes": (
        KIND_CONFIGS["continuity"] + "perturbation_sizes = 0.01, 0\n",
        "[experiment] perturbation_sizes: must be positive and finite, got 0",
    ),
    # the size rounds away against the soliton: check passed, and run ended in
    # a bare "float division by zero" at the ratios' spread
    "perturbation size that rounds away": (
        KIND_CONFIGS["continuity"] + "perturbation_sizes = 0.01, 1e-200\n",
        "[experiment] perturbation_sizes: size 1e-200 leaves the soliton of kappa = 1 "
        "unchanged in H^s on the modes a solve keeps, so its sensitivity ratio would be 0, "
        "and the verdict divides by the smallest ratio",
    ),
    "soliton kappa": (
        MINIMAL + "kappa = 0\n",
        "[experiment] kappa: must be nonzero and finite, got 0",
    ),
    "refine_sweep": (
        KIND_CONFIGS["transform_consistency"].replace("refine_sweep = 256, 512", "refine_sweep = 100"),
        "[experiment] refine_sweep: size 100: num_points must be a power of two >= 16",
    ),
    "gaussian_width": (
        KIND_CONFIGS["transform_consistency"] + "gaussian_width = 0\n",
        "[experiment] gaussian_width: must be positive and finite, got 0",
    ),
    # width^2 overflows: the flat datum reaches the edge (it used to end run
    # with "error: (34, 'Numerical result out of range')" and a traceback)
    "gaussian_width out of scale": (
        KIND_CONFIGS["transform_consistency"] + "gaussian_width = 1e200\n",
        "[experiment] gaussian_width, gaussian_amplitude: the Gaussian of width 1e+200 has edge mass 0.098 "
        "> 1e-06 (the outer 10% of the domain of half_width 100.531)",
    ),
    # wide enough to reach the edge of the half_width 32 pi grid, where the run
    # used to end (exit 2) at the transports' source-domain edge check
    "gaussian at the edge": (
        KIND_CONFIGS["transform_consistency"] + "gaussian_width = 100\n",
        "[experiment] gaussian_width, gaussian_amplitude: the Gaussian of width 100 has edge mass 0.053 "
        "> 1e-06 (the outer 10% of the domain of half_width 100.531)",
    ),
    # the datum underflows to zero at every node: its refusal named only
    # gaussian_width, whose default 2 is not what made it zero
    "gaussian amplitude underflows": (
        KIND_CONFIGS["transform_consistency"] + "gaussian_amplitude = 1e-200\n",
        "[experiment] gaussian_width, gaussian_amplitude: the Gaussian of width 2 is zero "
        "on this grid",
    ),
    "packet_width": (
        KIND_CONFIGS["wavepacket"] + "packet_width = 0\n",
        "[experiment] packet_width: must be positive and finite, got 0",
    ),
    # it divides in the region's beta: -0.3 flipped the region (a FAIL), and 0
    # gave a step (a PASS)
    "region_smoothing": (
        KIND_CONFIGS["wavepacket"] + "region_smoothing = 0\n",
        "[experiment] region_smoothing: must be positive and finite, got 0",
    ),
    "packet_launch": (
        KIND_CONFIGS["wavepacket"].replace("packet_launch = 6", "packet_launch = 0"),
        "[experiment] packet_launch: must be positive and finite, got 0",
    ),
    # the order sweep's solves step to order_t_final, not to [solver] t_final
    "soliton order_t_final": (
        _with_line(MINIMAL, "experiment", "order_t_final = 0"),
        "[experiment] order_t_final: must be positive and finite, got 0",
    ),
    "order sweep beyond the step budget": (
        _with_line(MINIMAL, "experiment", "order_t_final = 1e9"),
        "[experiment] order_t_final: t_final / dt = 2.5e+13 steps exceeds the step budget "
        "of 1e+07; got dt = 4e-05 with t_final = 1e+09",
    ),
    # under dt = auto the soliton study's monitored run steps at auto_dt,
    # 9.77e-4 on the default grid
    "auto soliton run beyond the step budget": (
        _with_line(MINIMAL, "solver", "t_final = 1e4"),
        "[solver] dt: t_final / dt = 1.02e+07 steps exceeds the step budget of 1e+07; "
        "got dt = 0.000976888 with t_final = 10000",
    ),
    # 2 pi / dx overflows: check ended in numpy's invalid-value warning from
    # the wavenumbers, inf times 0
    "grid of subnormal width": (
        MINIMAL + "\n[grid]\nhalf_width = 2.225073858507203e-309\nnum_points = 16\n",
        "[grid] half_width must leave the period 2 half_width and the largest "
        "wavenumber pi num_points / (2 half_width) finite, got 2.22507e-309 with "
        "num_points = 16",
    ),
    # 2 half_width overflows: dx is inf and the first node inf * 0, a nan
    "grid of overflowing width": (
        MINIMAL + "\n[grid]\nhalf_width = 1e308\nnum_points = 16\n",
        "[grid] half_width must leave the period 2 half_width and the largest "
        "wavenumber pi num_points / (2 half_width) finite, got 1e+308 with "
        "num_points = 16",
    ),
    # a count just above the budget used to print as "1e+07"
    "dt just beyond the step budget": (
        _with_line(MINIMAL, "solver", "dt = 4.99e-8"),
        "[solver] dt: t_final / dt = 1.002e+07 steps exceeds the step budget of 1e+07; "
        "got dt = 4.99e-08 with t_final = 0.5",
    ),
    "auto soliton run just beyond the step budget": (
        _with_line(MINIMAL, "solver", "t_final = 9769"),
        "[solver] dt: t_final / dt = 1.00001e+07 steps exceeds the step budget of 1e+07; "
        "got dt = 0.000976888 with t_final = 9769",
    ),
    # the original-form solves step at 4.2e-11 and 5.2e-12 under dt = auto,
    # set by the explicit (alpha - a) u_xxx: check passed, and run ended at
    # solve's budget check (exit 2); the key is named once, by its longest
    # refused solve
    "transform_consistency auto dt beyond the step budget": (
        KIND_CONFIGS["transform_consistency"].replace("half_width = 32*pi", "half_width = 0.01")
        + "gaussian_width = 0.0005\n",
        "[solver] dt: the original-form solve on n = 512 points: t_final / dt = 1.92e+10 "
        "steps exceeds the step budget of 1e+07; got dt = 5.20049e-12 with t_final = 0.1",
    ),
    # the soliton's height -12 kappa^2 / epsilon overflows: run ended in
    # "error: (34, 'Numerical result out of range')"
    **{
        f"soliton {name} past the float range": (
            MINIMAL + f"{name} = 1e155\n",
            f"[experiment] {name}: the soliton of {name} = 1e+155 is not finite on this grid",
        )
        for name in ("kappa", "order_kappa")
    },
    # the wave falls to zero between the nodes: run exited 1 with nan
    # l2_conservation and mass_conservation
    "soliton kappa zero on the grid": (
        MINIMAL + "kappa = 1e10\n",
        "[experiment] kappa: the soliton of kappa = 1e+10 is zero on this grid",
    ),
    # a few nodes hold values near 1e-240, whose squares underflow: run exited
    # 1 with a nan l2_conservation
    "soliton kappa without an L2 norm on the grid": (
        MINIMAL + "kappa = 15717\n",
        "[experiment] kappa: the soliton of kappa = 15717 is zero on this grid",
    ),
    # width^2 overflows: the flat envelope reaches the edge (it used to end
    # check in an OverflowError traceback)
    "packet_width out of scale": (
        "[experiment]\nkind = wavepacket\npacket_width = 1e200\n",
        "[experiment] packet_launch, packet_width: the packet of xi0 = 10 has edge mass "
        "0.1 > 1e-06",
    ),
    # launched at 30 on the default grid (half_width 8 pi) the packet sits at
    # the edge, where the gains measure the periodic wrap
    "packet at the edge": (
        "[experiment]\nkind = wavepacket\npacket_launch = 30\n",
        "[experiment] packet_launch, packet_width: the packet of xi0 = 10 has edge mass "
        "1 > 1e-06 (the outer 10% of the domain of half_width 25.1327)",
    ),
    # the check read only the base solve: run would take about 1e7 base steps
    # before solve refused the first perturbed one, of 1.0003e7 steps
    "continuity perturbed solve beyond the step budget": (
        KIND_CONFIGS["continuity"].replace("t_final = 0.2", "t_final = 19500"),
        "[solver] dt: t_final / dt = 1.0003e+07 steps exceeds the step budget of 1e+07; "
        "got dt = 0.0019495 with t_final = 19500",
    ),
    # run warned that the solution reached the outer 10% (4.65e-4) and exited 1
    # with FAIL soliton_l2_error
    "soliton kappa at the edge": (
        MINIMAL + "kappa = 0.1\n",
        "[experiment] kappa: the soliton of kappa = 0.1 has edge mass 0.00046 > 1e-06 "
        "(the outer 10% of the domain of half_width 25.1327)",
    ),
    # the solve keeps the dealiased band of the wave, which rings out to the
    # edge on 32 points: run warned "enlarge half_width" and exited 1; the
    # wave itself is off the edge, so the grid's key is named, once
    "soliton unresolved on the grid": (
        _with_line(MINIMAL, "grid", "num_points = 32"),
        "[grid] num_points: the soliton of kappa = 1 is not resolved on n = 32 points: "
        "cut to the modes a solve keeps, it has edge mass 0.00079 > 1e-06 "
        "(the outer 10% of the domain of half_width 25.1327)\n",
    ),
    # the same on a grid of the sweep, whose size is a knob of the kind
    "gaussian unresolved on a grid of the sweep": (
        KIND_CONFIGS["transform_consistency"].replace("refine_sweep = 256, 512", "refine_sweep = 16"),
        "[experiment] refine_sweep: the Gaussian of width 2 is not resolved on n = 16 points: "
        "cut to the modes a solve keeps, it has edge mass 0.0057 > 1e-06 "
        "(the outer 10% of the domain of half_width 100.531)",
    ),
    # the kept Gaussian is off the edge, but its band reaches the cut, and
    # dispersion carries the modes next to it across the domain: run warned
    # "enlarge half_width" twice and ended in the transport's edge error (exit 2)
    "gaussian cut by the solve's truncation": (
        KIND_CONFIGS["transform_consistency"] + "gaussian_width = 1\n",
        "[experiment] refine_sweep: the Gaussian of width 1 is not resolved on n = 256 points: "
        "the modes a solve drops hold 0.00016 > 1e-06 of its squared L2 norm",
    ),
    # the region is beta >= 0: run integrated beta = 0 but reported the
    # heuristic of the negative value (0.4066) and passed no_antidiffusion_gain
    "wavepacket negative region_beta0": (
        KIND_CONFIGS["wavepacket"].replace("region_beta0 = 0.3", "region_beta0 = -0.225"),
        "[experiment] region_beta0: must be nonnegative and finite, got -0.225",
    ),
    # a window below the sweep's largest step cuts those runs to one landing
    # step: run fitted a temporal order of -465 from runs that measure nothing
    "order window shorter than the largest step": (
        _with_line(MINIMAL, "experiment", "order_t_final = 1e-4"),
        "[experiment] order_t_final: must be at least the largest step of dt_sweep "
        "(0.0004), since a shorter window cuts that run to one landing step; got 0.0001",
    ),
    # the linear study's base is a Gaussian of fixed width, so the key is the
    # grid's; run warned "enlarge half_width" three times
    "continuity Gaussian at the edge": (
        KIND_CONFIGS["continuity"].replace("epsilon = -6", "epsilon = 0")
        .replace("half_width = 8*pi", "half_width = 2"),
        "[grid] half_width: the Gaussian base datum of width 1 has edge mass 0.0061 > 1e-06 "
        "(the outer 10% of the domain of half_width 2)",
    ),
}


# case -> a config whose [solver] t_final / dt exceeds the step budget while
# every solve its kind makes stays within it; each used to be refused, naming
# [solver] dt
WITHIN_THE_STEP_BUDGET = {
    # the survey never solves
    "survey dt 1e-9": _with_line(SURVEY, "solver", "dt = 1e-9"),
    # each solve steps to the traversal time 0.0625, in 6.25e6 steps
    "wavepacket dt 1e-8": _with_line(KIND_CONFIGS["wavepacket"], "solver", "dt = 1e-8"),
}


# case -> (config, the refusal that names the key of a value that is not
# finite); each used to run a meaningless study or end in a bare error or a
# traceback (a list knob's non-finite entry is refused by its kind's check)
NONFINITE_VALUES = {
    "bona_smith spectrum_decay_offset": (
        KIND_CONFIGS["bona_smith"] + "spectrum_decay_offset = inf\n",
        "[experiment] spectrum_decay_offset: must be finite, got inf",
    ),
    "wavepacket region_beta0": (
        KIND_CONFIGS["wavepacket"].replace("region_beta0 = 0.3", "region_beta0 = inf"),
        "[experiment] region_beta0: must be nonnegative and finite, got inf",
    ),
    "wavepacket region_half_width": (
        KIND_CONFIGS["wavepacket"].replace("region_half_width = 1.5", "region_half_width = nan"),
        "[experiment] region_half_width: must be finite, got nan",
    ),
    "continuity kappa": (
        KIND_CONFIGS["continuity"] + "kappa = nan\n",
        "[experiment] kappa: must be finite, got nan",
    ),
    "soliton order_t_final": (
        MINIMAL + "order_t_final = inf\n",
        "[experiment] order_t_final: must be positive and finite, got inf",
    ),
    "solver s": (
        _with_line(MINIMAL, "solver", "s = nan"),
        "[solver] s: must be finite, got nan",
    ),
}


class TestAllKindsEndToEnd:
    @pytest.mark.slow
    @pytest.mark.parametrize("kind", sorted(KIND_CONFIGS))
    def test_kind_runs_clean(self, tmp_path, kind):
        cfg_path = write_cfg(tmp_path, KIND_CONFIGS[kind], f"{kind}.cfg")
        code = main(["run", str(cfg_path), "-o", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["experiment"] == kind
        assert summary["passed"] is True


class TestFailurePaths:
    @pytest.mark.slow
    def test_failed_verdict_exits_one(self, tmp_path):
        # a strong, wide anti-diffusion region breaks the factor-2 agreement
        # with the crossing heuristic (the measured gain follows the
        # group-speed integral), so the run completes but a verdict fails
        cfg_text = """
[grid]
half_width = 16*pi
num_points = 512

[coefficients]
alpha = 1
epsilon = 0

[experiment]
kind = wavepacket
xi0_sweep = 8
region_beta0 = 0.75
region_half_width = 2.0
packet_launch = 6
"""
        cfg_path = write_cfg(tmp_path, cfg_text, "strong.cfg")
        code = main(["run", str(cfg_path), "-o", str(tmp_path / "out")])
        assert code == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        failed = [v for v in summary["verdicts"] if not v["passed"]]
        assert any(v["name"] == "gain_matches_heuristic" for v in failed)

    def test_bad_grid_size_exits_two(self, tmp_path, capsys):
        # refused when parsed, naming the key; the run used to end in a bare
        # "error: num_points must be a power of two", and check in a traceback
        cfg_text = MINIMAL + "\n[grid]\nnum_points = 100\n"
        cfg_path = write_cfg(tmp_path, cfg_text, "grid.cfg")
        code = main(["run", str(cfg_path), "-o", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: [grid] num_points must be a power of two >= 16, got 100\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(REFUSED_VALUES))
    def test_unrunnable_value_refused_naming_its_key(self, tmp_path, capsys, case):
        cfg_text, named = REFUSED_VALUES[case]
        assert main(["check", str(write_cfg(tmp_path, cfg_text))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: {named}" in captured.err
        assert all(line.startswith("config error: ") for line in captured.err.splitlines())

    @pytest.mark.parametrize("case", sorted(NONFINITE_VALUES))
    def test_nonfinite_value_refused_naming_its_key(self, tmp_path, capsys, case):
        cfg_text, named = NONFINITE_VALUES[case]
        cfg_path = write_cfg(tmp_path, cfg_text)
        for argv in (["check", str(cfg_path)], ["run", str(cfg_path), "-o", str(tmp_path / "out")]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"config error: {named}\n" in captured.err
            assert all(line.startswith("config error: ") for line in captured.err.splitlines())
        assert not (tmp_path / "out").exists()

    def test_unresolved_waves_name_the_grid_once(self, tmp_path, capsys):
        # both waves of the soliton study ring out to the edge on 32 points
        cfg_text, named = REFUSED_VALUES["soliton unresolved on the grid"]
        assert main(["check", str(write_cfg(tmp_path, cfg_text))]) == 2
        assert capsys.readouterr().err == f"config error: {named}"

    @pytest.mark.parametrize("t_final", ["0.001", "0.1"])
    def test_dropped_mode_screen_does_not_read_t_final(self, tmp_path, capsys, t_final):
        # on 256 points the Gaussian of width 1.25 holds 2.3e-6 of its squared
        # L2 norm in the modes a solve drops and is refused, though its run to
        # t_final = 0.1 stays off the edge; width 1.3 holds 9.0e-7 and passes,
        # though its run to t_final = 0.5 reaches the edge (README, Domain sizing)
        base = KIND_CONFIGS["transform_consistency"].replace(
            "t_final = 0.1", f"t_final = {t_final}"
        )
        assert main(["check", str(write_cfg(tmp_path, base + "gaussian_width = 1.25\n"))]) == 2
        assert capsys.readouterr().err == (
            "config error: [experiment] refine_sweep: the Gaussian of width 1.25 is not "
            "resolved on n = 256 points: the modes a solve drops hold 2.3e-06 > 1e-06 of its "
            "squared L2 norm\n"
        )
        assert main(["check", str(write_cfg(tmp_path, base + "gaussian_width = 1.3\n"))]) == 0

    def test_refine_sweep_is_a_set(self, tmp_path):
        # the sweep is solved in ascending order, once per size: run used to
        # read its last entry as the finest grid, so 512, 256 failed both
        # verdicts (2.44e-4 at n = 256, and a fitted order of 17.35 that was
        # not monotone in list order)
        runs = {}
        for name in ("256, 512", "512, 256", "256, 512, 256"):
            cfg_path = write_cfg(tmp_path, KIND_CONFIGS["transform_consistency"].replace(
                "refine_sweep = 256, 512", f"refine_sweep = {name}"
            ))
            out = tmp_path / name.replace(", ", "_")
            assert main(["run", str(cfg_path), "-o", str(out)]) == 0
            lines = (out / "discrepancy.csv").read_text().splitlines()
            summary = json.loads((out / "summary.json").read_text())
            runs[name] = ([ln for ln in lines if not ln.startswith("#")],
                          summary["verdicts"], summary["slopes"])
        assert runs["512, 256"] == runs["256, 512"] == runs["256, 512, 256"]
        # a size given twice is refused once
        cfg_path = write_cfg(tmp_path, KIND_CONFIGS["transform_consistency"].replace(
            "refine_sweep = 256, 512", "refine_sweep = 100, 256, 100"
        ))
        with pytest.raises(ConfigError) as err:
            parse_config(cfg_path)
        assert err.value.violations == [
            "[experiment] refine_sweep: size 100: num_points must be a power of two >= 16, got 100"
        ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_check_reads_a_vanishing_alpha_without_numpy_warnings(self, tmp_path, capsys):
        # alpha = t vanishes at t = 0, where d/dt alpha^(-1/3) is not finite:
        # check printed two numpy RuntimeWarnings and read H2 at t = 0.125,
        # past the sample it skipped; now that sample fails the entry
        cfg_text = (
            SURVEY.replace("half_width = pi", "half_width = 1")
            .replace("num_points = 256", "num_points = 16").replace("alpha = 1", "alpha = t")
        )
        assert main(["check", str(write_cfg(tmp_path, cfg_text))]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "  H2 drift of straightening  FAIL extremal +nan at (t=0, x=-1)" in captured.out

    def test_auto_dt_beyond_the_step_budget_ends_the_run(self, tmp_path, capsys):
        # on the kind grid each solve takes about 5.1e7 steps to t_final = 1e5;
        # a run like this used to go on for hours, then end at solve's budget
        # check after `check` had passed; the parser checks each planned solve's
        # step, and names the key once, by its longest solve
        cfg_text = KIND_CONFIGS["continuity"].replace("t_final = 0.2", "t_final = 1e5")
        cfg_path = write_cfg(tmp_path, cfg_text)
        refusal = (
            "config error: [solver] dt: t_final / dt = 5.13e+07 steps exceeds the step "
            "budget of 1e+07; got dt = 0.0019495 with t_final = 100000\n"
        )
        for argv in (["check", str(cfg_path)], ["run", str(cfg_path), "-o", str(tmp_path / "out")]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", refusal)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(WITHIN_THE_STEP_BUDGET))
    def test_step_budget_reads_the_kinds_own_solves(self, tmp_path, capsys, case):
        assert main(["check", str(write_cfg(tmp_path, WITHIN_THE_STEP_BUDGET[case]))]) == 0
        assert capsys.readouterr().err == ""

    def test_pole_on_the_grid_is_named_by_the_screen(self, tmp_path, capsys):
        # auto_dt reads the infinite alpha at x = 0 as a zero step; the parse-time
        # step check leaves the field to the gate's screen, which names it
        cfg_text = KIND_CONFIGS["transform_consistency"].replace(
            "alpha = 2+0.5*tanh(x/4)", "alpha = 2+1/x"
        )
        assert main(["check", str(write_cfg(tmp_path, cfg_text))]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: alpha: expression '2+1/x' is singular on the requested domain "
            "(non-finite at t=0, derivative orders (0, 0))"
        )

    @pytest.mark.parametrize("case", BLOWN_UP)
    def test_blown_up_solve_fails_the_run(self, tmp_path, capsys, case):
        # a sup-norm cap below the datum's height stops every solve at its
        # first check; the continuity ratios of the truncated runs used to
        # PASS ratio_bounded with exit 0, and transform_consistency ended in
        # `error:` (exit 2) from the weak residual or the transport
        cfg_path = write_cfg(tmp_path, BLOWN_UP[case], "capped.cfg")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 1
        assert all("outer 10%" in str(w.message) for w in caught), [str(w.message) for w in caught]
        assert "error:" not in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        verdicts = {v["name"]: v for v in summary["verdicts"]}
        failed = [name for name in ("no_blowup", "discrepancy_at_finest")
                  if name in verdicts and not verdicts[name]["passed"]]
        assert failed
        assert [v["name"] for v in summary["verdicts"]].count("no_blowup") <= 1
        if case == "continuity":  # stopped at its first monitor time, T/8
            assert verdicts["no_blowup"]["value"] == pytest.approx(0.2 / 8, rel=1e-12)
        if case == "soliton_benchmark":  # stopped at its first monitor time, 0.1 of 0.5
            # the accuracy verdicts used to PASS on the state at the blow-up
            for name in ("soliton_l2_error", "l2_conservation", "mass_conservation"):
                assert verdicts[name]["passed"] is False
                assert np.isnan(verdicts[name]["value"])
            assert any("blew up at t = 0.1 of t_final = 0.5" in note for note in summary["notes"])
            rows = (tmp_path / "out" / "l2_error.csv").read_text().splitlines()
            times = [float(row.split(",")[0]) for row in rows if row[:1].isdigit()]
            assert times == pytest.approx([0.0, 0.1], abs=1e-15)  # the rows reached

    def test_blown_up_sweep_warns_only_of_the_edge(self, tmp_path):
        # the sweep's long steps blow up; numpy's overflow and invalid-value
        # warnings from the step, the edge mass and the norms only repeated
        # what isfinite and the cap report
        cfg_text = MINIMAL + "dt_sweep = 0.4, 0.2, 0.1\norder_t_final = 0.4\n"
        cfg_path = write_cfg(tmp_path, cfg_text, "sweep.cfg")
        with pytest.warns(RuntimeWarning) as caught:
            assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 1
        assert all("outer 10%" in str(w.message) for w in caught), [str(w.message) for w in caught]
        # the warning names the study's solve, not the solver
        assert all(Path(w.filename).name == "experiments.py" for w in caught)

    def test_unmonitored_blowup_time_pinned(self, tmp_path):
        # the wavepacket's solves store no monitor times; its constant alpha is
        # the integrating factor's, and at dt = 2e-3 the undealiased run's
        # explicit beta u_xx of region_beta0 = 10 crosses the cap at a step
        # where it is checked, one of every CAP_CHECK_STRIDE
        cfg_text = _with_line(
            KIND_CONFIGS["wavepacket"].replace("region_beta0 = 0.3", "region_beta0 = 10"),
            "solver", "dt = 2e-3",
        )
        cfg_path = write_cfg(tmp_path, cfg_text, "wp.cfg")
        with pytest.warns(RuntimeWarning, match="outer 10%") as caught:
            assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        verdicts = {v["name"]: v for v in summary["verdicts"]}
        assert verdicts["no_blowup"]["passed"] is False
        assert verdicts["no_blowup"]["value"] == 0.020000000000000004
        # the packet stays off the edge until the unstable step blows it up,
        # so the warning names the blow-up and not the domain
        edge = [str(w.message) for w in caught if "outer 10%" in str(w.message)]
        assert edge and all("blew up at t = 0.02" in m and "step may be unstable" in m for m in edge)
        assert not any("half_width" in m for m in edge)

    @pytest.mark.parametrize("sweep", ["1e-200, 10", "1e-155"])
    def test_carrier_without_finite_traversal_time_refused(self, tmp_path, capsys, sweep):
        # 2 launch / (3 alpha xi0^2) used to divide by zero at 1e-200, a bare
        # ZeroDivisionError, and to overflow to inf at 1e-155, refused only as
        # "edge mass nan at t = inf"
        cfg_text = KIND_CONFIGS["wavepacket"].replace("xi0_sweep = 8", f"xi0_sweep = {sweep}")
        cfg_path = write_cfg(tmp_path, cfg_text, "wp.cfg")
        out = tmp_path / "out"
        for argv in (["check", str(cfg_path)], ["run", str(cfg_path), "-o", str(out)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            text = captured.out + captured.err
            assert "config error: [experiment] xi0_sweep: " in text
            assert "traversal time" in text and "gives inf" in text
            assert "Traceback" not in text
        assert not out.exists()

    def test_untruncating_bona_smith_sweep_refused(self, tmp_path, capsys):
        # default grid (8*pi, 512 points): k_max = 32, and the dealiased runs
        # keep |k| <= 21.25, so the default cutoffs 32, 64 and 128 leave no
        # datum tail and no difference to measure
        cfg_path = write_cfg(tmp_path, "[experiment]\nkind = bona_smith\n", "bs.cfg")
        code = main(["run", str(cfg_path), "-o", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "n_sweep" in err and "32, 64, 128" in err and "k_max = 32" in err
        assert not (tmp_path / "out").exists()

    def test_bona_smith_reference_must_be_finer(self, tmp_path):
        cfg_text = KIND_CONFIGS["bona_smith"].replace("reference_n = 128", "reference_n = 64")
        with pytest.raises(ConfigError, match="reference_n = 64 must exceed"):
            parse_config(write_cfg(tmp_path, cfg_text, "bs.cfg"))
        # the accepted sweep itself parses
        parse_config(write_cfg(tmp_path, KIND_CONFIGS["bona_smith"], "ok.cfg"))

    # offset 100 is about the largest whose H^s tail past the cutoff 64 stays
    # nonzero (at 150 it underflows to 0, which is refused)
    @pytest.mark.parametrize("line", ["s = 52", "spectrum_decay_offset = 100"])
    def test_bona_smith_datum_in_the_float_range_parses(self, tmp_path, line):
        section = "solver" if line.startswith("s ") else "experiment"
        parse_config(write_cfg(tmp_path, _with_line(KIND_CONFIGS["bona_smith"], section, line)))

    @pytest.mark.parametrize("sweep", ["8", "8, 8"])
    def test_bona_smith_sweep_needs_two_cutoffs(self, tmp_path, sweep):
        # one cutoff used to end in a bare "slope fit needs at least two
        # points", and a repeated one in a PASS from a degenerate fit
        cfg_text = KIND_CONFIGS["bona_smith"].replace(
            "n_sweep = 8, 16, 32, 64", f"n_sweep = {sweep}"
        )
        with pytest.raises(ConfigError, match="n_sweep: needs at least two distinct cutoffs"):
            parse_config(write_cfg(tmp_path, cfg_text, "bs.cfg"))

    @pytest.mark.parametrize("sweep", ["0, 10", "-8", ""])
    def test_wavepacket_sweep_without_positive_carriers_refused(
        self, tmp_path, capsys, sweep
    ):
        # the traversal time 2 launch / (3 alpha xi0^2) needs xi0 > 0; xi0 = 0
        # used to exit 2 with a bare "float division by zero", and an empty
        # sweep with "max() arg is an empty sequence"
        cfg_text = KIND_CONFIGS["wavepacket"].replace("xi0_sweep = 8", f"xi0_sweep = {sweep}")
        cfg_path = write_cfg(tmp_path, cfg_text, "wp.cfg")
        code = main(["run", str(cfg_path), "-o", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "[experiment] xi0_sweep" in err and "k_max = 16" in err
        assert "division" not in err
        assert not (tmp_path / "out").exists()

    def test_aliased_wavepacket_carrier_refused(self, tmp_path):
        # default grid (8*pi, 512 points): k_max = 32, so a carrier at 40 is
        # beyond the resolved band and the study would report a meaningless FAIL
        cfg_path = write_cfg(
            tmp_path, "[experiment]\nkind = wavepacket\nxi0_sweep = 10, 40\n", "wp.cfg"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(cfg_path)
        text = "\n".join(err.value.violations)
        assert "[experiment] xi0_sweep: carriers 40 " in text and "k_max = 32" in text
        # the default sweep (10, 15, 20 at k_max = 32) and the kind config
        # (8 at k_max = 16) stay accepted
        parse_config(write_cfg(tmp_path, "[experiment]\nkind = wavepacket\n", "default.cfg"))
        parse_config(write_cfg(tmp_path, KIND_CONFIGS["wavepacket"], "ok.cfg"))


    @pytest.mark.parametrize(
        "sweep, reason",
        [
            ("", "at least two distinct bands >= 8"),
            ("0, 8, 16", "[experiment] band_sweep: must be positive and finite, got 0\n"),
            ("-8, 8, 16", "[experiment] band_sweep: must be positive and finite, got -8\n"),
            ("4", "at least two distinct bands >= 8"),
            ("4, 8", "at least two distinct bands >= 8"),
            ("8, 100", "= 800 points, which is not a power of two"),
        ],
    )
    def test_unrunnable_band_sweep_refused(self, tmp_path, capsys, sweep, reason):
        # each used to exit 2 from inside the run: the empty sweep with "max()
        # arg is an empty sequence", 4 and 4, 8 with "slope fit needs at least
        # two points", and 8, 100 with a survey grid of 800 points
        cfg_text = SURVEY.replace("band_sweep = 8, 16, 32", f"band_sweep = {sweep}")
        cfg_path = write_cfg(tmp_path, cfg_text, "survey.cfg")
        code = main(["run", str(cfg_path), "-o", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: [experiment] band_sweep: " in captured.err
        assert reason in captured.err
        assert all(line.startswith("config error: ") for line in captured.err.splitlines())
        assert not (tmp_path / "out").exists()

    def test_runnable_band_sweeps_parse(self, tmp_path):
        # SURVEY and VIOLATING, and the default sweep 4, ..., 256 on the
        # default 512-point grid (a survey grid of 2048 points)
        for name, text in [
            ("survey", SURVEY),
            ("violating", VIOLATING),
            ("default", "[experiment]\nkind = commutator_survey\n"),
        ]:
            cfg = parse_config(write_cfg(tmp_path, text, f"{name}.cfg"))
            assert cfg.spec.kind == "commutator_survey"


    @pytest.mark.parametrize(
        "sweep, reason",
        [
            ("1e-4", "needs at least three step sizes"),
            ("-1e-4, 1e-4", "[experiment] dt_sweep: must be positive and finite, got -0.0001\n"),
            ("1e-4, 1e-4", "the ratios are 1\n"),
            ("4e-4, nan, 1e-4", "[experiment] dt_sweep: must be positive and finite, got nan\n"),
            ("4e-4, 2e-4, 1.5e-4", "must decrease by one common ratio"),
            ("1e-4, 2e-4, 4e-4", "the ratios are 2, 2\n"),
        ],
    )
    def test_unrunnable_dt_sweep_refused(self, tmp_path, capsys, sweep, reason):
        # 1e-4 used to exit 2 from inside the run with "slope fit needs at
        # least two points", -1e-4, 1e-4 with "dt must be positive", and
        # 1e-4, 1e-4 ran and FAILed with a meaningless slope; the order fit
        # on successive differences needs a geometric, decreasing sweep
        cfg_path = write_cfg(tmp_path, MINIMAL + f"dt_sweep = {sweep}\n", "sol.cfg")
        code = main(["run", str(cfg_path), "-o", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: [experiment] dt_sweep: " in captured.err
        assert reason in captured.err
        assert all(line.startswith("config error: ") for line in captured.err.splitlines())
        assert not (tmp_path / "out").exists()

    def test_geometric_dt_sweeps_parse(self, tmp_path):
        # MINIMAL runs the default sweep 4e-4 * 10^(-j/4), j = 0..4
        for name, text in [
            ("minimal", MINIMAL),
            ("halving", MINIMAL + "dt_sweep = 4e-4, 2e-4, 1e-4, 5e-5\n"),
        ]:
            cfg = parse_config(write_cfg(tmp_path, text, f"{name}.cfg"))
            assert cfg.spec.kind == "soliton_benchmark"

    @pytest.mark.parametrize("alpha", ["0", "-1"])
    def test_nonpositive_alpha_fails_coercivity(self, tmp_path, capsys, alpha):
        # folding 0^(-1/3) and (-1)^(-1/3) in derived("alpha_inv_cbrt") used
        # to end both commands with "error: 0.0 cannot be raised to a negative
        # power" or "float() argument must be ... not 'complex'"; the survey
        # reads no coefficient, so only the hypothesis gate refuses this alpha
        cfg_path = write_cfg(tmp_path, SURVEY.replace("alpha = 1", f"alpha = {alpha}"))
        assert main(["check", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert re.search(r"H1 coercivity +FAIL", captured.out)
        assert "error" not in captured.out + captured.err
        assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert re.search(r"H1 coercivity +FAIL", captured.out)
        assert "hypothesis check failed" in captured.out
        assert "error" not in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "beta",
        [
            "0^(-1)*x",  # used to escape parse_config as a ZeroDivisionError
            "log(0-1)*sech(x)^2",  # NaN everywhere: check printed PASS, exit 0
            "1/0",  # escaped parse_config as a ZeroDivisionError
            "0/0",  # folded to 0: check printed PASS, exit 0
        ],
    )
    def test_singular_coefficient_refused_by_check_and_run(self, tmp_path, capsys, beta):
        cfg_path = write_cfg(tmp_path, MINIMAL.replace("alpha = 1", f"alpha = 1\nbeta = {beta}"))
        parse_config(cfg_path)
        named = f"error: beta: expression '{beta}' is singular on the requested domain"
        assert main(["check", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err
        assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith(named)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, field",
        [
            # 1/t at t = 0 ended check in a bare "error: float division by zero"
            (SURVEY.replace("alpha = 1", "alpha = 1\ngamma = 1/t"), "gamma"),
            # the region's w^2 in beta's derivative underflows to the constant 0
            (KIND_CONFIGS["wavepacket"] + "region_smoothing = 1e-300\n", "beta"),
        ],
        ids=["survey gamma = 1/t", "wavepacket region_smoothing = 1e-300"],
    )
    def test_zero_divisor_at_a_scalar_point_refused(self, tmp_path, capsys, text, field):
        cfg_path = write_cfg(tmp_path, text)
        assert main(["check", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line = captured.err.splitlines()[-1]
        assert line.startswith(f"error: {field}: expression '") and "is singular" in line
        assert "division" not in captured.err

    def test_singular_built_field_named_without_empty_quote(self, tmp_path, capsys):
        # kappa = 5e-324 parses (positive, finite) but log(2) / kappa is inf:
        # the softplus beta1 has no source text, so the refusal names the field
        text = SURVEY.replace("alpha = 1", "alpha = 1\nbeta = 0.2*sech(x)^2")
        cfg_path = write_cfg(tmp_path, text + "\n[split]\nstrategy = softplus\nkappa = 5e-324\n")
        assert main(["check", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        line = captured.err.splitlines()[-1]
        assert line.startswith("error: beta1: ")
        assert "singular on the requested domain" in line
        assert "''" not in line


    @pytest.mark.parametrize("half_width", ["0^(-1)", "(-8)^(1/3)", "1/0"])
    def test_nonfinite_constant_refused(self, tmp_path, capsys, half_width):
        # unfolded powers evaluate to inf and nan; a grid of infinite width
        # would pass check with -inf extremals, and nan would reach make_grid
        cfg_path = write_cfg(tmp_path, MINIMAL + f"\n[grid]\nhalf_width = {half_width}\n")
        assert main(["check", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: [grid] half_width: must be finite, got ")


class TestTraceback:
    def test_run_catch_all(self, tmp_path, capsys, monkeypatch):
        def explode(spec):
            raise RuntimeError("forced failure inside the run")

        monkeypatch.setattr("kdvgauge.cli.run_experiment", explode)
        cfg_path = write_cfg(tmp_path, SURVEY)
        code = main(["run", str(cfg_path), "-o", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "error: forced failure inside the run\n"
        assert captured.err.startswith("Traceback (most recent call last):")
        assert "in explode" in captured.err

    def test_check_catch_all(self, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise RuntimeError("forced failure inside the check")

        monkeypatch.setattr("kdvgauge.cli.check_hypotheses", explode)
        code = main(["check", str(write_cfg(tmp_path, SURVEY))])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Traceback (most recent call last):")
        assert "in explode" in captured.err
        assert captured.err.endswith("\nerror: forced failure inside the check\n")


class TestSplitConfig:
    def test_softplus_strategy_builds_valid_split(self, tmp_path):
        cfg_text = """
[grid]
half_width = 8*pi
num_points = 256

[coefficients]
alpha = 1
beta = 0.2*sech(x)^2

[split]
strategy = softplus
kappa = 10

[experiment]
kind = commutator_survey
band_sweep = 8, 16
draws = 2
identity_draws = 2
resonance_draws = 10
"""
        cfg = parse_config(write_cfg(tmp_path, cfg_text, "sp.cfg"))
        rep = check_hypotheses(cfg.spec.cset, cfg.spec.grid, cfg.spec.solver.t_final)
        assert rep.entry("split validity").passed

    def test_beta2_alone_keeps_beta_as_beta1(self, tmp_path):
        # the parser and CoefficientSet.from_strings build one set: beta1
        # defaults to beta whatever beta2 is
        cfg_text = _with_line(SURVEY, "coefficients", "beta = 0.2*sech(x)^2")
        cfg_text = _with_line(cfg_text, "split", "beta2 = -0.1*sech(x)^2")
        cfg = parse_config(write_cfg(tmp_path, cfg_text))
        built = CoefficientSet.from_strings(beta="0.2*sech(x)^2", beta2="-0.1*sech(x)^2")
        for cset in (cfg.spec.cset, built):
            assert (cset.beta1.text, cset.beta2.text) == ("0.2*sech(x)^2", "-0.1*sech(x)^2")
        assert cfg.values["split"]["beta1"] == "0.2*sech(x)^2"

    def test_softplus_with_explicit_pair_rejected(self, tmp_path):
        cfg_text = """
[coefficients]
alpha = 1
beta = 1

[split]
strategy = softplus
beta1 = 1

[experiment]
kind = commutator_survey
"""
        with pytest.raises(ConfigError, match="strategy = user"):
            parse_config(write_cfg(tmp_path, cfg_text, "bad.cfg"))


# config_sha256 of each run config: a canonical form that moved would change
# every run id
PINNED_SHA256 = {
    "MINIMAL": "bd011ce259513fa4b5386fb0779f595c60468d69e9607e4a86fd75ce97660bd2",
    "SURVEY": "0575fc8e6aa8e47fc26702c7a8ce49715ff4ee63702d7b30db4392d4178c7a98",
    "VIOLATING": "b4e9ca2980de71d3966f8f7b8bd4bf53b090156e4343d4815324c0b0d81cb93e",
    "transform_consistency": "363dcc4b6e311bcc5ebf2f3a1f7231bb5ba0891af81834cbc46b624cb3d96c4a",
    "bona_smith": "11b0d94a1739cfe1372abc5f630e6c2a26c49828253f84c62fd2a3951274126e",
    "wavepacket": "9494d5300c7dd59df7df7f045f3cdabde00296d50b30c26cd29f17bde0c31484",
    "continuity": "7e9e5da18970cbba20d9260da1779667b1a051b113370489c9ba4c0a0be861f7",
}

# one parsing config per kind
KIND_BASES = {
    "soliton_benchmark": MINIMAL,
    "commutator_survey": SURVEY,
    **KIND_CONFIGS,
}

# kind -> a knob of other kinds, and the kinds that own it
FOREIGN_KNOBS = {
    "soliton_benchmark": ("n_sweep = 8, 16", "bona_smith"),
    "commutator_survey": ("dt_sweep = 4e-4, 2e-4, 1e-4", "soliton_benchmark"),
    "transform_consistency": ("xi0_sweep = 8", "wavepacket"),
    "bona_smith": ("kappa = 2", "continuity and soliton_benchmark"),
    "wavepacket": ("band_sweep = 8, 16", "commutator_survey"),
    "continuity": ("refine_sweep = 256", "transform_consistency"),
}

KNOB_TYPES = {
    name: typ
    for spec in EXPERIMENTS.values() for name, (typ, _rule) in spec.knob_rules().items()
}

_INTS = st.integers(-(10**6), 10**6)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
KNOB_VALUES = {
    int: _INTS,
    float: _FLOATS,
    tuple[int, ...]: st.lists(_INTS, max_size=4).map(tuple),
    tuple[float, ...]: st.lists(_FLOATS, max_size=4).map(tuple),
}


def _knob_values(spec, key):
    """Values of a knob: any value of its type, or, three draws in four for
    the spec's own knobs, its default with each entry scaled by one power of
    two, which keeps sizes powers of two and a geometric sweep geometric, so
    that many draws parse and run."""
    typ, default = KNOB_TYPES[key], getattr(spec, key, None)
    if default is None:  # a knob of another kind
        return KNOB_VALUES[typ]
    entry = typ.__args__[0] if isinstance(default, tuple) else typ
    scaled = st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]).map(
        lambda f: tuple(entry(v * f) for v in default) if isinstance(default, tuple)
        else entry(default * f)
    )
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda near: scaled if near else KNOB_VALUES[typ]
    )


def _planned_step(plan) -> float:
    """The step that `solve` takes for a planned solve."""
    return _step_size(plan.config, plan.problem, plan.u0)


# the step of MINIMAL's monitored run under dt = auto, at its default t_final
# (auto_dt is capped by t_final, so a smaller t_final is one step)
MINIMAL_AUTO_DT = _planned_step(
    SolitonBenchmarkSpec(cset=CoefficientSet.constant_kdv(-6.0)).solves()[0]
)

# base key -> (section, values to draw); any float, and "auto" where accepted
_BASE_FLOATS = st.floats() | st.sampled_from([0.0, -1.0, 1e-300, 1e300])
BASE_KEYS = {
    "t_final": ("solver", _BASE_FLOATS),
    "dt": ("solver", _BASE_FLOATS | st.just("auto")),
    "blowup_threshold": ("solver", _BASE_FLOATS | st.just("auto")),
    "alpha0": ("coefficients", _BASE_FLOATS),
    "kappa": ("split", _BASE_FLOATS),
}


def _knob_text(value) -> str:
    return ", ".join(map(repr, value)) if isinstance(value, tuple) else repr(value)


README_TYPES = {"int": int, "float": float, "int list": tuple[int, ...],
                "float list": tuple[float, ...]}


def _readme_default(cell: str, typ):
    """A default cell of README's knob table, as a value of the knob's type."""
    formula = re.fullmatch(r"`(\S+) \* 10\^\(-j/(\d+)\)`, `j = 0\.\.(\d+)`", cell)
    if formula:  # a geometric sweep, written as its formula
        first, step, last = float(formula[1]), int(formula[2]), int(formula[3])
        return tuple(first * 10 ** (-j / step) for j in range(last + 1))
    text = cell.strip("`")
    if typ in (int, float):
        return typ(text)
    return tuple(typ.__args__[0](v) for v in text.split(","))


def readme_knobs() -> dict:
    """kind -> knob -> (type, default, the rules its last cell names), read
    from README's knob table."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| kind | knob | type | default | checked when parsed |")
    table, kind = {}, None
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        kind = cells[0].strip("`") or kind
        typ = README_TYPES[cells[2]]
        rules = tuple(re.findall(r"\b(?:positive|nonnegative|nonzero)\b", cells[4]))
        table.setdefault(kind, {})[cells[1].strip("`")] = (
            typ, _readme_default(cells[3], typ), rules
        )
    return table


class TestKindSchemas:
    @pytest.mark.parametrize("name", sorted(PINNED_SHA256))
    def test_config_hash_pinned(self, tmp_path, name):
        text = {"MINIMAL": MINIMAL, "SURVEY": SURVEY, "VIOLATING": VIOLATING,
                **KIND_CONFIGS}[name]
        assert parse_config(write_cfg(tmp_path, text)).config_hash == PINNED_SHA256[name]

    def test_registry_maps_each_kind_to_its_spec(self, tmp_path):
        assert list(EXPERIMENTS) == [
            "transform_consistency", "bona_smith", "wavepacket", "continuity",
            "commutator_survey", "soliton_benchmark",
        ]
        for kind, spec in EXPERIMENTS.items():
            assert spec.kind == kind
            cfg = parse_config(write_cfg(tmp_path, KIND_BASES[kind], f"{kind}.cfg"))
            assert type(cfg.spec) is spec and cfg.spec.kind == kind

    def test_readme_knob_table_matches_the_specs(self):
        # the last cell names `positive`, `nonnegative` or `nonzero` once,
        # exactly where the spec field declares that rule (Annotated[float, "positive"])
        declared = {
            kind: {
                name: (typ, getattr(spec, name), (rule,) if rule else ())
                for name, (typ, rule) in spec.knob_rules().items()
            }
            for kind, spec in EXPERIMENTS.items()
        }
        assert readme_knobs() == declared

    @pytest.mark.parametrize("kind", sorted(FOREIGN_KNOBS))
    def test_foreign_knob_refused_naming_its_owner(self, tmp_path, capsys, kind):
        line, owners = FOREIGN_KNOBS[kind]
        key = line.split(" = ")[0]
        cfg_path = write_cfg(tmp_path, KIND_BASES[kind] + line + "\n")
        assert main(["check", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: [experiment] {key}: a knob of {owners}, not of {kind}\n" in err

    def test_explicit_solver_values_reach_the_spec(self, tmp_path):
        cfg_path = write_cfg(tmp_path, EXPLICIT_SOLVER)
        spec = parse_config(cfg_path).spec
        assert spec.grid == make_grid(8 * np.pi, 256)
        assert spec.solver == SolverConfig(
            t_final=0.1, dt=1e-4, s=2.0, dealias=False, blowup_threshold=1e3
        )
        assert main(["run", str(cfg_path), "-o", str(tmp_path / "out")]) == 0

    def test_knob_typo_suggested_from_own_knobs(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'dt_swep'; did you mean 'dt_sweep'"):
            parse_config(write_cfg(tmp_path, MINIMAL + "dt_swep = 1e-4\n"))

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(sorted(EXPERIMENTS)), on_test_config=st.booleans(),
           draw=st.data())
    def test_random_knobs_parse_or_name_every_foreign_key(
        self, tmp_path_factory, kind, on_test_config, draw
    ):
        # up to four of the kind's knobs and, one draw in three, one to three
        # knobs of other kinds, set on a bare [experiment] config or on the
        # kind's test config, where a drawn knob replaces the knob's line if it
        # has one
        spec = EXPERIMENTS[kind]
        own = sorted(spec.knob_rules())
        foreign_keys = st.sampled_from([0, 0, 1]).flatmap(lambda some: st.lists(
            st.sampled_from(sorted(set(KNOB_TYPES) - set(own))),
            unique=True, min_size=some, max_size=3 * some,
        ))
        keys = draw.draw(st.lists(st.sampled_from(own), unique=True, max_size=4))
        keys += draw.draw(foreign_keys)
        knobs = {key: draw.draw(_knob_values(spec, key)) for key in keys}
        text = KIND_BASES[kind] if on_test_config else f"[experiment]\nkind = {kind}\n"
        for key, value in knobs.items():
            text = "\n".join(ln for ln in text.split("\n") if not ln.startswith(f"{key} = "))
            text = _with_line(text, "experiment", f"{key} = {_knob_text(value)}")
        foreign = [key for key in keys if key not in spec.knob_rules()]
        cfg_path = tmp_path_factory.getbasetemp() / "knobs.cfg"
        cfg_path.write_text(text)
        try:
            cfg = parse_config(cfg_path)
        except ConfigError as err:
            refused = "\n".join(err.violations)
            for key in foreign:
                assert f"[experiment] {key}: a knob of " in refused
            if not foreign:  # refused by the kind's own check of its knobs
                assert "a knob of" not in refused and "unknown key" not in refused
            return
        assert not foreign
        assert type(cfg.spec) is spec
        assert {key: getattr(cfg.spec, key) for key in keys} == knobs
        # each solve the accepted study plans takes one step to a finite state
        for plan in cfg.spec.solves():
            dt = _planned_step(plan)
            traj = solve(plan.u0, replace(plan.config, t_final=dt, dt=dt), plan.problem)
            assert not traj.blowup and np.all(np.isfinite(traj.final_state.coefficients)), text

    @pytest.mark.parametrize("kind", sorted(set(KIND_BASES) - {"commutator_survey"}))
    def test_dt_auto_means_auto_dt_of_each_datum(self, tmp_path, kind):
        # under dt = auto each planned solve steps at auto_dt of its own datum,
        # and bona_smith's runs at auto_dt of the reference datum, which they
        # share; the soliton order sweep steps at dt_sweep, whatever dt is;
        # the wavepacket's steps are also capped so that each moves the packet
        # by at most the region's edge width (on its test config, below auto_dt)
        spec = parse_config(write_cfg(tmp_path, KIND_BASES[kind])).spec
        assert spec.solver.dt == "auto"
        plans = spec.solves()
        assert plans
        for plan in plans:
            if plan.config.dt in getattr(spec, "dt_sweep", ()):
                continue
            datum = plans[0].u0 if kind == "bona_smith" else plan.u0
            want = auto_dt(replace(plan.config, dt="auto"), plan.problem, datum)
            if kind == "wavepacket":
                crossing = plan.config.t_final * spec.region_smoothing / (2 * spec.packet_launch)
                assert crossing < want
                want = crossing
            assert _planned_step(plan) == want, plan.label

    @settings(max_examples=200, deadline=None)
    @given(base=st.sampled_from([MINIMAL, SURVEY]), draw=st.data())
    def test_random_base_values_parse_or_name_the_key(self, tmp_path_factory, base, draw):
        # every drawn value either parses or is refused by a ConfigError that
        # names its key; a value is valid when positive and finite (or auto),
        # and valid values are refused, naming dt, when dt (under auto, the
        # monitored run's auto_dt, which t_final caps) would take the soliton
        # study's monitored run more than STEP_BUDGET steps to t_final (the
        # survey never solves)
        keys = draw.draw(st.lists(st.sampled_from(sorted(BASE_KEYS)), unique=True, max_size=5))
        values = {key: draw.draw(BASE_KEYS[key][1]) for key in keys}
        text = base
        for key, value in values.items():
            section = BASE_KEYS[key][0]
            if key == "kappa":
                text = _with_line(text, section, "strategy = softplus")
            text = _with_line(text, section, f"{key} = {value}")
        invalid = [
            key for key, value in values.items()
            if value != "auto" and not (np.isfinite(value) and value > 0)
        ]
        dt, t_final = values.get("dt", "auto"), values.get("t_final", SolverConfig.t_final)
        if dt == "auto":
            dt = min(t_final, MINIMAL_AUTO_DT)
        over_budget = not invalid and base == MINIMAL and t_final / dt > STEP_BUDGET
        cfg_path = tmp_path_factory.getbasetemp() / "base.cfg"
        cfg_path.write_text(text)
        try:
            parse_config(cfg_path)
        except ConfigError as err:
            refused = "\n".join(err.violations)
            assert invalid or over_budget, refused
            for key in invalid:
                assert f"[{BASE_KEYS[key][0]}] {key}: must be positive and finite" in refused
            if over_budget:
                assert refused.startswith("[solver] dt: t_final / dt = "), refused
            return
        assert not invalid and not over_budget

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(
        base=st.sampled_from([MINIMAL, SURVEY]),
        # a tree, or a positive constant, so that the gate is reached
        half_width=_TREES | st.floats(0.5, 40.0).map(lambda v: ("const", v)),
        fields=st.dictionaries(st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"]),
                               _TREES, max_size=3),
        num_points=st.sampled_from([16, 64, 100, 0, -8]),
    )
    @example(base=MINIMAL, half_width=("/", ("const", 1.0), ("const", 0.0)), fields={},
             num_points=16)
    @example(base=SURVEY, half_width=("const", 3.0),
             fields={"gamma": ("/", ("const", 1.0), ("var", "t"))}, num_points=64)
    def test_random_coefficients_check_or_name_the_reason(
        self, tmp_path_factory, base, half_width, fields, num_points
    ):
        # check on any grid and coefficient expressions exits 0, 1 or 2, and an
        # exit 2 ends in a config error or a named singular field; a zero
        # divisor (half_width = 1/0) used to escape as ZeroDivisionError, and
        # a numpy RuntimeWarning is an error
        lines = {"half_width": ("grid", _text(half_width)), "num_points": ("grid", num_points)}
        lines.update((name, ("coefficients", _text(tree))) for name, tree in fields.items())
        text = base
        for key, (section, value) in lines.items():
            text = "\n".join(ln for ln in text.split("\n") if not ln.startswith(f"{key} = "))
            text = _with_line(text, section, f"{key} = {value}")
        cfg_path = tmp_path_factory.getbasetemp() / "coefficients.cfg"
        cfg_path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["check", str(cfg_path)])
        assert code in (0, 1, 2)
        if code == 2:
            last = err.getvalue().splitlines()[-1]
            assert last.startswith("config error: ") or re.fullmatch(
                r"error: \w+: expression '.*' is singular on the requested domain .*", last
            ), text + "\n" + last

    def test_wavepacket_needs_constant_alpha(self, tmp_path):
        cfg_text = KIND_CONFIGS["wavepacket"].replace(
            "alpha = 1", "alpha = 1+0.5*sech(x)^2\nalpha0 = 0.5"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, cfg_text))
        assert err.value.violations == [
            "[coefficients] alpha: the wavepacket study needs a positive constant "
            "alpha, got '1+0.5*sech(x)^2'"
        ]

    def test_wavepacket_gate_checks_the_region_set(self, tmp_path, capsys):
        # the study builds its own beta; the config's beta = 1 (which fails
        # the gauge hypotheses) is never integrated, so it neither gates the
        # run nor moves a data row
        rows = {}
        for name, text in [
            ("kind", KIND_CONFIGS["wavepacket"]),
            ("beta", KIND_CONFIGS["wavepacket"].replace("epsilon = 0", "epsilon = 0\nbeta = 1")),
        ]:
            cfg_path = write_cfg(tmp_path, text, f"{name}.cfg")
            assert main(["check", str(cfg_path)]) == 0
            assert main(["run", str(cfg_path), "-o", str(tmp_path / name)]) == 0
            lines = (tmp_path / name / "gains.csv").read_text().splitlines()
            rows[name] = [ln for ln in lines if not ln.startswith("#")]
        assert rows["beta"] == rows["kind"]
