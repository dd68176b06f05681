"""The benchmark's tracer still binds to the package it wraps.

`perfbench/tracer.py` wraps public kdvgauge functions by name and reads
their arguments (`solve(config, monitor_times)`, `auto_dt`,
`interpolate(state, query_points)`, `build_gauge_map(t, source_grid,
image_grid)`, `GaugeMap.a_of`, `CoefficientExpr.eval/dx/dt`,
`cli.run_experiment`), so a rename or a changed signature in the package
breaks the benchmark.  One traced run of a small drifting oracle catches it.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import kdvgauge

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# the drift_oracle workload's all-time-dependent set, on small grids
DRIFTING_ORACLE = """\
[grid]
half_width = 16*pi

[coefficients]
alpha = 2+0.5*cos(t)*sech(x/4)^2
beta = 0.2*sech(x/4)^2-0.1*sech(x/8)^2
gamma = 0.1*sech(x/4)^2
delta = 0.05
epsilon = 1
alpha0 = 0.4

[split]
strategy = user
beta1 = 0.2*sech(x/4)^2
beta2 = -0.1*sech(x/8)^2

[solver]
t_final = 0.01

[experiment]
kind = transform_consistency
seed = 1
refine_sweep = 128, 256
gaussian_width = 1.5
"""


def test_traced_run_yields_layer_metrics(tmp_path):
    cfg = tmp_path / "drift.cfg"
    cfg.write_text(DRIFTING_ORACLE, encoding="utf-8")
    stamps, spans = tmp_path / "stamps.json", tmp_path / "spans.json"
    path = [str(Path(kdvgauge.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "trace", str(stamps), str(spans),
         "--", "run", str(cfg), "-o", str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr

    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    stamp = json.loads(stamps.read_text(encoding="utf-8"))
    metrics = tracer.layer_metrics(
        json.loads(spans.read_text(encoding="utf-8")), stamp["end"] - stamp["dispatch"]
    )
    assert metrics["solver.steps"] > 0
    # the tracer wraps numpy.fft's public names and so does not see the RK4's
    # transforms (solver._Spectrum calls the pocketfft ufuncs bound at
    # import); it counts solve's own np.fft calls, such as the
    # SpectralState.physical() of each measured state
    assert metrics["fft.calls.solver"] > 0
    assert metrics["gauge.build_gauge_map.calls"] > 0
