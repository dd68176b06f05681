"""The benchmark's workloads: a config generated from the seed, and the
correctness gate applied to each run's outputs.

Every gate repeats a bound the repository already pins in `tests/`, on top
of the run's own verdicts.  See README.md for why each workload exists.
"""

import csv
import json


def _summary(outdir):
    with open(outdir / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def _table(outdir, name):
    with open(outdir / f"{name}.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return [[float(v) for v in row] for row in rows[1:]]


def _verdict_values(summary):
    return {v["name"]: v["value"] for v in summary["verdicts"]}


def common_problems(outdir):
    """Problems every workload shares: a failed or watermarked report."""
    summary = _summary(outdir)
    problems = [f"verdict {v['name']} FAIL" for v in summary["verdicts"] if not v["passed"]]
    if not summary["passed"]:
        problems.append("report not passed")
    if summary["hypothesis_violating"]:
        problems.append("run is hypothesis-violating")
    return problems


def _oracle_gate(bound):
    def gate(outdir):
        rows = _table(outdir, "discrepancy")
        disc = [r[1] for r in rows]
        problems = []
        if not disc[-1] < bound:
            problems.append(f"finest discrepancy {disc[-1]:.3e} >= {bound:g}")
        if not all(b < a for a, b in zip(disc, disc[1:])):
            problems.append("discrepancy not decreasing under refinement")
        return problems

    return gate


def _soliton_gate(outdir):
    # tests/test_acceptance.py::test_criterion_5_soliton_benchmark
    v = _verdict_values(_summary(outdir))
    problems = []
    if not v["soliton_l2_error"] < 1e-6:
        problems.append(f"soliton L2 error {v['soliton_l2_error']:.3e} >= 1e-6")
    for name in ("l2_conservation", "mass_conservation"):
        if not v[name] < 1e-7:
            problems.append(f"{name} {v[name]:.3e} >= 1e-7")
    if not abs(v["temporal_order_fourth"] - 4.0) <= 0.3:
        problems.append(f"temporal order {v['temporal_order_fourth']:.3f} not 4 +/- 0.3")
    return problems


def _survey_gate(outdir):
    # tests/test_acceptance.py criteria 3 and 4
    v = _verdict_values(_summary(outdir))
    problems = []
    if not v["comcom_identity"] < 1e-10:
        problems.append(f"comcom residual {v['comcom_identity']:.3e} >= 1e-10")
    if not v["commu_constant_bounded"] < 10.0:
        problems.append(f"single-bracket constant {v['commu_constant_bounded']:.3f} >= 10")
    if not abs(v["commu2_scaling"] + 2.0) <= 0.3:
        problems.append(f"double-bracket slope {v['commu2_scaling']:.3f} not -2 +/- 0.3")
    if not v["resonance_factorization"] < 1e-12:
        problems.append(f"resonance defect {v['resonance_factorization']:.3e} >= 1e-12")
    return problems


# acceptance-5 config, except that the temporal-order study runs over
# t = 0.025 instead of 0.1; see README.md
SOLITON = """\
[coefficients]
alpha = 1
epsilon = -6

[experiment]
kind = soliton_benchmark
seed = {seed}
kappa = 1.0
order_t_final = 0.025
"""

# the all-time-dependent set of test_mutual_oracle_with_drifting_coefficients
DRIFT_ORACLE = """\
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
t_final = 0.1

[experiment]
kind = transform_consistency
seed = {seed}
refine_sweep = 256, 512
gaussian_width = 1.5
"""

# acceptance-2: the tanh/sech benchmark set
STATIC_ORACLE = """\
[grid]
half_width = 32*pi

[coefficients]
alpha = 2+0.5*tanh(x/4)
beta = -0.2*sech(x/4)^2
alpha0 = 0.4

[split]
strategy = user
beta1 = 0
beta2 = -0.2*sech(x/4)^2

[solver]
t_final = 0.5

[experiment]
kind = transform_consistency
seed = {seed}
refine_sweep = 256, 512, 1024
"""

# acceptance-3 scaled up so that run_s exceeds setup_s
SURVEY = """\
[grid]
num_points = 4096

[experiment]
kind = commutator_survey
seed = {seed}
band_sweep = 4, 8, 16, 32, 64, 128, 256, 512
draws = 100
identity_draws = 200
resonance_draws = 2000
"""

# copy of VIOLATING in tests/test_cli.py: refused by the hypothesis gate (exit 2)
NEGATIVE_CONTROL = """\
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

# name -> (config template, workload gate)
WORKLOADS = {
    "soliton": (SOLITON, _soliton_gate),
    "drift_oracle": (DRIFT_ORACLE, _oracle_gate(1e-8)),
    "static_oracle": (STATIC_ORACLE, _oracle_gate(1e-4)),
    "survey": (SURVEY, _survey_gate),
}
