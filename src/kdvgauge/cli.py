"""Configuration ingestion and run orchestration.

Configs are INI-style documents with sections [grid], [coefficients],
[split], [solver] and [experiment]; all values are strings parsed against a
typed schema.  Unknown keys are rejected with a spelling suggestion, and
every violation in the file is reported, not just the first.  A run is
identified by the SHA-256 of its canonical parsed content, so identical
configs produce byte-identical outputs.

Exit codes: 0 all verdicts pass, 1 failed verdicts, 2 errors (including a
failed hypothesis check without --allow-hypothesis-violation).
"""

from __future__ import annotations

import argparse
import configparser
import difflib
import hashlib
import json
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet, check_hypotheses, softplus_split
from .experiments import (
    EXPERIMENT_KINDS,
    ExperimentSpec,
    run_experiment,
    write_report,
)
from .expressions import ExpressionError, parse_coefficient
from .spectral import Grid, GridSizeError, make_grid

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]


class ConfigError(ValueError):
    """Carries every violation found while validating a config."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("\n".join(self.violations))


# key -> (type tag, default); None default means "required"
_SCHEMA = {
    "grid": {
        "half_width": ("const", "8*pi"),
        "num_points": ("int", "512"),
    },
    "coefficients": {
        "alpha": ("expr", "1"),
        "beta": ("expr", "0"),
        "gamma": ("expr", "0"),
        "delta": ("expr", "0"),
        "epsilon": ("expr", "1"),
        "alpha0": ("float", "1.0"),
    },
    "split": {
        "strategy": ("choice:user,softplus", "user"),
        "beta1": ("expr", None),
        "beta2": ("expr", None),
        "kappa": ("float", "10.0"),
    },
    "solver": {
        "dt": ("float_or_auto", "auto"),
        "t_final": ("float", "0.5"),
        "s": ("float", "1.0"),
        "dealias": ("bool", "true"),
        "blowup_threshold": ("float_or_auto", "auto"),
        "monitor_stride": ("int", "10"),
    },
    "experiment": {
        "kind": ("choice:" + ",".join(EXPERIMENT_KINDS), None),
        "seed": ("int", "0"),
        "refine_sweep": ("int_list", None),
        "gaussian_width": ("float", None),
        "gaussian_amplitude": ("float", None),
        "n_sweep": ("int_list", None),
        "reference_n": ("int", None),
        "spectrum_decay_offset": ("float", None),
        "xi0_sweep": ("float_list", None),
        "region_half_width": ("float", None),
        "region_beta0": ("float", None),
        "region_smoothing": ("float", None),
        "packet_width": ("float", None),
        "packet_launch": ("float", None),
        "perturbation_sizes": ("float_list", None),
        "band_sweep": ("int_list", None),
        "draws": ("int", None),
        "identity_draws": ("int", None),
        "resonance_draws": ("int", None),
        "kappa": ("float", None),
        "order_kappa": ("float", None),
        "dt_sweep": ("float_list", None),
        "order_t_final": ("float", None),
    },
}

# keys without schema defaults that still have required-at-build semantics
_REQUIRED = {("experiment", "kind")}


def _convert(tag: str, raw: str, where: str, violations: list):
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "bool":
            low = raw.strip().lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if tag == "float_or_auto":
            return "auto" if raw.strip().lower() == "auto" else float(raw)
        if tag == "int_list":
            return tuple(int(v.strip()) for v in raw.split(",") if v.strip())
        if tag == "float_list":
            return tuple(float(v.strip()) for v in raw.split(",") if v.strip())
        if tag == "const":
            expr = parse_coefficient(raw)
            if expr.depends_on_t or expr.depends_on_x:
                raise ValueError("must be a constant expression")
            value = float(expr.eval(0.0, 0.0))
            if not np.isfinite(value):
                raise ValueError(f"must be finite, got {value}")
            return value
        if tag == "expr":
            parse_coefficient(raw)  # validated here, parsed again at build
            return raw
        if tag.startswith("choice:"):
            choices = tag.split(":", 1)[1].split(",")
            if raw.strip() not in choices:
                raise ValueError(f"must be one of {choices}")
            return raw.strip()
        raise RuntimeError(f"bad schema tag {tag}")  # pragma: no cover
    except ExpressionError as exc:
        violations.append(f"{where}: expression error: {exc}")
    except (ValueError, TypeError) as exc:
        violations.append(f"{where}: {exc}")
    return None


def _bona_smith_violations(values: dict, grid: Grid) -> list[str]:
    """Truncation sweeps that leave nothing to measure on the run's grid.

    P_<=n keeps every |k| <= n in full, so a cutoff at or above the largest
    wavenumber the solves keep gives zero datum tail and zero difference
    (the structure ratio would divide by zero), and a reference no finer
    than a cutoff gives zero difference. The rate fit needs two distinct
    cutoffs.
    """
    ex = values["experiment"]
    n_sweep = ex.get("n_sweep", ExperimentSpec.n_sweep)
    reference_n = ex.get("reference_n", ExperimentSpec.reference_n)
    if values["solver"]["dealias"]:
        kept = grid.dealias_mask.copy()
    else:
        kept = np.ones(grid.num_points, bool)
    kept[grid.nyquist_index] = False  # the solver drops the unpaired mode
    k_top = float(np.abs(grid.wavenumbers[kept]).max())
    violations = []
    if len(set(n_sweep)) < 2:
        violations.append(
            "[experiment] n_sweep: needs at least two distinct cutoffs (the rate fit)"
        )
    useless = [n for n in n_sweep if not 0 < n < k_top]
    if useless:
        violations.append(
            f"[experiment] n_sweep: cutoffs {', '.join(map(str, useless))} do not "
            f"truncate the datum; the runs keep |k| <= {k_top:g} on this grid "
            f"(k_max = {grid.k_max:g}), so each cutoff must lie in (0, {k_top:g})"
        )
    if n_sweep and reference_n <= max(n_sweep):
        violations.append(
            f"[experiment] reference_n = {reference_n} must exceed every n_sweep "
            f"cutoff (largest {max(n_sweep)}; k_max = {grid.k_max:g})"
        )
    return violations


def _wavepacket_violations(values: dict, grid: Grid) -> list[str]:
    """Carrier sweeps the packet study cannot run on the run's grid.

    The traversal time is 2 launch / (3 alpha xi0^2), so xi0 must be
    positive. The study is linear (epsilon = 0), so a carrier is resolved up
    to k_max; the bound of two thirds of k_max is a margin for the packet's
    Gaussian band around xi0 and the spread added by the pointwise product
    with beta, which the undealiased runs fold back near k_max. On the
    default grid (k_max = 32) the gains at xi0 = 21 and 25 stay within 3% of
    the gain at 10, and the gain at 30 falls by a third.
    """
    xi0_sweep = values["experiment"].get("xi0_sweep", ExperimentSpec.xi0_sweep)
    k_top = (2.0 / 3.0) * grid.k_max
    if not xi0_sweep:
        return [
            f"[experiment] xi0_sweep: needs at least one carrier in (0, {k_top:g}) "
            f"(k_max = {grid.k_max:g})"
        ]
    bad = [xi0 for xi0 in xi0_sweep if not 0 < xi0 < k_top]
    if not bad:
        return []
    return [
        f"[experiment] xi0_sweep: carriers {', '.join(f'{x:g}' for x in bad)} lie "
        f"outside (0, {k_top:g}); each must be positive and below two thirds "
        f"of k_max = {grid.k_max:g} on this grid"
    ]


def _band_sweep_violations(values: dict, grid: Grid) -> list[str]:
    """Band sweeps the commutator survey cannot run.

    The survey works on its own grid of max(num_points, 8 max(band_sweep))
    points, which must be a power of two; the double-bracket slope fit and
    the identity draws use the bands >= 8, and the fit needs two of them.
    """
    sweep = values["experiment"].get("band_sweep", ExperimentSpec.band_sweep)
    violations = []
    bad = [n for n in sweep if n <= 0]
    if bad:
        violations.append(
            f"[experiment] band_sweep: bands {', '.join(map(str, bad))} are not positive"
        )
    if len({n for n in sweep if n >= 8}) < 2:
        violations.append(
            "[experiment] band_sweep: needs at least two distinct bands >= 8 "
            "(the double-bracket slope fit and the identity draws use only those)"
        )
    size = max(grid.num_points, 8 * max(sweep, default=0))
    if size & (size - 1):
        violations.append(
            f"[experiment] band_sweep: the survey grid has max(num_points, "
            f"8 * max(band_sweep)) = {size} points, which is not a power of two"
        )
    return violations


def _dt_sweep_violations(values: dict, grid: Grid) -> list[str]:
    """Step-size sweeps the temporal-order fit cannot use.

    The fit takes the differences of runs at successive step sizes, which
    scale as C (1 - r^p) dt_j^p only when every dt_{j+1} / dt_j is the one
    ratio r < 1; a slope needs two differences, so three step sizes. The
    grid plays no part.
    """
    sweep = values["experiment"].get("dt_sweep", ExperimentSpec.dt_sweep)
    violations = []
    if len(sweep) < 3:
        violations.append(
            "[experiment] dt_sweep: needs at least three step sizes (the order "
            "fit takes the differences of successive runs, and a slope needs two)"
        )
    bad = [dt for dt in sweep if not (np.isfinite(dt) and dt > 0)]
    if bad:
        violations.append(
            f"[experiment] dt_sweep: step sizes {', '.join(f'{dt:g}' for dt in bad)} "
            f"are not positive and finite"
        )
    elif len(sweep) >= 2:
        ratios = [b / a for a, b in zip(sweep, sweep[1:])]
        r = ratios[0]
        if not all(q < 1.0 and abs(q - r) <= 1e-9 * r for q in ratios):
            violations.append(
                f"[experiment] dt_sweep: must decrease by one common ratio (each "
                f"dt_{{j+1}} / dt_j below 1, all equal to within 1e-9 relative); "
                f"the ratios are {', '.join(f'{q:.10g}' for q in ratios)}"
            )
    return violations


# experiment kind -> parse-time check of its sweep against the run's grid
_SWEEP_CHECKS = {
    "bona_smith": _bona_smith_violations,
    "wavepacket": _wavepacket_violations,
    "commutator_survey": _band_sweep_violations,
    "soliton_benchmark": _dt_sweep_violations,
}


@dataclass
class RunConfig:
    values: dict  # canonical section -> key -> parsed value
    cset: CoefficientSet
    spec_kwargs: dict
    run_id: str
    config_hash: str

    @property
    def kind(self) -> str:
        return self.values["experiment"]["kind"]


def parse_config(path) -> RunConfig:
    """Read, validate and canonicalize a config file.

    Raises ConfigError listing every violation: unknown sections/keys (with
    a spelling suggestion), type failures, and expression errors with their
    source column.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"])
    except configparser.Error as exc:
        raise ConfigError([f"malformed config: {exc}"])

    violations: list[str] = []
    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            hint = difflib.get_close_matches(section, _SCHEMA.keys(), n=1)
            extra = f"; did you mean [{hint[0]}]?" if hint else ""
            violations.append(f"unknown section [{section}]{extra}")
            continue
        known = _SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in known:
                hint = difflib.get_close_matches(key, known.keys(), n=1)
                extra = f"; did you mean {hint[0]!r}?" if hint else ""
                violations.append(f"[{section}] unknown key {key!r}{extra}")
                continue
            tag, _default = known[key]
            parsed = _convert(tag, raw, f"[{section}] {key}", violations)
            if parsed is not None:
                values.setdefault(section, {})[key] = parsed

    # defaults
    for section, keys in _SCHEMA.items():
        for key, (tag, default) in keys.items():
            if default is None:
                continue
            if key not in values.get(section, {}):
                parsed = _convert(tag, default, f"[{section}] {key} (default)", violations)
                values.setdefault(section, {})[key] = parsed

    for section, key in _REQUIRED:
        if key not in values.get(section, {}):
            violations.append(f"[{section}] missing required key {key!r}")

    sweep_check = None if violations else _SWEEP_CHECKS.get(values["experiment"]["kind"])
    if sweep_check is not None:
        try:
            grid = make_grid(values["grid"]["half_width"], values["grid"]["num_points"])
        except GridSizeError:
            pass  # reported when the run builds its grid
        else:
            violations.extend(sweep_check(values, grid))
    if violations:
        raise ConfigError(violations)

    # assemble the coefficient set and split
    co = values["coefficients"]
    sp = values["split"]
    if sp["strategy"] == "softplus" and ("beta1" in sp or "beta2" in sp):
        raise ConfigError(
            ["[split] beta1/beta2 are only meaningful with strategy = user"]
        )
    try:
        beta_expr = parse_coefficient(co["beta"])
        if sp["strategy"] == "softplus":
            b1, b2 = softplus_split(beta_expr, sp["kappa"])
            b1_text, b2_text = "<softplus>", "<softplus>"
        else:
            b1_text = sp.get("beta1", co["beta"])
            b2_text = sp.get("beta2", "0")
            b1, b2 = parse_coefficient(b1_text), parse_coefficient(b2_text)
        cset = CoefficientSet(
            alpha=parse_coefficient(co["alpha"]),
            beta=beta_expr,
            gamma=parse_coefficient(co["gamma"]),
            delta=parse_coefficient(co["delta"]),
            epsilon=parse_coefficient(co["epsilon"]),
            beta1=b1,
            beta2=b2,
            alpha0=co["alpha0"],
        )
    except ExpressionError as exc:
        raise ConfigError([f"[coefficients]/[split]: {exc}"])

    values.setdefault("split", {})["beta1"] = b1_text
    values["split"]["beta2"] = b2_text

    canonical = json.dumps(values, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    ex = dict(values["experiment"])
    kind = ex.pop("kind")
    seed = ex.pop("seed")
    spec_kwargs = dict(
        kind=kind,
        seed=seed,
        half_width=values["grid"]["half_width"],
        num_points=values["grid"]["num_points"],
        s=values["solver"]["s"],
        t_final=values["solver"]["t_final"],
        dt=values["solver"]["dt"],
        dealias=values["solver"]["dealias"],
        blowup_threshold=values["solver"]["blowup_threshold"],
        monitor_stride=values["solver"]["monitor_stride"],
        **ex,
    )
    return RunConfig(
        values=values,
        cset=cset,
        spec_kwargs=spec_kwargs,
        run_id=digest[:12],
        config_hash=digest,
    )


def _screened_grid(config: RunConfig) -> Grid:
    """The run's grid, once every coefficient field is screened for poles on it.

    Each field and its derivatives of orders x, xx and t must be finite on
    the grid at t = 0, t_final/2 and t_final; the first that is not raises an
    ExpressionError naming its expression.  `run` and `check` both call this
    before the hypothesis check, so both refuse the same configs.
    """
    grid = make_grid(config.values["grid"]["half_width"], config.values["grid"]["num_points"])
    config.cset.screen(np.linspace(0.0, config.values["solver"]["t_final"], 3), grid.x)
    return grid


def run(
    config: RunConfig,
    output_dir,
    seed_override: int | None = None,
    allow_hypothesis_violation: bool = False,
    gnuplot: bool = False,
    stream=None,
) -> int:
    """Hypothesis gate, experiment dispatch, output emission.

    An unexpected exception is reported as one `error: ...` line on the
    output stream (exit 2), its full traceback on stderr.
    """
    out = stream or sys.stdout
    try:
        grid = _screened_grid(config)
        t_final = config.values["solver"]["t_final"]
        hyp = check_hypotheses(config.cset, grid, t_final, t_samples=5)
        violating = not hyp.passed
        if violating and not allow_hypothesis_violation:
            out.write(hyp.format_text() + "\n")
            out.write(
                "hypothesis check failed; rerun with --allow-hypothesis-violation "
                "to proceed (outputs will be watermarked)\n"
            )
            return 2

        kwargs = dict(config.spec_kwargs)
        if seed_override is not None:
            kwargs["seed"] = int(seed_override)
        kwargs["hypothesis_violating"] = violating
        spec = ExperimentSpec(cset=config.cset, **kwargs)
        report = run_experiment(spec)
        run_id = config.run_id if seed_override is None else (
            hashlib.sha256(
                (config.config_hash + f":seed={seed_override}").encode()
            ).hexdigest()[:12]
        )
        write_report(report, output_dir, run_id, config.config_hash, gnuplot=gnuplot)
        for v in report.verdicts:
            out.write(
                f"{'PASS' if v.passed else 'FAIL'} {v.name}: value {v.value:.6g} "
                f"({v.threshold})\n"
            )
        return 0 if report.passed else 1
    except ConfigError:
        raise
    except Exception as exc:  # noqa: BLE001 -- boundary: report and signal exit 2
        traceback.print_exc(file=sys.stderr)
        out.write(f"error: {exc}\n")
        return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="kdvgauge",
        description="gauge-straightening studies for variable-coefficient "
        "third-order dispersive equations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured experiment")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output-dir", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--allow-hypothesis-violation", action="store_true")
    p_run.add_argument("--gnuplot", action="store_true",
                       help="also write whitespace-separated .dat tables")

    p_check = sub.add_parser("check", help="hypothesis check only")
    p_check.add_argument("config")

    sub.add_parser("list-experiments", help="print the experiment kinds")

    args = ap.parse_args(argv)

    if args.command == "list-experiments":
        for kind in EXPERIMENT_KINDS:
            print(kind)
        return 0

    try:
        config = parse_config(args.config)
    except ConfigError as exc:
        for line in exc.violations:
            print(f"config error: {line}", file=sys.stderr)
        return 2

    if args.command == "check":
        try:
            grid = _screened_grid(config)
            hyp = check_hypotheses(
                config.cset, grid, config.values["solver"]["t_final"], t_samples=5
            )
        except Exception as exc:  # noqa: BLE001
            traceback.print_exc(file=sys.stderr)
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(hyp.format_text())
        return 0 if hyp.passed else 1

    return run(
        config,
        args.output_dir,
        seed_override=args.seed,
        allow_hypothesis_violation=args.allow_hypothesis_violation,
        gnuplot=args.gnuplot,
    )


if __name__ == "__main__":
    sys.exit(main())
