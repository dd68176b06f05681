"""Configuration ingestion and run orchestration.

Configs are INI-style documents with sections [grid], [coefficients],
[split], [solver] and [experiment]; all values are strings parsed against a
typed schema.  Unknown keys are rejected with a spelling suggestion, and
every violation in the file is reported, not just the first.  A run is
identified by the SHA-256 of its canonical parsed content, so identical
configs produce byte-identical outputs.  The [experiment] keys are those
of the named kind's spec (`experiments.EXPERIMENTS`); a key of another kind
is refused with the name of the kind that owns it.

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
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import CoefficientSet, HypothesisReport, check_hypotheses, softplus_split
from .experiments import EXPERIMENTS, ExperimentSpec, run_experiment, write_report
from .expressions import ExpressionError, parse_coefficient
from .solver import SolverConfig
from .spectral import GridSizeError, make_grid

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]


class ConfigError(ValueError):
    """Carries every violation found while validating a config."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("\n".join(self.violations))


# key -> (type tag, default); a None default is never written into the values,
# except in [grid] and [solver], whose defaults are the spec's Grid and SolverConfig.
# A tag may start with a value rule of _RULES ("positive float").
_SCHEMA = {
    "grid": {
        "half_width": ("const", None),
        "num_points": ("int", None),
    },
    "coefficients": {
        "alpha": ("expr", "1"),
        "beta": ("expr", "0"),
        "gamma": ("expr", "0"),
        "delta": ("expr", "0"),
        "epsilon": ("expr", "1"),
        "alpha0": ("positive float", "1.0"),
    },
    "split": {
        "strategy": ("choice:user,softplus", "user"),
        "beta1": ("expr", None),
        "beta2": ("expr", None),
        "kappa": ("positive float", "10.0"),
    },
    "solver": {
        "dt": ("positive float_or_auto", None),
        "t_final": ("positive float", None),
        "s": ("float", None),
        "dealias": ("bool", None),
        "blowup_threshold": ("positive float_or_auto", None),
    },
    # the kind's own knobs are added from its spec (_experiment_schema)
    "experiment": {
        "kind": ("choice:" + ",".join(EXPERIMENTS), None),
        "seed": ("int", "0"),
    },
}

# knob annotation -> type tag
_TAGS = {int: "int", float: "float", tuple[int, ...]: "int_list", tuple[float, ...]: "float_list"}

# value rule -> what a value, or each entry of a list, must be besides finite
_RULES = {"positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0,
          "nonzero": lambda v: v != 0}


def _value(tag: str, raw: str):
    if tag == "int":
        return int(raw)
    if tag == "float_or_auto" and raw.strip().lower() == "auto":
        return "auto"
    if tag in ("float", "float_or_auto"):
        return float(raw)
    if tag == "bool":
        low = raw.strip().lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if tag == "int_list":
        return tuple(int(v.strip()) for v in raw.split(",") if v.strip())
    if tag == "float_list":
        return tuple(float(v.strip()) for v in raw.split(",") if v.strip())
    if tag == "const":
        expr = parse_coefficient(raw)
        if expr.depends_on_t or expr.depends_on_x:
            raise ValueError("must be a constant expression")
        return float(expr.eval(0.0, 0.0))
    if tag == "expr":
        parse_coefficient(raw)  # validated here, parsed again at build
        return raw
    if tag.startswith("choice:"):
        choices = tag.split(":", 1)[1].split(",")
        if raw.strip() not in choices:
            raise ValueError(f"must be one of {choices}")
        return raw.strip()
    raise RuntimeError(f"bad schema tag {tag}")  # pragma: no cover


def _convert(tag: str, raw: str, where: str, violations: list):
    """`raw` as a value of `tag`, else None and the reason in `violations`.  A
    float, a constant and each entry of a ruled value must be finite and keep the rule."""
    rule, _, tag = tag.rpartition(" ")
    try:
        value = _value(tag, raw)
        if value != "auto" and (rule or tag in ("float", "const")):
            for v in value if isinstance(value, tuple) else (value,):
                if not (np.isfinite(v) and (not rule or _RULES[rule](v))):
                    need = f"{rule} and finite" if rule else "finite"
                    raise ValueError(f"must be {need}, got {v:g}")
        return value
    except ExpressionError as exc:
        violations.append(f"{where}: expression error: {exc}")
    except (ValueError, TypeError) as exc:
        violations.append(f"{where}: {exc}")
    return None


def _experiment_schema(kind: str) -> dict:
    """kind, seed, and the knobs of `kind`, which have no schema default: the
    spec holds it, so a default never enters the hashed values.  A knob's tag
    starts with the rule its annotation declares (`Annotated[float,
    "positive"]` gives "positive float")."""
    knobs = EXPERIMENTS[kind].knob_rules() if kind in EXPERIMENTS else {}
    return {**_SCHEMA["experiment"], **{
        k: (f"{rule} {_TAGS[t]}" if rule else _TAGS[t], None) for k, (t, rule) in knobs.items()
    }}


@dataclass
class RunConfig:
    values: dict  # canonical section -> key -> parsed value
    spec: ExperimentSpec
    run_id: str
    config_hash: str


def parse_config(path) -> RunConfig:
    """Read, validate and canonicalize a config file.

    Raises ConfigError listing every violation: unknown sections/keys (with
    a spelling suggestion), [experiment] keys of another kind (with the
    kinds that own them), type failures and values that break their key's
    rule (each naming its key), expression errors with their source column,
    a grid that cannot be built, and the spec's `refusals` on the run's
    grid: its checks of knobs taken together, then each planned solve whose
    datum or step it could not run.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"])
    except configparser.Error as exc:
        raise ConfigError([f"malformed config: {exc}"])

    kind = parser.get("experiment", "kind", fallback="").strip()
    schema = dict(_SCHEMA, experiment=_experiment_schema(kind))
    violations: list[str] = []
    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in schema:
            hint = difflib.get_close_matches(section, schema.keys(), n=1)
            extra = f"; did you mean [{hint[0]}]?" if hint else ""
            violations.append(f"unknown section [{section}]{extra}")
            continue
        known = schema[section]
        for key, raw in parser.items(section):
            if key not in known:
                owners = [k for k, spec in EXPERIMENTS.items() if key in spec.knob_rules()]
                if section != "experiment" or not owners:
                    hint = difflib.get_close_matches(key, known.keys(), n=1)
                    extra = f"; did you mean {hint[0]!r}?" if hint else ""
                    violations.append(f"[{section}] unknown key {key!r}{extra}")
                elif kind in EXPERIMENTS:  # else the kind itself is refused
                    violations.append(
                        f"[experiment] {key}: a knob of {' and '.join(owners)}, "
                        f"not of {kind}"
                    )
                continue
            tag, _default = known[key]
            parsed = _convert(tag, raw, f"[{section}] {key}", violations)
            if parsed is not None:
                values.setdefault(section, {})[key] = parsed

    # defaults; an omitted [grid] or [solver] key is hashed with the spec's default
    for section, keys in schema.items():
        given = values.setdefault(section, {})
        for key, (tag, default) in keys.items():
            if key in given:
                continue
            if section in ("grid", "solver"):
                given[key] = getattr(getattr(ExperimentSpec, section), key)
            elif default is not None:
                given[key] = _convert(tag, default, f"[{section}] {key} (default)", violations)

    if not kind:
        violations.append("[experiment] missing required key 'kind'")
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
        split = {key: sp[key] for key in ("beta1", "beta2") if key in sp}
        cset = CoefficientSet.from_strings(**co, **split)
    except ExpressionError as exc:
        raise ConfigError([f"[coefficients]/[split]: {exc}"])
    if sp["strategy"] == "softplus":
        cset.beta1, cset.beta2 = softplus_split(cset.beta, sp["kappa"])
        sp["beta1"] = sp["beta2"] = "<softplus>"
    else:
        sp["beta1"], sp["beta2"] = cset.beta1.text, cset.beta2.text

    try:
        grid = make_grid(**values["grid"])
    except GridSizeError as exc:  # its message starts with the key
        raise ConfigError([f"[grid] {exc}"])
    knobs = {k: v for k, v in values["experiment"].items() if k != "kind"}
    solver = SolverConfig(**values["solver"])
    spec = EXPERIMENTS[kind](cset=cset, grid=grid, solver=solver, **knobs)
    violations = spec.refusals()
    if violations:
        raise ConfigError(violations)

    canonical = json.dumps(values, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return RunConfig(values=values, spec=spec, run_id=digest[:12], config_hash=digest)


def _gate(config: RunConfig) -> HypothesisReport:
    """The hypothesis report on the coefficient set the run's experiment
    integrates, once every field of that set is screened for poles.

    Each field and its derivatives of orders x, xx and t must be finite on
    the grid at t = 0, t_final/2 and t_final; the first that is not raises an
    ExpressionError naming it.  `run` and `check` both gate through here, so
    both screen and check the same set at the same sample times.
    """
    spec, t_final = config.spec, config.spec.solver.t_final
    cset = spec.integrated_cset()
    cset.screen(np.linspace(0.0, t_final, 3), spec.grid.x)
    return check_hypotheses(cset, spec.grid, t_final)


def run(
    config: RunConfig,
    output_dir,
    seed_override: int | None = None,
    allow_hypothesis_violation: bool = False,
    gnuplot: bool = False,
) -> int:
    """Hypothesis gate, experiment dispatch, output emission.

    An unexpected exception is reported as one `error: ...` line on the
    standard output (exit 2), its full traceback on stderr.
    """
    try:
        hyp = _gate(config)
        violating = not hyp.passed
        if violating and not allow_hypothesis_violation:
            print(hyp.format_text())
            print(
                "hypothesis check failed; rerun with --allow-hypothesis-violation "
                "to proceed (outputs will be watermarked)"
            )
            return 2

        spec = config.spec
        if seed_override is not None:
            spec = replace(spec, seed=int(seed_override))
        report = run_experiment(spec)
        report.watermark = violating
        run_id = config.run_id if seed_override is None else (
            hashlib.sha256(
                (config.config_hash + f":seed={seed_override}").encode()
            ).hexdigest()[:12]
        )
        write_report(report, output_dir, run_id, config.config_hash, gnuplot=gnuplot)
        for v in report.verdicts:
            print(
                f"{'PASS' if v.passed else 'FAIL'} {v.name}: value {v.value:.6g} "
                f"({v.threshold})"
            )
        return 0 if report.passed else 1
    except Exception as exc:  # noqa: BLE001 -- boundary: report and signal exit 2
        traceback.print_exc(file=sys.stderr)
        print(f"error: {exc}")
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
        for kind in EXPERIMENTS:
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
            hyp = _gate(config)
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
