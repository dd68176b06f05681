"""Scripted studies that confront the transformation theory with the solver.

Six experiment kinds:

* transform_consistency -- solve the original form, transport through the
  gauge, and compare with the constant-dispersion solve of the transported
  datum (two independent discretizations of one solution).
* bona_smith -- convergence rate of solutions from frequency-truncated data
  against a fine-cutoff reference.
* wavepacket -- amplitude gain of packets crossing a compact anti-diffusion
  region, against the frequency-independent heuristic exp(2 R beta / alpha).
* continuity -- stability of the flow map under initial perturbations of
  shrinking size.
* commutator_survey -- empirical constants for the dyadic commutator
  bounds, the quadratic commutator identity, and the cubic resonance
  factorization.
* soliton_benchmark -- travelling-wave accuracy, conservation, and temporal
  order of the schemes.

Every report is reproducible bit-for-bit from (spec, seed).  Fitted slopes
report an RMS residual in log space; rate-claim verdicts (bona_smith,
commutator scaling, temporal order) fail when that residual exceeds 0.1,
while spectral-accuracy fits (transform consistency) only gate on sign and
monotonicity since they are not power laws.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field, fields, replace
from pathlib import Path
from typing import Annotated, ClassVar, get_args, get_origin, get_type_hints

import numpy as np

from .coefficients import CoefficientSet
from .dyadic import (
    RESONANCE_SIGN_NOTE,
    ProjectorBank,
    commutator,
    comcom_residual,
    double_commutator,
    project,
    resonance_omega3,
)
from .gauge import GaugeSystem, TransformedCoefficients, forward_transform, forward_transforms
from .solver import (
    SolverConfig, SpaceTimeBump, Trajectory, _keep, _step_size, auto_dt, solve, weak_residual,
)
from .spectral import (
    EDGE_MASS_LIMIT,
    Grid,
    GridSizeError,
    SpectralState,
    derivative as spectral_derivative,
    edge_mass_fraction,
    l2_norm,
    make_grid,
    mass,
    sobolev_norm,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "TransformConsistencySpec",
    "BonaSmithSpec",
    "WavepacketSpec",
    "ContinuitySpec",
    "CommutatorSurveySpec",
    "SolitonBenchmarkSpec",
    "ExperimentReport",
    "Verdict",
    "run_experiment",
    "fit_loglog",
    "successive_difference_order",
    "gaussian_state",
    "soliton_state",
    "exact_soliton_values",
    "packet_state",
    "spectrum_state",
    "random_smooth_field",
    "envelope_peak",
    "write_report",
]


@dataclass
class Verdict:
    name: str
    passed: bool
    value: float
    threshold: str  # human-readable statement of the gate


@dataclass(frozen=True)
class _Solve:
    """One solve of a study's run: the datum `u0`, the `config` and `problem`
    that `run` passes to `solve`, and its monitor times.  A refusal of the
    datum names `datum_key` and describes the datum as `label`, or names
    `grid_key`, the knob that sets the solve's number of points, when the
    grid does not resolve the datum; a refusal of the step names `step_key`,
    then `step_label`, which says which solve it is, then `solve`'s message.
    `image` is a state the study compares the solve's end with."""

    datum_key: str
    label: str
    u0: SpectralState
    config: SolverConfig
    problem: object
    monitor: np.ndarray | None = None
    step_key: str = "[solver] dt"
    step_label: str = ""
    image: SpectralState | None = None
    grid_key: str = "[grid] num_points"

    def run(self) -> Trajectory:
        return solve(self.u0, self.config, self.problem, monitor_times=self.monitor)

    def refusal(self) -> tuple | None:
        """(key, rank, reason) of the first check this solve fails, else None.

        The datum, then the image, on the modes the solve keeps, must be
        finite with a nonzero L2 norm, and keep its edge mass at most
        `EDGE_MASS_LIMIT` if the solve warns at the edge (rank inf).  The grid
        does not resolve a state that fails only once cut to those modes, nor,
        if the solve warns at the edge, one whose dropped modes hold more than
        `EDGE_MASS_LIMIT` of its squared L2 norm: the kept modes next to the
        cut hold about as much, and a solve carries them to the edge.  This
        screen does not read t_final, so it refuses some data whose run stays
        off the edge and passes some whose run reaches it late (README,
        "Domain sizing").  Then the step must pass `solve`'s step budget
        (rank: its steps, inf for a step that is not positive)."""
        image = f"{self.label}'s image at t = {self.config.t_final:.4g}"
        for what, state in ((self.label, self.u0), (image, self.image)):
            if state is None:
                continue
            kept = SpectralState(  # as solve stores it
                state.grid, state.coefficients * _keep(state.grid, self.config.dealias)
            )
            why = self._fault(kept)
            if why is not None and self._fault(state) is not None:
                return self.datum_key, np.inf, f"{what} {why}"
            if why is not None:
                why = f"cut to the modes a solve keeps, it {why}"
            elif self.config.warn_domain_edge and not (
                (dropped := (l2_norm(state - kept) / l2_norm(state)) ** 2) <= EDGE_MASS_LIMIT
            ):
                why = (f"the modes a solve drops hold {dropped:.2g} > {EDGE_MASS_LIMIT:g} of "
                       f"its squared L2 norm")
            else:
                continue
            return self.grid_key, np.inf, (
                f"{what} is not resolved on n = {state.grid.num_points} points: {why}"
            )
        try:
            _step_size(self.config, self.problem, self.u0)
        except ValueError as exc:
            return self.step_key, getattr(exc, "steps", np.inf), f"{self.step_label}{exc}"
        return None

    def _fault(self, state: SpectralState) -> str | None:
        """Why the solve cannot take `state`, or None: it must be finite with a
        nonzero L2 norm, and off the edge if the solve warns there."""
        if not np.all(np.isfinite(state.coefficients)):
            return "is not finite on this grid"
        if not l2_norm(state) > 0.0:  # squares that underflow leave no norm to measure
            return "is zero on this grid"
        if self.config.warn_domain_edge and not (
            (edge := edge_mass_fraction(state)) <= EDGE_MASS_LIMIT
        ):
            return (f"has edge mass {edge:.2g} > {EDGE_MASS_LIMIT:g} (the outer 10% of the "
                    f"domain of half_width {state.grid.half_width:g})")
        return None


@dataclass(frozen=True)
class ExperimentSpec:
    """What every experiment kind reads: the coefficient set, the run's grid
    and solver settings, and the seed.

    `grid` and `solver` are the [grid] and [solver] sections, and their
    defaults are those of the config.  Each kind is a subclass that adds its
    own [experiment] knobs with their defaults, lists its study's solves,
    `solves`, each with `solver` unchanged or only what the study fixes
    replaced, and runs the study from that list, `run`; it may override
    `violations` and `integrated_cset`.  A knob that must be positive or
    nonzero (each entry of a list) declares that rule with its type,
    `Annotated[float, "positive"]`, which the parser enforces.
    """

    kind: ClassVar[str]
    cset: CoefficientSet
    grid: Grid = make_grid(8.0 * np.pi, 512)
    solver: SolverConfig = SolverConfig()
    seed: int = 0

    @classmethod
    def knob_rules(cls) -> dict:
        """The kind's own [experiment] keys -> (type, the rule its annotation
        declares or None), from one evaluation of the annotations."""
        hints = get_type_hints(cls, include_extras=True)
        shared = {f.name for f in fields(ExperimentSpec)}
        return {f.name: get_args(hints[f.name]) if get_origin(hints[f.name]) is Annotated
                else (hints[f.name], None) for f in fields(cls) if f.name not in shared}

    def refusals(self) -> list[str]:
        """Parse-time reasons, each naming its key, why the run cannot go on
        its grid: the kind's `violations`, then, once they pass, its plan's."""
        return self.violations() or self._plan_violations()

    def violations(self) -> list[str]:
        """The kind's checks of knobs taken together, such as a sweep's shape."""
        return []

    def solves(self) -> list[_Solve]:
        """The solves that `run` makes, in order; none by default."""
        return []

    def _plan_violations(self) -> list[str]:
        """The one check of the planned solves (`_Solve.refusal`), which names
        each key once: by its first refused datum, else by its longest refused
        solve.  A solve whose integrated coefficients are not finite on its
        grid at t = 0 is left to the gate's pole screen."""
        cset, named = self.integrated_cset(), {}
        names = ("alpha", "beta", "gamma", "delta", "epsilon")
        with np.errstate(all="ignore"):  # data out of the float range are refused here
            for plan in self.solves():
                if not np.all(np.isfinite(cset.sample(names, 0.0, plan.u0.grid.x))):
                    continue
                refused = plan.refusal()
                if refused and refused[1] > named.get(refused[0], (-1.0,))[0]:
                    named[refused[0]] = refused[1:]
        return [f"{key}: {reason}" for key, (_rank, reason) in named.items()]

    def integrated_cset(self) -> CoefficientSet:
        """The coefficient set the run integrates, which the hypothesis gate checks."""
        return self.cset

    def run(self, report: ExperimentReport) -> None:
        """Run the study into `report`: its tables, slopes, verdicts and notes."""
        raise NotImplementedError


@dataclass
class ExperimentReport:
    kind: str
    tables: dict = dc_field(default_factory=dict)  # name -> (header, rows)
    slopes: dict = dc_field(default_factory=dict)  # name -> dict(slope, residual)
    verdicts: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)
    watermark: bool = False

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def add_table(self, name: str, header: list, rows: list) -> None:
        self.tables[name] = (list(header), [list(r) for r in rows])

    def verdict(self, name: str, passed: bool, value: float, threshold: str) -> None:
        self.verdicts.append(Verdict(name, bool(passed), float(value), threshold))

    def solved(self, traj: Trajectory) -> Trajectory:
        """`traj`; a solve that blew up sets the one failing `no_blowup`
        verdict to the earliest blow-up time of the run."""
        if traj.blowup:
            times = [v.value for v in self.verdicts if v.name == "no_blowup"]
            self.verdicts = [v for v in self.verdicts if v.name != "no_blowup"]
            self.verdict("no_blowup", False, min([traj.blowup_time, *times]),
                         "every solve reaches t_final with finite states below the sup-norm cap")
        return traj


def fit_loglog(xs, ys) -> tuple[float, float, float]:
    """Least-squares slope of log10 y against log10 x.

    Returns (slope, intercept, rms residual in log10 units).  Needs at
    least two points with distinct abscissae.
    """
    lx = np.log10(np.asarray(xs, dtype=float))
    ly = np.log10(np.clip(np.asarray(ys, dtype=float), 1e-300, None))
    if len(set(lx.tolist())) < 2:  # np.unique would import numpy.ma
        raise ValueError("slope fit needs at least two points with distinct abscissae")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), float(intercept), resid


def successive_difference_order(dts, finals) -> tuple[list, float, float]:
    """Temporal order from the final states of runs over a geometric dt sweep.

    The runs share one datum and one grid, and dt_{j+1} = r dt_j with one
    ratio r.  A scheme of order p gives u_j = u* + C dt_j^p + ..., so
    u_j - u_{j+1} = C (1 - r^p) dt_j^p: the successive differences fall
    with slope p against dt_j, and the spatial error, common to every run,
    cancels in each (Richardson's argument in its successive-refinement
    form; Roache, Verification and Validation in Computational Science and
    Engineering, 1998).  Returns the rows [dt_j, ||u_j - u_{j+1}||_L2] for
    j = 0..len-2, the fitted slope, and its rms residual in log10 units.
    """
    rows = [[dt, l2_norm(a - b)] for dt, a, b in zip(dts, finals, finals[1:])]
    slope, _, resid = fit_loglog([r[0] for r in rows], [r[1] for r in rows])
    return rows, slope, resid


# -- initial data ---------------------------------------------------------


def gaussian_state(grid, amplitude=1.0, width=1.0, center=0.0) -> SpectralState:
    # a numpy square, as in packet_state: a width out of scale gives a flat
    # datum that the spec's edge check refuses, not an OverflowError
    vals = amplitude * np.exp(-((grid.x - center) ** 2) / (2.0 * np.float64(width) ** 2))
    return SpectralState.from_physical(grid, vals)


def exact_soliton_values(x, t, kappa=1.0, e=-6.0, center=0.0) -> np.ndarray:
    """Travelling wave of u_t + u_xxx = e u u_x: amplitude -12 kappa^2 / e,
    speed 4 kappa^2."""
    arg = kappa * (np.asarray(x) - center - 4.0 * kappa**2 * t)
    return (-12.0 * kappa**2 / e) / np.cosh(arg) ** 2


def soliton_state(grid, kappa=1.0, e=-6.0, center=0.0) -> SpectralState:
    return SpectralState.from_physical(
        grid, exact_soliton_values(grid.x, 0.0, kappa, e, center)
    )


def packet_state(grid, xi0, width=1.5, center=0.0, amplitude=1.0) -> SpectralState:
    # a numpy square: a width out of scale overflows to inf, a flat envelope
    # that the spec's edge check refuses, instead of raising OverflowError
    env = np.exp(-((grid.x - center) ** 2) / (2.0 * np.float64(width) ** 2))
    return SpectralState.from_physical(
        grid, amplitude * env * np.cos(xi0 * (grid.x - center))
    )


def spectrum_state(grid, s, decay_offset, rng, target_hs=1.0) -> SpectralState:
    """Real field with |c(k)| ~ (1+|k|)^(-s-decay_offset), random phases."""
    k = grid.wavenumbers[1:-1]  # zero mean, no Nyquist content
    c = np.zeros(grid.wavenumbers.size, dtype=complex)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k.size)
    c[1:-1] = (1.0 + k) ** (-(s + decay_offset)) * np.exp(1j * phases)
    norm = sobolev_norm(SpectralState(grid, c), s)
    # a numpy quotient: a zero norm gives a datum that is not finite, which
    # bona_smith's parse-time check refuses, instead of ZeroDivisionError
    return SpectralState(grid, c * np.divide(target_hs, norm))


def random_smooth_field(grid, rng, decay=1.0) -> SpectralState:
    return spectrum_state(grid, 0.0, decay, rng)


def envelope_peak(state: SpectralState) -> float:
    """Peak of the analytic-signal magnitude (carrier-free amplitude)."""
    grid = state.grid
    # the one-sided spectrum: c(0), then 2 c(k) for 0 < k below Nyquist
    z = grid.multiplicity[:-1] * state.coefficients[:-1]
    analytic = np.fft.ifft(z, grid.num_points, norm="forward")
    return float(np.abs(analytic).max())


@dataclass(frozen=True)
class _ConstantKdVSpec(ExperimentSpec):
    """The kinds that integrate u_t + u_xxx = epsilon u u_x with epsilon
    independent of t, on the transformed form's constant-dispersion path."""

    def violations(self) -> list[str]:
        """Coefficients that path would not integrate: any that depend on t,
        and alpha other than 1 or beta, gamma, delta other than 0 on the grid.
        A field that is not finite there is left to the pole screen."""
        violations = []
        for name, want in (("alpha", 1.0), ("beta", 0.0), ("gamma", 0.0),
                           ("delta", 0.0), ("epsilon", None)):
            expr = getattr(self.cset, name)
            values = np.asarray(expr.eval(0.0, self.grid.x), dtype=float)
            if expr.depends_on_t:
                need = "time-independent coefficients"
            elif want is not None and np.all(np.isfinite(values)) and (
                np.abs(values - want).max() > 1e-12
            ):
                need = f"{name} identically {want:g}"
            else:
                continue
            violations.append(f"[coefficients] {name}: {self.kind} needs {need}, got {expr.text!r}")
        return violations

    def constant_kdv(self) -> TransformedCoefficients:
        """The run's coefficients b = c = d = f = 0 and e = epsilon on the
        grid; a set the path would not integrate is refused."""
        refused = _ConstantKdVSpec.violations(self)  # not the kind's own checks
        if refused:
            raise ValueError("; ".join(refused))
        grid = self.grid
        tc = TransformedCoefficients.constant_kdv(grid, epsilon=0.0)
        tc.e = np.asarray(self.cset.epsilon.eval(0.0, grid.x), dtype=float) * np.ones(
            grid.num_points
        )
        return tc


# -- experiments ----------------------------------------------------------


@dataclass(frozen=True)
class TransformConsistencySpec(ExperimentSpec):
    kind: ClassVar[str] = "transform_consistency"
    refine_sweep: tuple[int, ...] = (256, 512, 1024)
    gaussian_width: Annotated[float, "positive"] = 2.0
    gaussian_amplitude: Annotated[float, "nonzero"] = 1.0

    def violations(self) -> list[str]:
        """Every size of the sweep, a set, must build a grid of the run's width."""
        violations = []
        if not self.refine_sweep:
            violations.append("[experiment] refine_sweep: needs at least one grid size")
        for n in sorted(set(self.refine_sweep)):
            try:
                make_grid(self.grid.half_width, n)
            except GridSizeError as exc:
                violations.append(f"[experiment] refine_sweep: size {n}: {exc}")
        return violations

    def solves(self) -> list[_Solve]:
        """The original-form solve of the Gaussian datum on each grid of the
        sweep, a set walked in ascending order, with dense monitors: the weak
        residual's time quadrature must resolve the test bump's transition.
        Each grid's transformed-form solve is not planned, since its problem
        is the gauge system that `_consistency_row` builds; `solve` checks its
        step when it runs."""
        monitor = np.linspace(0.0, self.solver.t_final, 81)[1:]
        return [
            _Solve(
                "[experiment] gaussian_width",
                f"the Gaussian of width {self.gaussian_width:g}",
                gaussian_state(make_grid(self.grid.half_width, n), self.gaussian_amplitude,
                               self.gaussian_width),
                self.solver, self.cset, monitor,
                step_label=f"the original-form solve on n = {n} points: ",
                grid_key="[experiment] refine_sweep",
            )
            for n in sorted(set(self.refine_sweep))
        ]

    def run(self, report: ExperimentReport) -> None:
        """Mutual-oracle comparison of the two solution paths."""
        rows = [self._consistency_row(report, plan) for plan in self.solves()]
        report.add_table(
            "discrepancy", ["n", "sup_t_l2_discrepancy", "weak_residual_original",
                            "weak_residual_transformed"], rows
        )
        ns = [r[0] for r in rows]
        ds = [r[1] for r in rows]
        final_disc = ds[-1]
        report.verdict(
            "discrepancy_at_finest", final_disc < 1e-4, final_disc,
            "sup_t L2 discrepancy < 1e-4 at the finest grid",
        )
        if len(ns) >= 2:
            slope, _, resid = fit_loglog(ns, ds)
            order = -slope
            report.slopes["refinement_order"] = {"slope": slope, "residual": resid}
            monotone = all(ds[i + 1] < ds[i] for i in range(len(ds) - 1))
            report.verdict(
                "refinement_order_positive", order > 0.0 and monotone, order,
                "discrepancy decreases under refinement with positive fitted order",
            )
            report.notes.append(
                "refinement fit residual reported but not gated: spectral accuracy "
                "is not a power law"
            )
        else:
            report.notes.append("single-level sweep: no refinement fit")

    def _consistency_row(self, report: ExperimentReport, plan: _Solve) -> list:
        """[n, sup_t L2 discrepancy, weak residual of each form] on the grid of
        the original-form solve `plan`.

        The gauge system keeps its slices at 0 and the monitor times, which the
        discrepancy loop and the transformed weak residual revisit after the
        solve, so each is built once.  The grid's trajectories and system are
        released on return, before the next grid is solved.  A solve that
        blows up, or an original-form solve whose states the transport would
        refuse for their edge mass, ends the grid: its row reads nan, a note
        names it, and its remaining solves are skipped.
        """
        T, grid, monitor = self.solver.t_final, plan.u0.grid, plan.monitor
        n = grid.num_points

        def failed(why: str) -> list:
            report.notes.append(f"n = {n}: {why}; the grid's row reads nan")
            return [n, np.nan, np.nan, np.nan]

        traj_o = report.solved(plan.run())
        if traj_o.blowup:
            return failed(f"the original-form solve blew up at t = {traj_o.blowup_time:g}")
        if traj_o.edge_mass_max > EDGE_MASS_LIMIT:
            return failed(f"the original-form solve's edge mass {traj_o.edge_mass_max:.2e} "
                          f"exceeds {EDGE_MASS_LIMIT:g}, which the transport refuses")
        system = GaugeSystem(self.cset, grid, times=np.linspace(0.0, T, 3),
                             keep=np.concatenate([[0.0], monitor]))
        v0 = forward_transform(plan.u0, system.map_at(0.0))
        traj_t = report.solved(solve(v0, self.solver, system, monitor_times=monitor))
        if traj_t.blowup:
            return failed(f"the transformed-form solve blew up at t = {traj_t.blowup_time:g}")
        moved = forward_transforms(traj_o.states, (system.map_at(float(t)) for t in traj_o.times))
        disc = 0.0
        for vm, vt in zip(moved, traj_t.states):
            disc = max(disc, l2_norm(vm - vt))
        bump_o = SpaceTimeBump(x0=0.0, x_width=0.2 * grid.half_width, t_width=0.4 * T)
        res_o = weak_residual(traj_o, bump_o)
        bump_t = SpaceTimeBump(
            x0=0.0, x_width=0.2 * system.image_grid.half_width, t_width=0.4 * T
        )
        res_t = weak_residual(traj_t, bump_t)
        return [n, disc, res_o, res_t]


@dataclass(frozen=True)
class BonaSmithSpec(_ConstantKdVSpec):
    kind: ClassVar[str] = "bona_smith"
    n_sweep: tuple[int, ...] = (8, 16, 32, 64, 128)
    reference_n: int = 512
    spectrum_decay_offset: float = 0.6

    def violations(self) -> list[str]:
        """Truncation sweeps that leave nothing to measure on the run's grid.

        P_<=n keeps every |k| <= n in full, so a cutoff at or above the largest
        wavenumber the solves keep gives zero datum tail and zero difference
        (the structure ratio would divide by zero), and a reference no finer
        than a cutoff gives zero difference. The rate fit needs two distinct
        cutoffs.  Once those pass, the datum's H^s tail past the largest
        cutoff, the smallest tail of the sweep, must be nonzero: the structure
        ratio divides by the tail plus n times a difference that vanishes with
        it.  A datum that is not finite or has no L2 norm is left to the plan's
        check, which names it.
        """
        grid = self.grid
        k_top = float(grid.wavenumbers[_keep(grid, self.solver.dealias) != 0].max())
        violations = super().violations()
        if len(set(self.n_sweep)) < 2:
            violations.append(
                "[experiment] n_sweep: needs at least two distinct cutoffs (the rate fit)"
            )
        useless = [n for n in self.n_sweep if not 0 < n < k_top]
        if useless:
            violations.append(
                f"[experiment] n_sweep: cutoffs {', '.join(map(str, useless))} do not "
                f"truncate the datum; the runs keep |k| <= {k_top:g} on this grid "
                f"(k_max = {grid.k_max:g}), so each cutoff must lie in (0, {k_top:g})"
            )
        if self.n_sweep and self.reference_n <= max(self.n_sweep):
            violations.append(
                f"[experiment] reference_n = {self.reference_n} must exceed every "
                f"n_sweep cutoff (largest {max(self.n_sweep)}; k_max = {grid.k_max:g})"
            )
        if violations:
            return violations
        s, top = self.solver.s, max(self.n_sweep)
        with np.errstate(all="ignore"):  # a datum out of the float range is the plan's
            u0 = self._datum()
            if not (np.all(np.isfinite(u0.coefficients)) and l2_norm(u0) > 0.0):
                return []
            tail = sobolev_norm(u0 - project(u0, ProjectorBank(grid).p_leq(top)), s)
        return [] if tail > 0.0 else [
            f"[experiment] spectrum_decay_offset, [solver] s: the datum's H^s tail "
            f"past the largest cutoff ({top}) must be nonzero, since the structure "
            f"ratio divides by it; got {tail:g} with spectrum_decay_offset = "
            f"{self.spectrum_decay_offset:g} and s = {s:g}"
        ]

    def _datum(self) -> SpectralState:
        """The seeded datum of spectrum_decay_offset, scaled to unit H^s norm."""
        rng = np.random.default_rng(self.seed)
        return spectrum_state(self.grid, self.solver.s, self.spectrum_decay_offset, rng)

    def solves(self) -> list[_Solve]:
        """The reference solve, then one per cutoff, of the datum truncated
        there, with 8 monitor times and without the edge warning (the datum
        fills the torus), all at the reference's step so that the runs are
        discretization-consistent."""
        tc, u0, bank = self.constant_kdv(), self._datum(), ProjectorBank(self.grid)
        data = [project(u0, bank.p_leq(n)) for n in (self.reference_n, *self.n_sweep)]
        cfg = replace(self.solver, warn_domain_edge=False)
        if cfg.dt == "auto":
            cfg = replace(cfg, dt=auto_dt(cfg, tc, data[0]))
        monitor = np.linspace(0.0, self.solver.t_final, 9)[1:]
        label = (f"the datum of spectrum_decay_offset = {self.spectrum_decay_offset:g} "
                 f"scaled to unit H^s norm at s = {self.solver.s:g}")
        key = "[experiment] spectrum_decay_offset, [solver] s"
        return [_Solve(key, label, datum, cfg, tc, monitor) for datum in data]

    def run(self, report: ExperimentReport) -> None:
        """Rate of convergence from frequency-truncated data."""
        s, u0 = self.solver.s, self._datum()
        reference, *cut = self.solves()
        traj_ref = report.solved(reference.run())
        rows = []
        for n, plan in zip(self.n_sweep, cut):
            traj_n = report.solved(plan.run())
            diff = max(
                sobolev_norm(a - b, s - 1.0)
                for a, b in zip(traj_n.states, traj_ref.states)
            )
            diff_hs = max(
                sobolev_norm(a - b, s)
                for a, b in zip(traj_n.states, traj_ref.states)
            )
            tail = sobolev_norm(u0 - plan.u0, s)
            # structure of the smoothing-for-rate trade: the top-norm difference
            # is controlled by the datum tail plus n times the lower-norm one
            structure_ratio = diff_hs / (tail + n * diff)
            rows.append([n, diff, diff_hs, tail, structure_ratio])
        report.add_table(
            "convergence",
            ["n", "diff_linf_hsm1", "diff_linf_hs", "tail_hs", "structure_ratio"],
            rows,
        )
        slope, _, resid = fit_loglog([r[0] for r in rows], [r[1] for r in rows])
        report.slopes["bona_smith_rate"] = {"slope": slope, "residual": resid}
        tail_slope, _, _ = fit_loglog([r[0] for r in rows], [r[3] for r in rows])
        report.slopes["datum_tail"] = {"slope": tail_slope, "residual": 0.0}
        report.verdict(
            "bona_smith_slope", slope <= -0.75 and resid <= 0.1, slope,
            "fitted slope of ||u_n - u_ref|| vs n is <= -0.75 with log-fit residual <= 0.1",
        )
        ratios = [r[4] for r in rows]
        report.verdict(
            "difference_structure_bounded", max(ratios) <= 10.0, max(ratios),
            "top-norm difference bounded by tail + n x lower-norm difference "
            "(single constant across the sweep)",
        )


@dataclass(frozen=True)
class WavepacketSpec(ExperimentSpec):
    kind: ClassVar[str] = "wavepacket"
    xi0_sweep: tuple[float, ...] = (10.0, 15.0, 20.0)
    region_half_width: float = 2.0
    region_beta0: Annotated[float, "nonnegative"] = 0.225
    region_smoothing: Annotated[float, "positive"] = 0.3
    packet_width: Annotated[float, "positive"] = 1.5
    packet_launch: Annotated[float, "positive"] = 8.0

    def _alpha(self) -> float | None:
        """The config's alpha when it is a positive finite constant, else None."""
        alpha = self.cset.alpha
        if alpha.depends_on_x or alpha.depends_on_t:
            return None
        a0 = float(alpha.eval(0.0, 0.0))
        return a0 if np.isfinite(a0) and a0 > 0 else None

    def violations(self) -> list[str]:
        """Carrier sweeps the study cannot run on the run's grid.

        The traversal time is 2 launch / (3 alpha xi0^2), so alpha must be a
        positive constant and xi0 positive (packet_launch and packet_width
        are positive by their rules). The study is linear (epsilon = 0),
        so a carrier is resolved up to k_max; the bound of two thirds of k_max
        is a margin for the packet's Gaussian band around xi0 and the spread
        added by the pointwise product with beta, which the undealiased runs
        fold back near k_max. On the default grid (k_max = 32) the gains at
        xi0 = 21 and 25 stay within 3% of the gain at 10, and the gain at 30
        falls by a third.  Once those checks pass, each carrier's traversal
        time must be finite and positive (with the default launch, a carrier
        below about 1e-154 overflows it to inf).
        """
        grid, violations = self.grid, []
        if self._alpha() is None:
            violations.append(
                f"[coefficients] alpha: the wavepacket study needs a positive constant "
                f"alpha, got {self.cset.alpha.text!r}"
            )
        k_top = (2.0 / 3.0) * grid.k_max
        bad = [xi0 for xi0 in self.xi0_sweep if not 0 < xi0 < k_top]
        if not self.xi0_sweep:
            violations.append(
                f"[experiment] xi0_sweep: needs at least one carrier in (0, {k_top:g}) "
                f"(k_max = {grid.k_max:g})"
            )
        elif bad:
            violations.append(
                f"[experiment] xi0_sweep: carriers {', '.join(f'{x:g}' for x in bad)} "
                f"lie outside (0, {k_top:g}); each must be positive and below two "
                f"thirds of k_max = {grid.k_max:g} on this grid"
            )
        if violations:
            return violations
        untimed = [f"xi0 = {xi0:g} gives {T:g}" for xi0 in self.xi0_sweep
                   if not (np.isfinite(T := self._traversal_time(xi0)) and T > 0)]
        return [
            f"[experiment] xi0_sweep: each carrier's traversal time "
            f"2 packet_launch / (3 alpha xi0^2) must be finite and positive; "
            f"{'; '.join(untimed)}"
        ] if untimed else []

    def solves(self) -> list[_Solve]:
        """One undealiased solve per carrier, of its packet to its traversal
        time and not to [solver] t_final, with the packet's dispersion-only
        image at that time.  A packet at the periodic wrap makes the gains
        meaningless: launched at 30 on the default grid, their spread reads 0.43."""
        cset, plans = self.integrated_cset(), []
        for xi0 in self.xi0_sweep:
            u0, image, T = self._packet(xi0)
            plans.append(_Solve(
                "[experiment] packet_launch, packet_width", f"the packet of xi0 = {xi0:g}", u0,
                replace(self.solver, t_final=T, dealias=False), cset, image=image,
                step_label=f"the solve of xi0 = {xi0:g} steps to its traversal time {T:.4g}, "
                           f"not to [solver] t_final: ",
            ))
        return plans

    def _packet(self, xi0: float) -> tuple:
        """(datum, its dispersion-only image, traversal time) of carrier xi0.

        The packet launched at packet_launch travels left at group speed
        3 alpha xi0^2, so the traversal time 2 launch / (3 alpha xi0^2) takes
        it to -launch; the image is the datum under the exact multiplier
        exp(i alpha k^3 T) of u_t + alpha u_xxx = 0 (alpha constant).
        """
        a0, grid = self._alpha(), self.grid
        u0 = packet_state(grid, xi0, self.packet_width, center=self.packet_launch)
        T = self._traversal_time(xi0)
        image = u0.coefficients * np.exp(1j * a0 * grid.wavenumbers**3 * T)
        image[-1] = 0.0  # the unpaired Nyquist mode cannot stay real, as in the solver
        return u0, SpectralState(grid, image), T

    def _traversal_time(self, xi0: float) -> float:
        """2 packet_launch / (3 alpha xi0^2), inf where the denominator
        underflows to zero."""
        denominator = 3.0 * self._alpha() * xi0**2
        return 2.0 * self.packet_launch / denominator if denominator > 0 else float("inf")

    def integrated_cset(self) -> CoefficientSet:
        """The config's constant alpha with the study's own anti-diffusion
        region, beta = beta0 (tanh((x+R)/w) - tanh((x-R)/w)) / 2, and
        epsilon = 0; the config's beta, gamma, delta and epsilon are not read.
        """
        a0 = self._alpha()
        if a0 is None:
            raise ValueError("wavepacket study needs a positive constant alpha")
        R, beta0, w = self.region_half_width, self.region_beta0, self.region_smoothing
        beta_text = f"{0.5 * beta0!r}*(tanh((x+{R!r})/{w!r}) - tanh((x-{R!r})/{w!r}))"
        return CoefficientSet.from_strings(
            alpha=repr(a0), beta=beta_text, epsilon="0",
            alpha0=min(a0, 1.0 / a0),
        )

    def run(self, report: ExperimentReport) -> None:
        """Packet amplitude gain across a compact anti-diffusion region.

        The run is linear (epsilon = 0).  The measured gain is the ratio of
        Hilbert-envelope peaks between the run and the dispersion-only
        evolution of the same datum (exact Fourier multiplier), which removes
        spreading from the bookkeeping.
        """
        plans = self.solves()
        a0 = float(plans[0].problem.alpha.eval(0.0, 0.0))
        R = self.region_half_width
        beta0 = self.region_beta0
        heuristic = float(np.exp(2.0 * R * beta0 / a0))
        rows = []
        gains = []
        for xi0, plan in zip(self.xi0_sweep, plans):
            T = plan.config.t_final
            traj = report.solved(plan.run())
            gain = envelope_peak(traj.final_state) / envelope_peak(plan.image)
            gains.append(gain)
            rows.append([xi0, T, gain, heuristic, gain / heuristic])
        report.add_table(
            "gains", ["xi0", "traversal_time", "gain", "heuristic", "gain_over_heuristic"],
            rows,
        )
        if beta0 > 0:
            spread = max(gains) / min(gains) - 1.0
            report.verdict(
                "gain_frequency_independence", spread <= 0.25, spread,
                "packet gains mutually within 25% across the carrier sweep",
            )
            ratios = [g / heuristic for g in gains]
            ok = all(0.5 <= r <= 2.0 for r in ratios)
            report.verdict(
                "gain_matches_heuristic", ok, max(ratios, key=lambda r: abs(np.log(r))),
                "measured gain within a factor 2 of exp(2 R beta / alpha)",
            )
        else:
            worst = max(abs(g - 1.0) for g in gains)
            report.verdict(
                "no_antidiffusion_gain", worst <= 0.02, worst,
                "gain equals 1 within 2% when the region is off",
            )


@dataclass(frozen=True)
class ContinuitySpec(_ConstantKdVSpec):
    kind: ClassVar[str] = "continuity"
    kappa: float = 1.0
    perturbation_sizes: Annotated[tuple[float, ...], "positive"] = (1e-2, 1e-3, 1e-4)

    def violations(self) -> list[str]:
        """Size sweeps the sensitivity verdict cannot use: each ratio divides
        the difference by its (positive) size, and the verdict compares
        ratios, so it needs two distinct sizes.  The perturbation direction's
        H^s norm, by which the study scales it, must be finite and positive
        (at a large [solver] s its weight (1 + k^2)^s overflows)."""
        violations, s = super().violations(), self.solver.s
        sizes = self.perturbation_sizes
        if len(set(sizes)) < 2:
            violations.append(
                f"[experiment] perturbation_sizes: needs two or more distinct sizes, "
                f"got {', '.join(f'{e:g}' for e in sizes)}"
            )
        with np.errstate(all="ignore"):  # a norm out of the float range is refused here
            norm = sobolev_norm(self._direction(), s)
        if not (np.isfinite(norm) and norm > 0.0):
            violations.append(
                f"[solver] s: the perturbation direction's H^s norm must be finite and "
                f"positive on this grid; got {norm:g} with s = {s:g}"
            )
        return violations

    def _direction(self) -> SpectralState:
        return gaussian_state(self.grid, 1.0, 1.0, center=1.0)

    def solves(self) -> list[_Solve]:
        """The base solve, then one per size, of the base perturbed by that
        size times the direction scaled to unit H^s norm, with 8 monitor
        times.  The base is a Gaussian of fixed width when epsilon is 0, else
        the soliton of kappa, whose height grows as kappa^2."""
        tc, s = self.constant_kdv(), self.solver.s
        if np.abs(tc.e).max() == 0.0:
            key, label = "[grid] half_width", "the Gaussian base datum of width 1"
            base = gaussian_state(self.grid, 1.0, 1.0)
        else:
            key, label = "[experiment] kappa", f"the soliton of kappa = {self.kappa:g}"
            # a numpy kappa: a square past the float range gives inf, not OverflowError
            base = soliton_state(self.grid, np.float64(self.kappa), e=float(tc.e[0]))
        direction = self._direction()
        direction = (1.0 / sobolev_norm(direction, s)) * direction
        monitor = np.linspace(0.0, self.solver.t_final, 9)[1:]
        return [_Solve(key, label, base, self.solver, tc, monitor)] + [
            _Solve(key, f"{label} perturbed by {eps:g}", base + eps * direction,
                   self.solver, tc, monitor) for eps in self.perturbation_sizes
        ]

    def run(self, report: ExperimentReport) -> None:
        """Flow-map stability under initial perturbations of shrinking size."""
        s = self.solver.s
        base, *perturbed = self.solves()
        linear = bool(np.abs(base.problem.e).max() == 0.0)
        traj_base = report.solved(base.run())
        rows = []
        ratios = []
        for eps, plan in zip(self.perturbation_sizes, perturbed):
            traj_p = report.solved(plan.run())
            diff = max(
                sobolev_norm(a - b, s)
                for a, b in zip(traj_p.states, traj_base.states)
            )
            ratios.append(diff / eps)
            rows.append([eps, diff, diff / eps])
        report.add_table("sensitivity", ["eps", "diff_linf_hs", "ratio"], rows)
        spread = max(ratios) / min(ratios)
        if linear:
            report.verdict(
                "linear_ratio_stable", spread <= 1.01, spread - 1.0,
                "linear problem: sensitivity ratio constant across sizes within 1%",
            )
        else:
            report.verdict(
                "ratio_bounded", spread <= 2.0, spread,
                "sensitivity ratios stable within a factor 2 as the size shrinks",
            )


@dataclass(frozen=True)
class CommutatorSurveySpec(ExperimentSpec):
    kind: ClassVar[str] = "commutator_survey"
    band_sweep: Annotated[tuple[int, ...], "positive"] = (4, 8, 16, 32, 64, 128, 256)
    draws: Annotated[int, "positive"] = 50
    identity_draws: Annotated[int, "positive"] = 100
    resonance_draws: Annotated[int, "positive"] = 1000

    def violations(self) -> list[str]:
        """Band sweeps the commutator survey cannot run.

        The survey works on its own grid of max(num_points, 8 max(band_sweep))
        points, which must be a power of two; the double-bracket slope fit and
        the identity draws use the bands >= 8, and the fit needs two of them.
        """
        sweep, violations = self.band_sweep, []
        if len({n for n in sweep if n >= 8}) < 2:
            violations.append(
                "[experiment] band_sweep: needs at least two distinct bands >= 8 "
                "(the double-bracket slope fit and the identity draws use only those)"
            )
        size = max(self.grid.num_points, 8 * max(sweep, default=0))
        if size & (size - 1):
            violations.append(
                f"[experiment] band_sweep: the survey grid has max(num_points, "
                f"8 * max(band_sweep)) = {size} points, which is not a power of two"
            )
        return violations

    def run(self, report: ExperimentReport) -> None:
        """Empirical commutator constants, identity residual, resonance check."""
        grid = make_grid(np.pi, max(self.grid.num_points, 8 * max(self.band_sweep)))
        bank = ProjectorBank(grid)
        rng = np.random.default_rng(self.seed)

        # single-bracket bound: ||[P_N, f_low] g|| * N / (||d_x f_low||_inf ||tilde g||)
        commu_rows = []
        all_ratios = []
        for N in self.band_sweep:
            worst = 0.0
            for _ in range(self.draws):
                f = random_smooth_field(grid, rng, decay=1.5)
                g = random_smooth_field(grid, rng, decay=1.0)
                com = commutator(f, g, N, bank)
                f_low = project(f, bank.p_ll(N))
                denom = float(
                    np.abs(spectral_derivative(f_low, 1).physical()).max()
                ) * l2_norm(project(g, bank.p_tilde(N)))
                num = l2_norm(com) * N
                ratio = 0.0 if denom == 0.0 else num / denom
                worst = max(worst, ratio)
            commu_rows.append([N, worst])
            all_ratios.append(worst)
        single_bound = max(all_ratios)
        report.add_table(
            "commu", ["N", "measured_ratio", "bound"],
            [[N, r, single_bound] for N, r in commu_rows],
        )
        report.verdict(
            "commu_constant_bounded", single_bound < 10.0, single_bound,
            "single-bracket constant bounded (< 10) across the band sweep",
        )

        # double-bracket scaling with fixed low-frequency f (f_xx fixed)
        f_fixed = SpectralState.from_physical(
            grid, np.sin(grid.x) + 0.5 * np.cos(grid.x)
        )
        fxx_sup = float(np.abs(spectral_derivative(f_fixed, 2).physical()).max())
        commu2_rows = []
        sweep2 = [N for N in self.band_sweep if N >= 8]
        for N in sweep2:
            vals = []
            for _ in range(max(8, self.draws // 4)):
                g = random_smooth_field(grid, rng, decay=1.0)
                dcom = double_commutator(f_fixed, g, N, bank)
                denom = fxx_sup * l2_norm(project(g, bank.p_tilde(N)))
                vals.append(l2_norm(dcom) / denom)
            commu2_rows.append([N, float(np.median(vals))])
        slope2, _, resid2 = fit_loglog(
            [r[0] for r in commu2_rows], [r[1] for r in commu2_rows]
        )
        report.add_table("commu2", ["N", "median_normalized_magnitude"], commu2_rows)
        report.slopes["double_bracket_scaling"] = {"slope": slope2, "residual": resid2}
        report.verdict(
            "commu2_scaling", abs(slope2 + 2.0) <= 0.3 and resid2 <= 0.1, slope2,
            "double-bracket magnitude scales like N^-2 (slope -2 +/- 0.3, residual <= 0.1)",
        )

        # exact quadratic identity
        dyadics = [N for N in self.band_sweep if N >= 8]
        residuals = []
        for i in range(self.identity_draws):
            f = random_smooth_field(grid, rng, decay=1.2)
            g = random_smooth_field(grid, rng, decay=1.0)
            N = dyadics[int(rng.integers(0, len(dyadics)))]
            residuals.append([i, N, comcom_residual(f, g, N, bank)])
        worst_resid = max(r[2] for r in residuals)
        report.add_table("comcom", ["draw", "N", "relative_residual"], residuals)
        report.verdict(
            "comcom_identity", worst_resid < 1e-10, worst_resid,
            "quadratic commutator identity residual < 1e-10 over the seeded draws",
        )

        # cubic resonance factorization
        worst_res = 0.0
        for _ in range(self.resonance_draws):
            xi = rng.uniform(-10.0, 10.0, size=3)
            om = resonance_omega3(*xi)
            fac = 3.0 * (xi[0] + xi[1]) * (xi[1] + xi[2]) * (xi[0] + xi[2])
            worst_res = max(worst_res, abs(om - fac) / max(1.0, abs(om)))
        report.add_table(
            "resonance", ["draws", "max_relative_factorization_error"],
            [[self.resonance_draws, worst_res]],
        )
        report.verdict(
            "resonance_factorization", worst_res < 1e-12, worst_res,
            "|Omega3 - 3(xi1+xi2)(xi2+xi3)(xi1+xi3)| < 1e-12 relative over random triples",
        )
        report.notes.append(RESONANCE_SIGN_NOTE)


@dataclass(frozen=True)
class SolitonBenchmarkSpec(_ConstantKdVSpec):
    kind: ClassVar[str] = "soliton_benchmark"
    center: ClassVar[float] = -1.0  # where both waves start
    kappa: Annotated[float, "nonzero"] = 1.0
    order_kappa: Annotated[float, "nonzero"] = 2.0
    dt_sweep: Annotated[tuple[float, ...], "positive"] = tuple(
        4e-4 * 10 ** (-j / 4) for j in range(5)
    )
    order_t_final: Annotated[float, "positive"] = 0.1

    def violations(self) -> list[str]:
        """Coefficients and step-size sweeps the verdicts cannot use.

        The soliton's amplitude is -12 kappa^2 / epsilon, so epsilon must be
        a nonzero constant (as kappa and order_kappa are by their rules: a
        zero one gives a zero datum, with nothing to measure).  The order fit
        takes the differences of runs at successive (positive) step sizes,
        which scale as C (1 - r^p) dt_j^p only when every dt_{j+1} / dt_j is
        the one ratio r < 1; a slope needs two differences, so three step
        sizes.  A window order_t_final shorter than a step of the sweep cuts
        that run to one landing step, so the fit would measure nothing.  An
        epsilon that is not finite on the grid is left to the pole screen.
        """
        sweep, violations = self.dt_sweep, super().violations()
        eps = self.cset.epsilon
        e = np.asarray(eps.eval(0.0, self.grid.x), dtype=float)
        if not eps.depends_on_t and np.all(np.isfinite(e)) and (
            e[0] == 0.0 or np.abs(e - e[0]).max() > 1e-12
        ):
            violations.append(
                f"[coefficients] epsilon: {self.kind} needs a nonzero constant epsilon, "
                f"got {eps.text!r}"
            )
        if len(sweep) < 3:
            violations.append(
                "[experiment] dt_sweep: needs at least three step sizes (the order "
                "fit takes the differences of successive runs, and a slope needs two)"
            )
        if len(sweep) >= 2:
            ratios = [b / a for a, b in zip(sweep, sweep[1:])]
            r = ratios[0]
            if not all(q < 1.0 and abs(q - r) <= 1e-9 * r for q in ratios):
                violations.append(
                    f"[experiment] dt_sweep: must decrease by one common ratio (each "
                    f"dt_{{j+1}} / dt_j below 1, all equal to within 1e-9 relative); "
                    f"the ratios are {', '.join(f'{q:.10g}' for q in ratios)}"
                )
        if sweep and self.order_t_final < max(sweep):
            violations.append(
                f"[experiment] order_t_final: must be at least the largest step of "
                f"dt_sweep ({max(sweep):g}), since a shorter window cuts that run to "
                f"one landing step; got {self.order_t_final:g}"
            )
        return violations

    def solves(self) -> list[_Solve]:
        """The monitored run of the kappa wave, with 5 monitor times; then the
        order sweep, of the order_kappa wave to order_t_final at each step of
        dt_sweep."""
        tc = self.constant_kdv()
        # a numpy kappa: a square past the float range gives inf, not OverflowError
        wave, order_wave = (soliton_state(self.grid, np.float64(k), float(tc.e[0]), self.center)
                            for k in (self.kappa, self.order_kappa))
        return [_Solve("[experiment] kappa", f"the soliton of kappa = {self.kappa:g}", wave,
                       self.solver, tc, np.linspace(0.0, self.solver.t_final, 6)[1:])] + [
            _Solve("[experiment] order_kappa", f"the soliton of order_kappa = {self.order_kappa:g}",
                   order_wave, replace(self.solver, t_final=self.order_t_final, dt=dt),
                   tc, step_key="[experiment] order_t_final") for dt in self.dt_sweep
        ]

    def run(self, report: ExperimentReport) -> None:
        """Travelling-wave accuracy, conservation, and temporal order."""
        grid, kappa, center = self.grid, self.kappa, self.center
        monitored, *sweep = self.solves()
        e_val = float(monitored.problem.e[0])
        traj = report.solved(monitored.run())
        report.add_table(
            "norms",
            ["t", "hs_norm", "seminorm_cumulative", "sup_norm", "dissipation"],
            [
                [float(traj.times[i]), float(traj.hs_norms[i]),
                 float(traj.seminorm_cumulative[i]), float(traj.sup_norms[i]),
                 float(traj.dissipation[i])]
                for i in range(len(traj.times))
            ],
        )
        err_rows = []
        for t, st in zip(traj.times, traj.states):
            exact = SpectralState.from_physical(
                grid, exact_soliton_values(grid.x, float(t), kappa, e_val, center)
            )
            err_rows.append([float(t), l2_norm(st - exact)])
        final_err = err_rows[-1][1]
        l2s = np.array([l2_norm(st) for st in traj.states])
        masses = np.array([mass(st) for st in traj.states])
        l2_drift = float(np.abs(l2s - l2s[0]).max() / l2s[0])
        mass_drift = float(np.abs(masses - masses[0]).max() / abs(masses[0]))
        report.add_table("l2_error", ["t", "l2_error"], err_rows)
        report.add_table(
            "conservation", ["t", "l2_norm", "mass"],
            [[float(t), float(a), float(m)] for t, a, m in zip(traj.times, l2s, masses)],
        )
        if traj.blowup:  # the last stored state is not the final time's
            final_err = l2_drift = mass_drift = float("nan")
            report.notes.append(
                f"the monitored run blew up at t = {traj.blowup_time:g} of t_final = "
                f"{self.solver.t_final:g}; soliton_l2_error, l2_conservation and "
                f"mass_conservation read nan, and their tables end at the last stored time"
            )
        report.verdict(
            "soliton_l2_error", final_err < 1e-6, final_err,
            "L2 error below 1e-6 at the final time",
        )
        report.verdict(
            "l2_conservation", l2_drift < 1e-7, l2_drift,
            "L2 norm conserved within 1e-7 relative",
        )
        report.verdict(
            "mass_conservation", mass_drift < 1e-7, mass_drift,
            "mass conserved within 1e-7 relative",
        )

        # temporal order from successive differences over the dt sweep; a
        # faster wave strengthens the signal
        kap_ord = self.order_kappa
        finals = [report.solved(plan.run()).final_state for plan in sweep]
        order_rows, slope, resid = successive_difference_order(self.dt_sweep, finals)
        report.add_table("temporal_order", ["dt", "l2_successive_difference"], order_rows)
        report.slopes["temporal_order"] = {"slope": slope, "residual": resid}
        report.verdict(
            "temporal_order_fourth", abs(slope - 4.0) <= 0.3 and resid <= 0.1, slope,
            "temporal convergence slope 4 +/- 0.3 over the dt sweep, residual <= 0.1",
        )
        report.notes.append(
            f"temporal order fitted on the L2 differences of successive runs of the "
            f"geometric dt sweep, each against the larger dt, with a "
            f"kappa={kap_ord:g} wave; the absolute error gate is the separate "
            f"L2-error verdict"
        )

        # dissipation the benchmark run recorded (b == 0 here)
        report.verdict(
            "dissipation_sign", bool(np.all(traj.dissipation <= 1e-12)),
            float(np.max(traj.dissipation)),
            "dyadic dissipation term <= 1e-12 at every sample",
        )


# kind -> its spec class, in the order `kdvgauge list-experiments` prints
EXPERIMENTS = {spec.kind: spec for spec in (
    TransformConsistencySpec, BonaSmithSpec, WavepacketSpec, ContinuitySpec,
    CommutatorSurveySpec, SolitonBenchmarkSpec,
)}


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """The report of the spec's study."""
    report = ExperimentReport(kind=spec.kind)
    spec.run(report)
    return report


# -- report emission ------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def write_report(
    report: ExperimentReport,
    outdir,
    run_id: str,
    config_hash: str,
    gnuplot: bool = False,
) -> None:
    """Emit the report as CSV tables plus a JSON summary.

    Every file carries the run id and config hash in `#` comment headers;
    hypothesis-violating runs are watermarked in every data row.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    headers = [
        f"run_id: {run_id}",
        f"config_sha256: {config_hash}",
        f"experiment: {report.kind}",
    ]
    if report.watermark:
        headers.append("WARNING: hypothesis-violating configuration")
    for name, (cols, rows) in report.tables.items():
        out_cols = list(cols) + (["watermark"] if report.watermark else [])
        with open(outdir / f"{name}.csv", "w", encoding="utf-8", newline="\n") as fh:
            for line in headers:
                fh.write(f"# {line}\n")
            fh.write(",".join(out_cols) + "\n")
            for row in rows:
                cells = [_fmt(v) for v in row]
                if report.watermark:
                    cells.append("HYPOTHESIS-VIOLATING")
                fh.write(",".join(cells) + "\n")
        if gnuplot:
            with open(outdir / f"{name}.dat", "w", encoding="utf-8", newline="\n") as fh:
                for line in headers:
                    fh.write(f"# {line}\n")
                fh.write("# " + " ".join(cols) + "\n")
                for row in rows:
                    fh.write(" ".join(_fmt(v) for v in row) + "\n")
    summary = {
        "run_id": run_id,
        "config_sha256": config_hash,
        "experiment": report.kind,
        "hypothesis_violating": report.watermark,
        "passed": report.passed,
        "verdicts": [
            {
                "name": v.name,
                "passed": v.passed,
                "value": v.value,
                "threshold": v.threshold,
            }
            for v in report.verdicts
        ],
        "slopes": report.slopes,
        "notes": report.notes,
    }
    with open(outdir / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
