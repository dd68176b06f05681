"""Time integration for both equation forms, residual checks, norm monitors.

One pseudospectral RK4 advances both forms, written as c' = L c + N(c, t)
with a diagonal Fourier symbol L:

* original form   u_t + alpha u_xxx + beta u_xx + gamma u_x + delta u
                  = epsilon u u_x
  L = 0, so the step is classical explicit RK4; the step-size rule is
  dt <= 1 / (max|alpha| k_max^3) with the dealiased band's k_max.

* transformed form  v_t + v_xxx - b v_xx + c v_x + d v = e v v_x + f v^2
  L = i k^3, so the step is integrating-factor RK4: the third-derivative
  semigroup is applied exactly through the multiplier exp(i k^3 dt); the
  remaining terms (b v_xx enters with the dissipative sign for b >= 0) are
  explicit, with quadratic products dealiased.

N is read from a per-form table of coefficient -> (derivative order, sign).
Real fields step on the Hermitian half spectrum (rfft/irfft) with the
unpaired Nyquist mode held at zero; every derivative a right-hand side
needs comes from one batched inverse transform, and terms whose coefficient
is identically zero are skipped.  Time-dependent coefficients are
re-sampled at the RK stage times, which preserves fourth order.  Blow-up is
detected from the sup-norm at monitor times against a configurable cap and
is deterministic for a fixed configuration.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.integrate import simpson

from .coefficients import CoefficientSet
from .dyadic import ProjectorBank, _b_energy, _nonnegative_weight, bump_eta, bump_eta_prime
from .gauge import GaugeSystem, TransformedCoefficients
from .spectral import Grid, SpectralState, edge_mass_fraction, sobolev_norm

__all__ = [
    "SolverConfig",
    "Trajectory",
    "NormReport",
    "step_original",
    "step_transformed",
    "solve",
    "auto_dt",
    "weak_residual",
    "energy_monitor",
    "SpaceTimeBump",
]


@dataclass
class SolverConfig:
    equation_form: str  # "original" | "transformed"
    t_final: float
    dt: float | str = "auto"
    s: float = 1.0
    dealias: bool = True
    blowup_threshold: float | str = "auto"  # cap on sup-norm; "auto" = 1e6 x initial
    monitor_stride: int = 10
    warn_domain_edge: bool = True  # off for genuinely periodic (torus-native) data

    def __post_init__(self) -> None:
        if self.equation_form not in ("original", "transformed"):
            raise ValueError(f"unknown equation form {self.equation_form!r}")
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if self.monitor_stride < 1:
            raise ValueError("monitor_stride must be >= 1")


EDGE_MASS_WARN = 1e-6


@dataclass
class Trajectory:
    grid: Grid
    s: float
    equation_form: str
    times: np.ndarray
    states: list
    hs_norms: np.ndarray
    sup_norms: np.ndarray
    dissipation: np.ndarray  # -sum_N (1+N)^{2s} int b |P_N u_x|^2, per sample
    seminorm_cumulative: np.ndarray  # running weighted seminorm squared
    blowup: bool = False
    blowup_time: float | None = None
    edge_mass_max: float = 0.0

    @property
    def final_state(self) -> SpectralState:
        return self.states[-1]

    @property
    def domain_size_suspect(self) -> bool:
        """True when solution mass reached the outer 10% of the domain."""
        return self.edge_mass_max > EDGE_MASS_WARN


@dataclass
class NormReport:
    times: np.ndarray
    hs_norms: np.ndarray
    seminorm_cumulative: np.ndarray
    dissipation: np.ndarray
    dissipation_nonpositive: bool
    hs_nonincreasing: bool


# -- the spectral RK4 core ------------------------------------------------

# equation form -> coefficient name -> (derivative order p, sign, quadratic):
# the explicit right-hand side is the sum of  sign * coef * D^p u, times u
# for the quadratic terms.  The transformed form's -v_xxx is not listed: it
# is the linear symbol i k^3 that the integrating factor applies exactly.
_TERMS = {
    "original": {
        "alpha": (3, -1.0, False),
        "beta": (2, -1.0, False),
        "gamma": (1, -1.0, False),
        "delta": (0, -1.0, False),
        "epsilon": (1, 1.0, True),
    },
    "transformed": {
        "b": (2, 1.0, False),
        "c": (1, -1.0, False),
        "d": (0, -1.0, False),
        "e": (1, 1.0, True),
        "f": (0, 1.0, True),
    },
}


class _Spectrum:
    """The transform pair of one grid and field type, with its (ik)^p rows.

    Real fields live on the Hermitian half spectrum (rfft/irfft, the last
    entry is the Nyquist mode); complex fields on the full spectrum.  Both
    keep the package normalization u(x) = sum_k c(k) exp(ikx).  `keep` is
    the 0/1 row applied to every right-hand side: the 2/3 mask when
    dealiasing, and for real fields the unpaired Nyquist mode, which cannot
    stay real under the phase rotation (None when every mode is kept).
    """

    def __init__(self, grid: Grid, real_field: bool, dealias_products: bool):
        n = grid.num_points
        self.grid = grid
        self.n = n
        self.real_field = real_field
        size = n // 2 + 1 if real_field else n
        k = grid.wavenumbers[:size]
        self.k = k
        self.rows = np.stack([(1j * k) ** p for p in range(4)])
        keep = grid.dealias_mask[:size].copy() if dealias_products else np.ones(size, bool)
        if real_field:
            keep[grid.nyquist_index] = False
        self.keep = None if keep.all() else keep.astype(float)

    def forward(self, values: np.ndarray) -> np.ndarray:
        if self.real_field:
            return scipy.fft.rfft(values, norm="forward")
        return scipy.fft.fft(values, norm="forward")

    def inverse(self, spectra: np.ndarray) -> np.ndarray:
        """Physical values of one spectrum, or of each row of a 2-D stack."""
        if self.real_field:
            return scipy.fft.irfft(spectra, self.n, norm="forward")
        return scipy.fft.ifft(spectra, norm="forward")

    def derivative(self, values: np.ndarray, order: int) -> np.ndarray:
        return self.inverse(self.rows[order] * self.forward(values))

    def restrict(self, coefficients: np.ndarray) -> np.ndarray:
        """This layout's copy of a full normalized spectrum."""
        return coefficients[: self.k.size].copy()

    def state(self, coefficients: np.ndarray) -> SpectralState:
        """Full-spectrum state from this layout (conjugate mirror if real)."""
        if not self.real_field:
            return SpectralState(self.grid, coefficients.copy(), False)
        full = np.empty(self.n, dtype=complex)
        m = coefficients.size
        full[:m] = coefficients
        full[m:] = np.conj(coefficients[self.n - m : 0 : -1])
        return SpectralState(self.grid, full, True)


class _RK4:
    """One RK4 for both forms: c' = L c + N(c, t) with a diagonal symbol L.

    L is None for the original form (classical RK4, every term explicit) and
    i k^3 for the transformed form (integrating-factor RK4, the dispersion
    applied exactly).  N reads the form's term table; terms whose sampled
    coefficient is identically zero are dropped once per coefficient sample,
    and every derivative order N needs comes from one batched inverse FFT.
    """

    _FACTOR_CACHE = 4  # regular step plus a few shortened landing steps

    def __init__(self, spectrum: _Spectrum, form: str, sampler):
        self.spectrum = spectrum
        self.sampler = sampler
        self.terms = _TERMS[form]
        self.symbol = 1j * spectrum.k**3 if form == "transformed" else None
        self._factors: dict[float, tuple] = {}
        self._plan_source = None
        self._plan = None
        self._zero = np.zeros(spectrum.k.size, dtype=complex)

    def _integrating_factors(self, dt: float) -> tuple:
        """(exp(L dt/2), exp(L dt)), cached per step size."""
        if self.symbol is None:
            return 1.0, 1.0
        hit = self._factors.get(dt)
        if hit is None:
            if len(self._factors) >= self._FACTOR_CACHE:
                self._factors.pop(next(iter(self._factors)))
            hit = (np.exp(self.symbol * (0.5 * dt)), np.exp(self.symbol * dt))
            self._factors[dt] = hit
        return hit

    def _plan_for(self, co: dict):
        """(derivative rows, linear terms, quadratic terms, slot of u) of one
        coefficient sample, or None when every term vanishes."""
        if co is self._plan_source:
            return self._plan
        orders: list[int] = []

        def slot(order: int) -> int:
            if order not in orders:
                orders.append(order)
            return orders.index(order)

        linear, quadratic = [], []
        for name, (order, sign, is_quadratic) in self.terms.items():
            coef = co[name]
            if np.any(coef):
                (quadratic if is_quadratic else linear).append((sign * coef, slot(order)))
        field_slot = slot(0) if quadratic else None
        plan = None
        if orders:
            plan = (self.spectrum.rows[orders], linear, quadratic, field_slot)
        self._plan_source, self._plan = co, plan
        return plan

    def rhs(self, chat: np.ndarray, t: float) -> np.ndarray:
        plan = self._plan_for(self.sampler.at(t))
        if plan is None:
            return self._zero
        rows, linear, quadratic, field_slot = plan
        fields = self.spectrum.inverse(rows * chat)
        total = sum(coef * fields[i] for coef, i in linear)
        if quadratic:
            total = total + fields[field_slot] * sum(coef * fields[i] for coef, i in quadratic)
        out = self.spectrum.forward(total)
        if self.spectrum.keep is not None:
            out *= self.spectrum.keep
        return out

    def step(self, chat: np.ndarray, t: float, dt: float) -> np.ndarray:
        e_half, e_full = self._integrating_factors(dt)
        half = 0.5 * dt
        shifted = e_half * chat
        n1 = self.rhs(chat, t)
        n2 = self.rhs(shifted + half * (e_half * n1), t + half)
        n3 = self.rhs(shifted + half * n2, t + half)
        n4 = self.rhs(e_full * chat + dt * (e_half * n3), t + dt)
        return e_full * chat + (dt / 6.0) * (e_full * n1 + 2.0 * (e_half * (n2 + n3)) + n4)


class _OriginalSampler:
    """Coefficient arrays of the original form at arbitrary times, cached."""

    def __init__(self, cset: CoefficientSet, grid: Grid):
        self.cset = cset
        self.grid = grid
        self._cache: dict[float, dict] = {}
        self._static = None
        if not cset.is_time_dependent:
            self._static = self._build(0.0)

    def _build(self, t: float) -> dict:
        x = self.grid.x
        return {
            "alpha": np.asarray(self.cset.alpha.eval(t, x), dtype=float),
            "beta": np.asarray(self.cset.beta.eval(t, x), dtype=float),
            "gamma": np.asarray(self.cset.gamma.eval(t, x), dtype=float),
            "delta": np.asarray(self.cset.delta.eval(t, x), dtype=float),
            "epsilon": np.asarray(self.cset.epsilon.eval(t, x), dtype=float),
        }

    def at(self, t: float) -> dict:
        if self._static is not None:
            return self._static
        key = round(float(t), 14)
        if key not in self._cache:
            if len(self._cache) > 8:
                self._cache.pop(next(iter(self._cache)))
            self._cache[key] = self._build(float(t))
        return self._cache[key]


class _TransformedSampler:
    """Arrays b..f at arbitrary times, frozen or via a gauge system."""

    def __init__(self, problem):
        if isinstance(problem, TransformedCoefficients):
            self._static = self._pack(problem)
            self._system = None
            self.grid = problem.grid
            self.b_array = problem.b
        elif isinstance(problem, GaugeSystem):
            self._system = problem
            self.grid = problem.image_grid
            if problem.cset.is_time_dependent:
                self._static = None
            else:
                tc = problem.coefficients_at(0.0)
                self._static = self._pack(tc)
            self.b_array = problem.coefficients_at(0.0).b
        else:
            raise TypeError(
                "transformed solves need TransformedCoefficients or a GaugeSystem"
            )

    @staticmethod
    def _pack(tc: TransformedCoefficients) -> dict:
        return {"b": tc.b, "c": tc.c, "d": tc.d, "e": tc.e, "f": tc.f}

    def at(self, t: float) -> dict:
        if self._static is not None:
            return self._static
        return self._pack(self._system.coefficients_at(float(t)))


def _step(state: SpectralState, form: str, sampler, t: float, dt: float,
          dealias_products: bool) -> SpectralState:
    spectrum = _Spectrum(state.grid, state.is_real_field, dealias_products)
    chat = _RK4(spectrum, form, sampler).step(spectrum.restrict(state.coefficients), t, dt)
    return spectrum.state(chat)


def step_original(
    u: SpectralState, cset: CoefficientSet, t: float, dt: float, dealias_products: bool = True
) -> SpectralState:
    """One explicit RK4 step of the original form."""
    return _step(u, "original", _OriginalSampler(cset, u.grid), t, dt, dealias_products)


def step_transformed(
    v: SpectralState,
    coeffs: TransformedCoefficients,
    t: float,
    dt: float,
    dealias_products: bool = True,
) -> SpectralState:
    """One integrating-factor RK4 step of the transformed form."""
    if not v.grid.compatible_with(coeffs.grid):
        raise ValueError("coefficients sampled on a different grid")
    return _step(v, "transformed", _TransformedSampler(coeffs), t, dt, dealias_products)


def auto_dt(
    config: SolverConfig, grid: Grid, problem, u0: SpectralState
) -> float:
    """Step size from the explicit stability rules of the active form.

    Uses the retained (dealiased) band's largest wavenumber; modes beyond
    it are identically zero during the run.
    """
    kb = (2.0 / 3.0) * grid.k_max if config.dealias else grid.k_max
    sup0 = float(np.abs(u0.physical()).max())
    candidates = [config.t_final]
    if config.equation_form == "original":
        co = _OriginalSampler(problem, grid).at(0.0)
        amax = float(np.abs(co["alpha"]).max())
        candidates.append(1.0 / (amax * kb**3))
        bmax = float(np.abs(co["beta"]).max())
        if bmax > 0:
            candidates.append(1.0 / (bmax * kb**2))
        gmax = float(np.abs(co["gamma"]).max())
        if gmax > 0:
            candidates.append(1.0 / (gmax * kb))
        emax = float(np.abs(co["epsilon"]).max())
        if emax * sup0 > 0:
            candidates.append(1.0 / (4.0 * emax * sup0 * kb))
    else:
        co = _TransformedSampler(problem).at(0.0)
        bmax = float(co["b"].max())
        if bmax > 0:
            candidates.append(1.0 / (bmax * kb**2))
        cmax = float(np.abs(co["c"]).max())
        if cmax > 0:
            candidates.append(1.0 / (cmax * kb))
        emax = float(np.abs(co["e"]).max())
        if emax * sup0 > 0:
            candidates.append(1.0 / (4.0 * emax * sup0 * kb))
        dmax = float(np.abs(co["d"]).max()) + float(np.abs(co["f"]).max()) * max(sup0, 1.0)
        if dmax > 0:
            candidates.append(0.5 / dmax)
    return min(candidates)


def _seminorm_cumulative(dissipation: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of the seminorm integrand -dissipation."""
    g = -dissipation
    if times.size < 2:
        return np.zeros(1)
    return np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(times))])


def solve(
    u0: SpectralState,
    config: SolverConfig,
    problem,
    monitor_times: np.ndarray | None = None,
) -> Trajectory:
    """Integrate until t_final or blow-up, recording monitored norms.

    `problem` is a CoefficientSet for the original form, and either
    TransformedCoefficients (time-frozen) or a GaugeSystem for the
    transformed form.  If `monitor_times` is given, steps are shortened to
    land exactly on them; otherwise every monitor_stride-th step is stored.
    """
    grid = u0.grid
    if config.equation_form == "original":
        if not isinstance(problem, CoefficientSet):
            raise TypeError("original-form solves need a CoefficientSet")
        sampler = _OriginalSampler(problem, grid)
        b_monitor = None
    else:
        sampler = _TransformedSampler(problem)
        if not grid.compatible_with(sampler.grid):
            raise ValueError("initial state does not live on the problem's grid")

        def b_monitor(tnow: float) -> np.ndarray:
            return np.clip(sampler.at(tnow)["b"], 0.0, None)

    dt = auto_dt(config, grid, problem, u0) if config.dt == "auto" else float(config.dt)
    if not dt > 0:
        raise ValueError("dt must be positive")

    spectrum = _Spectrum(grid, u0.is_real_field, config.dealias)
    integrator = _RK4(spectrum, config.equation_form, sampler)
    chat = spectrum.restrict(u0.coefficients)
    chat[grid.nyquist_index] = 0.0  # unpaired mode cannot stay real under phase rotation
    if spectrum.keep is not None:
        # with dealiasing the resolved band is 2/3 of Nyquist; data beyond it
        # would be frozen by the masked right-hand side, so drop it up front
        chat *= spectrum.keep

    bank = ProjectorBank(grid)
    times, states, sups, hs, diss = [], [], [], [], []
    edge_max = 0.0

    if monitor_times is not None:
        targets = sorted({float(tm) for tm in np.asarray(monitor_times) if tm > 0})
    else:
        targets = None

    t = 0.0
    blowup = False
    blowup_time = None
    steps_since_monitor = 0

    def record(state: SpectralState, tnow: float) -> None:
        nonlocal edge_max
        times.append(tnow)
        states.append(state)
        sups.append(float(np.abs(state.physical()).max()))
        hs.append(sobolev_norm(state, config.s))
        diss.append(
            -_b_energy(state, b_monitor(tnow), config.s, bank)
            if b_monitor is not None
            else 0.0
        )
        edge_max = max(edge_max, edge_mass_fraction(state))

    # the stored datum is the truncated one, and so are its norms and the cap
    record(spectrum.state(chat), 0.0)
    if config.blowup_threshold == "auto":
        cap = 1e6 * max(sups[0], 1e-300)
    else:
        cap = float(config.blowup_threshold)

    eps_t = 1e-12 * config.t_final
    target_iter = iter(targets) if targets is not None else None
    next_target = next(target_iter, None) if target_iter is not None else None

    while t < config.t_final - eps_t:
        upper = config.t_final if next_target is None else min(next_target, config.t_final)
        step = min(dt, upper - t)
        chat = integrator.step(chat, t, step)
        t += step
        steps_since_monitor += 1

        if not np.all(np.isfinite(chat)):
            blowup, blowup_time = True, t
            break

        at_target = next_target is not None and t >= next_target - eps_t
        at_stride = targets is None and steps_since_monitor >= config.monitor_stride
        at_end = t >= config.t_final - eps_t
        if at_target or at_stride or at_end:
            record(spectrum.state(chat), t)
            steps_since_monitor = 0
            if at_target:
                next_target = next(target_iter, None)
            if sups[-1] > cap:
                blowup, blowup_time = True, t
                break

    times_arr = np.asarray(times)
    diss_arr = np.asarray(diss)
    if config.warn_domain_edge and edge_max > EDGE_MASS_WARN:
        warnings.warn(
            f"solution mass in the outer 10% of the domain reached "
            f"{edge_max:.2e} (> {EDGE_MASS_WARN:g}); enlarge half_width",
            RuntimeWarning,
            stacklevel=2,
        )
    return Trajectory(
        grid=grid,
        s=config.s,
        equation_form=config.equation_form,
        times=times_arr,
        states=states,
        hs_norms=np.asarray(hs),
        sup_norms=np.asarray(sups),
        dissipation=diss_arr,
        seminorm_cumulative=_seminorm_cumulative(diss_arr, times_arr),
        blowup=blowup,
        blowup_time=blowup_time,
        edge_mass_max=edge_max,
    )


# -- weak-formulation residual -------------------------------------------


class SpaceTimeBump:
    """Smooth compactly supported test field phi(t, x) with analytic phi_t.

    Space factor: bump((x - x0)/x_width), one inside |x - x0| <= x_width and
    zero outside twice that; time factor bump(t / t_width) is one near t = 0
    (so the initial-datum term is exercised) and vanishes for t >= 2 t_width.
    An optional cosine modulation roughens the profile.
    """

    def __init__(
        self,
        x0: float = 0.0,
        x_width: float = 5.0,
        t_width: float = 0.2,
        modulation_k: float = 0.0,
        amplitude: float = 1.0,
    ):
        self.x0 = x0
        self.x_width = x_width
        self.t_width = t_width
        self.modulation_k = modulation_k
        self.amplitude = amplitude

    def _space(self, x):
        s = bump_eta((x - self.x0) / self.x_width)
        if self.modulation_k:
            s = s * np.cos(self.modulation_k * (x - self.x0))
        return self.amplitude * s

    def value(self, t: float, x):
        return self._space(x) * bump_eta(t / self.t_width)

    def dt_value(self, t: float, x):
        return self._space(x) * bump_eta_prime(t / self.t_width) / self.t_width

    def support_dies_by(self) -> float:
        return 2.0 * self.t_width


def weak_residual(traj: Trajectory, phi, problem, form: str) -> float:
    """Space-time residual of the weak formulation against a test field.

    phi needs .value(t, x_array) and .dt_value(t, x_array), compact support
    inside [0, T) x interior.  The residual includes the initial-datum term
    and is near zero (quadrature floor) for genuine solutions.
    """
    grid = traj.grid
    x = grid.x
    T = float(traj.times[-1])

    edge = np.abs(x) >= 0.9 * grid.half_width
    probe = np.abs(np.asarray(phi.value(0.0, x)))
    pmax = max(probe.max(), 1e-300)
    if np.abs(np.asarray(phi.value(T, x))).max() > 1e-10 * pmax:
        raise ValueError("test field must vanish before the final time")
    for tt in traj.times[:: max(1, len(traj.times) // 8)]:
        if np.abs(np.asarray(phi.value(float(tt), x))[edge]).max() > 1e-10 * pmax:
            raise ValueError("test field must vanish near the domain edge")

    ddx = _Spectrum(grid, real_field=True, dealias_products=False).derivative

    if form == "original":
        sampler = _OriginalSampler(problem, grid)
    elif form == "transformed":
        sampler = _TransformedSampler(problem)
    else:
        raise ValueError(f"unknown form {form!r}")

    g = np.empty(len(traj.times))
    for i, (tt, state) in enumerate(zip(traj.times, traj.states)):
        tt = float(tt)
        u = state.physical()
        p = np.asarray(phi.value(tt, x), dtype=float)
        pt = np.asarray(phi.dt_value(tt, x), dtype=float)
        co = sampler.at(tt)
        if form == "original":
            lin = u * (
                -pt
                - ddx(co["alpha"] * p, 3)
                + ddx(co["beta"] * p, 2)
                - ddx(co["gamma"] * p, 1)
                + co["delta"] * p
            )
            quad = 0.5 * u * u * ddx(co["epsilon"] * p, 1)
        else:
            lin = u * (
                -pt
                - ddx(p, 3)
                - ddx(co["b"] * p, 2)
                - ddx(co["c"] * p, 1)
                + co["d"] * p
            )
            quad = u * u * (0.5 * ddx(co["e"] * p, 1) - co["f"] * p)
        g[i] = grid.dx * float(np.sum(lin + quad))

    space_time = float(simpson(g, x=traj.times))
    u0 = traj.states[0].physical()
    p0 = np.asarray(phi.value(0.0, x), dtype=float)
    init_term = grid.dx * float(np.sum(u0 * p0))
    return space_time - init_term


def energy_monitor(traj: Trajectory, s: float, b_field: np.ndarray) -> NormReport:
    """Recompute the H^s series and weighted-seminorm bookkeeping.

    Reports whether the dyadic dissipation term stays non-positive (it must
    for b >= 0) and whether the H^s norm is nonincreasing.
    """
    b = _nonnegative_weight(b_field)
    bank = ProjectorBank(traj.grid)
    hs = np.array([sobolev_norm(st, s) for st in traj.states])
    diss = np.array([-_b_energy(st, b, s, bank) for st in traj.states])
    return NormReport(
        times=traj.times,
        hs_norms=hs,
        seminorm_cumulative=_seminorm_cumulative(diss, traj.times),
        dissipation=diss,
        dissipation_nonpositive=bool(np.all(diss <= 1e-12)),
        hs_nonincreasing=bool(np.all(np.diff(hs) <= 1e-12 * max(hs.max(), 1.0))),
    )

