"""Time integration for both equation forms, residual checks, norm monitors.

One pseudospectral RK4 advances both forms, written as c' = L c + N(c, t)
with a diagonal Fourier symbol L:

* original form   u_t + alpha u_xxx + beta u_xx + gamma u_x + delta u
                  = epsilon u u_x
  L = i a k^3 with a constant a (`_dispersion`): for an alpha that does not
  depend on t, a is its midrange on the grid, the integrating factor applies
  a u_xxx exactly and the remainder (alpha - a) u_xxx is explicit, so the
  step-size rule is dt <= 1 / (max|alpha - a| k_max^3) with the dealiased
  band's k_max, and no cap when alpha is constant.  For an alpha that
  depends on t, a = 0: L = 0, classical explicit RK4 at
  dt <= 1 / (max|alpha| k_max^3).

* transformed form  v_t + v_xxx - b v_xx + c v_x + d v = e v v_x + f v^2
  L = i k^3 (a = 1), so the step is integrating-factor RK4: the
  third-derivative semigroup is applied exactly through the multiplier
  exp(i k^3 dt); the remaining terms (b v_xx enters with the dissipative
  sign for b >= 0) are explicit, with quadratic products dealiased.

N is read from a per-form table of coefficient -> (derivative order, sign),
and the weak residual reads the same table.  Fields are real and step on
their Hermitian half spectrum, the one layout of `spectral`, with the
unpaired Nyquist mode held at zero; every derivative a right-hand side
needs comes from one batched inverse transform, and terms whose
coefficient is identically zero are skipped.  A dealiased right-hand side
whose one term is e u u_x with e constant in x (plain KdV) is taken in
flux form, (e/2) (u^2)_x, from the inverse transform of u alone; under the
2/3 rule both forms keep the same modes.  The step runs in place on
work arrays allocated once per solve, with every complex product's operands
in a fixed order, since numpy's complex multiply is not bitwise commutative
(see `_RK4`).  Time-dependent coefficients are re-sampled at the RK stage
times, which preserves fourth order; `_sampler` serves them through a
`gauge.TimeSlices` cache keyed by time to 14 decimals.  `solve` walks one
lazily computed list of (t, step) pairs, `_steps`, and announces the stage
times of a second walk to a gauge system, which builds its slices in
blocks.  Blow-up is detected
from the sup-norm against a configurable cap, at the monitor times or every
CAP_CHECK_STRIDE steps when none are given, and is deterministic for a fixed
configuration.  After the loop, the energy ledger (H^s norms and dyadic
dissipation) and the weak residual take the stored states in blocks of
STACK_ROWS, one call chain per block rather than one per state, each row
equal to the one-state computation bit for bit.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .coefficients import CoefficientSet
from .dyadic import ProjectorBank, _b_energy, bump_eta, bump_eta_prime
from .gauge import GaugeSystem, TimeSlices, TransformedCoefficients
from .spectral import EDGE_MASS_LIMIT, Grid, SpectralState, _edge_mass, _sobolev_norms

__all__ = [
    "SolverConfig",
    "Trajectory",
    "solve",
    "auto_dt",
    "weak_residual",
    "SpaceTimeBump",
]


CAP_CHECK_STRIDE = 10  # steps between cap checks of a solve without monitor times
STACK_ROWS = 16  # stored states per block of the energy ledger and the weak residual
# most steps a solve may take to its t_final, which `solve` checks once dt is
# resolved and the parser checks for every dt a config states: far above the
# solves of the tests and benchmark configs (a few thousand, such as the 5000
# of the soliton run to t = 0.5 at dt = 1e-4 in acceptance criterion 5), and
# far below the ratio near 2^53 at which t += dt stops advancing t in
# floating point, where a solve never ends
STEP_BUDGET = 10**7


def _blocks(count: int) -> list:
    """Row slices of at most STACK_ROWS covering range(count) in order."""
    return [slice(start, start + STACK_ROWS) for start in range(0, count, STACK_ROWS)]


def _stacked(states: list, rows: slice) -> np.ndarray:
    """The half spectra of `states[rows]` as a (rows, n/2 + 1) stack."""
    return np.stack([state.coefficients for state in states[rows]])


@dataclass(frozen=True)
class SolverConfig:
    """How to integrate, with the [solver] defaults; the form comes from the problem."""

    t_final: float = 0.5
    dt: float | str = "auto"
    s: float = 1.0
    dealias: bool = True
    blowup_threshold: float | str = "auto"  # cap on sup-norm; "auto" = 1e6 x initial
    warn_domain_edge: bool = True  # off for genuinely periodic (torus-native) data

    def __post_init__(self) -> None:
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")


@dataclass
class Trajectory:
    """A solve's record: the problem it integrated and, at each stored time,
    the state, its H^s and sup norms, and the dyadic dissipation the energy
    estimate pairs with H^s.
    """

    grid: Grid
    problem: object  # what `solve` integrated; its type is the form
    times: np.ndarray
    states: list
    hs_norms: np.ndarray
    sup_norms: np.ndarray
    dissipation: np.ndarray  # -sum_N (1+N)^{2s} int b |P_N u_x|^2, per sample
    seminorm_cumulative: np.ndarray  # running weighted seminorm squared
    blowup_time: float | None = None
    edge_mass_max: float = 0.0  # above EDGE_MASS_LIMIT the domain is too small

    @property
    def blowup(self) -> bool:
        return self.blowup_time is not None

    @property
    def final_state(self) -> SpectralState:
        return self.states[-1]


# -- the spectral RK4 core ------------------------------------------------

# equation form -> coefficient name -> (derivative order p, sign, quadratic):
# the explicit right-hand side is the sum of  sign * coef * D^p u, times u
# for the quadratic terms.  The transformed form's -v_xxx is not listed: it
# is the linear symbol i k^3 that the integrating factor applies exactly.
# The original form's alpha term is read as alpha - a, the part of alpha
# u_xxx that the symbol i a k^3 leaves explicit (see `_explicit`).
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


def _explicit(form: str, co, a: float) -> Iterator[tuple]:
    """(coefficient, order, sign, quadratic) of each term of `_TERMS[form]`
    on the slice `co`, as the explicit right-hand side reads it: the original
    form's alpha as alpha - a, the part that the symbol i a k^3 of the
    solve's dispersion reference a (`_dispersion`) leaves explicit."""
    for name, (order, sign, is_quadratic) in _TERMS[form].items():
        coef = getattr(co, name)
        yield (coef - a if name == "alpha" and a else coef), order, sign, is_quadratic


try:  # the pocketfft ufuncs that np.fft.rfft/irfft call, bound once
    from numpy.fft._pocketfft_umath import irfft as _irfft, rfft_n_even as _rfft
except ImportError:  # a numpy without the private module: np.fft, same signature

    def _rfft(values, fct, axes, out):
        return np.fft.rfft(values, norm="forward", out=out)

    def _irfft(spectra, fct, axes, out):
        return np.fft.irfft(spectra, out.shape[-1], norm="forward", out=out)


_LAST_AXIS = [(-1,), (), (-1,)]  # the transform's axes, as np.fft passes them


def _keep(grid: Grid, dealias: bool) -> np.ndarray:
    """The 0/1 row of the modes a solve keeps: the 2/3 mask when dealiasing,
    and always without the unpaired Nyquist mode, which cannot stay real
    under the phase rotation.  Complex: numpy multiplies a complex by a real
    array in complex arithmetic, so this gives the same bits without a cast
    per call."""
    keep = grid.dealias_mask.copy() if dealias else np.ones(grid.wavenumbers.size, bool)
    keep[-1] = False
    return keep.astype(complex)


class _Spectrum:
    """The real-field transform pair of one grid, with its (ik)^p rows.

    Fields live on the grid's half spectrum (rfft/irfft in the package
    normalization, see `spectral`).  `keep` is the 0/1 row applied to every
    right-hand side: the 2/3 mask when dealiasing, and always without the
    unpaired Nyquist mode, which cannot stay real under the phase rotation.

    The pair calls numpy's pocketfft ufuncs `rfft_n_even` and `irfft`
    directly, with the factor 1/n (exact, n being a power of two) and the
    axes that `np.fft.rfft`/`irfft(norm="forward")` pass them, so it gives
    their bits without their Python wrapper, which took a third of an
    n = 512 transform.  The ufuncs take the length of the transformed axis from
    `out`: a caller's `out` must hold n/2 + 1 modes or n points along the
    last axis (nothing checks it; another length transforms a truncated or
    padded field), and without one each method allocates it.  Where
    `numpy.fft._pocketfft_umath` cannot be imported, `_rfft`/`_irfft` are
    np.fft's pair under the ufuncs' signature, chosen at import.
    """

    def __init__(self, grid: Grid, dealias_products: bool):
        self.n = grid.num_points
        self.k = k = grid.wavenumbers
        self.rows = np.stack([(1j * k) ** p for p in range(4)])
        self.dealiased = dealias_products
        self.keep = _keep(grid, dealias_products)

    def forward(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Half spectra of real values along the last axis."""
        if out is None:
            out = np.empty(values.shape[:-1] + self.k.shape, dtype=complex)
        return _rfft(values, 1.0 / self.n, axes=_LAST_AXIS, out=out)

    def inverse(self, spectra: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Physical values of one spectrum, or of each row of a 2-D stack."""
        if out is None:
            out = np.empty(spectra.shape[:-1] + (self.n,))
        return _irfft(spectra, 1.0, axes=_LAST_AXIS, out=out)

    def derivative(
        self, values: np.ndarray, order: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """D^order of real values along the last axis, into `out` if given."""
        spectra = self.forward(values)
        return self.inverse(np.multiply(self.rows[order], spectra, out=spectra), out=out)


def _sum_terms(terms: list, fields: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """sum(sign * coef * fields[i] for coef, sign, i in terms) into `out`, in
    table order, each sign applied by negating, adding or subtracting the
    product coef * fields[i]: IEEE rounding is symmetric in sign, so this
    gives the bits of the product with the signed coefficient.

    Unlike `sum`, it starts from the first term rather than from 0, which
    can differ only in the sign of a zero.
    """
    (coef, sign, i), *rest = terms
    np.multiply(coef, fields[i], out=out)
    if sign < 0:
        np.negative(out, out=out)
    for coef, sign, i in rest:
        (np.add if sign > 0 else np.subtract)(
            out, np.multiply(coef, fields[i], out=scratch), out=out
        )


class _RK4:
    """One RK4 for both forms: c' = L c + N(c, t) with a diagonal symbol L.

    L is i a k^3 with the solve's dispersion reference a (`_dispersion`):
    integrating-factor RK4, the part a u_xxx of the dispersion applied
    exactly.  For a = 0 the factors exp(L dt/2) and exp(L dt) are exactly 1,
    and the step is classical RK4 with every term explicit.  N
    reads the form's term table, the original form's alpha term as
    alpha - a; terms whose sampled coefficient is identically zero are
    dropped once per coefficient sample, so a constant alpha leaves no alpha
    term, and every derivative order N needs comes from one batched inverse
    FFT.  A plan holds each term's coefficient array as `_explicit` gives
    it, with its sign.
    When the one term left is a quadratic u u_x whose coefficient e is
    constant in x and products are dealiased, the plan is the flux row
    (sign e / 2) (ik) keep instead:
    N = row * F[u^2] costs one inverse and one forward transform of a single
    field.  The aliased modes of u^2 land outside the 2/3 band, so this
    equals the product form up to round-off.

    The step runs in place: one set of work arrays is allocated with the
    integrator (the stage input, exp(L dt/2) c, exp(L dt) c, n1..n4, four
    (ik)^p-weighted spectra and their four fields, of which a plan with m
    orders uses the first m, and the real-space sums of the terms), and every
    stage, right-hand side and transform is written into them with `out=`,
    so a plan rebuilt for each new coefficient slice allocates no work
    array.  Every product takes the factor first (exp(L dt/2) * n2, never
    n2 * exp(L dt/2)): a complex array times a complex array is not
    bitwise commutative in numpy (measured with numpy 2.4:
    swapped operands differ in the last bit in about a third of the entries
    of a 257-mode half spectrum), and one swapped product moves the solution
    in the 16th digit.  `step` returns a fresh array; no work array escapes.
    """

    _FACTOR_CACHE = 4  # regular step plus a few shortened landing steps

    def __init__(self, spectrum: _Spectrum, form: str, sampler, a: float):
        self.spectrum = spectrum
        self.sampler = sampler
        self.form = form
        self.a = a
        self.symbol = 1j * a * spectrum.k**3
        self._factors: dict[float, tuple] = {}
        self._plan_source = None
        self._plan = None
        size, n = spectrum.k.size, spectrum.n
        # stage input, exp(L dt/2) c, exp(L dt) c, n1..n4
        self._stages = np.empty((7, size), dtype=complex)
        # a plan with m orders uses the first m weighted spectra and fields
        spectra, fields = np.empty((4, size), dtype=complex), np.empty((4, n))
        self._batches = [(spectra[:m], fields[:m]) for m in range(5)]
        # sums of the linear and the quadratic terms, and one term's product
        self._sums = np.empty((3, n))

    def _integrating_factors(self, dt: float) -> tuple:
        """(exp(L dt/2), exp(L dt)), cached per step size."""
        hit = self._factors.get(dt)
        if hit is None:
            if len(self._factors) >= self._FACTOR_CACHE:
                self._factors.pop(next(iter(self._factors)))
            hit = (np.exp(self.symbol * (0.5 * dt)), np.exp(self.symbol * dt))
            self._factors[dt] = hit
        return hit

    def _plan_for(self, co: dict):
        """(derivative rows, linear terms, quadratic terms, slot of u) of one
        coefficient sample, its flux row when that applies (see the class
        docstring), or None when every term vanishes."""
        if co is self._plan_source:
            return self._plan
        orders: list[int] = []

        def slot(order: int) -> int:
            if order not in orders:
                orders.append(order)
            return orders.index(order)

        linear, quadratic = [], []
        for coef, order, sign, is_quadratic in _explicit(self.form, co, self.a):
            if coef.any():
                (quadratic if is_quadratic else linear).append((coef, sign, slot(order)))
        field_slot = slot(0) if quadratic else None
        plan = None
        if orders:
            plan = (self.spectrum.rows[orders], linear, quadratic, field_slot)
        # plain KdV: the one term is u u_x, read from u_x and u (orders 1, 0)
        if self.spectrum.dealiased and not linear and len(quadratic) == 1 and orders == [1, 0]:
            coef, sign, _ = quadratic[0]
            e = np.ravel(coef)
            if np.all(e == e[0]):
                plan = (0.5 * (sign * e[0])) * self.spectrum.rows[1] * self.spectrum.keep
        self._plan_source, self._plan = co, plan
        return plan

    def rhs(self, chat: np.ndarray, t: float, out: np.ndarray) -> None:
        """Write N(chat, t) into `out`."""
        plan = self._plan_for(self.sampler(t))
        if plan is None:
            out.fill(0.0)
            return
        if isinstance(plan, np.ndarray):  # the flux row times F[u^2]
            square = self._sums[0]
            self.spectrum.inverse(chat, out=square)
            np.multiply(square, square, out=square)
            self.spectrum.forward(square, out=out)
            np.multiply(plan, out, out=out)
            return
        rows, linear, quadratic, field_slot = plan
        spectra, fields = self._batches[len(rows)]
        np.multiply(rows, chat, out=spectra)
        self.spectrum.inverse(spectra, out=fields)
        # total = linear sum + u * quadratic sum
        total, products, term = self._sums
        if quadratic:
            _sum_terms(quadratic, fields, products, term)
            if linear:
                _sum_terms(linear, fields, total, term)
                np.add(total, np.multiply(fields[field_slot], products, out=term), out=total)
            else:
                np.multiply(fields[field_slot], products, out=total)
        else:
            _sum_terms(linear, fields, total, term)
        self.spectrum.forward(total, out=out)
        out *= self.spectrum.keep

    @staticmethod
    def stage_times(t: float, dt: float) -> tuple:
        """The times at which a step from t by dt evaluates N, in order."""
        half = 0.5 * dt
        return t, t + half, t + half, t + dt

    def step(self, chat: np.ndarray, t: float, dt: float) -> np.ndarray:
        e_half, e_full = self._integrating_factors(dt)
        half = 0.5 * dt
        t1, t2, t3, t4 = self.stage_times(t, dt)
        stage, shifted, full, n1, n2, n3, n4 = self._stages
        np.multiply(e_half, chat, out=shifted)
        np.multiply(e_full, chat, out=full)

        self.rhs(chat, t1, n1)
        # shifted + half * (e_half * n1)
        np.add(shifted, np.multiply(half, np.multiply(e_half, n1, out=stage), out=stage), out=stage)
        self.rhs(stage, t2, n2)
        # shifted + half * n2
        np.add(shifted, np.multiply(half, n2, out=stage), out=stage)
        self.rhs(stage, t3, n3)
        # full + dt * (e_half * n3)
        np.add(full, np.multiply(dt, np.multiply(e_half, n3, out=stage), out=stage), out=stage)
        self.rhs(stage, t4, n4)

        # full + (dt / 6) * (e_full * n1 + 2 * (e_half * (n2 + n3)) + n4)
        np.multiply(e_half, np.add(n2, n3, out=n2), out=n2)
        np.add(np.multiply(e_full, n1, out=n1), np.multiply(2.0, n2, out=n2), out=n1)
        np.add(n1, n4, out=n1)
        return np.add(full, np.multiply(dt / 6.0, n1, out=n1))


def _original_fields(cset: CoefficientSet, names: tuple, grid: Grid, t: float) -> dict:
    """The named original-form coefficients sampled on the grid at time t."""
    return {
        name: np.asarray(value, dtype=float)
        for name, value in zip(names, cset.sample(names, t, grid.x))
    }


def _sampler(problem, grid: Grid) -> tuple:
    """(form, t -> the form's coefficient slice on `grid`), the form read from
    the problem's type: a CoefficientSet is the original form,
    TransformedCoefficients (time-frozen) or a GaugeSystem the transformed.

    Time-dependent slices come from a TimeSlices, so a hit returns the same
    object and the RK4 term plan is reused (fields named as in _TERMS);
    frozen coefficients give one slice for every t.  An original-form slice
    samples only the fields that depend on t; the others are sampled once
    per sampler and shared, read-only, by every slice.
    """
    if isinstance(problem, CoefficientSet):
        names = tuple(_TERMS["original"])
        moving = tuple(name for name in names if getattr(problem, name).depends_on_t)
        fixed = _original_fields(
            problem, tuple(name for name in names if name not in moving), grid, 0.0
        )
        for name, values in fixed.items():
            # a copy: a field that is x itself would otherwise lock the grid's nodes
            fixed[name] = values = values.copy()
            values.flags.writeable = False
        return "original", TimeSlices(
            lambda t: SimpleNamespace(**fixed, **_original_fields(problem, moving, grid, t)),
            not problem.is_time_dependent,
        )
    if isinstance(problem, TransformedCoefficients):
        problem_grid, sampler = problem.grid, lambda t: problem
    elif isinstance(problem, GaugeSystem):
        problem_grid, sampler = problem.image_grid, problem.coefficients_at
    else:
        raise TypeError(
            "a problem is a CoefficientSet (original form), or TransformedCoefficients "
            f"or a GaugeSystem (transformed form), not {type(problem).__name__}"
        )
    if grid != problem_grid:
        raise ValueError("field does not live on the problem's grid")
    return "transformed", sampler


def _dispersion(problem, sampler) -> float:
    """The constant a of a solve's symbol L = i a k^3, which the integrating
    factor applies exactly, leaving (alpha - a) u_xxx explicit.

    The transformed form's dispersion is v_xxx, so a = 1.  In the original
    form a is the midrange (max + min) / 2 of alpha on the grid of
    `sampler`, when alpha does not depend on t; that halves the largest
    remainder, max|alpha - a|, which caps dt.  An alpha that depends on t
    gets a = 0 (classical RK4): the symbol is fixed for a solve and
    `auto_dt` samples only t = 0, so a drifting remainder would be unbounded.
    An alpha that is not finite on the grid (a pole on a node) gets a = 0
    too, so that `auto_dt` reads it as a zero step.
    """
    if not isinstance(problem, CoefficientSet):
        return 1.0
    if problem.alpha.depends_on_t:
        return 0.0
    alpha = sampler(0.0).alpha
    a = (float(alpha.max()) + float(alpha.min())) / 2
    return a if np.isfinite(a) else 0.0


def auto_dt(config: SolverConfig, problem, u0: SpectralState, split=None) -> float:
    """Step size from the explicit stability rules of the problem's form.

    Each term of `_TERMS[form]` with a nonzero coefficient caps dt: a linear
    term of order p >= 1 at 1/(max|coef| kb^p), the quadratic u u_x at
    1/(4 max|coef| sup|u0| kb); the order-0 rates (u^2 weighted by
    max(sup|u0|, 1)) add up, and their sum caps dt at 0.5/rate.  The
    original form's alpha term is its explicit remainder alpha - a
    (`_explicit`), so it caps dt at 1/(max|alpha - a| kb^3), and not at
    all when alpha is constant.  kb is the retained (dealiased) band's
    largest wavenumber on u0's grid; modes beyond it are identically zero
    during the run.  `solve` passes its `split`, the (form, sampler, a) that
    its `_RK4` steps with, so that a solve samples and splits its
    coefficients once; without one they come from `_sampler` and
    `_dispersion`.
    """
    grid = u0.grid
    kb = (2.0 / 3.0) * grid.k_max if config.dealias else grid.k_max
    sup0 = float(np.abs(u0.physical()).max())
    candidates = [config.t_final]
    if split is None:
        form, sampler = _sampler(problem, grid)
        split = form, sampler, _dispersion(problem, sampler)
    form, sampler, a = split
    rate = 0.0
    for coef, order, _, is_quadratic in _explicit(form, sampler(0.0), a):
        cmax = float(np.abs(coef).max())
        if order == 0:
            rate += cmax * max(sup0, 1.0) if is_quadratic else cmax
        elif is_quadratic:
            if cmax * sup0 > 0:
                candidates.append(1.0 / (4.0 * cmax * sup0 * kb**order))
        elif cmax > 0:
            candidates.append(1.0 / (cmax * kb**order))
    if rate > 0:
        candidates.append(0.5 / rate)
    return min(candidates)


class _OverBudget(ValueError):
    """`_step_size`'s refusal of a solve of `steps` > STEP_BUDGET steps."""

    def __init__(self, message: str, steps: float):
        super().__init__(message)
        self.steps = steps


def _step_size(config: SolverConfig, problem, u0: SpectralState, split=None) -> float:
    """config.dt, or `auto_dt` (given `solve`'s `split`) under "auto",
    for a solve of `u0` on `problem`.  A dt that is not positive raises
    ValueError, and one that takes more than STEP_BUDGET steps to t_final
    raises `_OverBudget`, whose step count has the digits to read above the
    budget."""
    if config.dt == "auto":
        dt = auto_dt(config, problem, u0, split)
    else:
        dt = float(config.dt)
    if not dt > 0:
        raise ValueError("dt must be positive")
    steps = config.t_final / dt
    if steps > STEP_BUDGET:
        digits = 3
        while float(f"{steps:.{digits}g}") <= STEP_BUDGET:
            digits += 1
        raise _OverBudget(
            f"t_final / dt = {steps:.{digits}g} steps exceeds the step budget of "
            f"{STEP_BUDGET:g}; got dt = {dt:g} with t_final = {config.t_final:g}",
            steps,
        )
    return dt


def _steps(t_final: float, dt: float, targets) -> Iterator[tuple]:
    """The (t, step, stored) of each step of a solve, lazily: steps of dt
    from t = 0, each shortened to land on the next of the ascending positive
    `targets` and on t_final, where `stored` marks a step that lands on a
    target or on t_final.  The one place of a solve's time arithmetic: the
    loop walks it, and the stage times announced to a gauge system come
    from a second walk.
    """
    eps_t = 1e-12 * t_final
    pending = iter(targets)
    target = next(pending, None)
    t = 0.0
    while t < t_final - eps_t:
        upper = t_final if target is None else min(target, t_final)
        step = min(dt, upper - t)
        landed = t + step
        at_target = target is not None and landed >= target - eps_t
        yield t, step, at_target or landed >= t_final - eps_t
        if at_target:
            target = next(pending, None)
        t = landed


def _seminorm_cumulative(dissipation: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of the seminorm integrand -dissipation,
    taken as 0.0 - dissipation so that a zero ledger integrates to +0."""
    g = 0.0 - dissipation
    if times.size < 2:
        return np.zeros(1)
    return np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(times))])


def _ledger(grid: Grid, states: list, weights: list, s: float) -> tuple:
    """(H^s norms, dissipation) of the stored states, over blocks of
    STACK_ROWS: -sum_N (1+N)^{2s} int max(b, 0) |P_N u_x|^2 with each
    state's b from `weights`, or zero when there are none (the original
    form).  Each row equals the one-state value bit for bit."""
    hs, diss = np.empty(len(states)), np.zeros(len(states))
    bank = ProjectorBank(grid)
    for rows in _blocks(len(states)):
        stack = _stacked(states, rows)
        hs[rows] = _sobolev_norms(grid, stack, s)
        if weights:
            b = np.stack(weights[rows])
            diss[rows] = -_b_energy(stack, np.clip(b, 0.0, None, out=b), s, bank)
    return hs, diss


def solve(
    u0: SpectralState,
    config: SolverConfig,
    problem,
    monitor_times: np.ndarray | None = None,
) -> Trajectory:
    """Integrate until t_final or blow-up, recording monitored norms.

    `problem` is a CoefficientSet for the original form, and either
    TransformedCoefficients (time-frozen) or a GaugeSystem for the
    transformed form; its type selects the form.  An experiment passes its
    spec's `solver` as `config`, or a copy with only the fields its study
    fixes replaced.  If `monitor_times` is given,
    steps are shortened to land exactly on them and each is stored; otherwise
    only the datum and the final state are, and the sup-norm cap and the edge
    mass are checked every CAP_CHECK_STRIDE steps.  A dt, given or `auto`,
    that would take more than STEP_BUDGET steps to t_final is refused.
    """
    grid = u0.grid
    form, sampler = _sampler(problem, grid)
    split = form, sampler, _dispersion(problem, sampler)
    dt = _step_size(config, problem, u0, split)

    spectrum = _Spectrum(grid, config.dealias)
    integrator = _RK4(spectrum, *split)
    # the unpaired Nyquist mode cannot stay real under the phase rotation,
    # and with dealiasing the resolved band is 2/3 of Nyquist; data beyond it
    # would be frozen by the masked right-hand side, so drop both up front
    chat = u0.coefficients * spectrum.keep

    times, states, sups, weights = [], [], [], []
    edge_max = 0.0

    targets = None if monitor_times is None else sorted(
        {float(tm) for tm in np.asarray(monitor_times) if tm > 0}
    )

    blowup_time = None
    steps = 0

    def measure(state: SpectralState) -> float:
        """Count the edge mass of `state` and return its sup-norm."""
        nonlocal edge_max
        values = state.physical()
        edge_max = max(edge_max, _edge_mass(grid, values))
        return float(np.abs(values).max())

    def record(state: SpectralState, tnow: float, sup: float) -> None:
        """Store a state with its sup norm and, in the transformed form, the
        b of its time's slice; the ledger reads them after the loop."""
        times.append(tnow)
        states.append(state)
        sups.append(sup)
        if form == "transformed":
            weights.append(sampler(tnow).b)

    # the stored datum is the truncated one, and so are its norms and the cap
    state = SpectralState(grid, chat)
    record(state, 0.0, measure(state))
    if config.blowup_threshold == "auto":
        cap = 1e6 * max(sups[0], 1e-300)
    else:
        cap = float(config.blowup_threshold)

    # a gauge system builds the announced stage times in blocks
    slices = problem.map_at if isinstance(problem, GaugeSystem) else None
    if slices is not None:
        slices.announce(
            stage
            for t, step, _ in _steps(config.t_final, dt, targets or ())
            for stage in _RK4.stage_times(t, step)
        )
    # a blow-up overflows the step, the edge mass and the ledger; isfinite
    # and the cap report it, so numpy's warnings would only repeat them
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for t, step, stored in _steps(config.t_final, dt, targets or ()):
                chat = integrator.step(chat, t, step)
                t += step
                steps += 1

                if not np.isfinite(chat).all():
                    blowup_time = t
                    break

                if stored or (targets is None and steps % CAP_CHECK_STRIDE == 0):
                    state = SpectralState(grid, chat)
                    sup = measure(state)
                    if stored or sup > cap:
                        record(state, t, sup)
                    if sup > cap:
                        blowup_time = t
                        break
        finally:
            if slices is not None:
                slices.announce(())

        hs, diss_arr = _ledger(grid, states, weights, config.s)
    times_arr = np.asarray(times)
    if config.warn_domain_edge and edge_max > EDGE_MASS_LIMIT:
        # mass that reaches the edge of a blown-up solve comes from the
        # unstable step, not from a domain that is too small
        advice = (
            f"the solve blew up at t = {blowup_time:.6g}, so the step may be unstable"
            if blowup_time is not None else "enlarge half_width"
        )
        warnings.warn(
            f"solution mass in the outer 10% of the domain reached "
            f"{edge_max:.2e} (> {EDGE_MASS_LIMIT:g}); {advice}",
            RuntimeWarning,
            stacklevel=2,
        )
    return Trajectory(
        grid=grid,
        problem=problem,
        times=times_arr,
        states=states,
        hs_norms=hs,
        sup_norms=np.asarray(sups),
        dissipation=diss_arr,
        seminorm_cumulative=_seminorm_cumulative(diss_arr, times_arr),
        blowup_time=blowup_time,
        edge_mass_max=edge_max,
    )


# -- weak-formulation residual -------------------------------------------


class SpaceTimeBump:
    """Smooth compactly supported test field phi(t, x) with analytic phi_t.

    Space factor: bump((x - x0)/x_width), one inside |x - x0| <= x_width and
    zero outside twice that; time factor bump(t / t_width) is one near t = 0
    (so the initial-datum term is exercised) and vanishes for t >= 2 t_width.
    """

    def __init__(self, x0: float = 0.0, x_width: float = 5.0, t_width: float = 0.2):
        self.x0 = x0
        self.x_width = x_width
        self.t_width = t_width

    def on(self, x) -> tuple:
        """(t -> phi(t, x), t -> phi_t(t, x)) at the points x, with the space
        factor sampled once.  A scalar t gives one row of values; a column of
        times t[:, None] gives one row per time, each the scalar call's row
        bit for bit."""
        space = bump_eta((x - self.x0) / self.x_width)
        tau = self.t_width
        return (
            lambda t: space * bump_eta(t / tau),
            lambda t: space * bump_eta_prime(t / tau) / tau,
        )


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson's rule for samples y at increasing abscissae x.

    An odd count uses the composite rule for irregular spacing; an even
    count applies it to all but the last interval, which gets Cartwright's
    correction (exact on quadratics).  The operations and their order are
    those of the reference rule the tests compare against bit for bit;
    regrouping them moves the last bits.
    """
    y = np.asarray(y, dtype=float)
    h = np.diff(np.asarray(x, dtype=float))
    n = y.size
    if n == 2:
        return 0.5 * h[-1] * (y[-1] + y[-2])
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:stop:2], h[1 : stop + 1 : 2]
    hsum, hprod, h0divh1 = h0 + h1, h0 * h1, h0 / h1
    total = np.sum(hsum / 6.0 * (
        y[0:stop:2] * (2.0 - 1.0 / h0divh1)
        + y[1 : stop + 1 : 2] * (hsum * (hsum / hprod))
        + y[2 : stop + 2 : 2] * (2.0 - h0divh1)
    ))
    if n % 2:
        return total
    # 0-d arrays, as in the reference: their ** is numpy's array power,
    # whose rounding a float64 scalar's ** does not always share
    h0, h1 = np.asarray(h[-2]), np.asarray(h[-1])
    alpha = (2 * h1**2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1**2 + 3.0 * h0 * h1) / (6 * h0)
    eta = h1**3 / (6 * h0 * (h0 + h1))
    return total + (alpha * y[-1] + beta * y[-2] - eta * y[-3])


def weak_residual(traj: Trajectory, phi) -> float:
    """Space-time residual of the weak formulation against a test field.

    phi needs .on(x_array), returning phi(t, x_array) and phi_t(t, x_array)
    as functions of t, with compact support inside [0, T) x interior.  Both
    functions take a scalar t or a column of times t[:, None], and give one
    row per time, equal to the scalar call's row.  The
    residual includes the initial-datum term and is near zero (quadrature
    floor) for genuine solutions.

    The equation is the one `solve` integrated, `traj.problem`, read from its
    form's term table and sampled at every monitor time.  Each term
    sign * coef * D^p u is moved onto phi by parts:
    a linear term gives -sign (-1)^p u D^p(coef phi), a quadratic term
    (p <= 1, with u u_x = (u^2)_x / 2) gives -sign (-1/2)^p u^2 D^p(coef phi),
    and the transformed form adds -u phi_xxx for its dispersion.

    The stored states are taken in blocks of STACK_ROWS times: one inverse
    transform of the block's stacked spectra, phi and phi_t on the block's
    column of times, the coefficient rows stacked from the slices, one
    transform pair per derivative and one row sum give the time integrand g
    at the block's times, each entry equal to the one-time value bit for bit.
    """
    grid = traj.grid
    x = grid.x
    T = float(traj.times[-1])
    form, sampler = _sampler(traj.problem, grid)

    times = np.asarray(traj.times, dtype=float)
    value, dt_value = phi.on(x)
    probe = np.abs(np.asarray(value(0.0)))
    pmax = max(probe.max(), 1e-300)
    if np.abs(np.asarray(value(T))).max() > 1e-10 * pmax:
        raise ValueError("test field must vanish before the final time")
    probed = np.asarray(value(times[:: max(1, times.size // 8), None]))
    if np.abs(probed[:, grid.edge_mask]).max() > 1e-10 * pmax:
        raise ValueError("test field must vanish near the domain edge")

    spectrum = _Spectrum(grid, dealias_products=False)
    ddx = spectrum.derivative

    # per block: g = dx * rowsum(u * lin + u^2 * quad), each array updated in
    # place in the operation order of the one-time sum (a real product is
    # bitwise commutative, so moved *= c is c * moved)
    g = np.empty(times.size)
    for rows in _blocks(times.size):
        tt = times[rows, None]
        p = np.asarray(value(tt), dtype=float)
        slices = [sampler(t) for t in times[rows].tolist()]
        lin = -np.asarray(dt_value(tt), dtype=float)
        if form == "transformed":
            lin -= ddx(p, 3)  # the dispersion the integrating factor applies
        quad = np.zeros_like(p)
        for name, (order, sign, is_quadratic) in _TERMS[form].items():
            weighted = np.stack([getattr(co, name) for co in slices])
            weighted *= p
            moved = weighted if order == 0 else ddx(weighted, order, out=weighted)
            if is_quadratic:
                moved *= -sign * (-0.5) ** order
                quad += moved
            else:
                moved *= -sign * (-1.0) ** order
                lin += moved
        u = spectrum.inverse(_stacked(traj.states, rows))
        lin *= u
        quad *= np.multiply(u, u, out=u)
        lin += quad
        g[rows] = grid.dx * np.sum(lin, axis=-1)
        del p, lin, quad, weighted, moved, u  # before the next block's arrays

    space_time = float(_simpson(g, traj.times))
    u0 = traj.states[0].physical()
    p0 = np.asarray(value(0.0), dtype=float)
    init_term = grid.dx * float(np.sum(u0 * p0))
    return space_time - init_term
