"""Straightening map, gauge weight, and transport between the two equations.

For a coefficient set with dispersion alpha bounded away from zero, the
change of variables is built from

    A(t, x)  = int_0^x alpha^(-1/3)(t, y) dy          (strictly increasing)
    h(t, x)  = [alpha(t,0)/alpha(t,x)]^(1/3)
               * exp( (1/3) int_0^x beta1/alpha )      (gauge weight, > 0)

and the transported unknown v(t, x) = h(t, A^-1(t, x)) u(t, A^-1(t, x))
solves the constant-dispersion form

    v_t + v_xxx - b v_xx + c v_x + d v = e v v_x + f v^2

with coefficients sampled by pulling every source-side quantity back
through A^-1.  The log-derivative of h satisfies

    h_x / h = r = (beta1 - alpha_x) / (3 alpha),

which is used for the h-derivative recurrences (h_xx/h = r^2 + r_x, etc.)
and makes b = -beta2 alpha^(-2/3) hold to round-off, hence b >= 0 whenever
beta2 <= 0.

A slice samples only what the solvers and transports read: A on the
source grid, and at the pullback points A^-1(image nodes) h (forward
transport) and b..f; h on the source grid (inverse transport) is built
when first read.  Per slice, three programs sample the coefficient set,
each once: the pullback fields at the pullback points, beta1/alpha (for h)
and the two time integrands of the drift terms A_t and h_t/h at the Gauss
nodes of one anchored rule on those points, and alpha, alpha_t at x = 0.
h comes from the one closed form of `gauge_weight`.  The h-derivatives
enter only b..f, through the cached derived forms of the coefficient set.

`GaugeSystem` serves slices by time through one `TimeSlices` cache, which
keeps the times it is told to keep and the newest few others; a slice is
one `GaugeMap`, which holds its b..f.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coefficients import _GL_NODES, _GL_WEIGHTS, CoefficientSet, _AnchoredRule
from .spectral import (
    EDGE_MASS_LIMIT,
    Grid,
    Interpolant,
    SpectralState,
    edge_mass_fraction,
    interpolate,
    make_grid,
)

__all__ = [
    "GaugeMap",
    "TransformedCoefficients",
    "invert_A",
    "gauge_weight",
    "build_gauge_map",
    "image_grid_for",
    "forward_transform",
    "forward_transforms",
    "inverse_transform",
    "TimeSlices",
    "GaugeSystem",
]

# what b..f read at the pullback points A^-1(image nodes): alpha with its
# x-derivatives, the lower-order fields, and the log-derivative r = h_x/h
# with the two x-derivatives of the h recurrences (h_t/h also reads alpha_t)
_PULLBACK_FIELDS = (
    "alpha", "alpha_x", "alpha_xx", "beta", "gamma", "delta", "epsilon",
    "gauge_ratio", "gauge_ratio_x", "gauge_ratio_xx",
)
# the integrands of A_t and of h_t/h, sampled with beta1/alpha (for h) at
# the Gauss nodes of the pullback points
_TIME_INTEGRANDS = ("alpha_inv_cbrt_t", "ratio1_t")

INVERSION_TOL = 1e-11


def gauge_weight(cset: CoefficientSet, t: float, points: np.ndarray) -> np.ndarray:
    """The gauge weight h(t, p) at ascending points p, from the closed form.

    h = [alpha(t,0)/alpha(t,p)]^(1/3) exp((1/3) int_0^p beta1/alpha); its
    x-derivatives follow from r = h_x/h (`cset.derived("gauge_ratio")`), so
    no sampled differentiation is involved.
    """
    t = float(t)
    pts = np.asarray(points, dtype=float)
    rule = _AnchoredRule(pts)
    ratio1 = cset.derived("ratio1").eval(t, rule.nodes)
    a_vals = np.asarray(cset.alpha.eval(t, pts), dtype=float)
    return _weight(float(cset.alpha.eval(t, 0.0)), a_vals, rule, ratio1)


def _weight(a0: float, a_vals: np.ndarray, rule: _AnchoredRule, ratio1) -> np.ndarray:
    """h from alpha at 0 and at the points, and beta1/alpha at the Gauss
    nodes of `rule`."""
    if a0 <= 0.0:
        raise ValueError("alpha(t, 0) must be positive")
    if a_vals.min() <= 0.0:
        raise ValueError("alpha must be strictly positive at the sample points")
    return (a0 / a_vals) ** (1.0 / 3.0) * np.exp(rule.integrate(ratio1) / 3.0)


@dataclass
class GaugeMap:
    """One time slice of the change of variables, sampled on both grids."""

    t: float
    source_grid: Grid
    image_grid: Grid
    cset: CoefficientSet
    A_samples: np.ndarray
    A_inverse_samples: np.ndarray  # pullback points for the image nodes
    inverse_clamped: np.ndarray  # image nodes outside the sampled A-range
    h_at_inverse: np.ndarray
    coefficients: TransformedCoefficients  # b..f on the image grid

    def a_of(self, points: np.ndarray) -> np.ndarray:
        """Evaluate A at arbitrary source points (node anchor + one cell)."""
        return self._a_and_slope(points, with_slope=False)

    def _a_and_slope(self, points: np.ndarray, with_slope: bool = True):
        """A at the points from alpha^(-1/3) at the Gauss nodes of each
        point's cell; with `with_slope`, (A, A') with A' = alpha^(-1/3) at the
        points from the same program call."""
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        gx = self.source_grid.x
        idx = np.clip(np.searchsorted(gx, pts, side="right") - 1, 0, gx.size - 1)
        inv_cbrt = self.cset.derived("alpha_inv_cbrt")
        a = gx[idx]
        halves = 0.5 * (pts - a)
        mids = 0.5 * (pts + a)
        nodes = (mids[:, None] + halves[:, None] * _GL_NODES[None, :]).ravel()
        if with_slope:
            nodes = np.concatenate([nodes, pts])
        vals = np.asarray(inv_cbrt.eval(self.t, nodes))
        m = _GL_NODES.size * pts.size
        seg = halves * (vals[:m].reshape(-1, _GL_NODES.size) @ _GL_WEIGHTS)
        A = self.A_samples[idx] + seg
        return (A, vals[m:]) if with_slope else A

    @cached_property
    def h_samples(self) -> np.ndarray:
        """h on the source grid, built when the inverse transport first reads it."""
        return gauge_weight(self.cset, self.t, self.source_grid.x)

    @property
    def a_range(self) -> tuple[float, float]:
        return float(self.A_samples[0]), float(self.A_samples[-1])


def invert_A(gmap: GaugeMap, y) -> np.ndarray | float:
    """Solve A(t, x) = y by monotone bracketing plus Newton.

    A' = alpha^(-1/3) supplies the exact Newton slope; each iteration takes
    the residual and the slope from one program call.  Convergence to
    |A(x) - y| < 1e-11 is verified on the last residual.  Raises for y
    outside the sampled range (solution mass touching the domain edge).
    """
    scalar = np.isscalar(y) or np.ndim(y) == 0
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    lo, hi = gmap.a_range
    span = max(hi - lo, 1.0)
    if yv.min() < lo - 1e-12 * span or yv.max() > hi + 1e-12 * span:
        raise ValueError(
            f"inversion target outside sampled range [{lo:.6g}, {hi:.6g}]"
        )
    yv = np.clip(yv, lo, hi)
    gx = gmap.source_grid.x
    x = np.interp(yv, gmap.A_samples, gx)
    for update in range(9):  # at most eight Newton updates, each one checked
        A, slope = gmap._a_and_slope(x)
        res = A - yv
        if update == 8 or np.abs(res).max() < 0.1 * INVERSION_TOL:
            break
        x = np.clip(x - res / slope, gx[0], gx[-1])
    res = np.abs(res).max()
    if res > INVERSION_TOL:
        raise RuntimeError(f"inversion stalled: residual {res:.3e}")
    return float(x[0]) if scalar else x


def _straighten(cset: CoefficientSet, t: float, grid: Grid) -> np.ndarray:
    """A = int_0^x alpha^(-1/3) on the grid, over the Gauss nodes of one
    anchored rule.

    Rejects alpha that is not positive on the grid and an A that is not
    strictly increasing.
    """
    a_vals = np.asarray(cset.alpha.eval(t, grid.x), dtype=float)
    if a_vals.min() <= 0.0:
        raise ValueError(
            f"alpha must be strictly positive; min sampled value {a_vals.min():.3e}"
        )
    rule = _AnchoredRule(grid.x)
    A = rule.integrate(cset.derived("alpha_inv_cbrt").eval(t, rule.nodes))
    if np.any(np.diff(A) <= 0.0):
        raise ValueError("straightening map is not strictly increasing")
    return A


def image_grid_for(
    cset: CoefficientSet,
    source_grid: Grid,
    times=(0.0,),
    padding: float = 0.05,
) -> Grid:
    """One fixed grid covering the image of the source domain under A.

    The image interval varies with t for time-dependent alpha; the union
    over the supplied times is covered, padded by `padding`, and symmetrized
    about 0 so the image grid keeps the anchored node at the origin.
    """
    reach = 0.0
    for t in np.atleast_1d(np.asarray(times, dtype=float)):
        A = _straighten(cset, float(t), source_grid)
        reach = max(reach, abs(A[0]), abs(A[-1]))
    H = reach * (1.0 + padding)
    return make_grid(H, source_grid.num_points)


def build_gauge_map(
    cset: CoefficientSet, t: float, source_grid: Grid, image_grid: Grid
) -> GaugeMap:
    """The slice at t: A, its inverse at the image nodes, h there, and b..f.

    Image nodes outside the sampled A-range (the 5% padding collar) reuse
    the boundary pullback point: b..f extend by their edge values there.
    """
    t = float(t)
    A = _straighten(cset, t, source_grid)
    n = image_grid.num_points
    gmap = GaugeMap(
        t=t,
        source_grid=source_grid,
        image_grid=image_grid,
        cset=cset,
        A_samples=A,
        A_inverse_samples=np.zeros(n),
        inverse_clamped=np.zeros(n, dtype=bool),
        h_at_inverse=np.ones(n),
        coefficients=None,
    )
    lo, hi = gmap.a_range
    xi = image_grid.x
    gmap.inverse_clamped = (xi < lo) | (xi > hi)
    gmap.A_inverse_samples = np.asarray(invert_A(gmap, np.clip(xi, lo, hi)))
    pulled = _pullback(cset, t, gmap.A_inverse_samples)
    gmap.h_at_inverse = pulled[0]
    gmap.coefficients = _transformed(t, image_grid, *pulled)
    return gmap


def _pullback(cset: CoefficientSet, t: float, points: np.ndarray) -> tuple:
    """(h, A_t, h_t/h, the `_PULLBACK_FIELDS`) at ascending points.

    Three programs sample, each once: the pullback fields and alpha_t at
    the points; beta1/alpha (for h) and, when the set depends on t, the two
    drift integrands d/dt alpha^(-1/3) and d/dt(beta1/alpha) at the Gauss
    nodes of one anchored rule; alpha and alpha_t at 0.  Coefficients
    independent of t have no drift.
    """
    pts = np.asarray(points, dtype=float)
    *fields, al_t = (
        np.asarray(v, dtype=float) for v in cset.sample(_PULLBACK_FIELDS + ("alpha_t",), t, pts)
    )
    drifting = cset.is_time_dependent
    rule = _AnchoredRule(pts)
    ratio1, *drift = cset.sample(
        ("ratio1",) + (_TIME_INTEGRANDS if drifting else ()), t, rule.nodes
    )
    al0, al_t0 = (float(v) for v in cset.sample(("alpha", "alpha_t"), t, 0.0))
    h = _weight(al0, fields[0], rule, ratio1)
    zeros = np.zeros_like(pts)
    if not drifting:
        return h, zeros, zeros, fields
    inv_cbrt_t, ratio1_t = drift
    A_t = rule.integrate(inv_cbrt_t) if cset.alpha.depends_on_t else zeros
    ht_h = (al_t0 / al0 - al_t / fields[0]) / 3.0 + rule.integrate(ratio1_t) / 3.0
    return h, A_t, ht_h, fields


@dataclass
class TransformedCoefficients:
    """Sampled coefficient fields of the constant-dispersion form."""

    t: float
    grid: Grid
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    e: np.ndarray
    f: np.ndarray

    @classmethod
    def constant_kdv(cls, grid: Grid, epsilon: float = -6.0, t: float = 0.0):
        """b = c = d = f = 0, e = epsilon: plain KdV in the image frame."""
        z = np.zeros(grid.num_points)
        return cls(
            t=t, grid=grid, b=z.copy(), c=z.copy(), d=z.copy(),
            e=np.full(grid.num_points, float(epsilon)), f=z.copy(),
        )

    def validate(self) -> None:
        scale = max(1.0, float(np.abs(self.b).max()))
        if float(self.b.min()) < -1e-10 * scale:
            raise ValueError(
                f"transformed diffusion coefficient dips negative: {self.b.min():.3e}"
            )


def _transformed(
    t: float, grid: Grid, h: np.ndarray, A_t: np.ndarray, ht_h: np.ndarray, fields
) -> TransformedCoefficients:
    """b..f on the image grid from `_pullback`'s h, drift terms and fields."""
    al, al_x, al_2x, be, ga, de, ep, r, rx, rxx = fields
    hx_h = r
    h2x_h = r * r + rx
    h3x_h = r**3 + 3.0 * r * rx + rxx

    cbrt = al ** (1.0 / 3.0)
    b = cbrt * (-be / al + al_x / al + 3.0 * hx_h)
    c = A_t + (1.0 / cbrt) * (
        6.0 * hx_h**2 * al
        + (4.0 / 9.0) * al_x**2 / al
        + al_x * hx_h
        - 3.0 * h2x_h * al
        - al_2x / 3.0
        - 2.0 * hx_h * be
        - al_x * be / (3.0 * al)
        + ga
    )
    d = (
        al * (-6.0 * hx_h**3 + 6.0 * h2x_h * hx_h - h3x_h)
        + be * (2.0 * hx_h**2 - h2x_h)
        - ga * hx_h
        - ht_h
        + de
    )
    e = ep / (cbrt * h)
    f = -ep * hx_h / h

    out = TransformedCoefficients(t=t, grid=grid, b=b, c=c, d=d, e=e, f=f)
    out.validate()
    return out


def forward_transform(u: SpectralState, gmap: GaugeMap) -> SpectralState:
    """Transport u to the image frame: v(x) = h(A^-1 x) u(A^-1 x).

    Off-grid evaluation of u uses trigonometric interpolation, keeping
    spectral accuracy through the composition.  Rejects fields whose outer
    10% of the source domain carries more than 1e-6 of the mass.
    """
    return next(forward_transforms((u,), (gmap,)))


def forward_transforms(states, gmaps):
    """`forward_transform` of each state through its map, lazily, in order.

    States in a row that share one map (the same object) share one
    `Interpolant` of its pullback points; each state is still checked for
    its grid and edge mass.  Only the current map's tables are held, and
    they are dropped before the next map's are built.
    """
    plan = mapped = None
    for u, gmap in zip(states, gmaps):
        if u.grid != gmap.source_grid:
            raise ValueError("field does not live on the gauge map's source grid")
        frac = edge_mass_fraction(u)
        if frac > EDGE_MASS_LIMIT:
            raise ValueError(
                f"solution mass at the source-domain edge ({frac:.2e}) exceeds {EDGE_MASS_LIMIT:g}"
            )
        if gmap is not mapped:
            plan = None
            plan, mapped = Interpolant(gmap.source_grid, gmap.A_inverse_samples), gmap
        v = gmap.h_at_inverse * plan(u)
        v = np.where(gmap.inverse_clamped, 0.0, v)
        yield SpectralState.from_physical(gmap.image_grid, v)


def inverse_transform(v: SpectralState, gmap: GaugeMap) -> SpectralState:
    """Transport back: u(x) = v(A(x)) / h(x)."""
    if v.grid != gmap.image_grid:
        raise ValueError("field does not live on the gauge map's image grid")
    frac = edge_mass_fraction(v)
    if frac > EDGE_MASS_LIMIT:
        raise ValueError(
            f"solution mass at the image-domain edge ({frac:.2e}) exceeds {EDGE_MASS_LIMIT:g}"
        )
    vals = interpolate(v, gmap.A_samples)
    u = vals / gmap.h_samples
    return SpectralState.from_physical(gmap.source_grid, u)


SLICE_CACHE = 8  # other slices a TimeSlices keeps; one RK4 step reads three stage times


class TimeSlices:
    """Slices `build(t)` keyed by time, for the RK stage times of a solve.

    A time is keyed as round(t, 14) and its slice is built at the key, so
    stage times that agree to 14 decimals share one slice; with `frozen`
    every time maps to the one slice at 0.0.  The slices at the `keep`
    times (keyed the same way) are never evicted; of the others the newest
    SLICE_CACHE are kept, oldest evicted first.  A hit returns the same
    object.
    """

    def __init__(self, build, frozen: bool, keep=()):
        self._build = build
        self._frozen = frozen
        self._keep = frozenset(round(float(t), 14) for t in keep)
        self._kept: dict = {}
        self._recent: dict = {}

    def __call__(self, t: float):
        key = 0.0 if self._frozen else round(float(t), 14)
        store = self._kept if key in self._keep else self._recent
        hit = store.get(key)
        if hit is None:
            if store is self._recent and len(store) >= SLICE_CACHE:
                store.pop(next(iter(store)))
            hit = store[key] = self._build(key)
        return hit


class GaugeSystem:
    """Gauge slices at any time, built on demand.

    `map_at(t)` is one TimeSlices over one image grid, and
    `coefficients_at(t)` reads b..f from its slice: frozen coefficient sets
    build one slice for all times, time-dependent ones a slice per 14-decimal
    time key, and the slices at the `keep` times (times a caller revisits
    after a solve, such as its monitor times) are kept for the life of the
    system.  `times` only sizes the image grid.  The cache's builder holds no
    reference to the system, so a dropped system is freed without the
    cyclic collector.
    """

    def __init__(
        self,
        cset: CoefficientSet,
        source_grid: Grid,
        image_grid: Grid | None = None,
        times=(0.0,),
        keep=(),
    ):
        self.cset = cset
        self.source_grid = source_grid
        self.image_grid = image_grid = image_grid or image_grid_for(
            cset, source_grid, times=times
        )
        self.map_at = TimeSlices(
            lambda t: build_gauge_map(cset, t, source_grid, image_grid),
            not cset.is_time_dependent,
            keep,
        )

    def coefficients_at(self, t: float) -> TransformedCoefficients:
        return self.map_at(t).coefficients
