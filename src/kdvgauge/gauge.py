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
when first read.  Per slice, or per block of slices, three programs sample
the coefficient set, each once: beta1/alpha (for h) and the two time
integrands of the drift terms A_t and h_t/h at the Gauss nodes of one
anchored rule on the pullback points, the pullback fields at the points,
and alpha, alpha_t at x = 0.
h has one computation, `_pullback`'s, which `gauge_weight` returns.  The
h-derivatives enter only b..f, through the cached derived forms of the
coefficient set.

Slices are built in blocks: `build_gauge_maps` builds the slices at K
times by one call chain on (K, n) stacks with a (K, 1) column of times,
each equal to its one-time build bit for bit, and `build_gauge_map` (like
`invert_A`, `_pullback` and `_straighten`) is its one-row case.

`GaugeSystem` serves slices by time through one `TimeSlices` cache, which
keeps the times it is told to keep and the newest few others, and builds a
time a solve has announced together with the next announced times; a
slice is one `GaugeMap`, which holds its b..f.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    "build_gauge_maps",
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
    """The gauge weight h(t, p) at ascending points p: the h of `_pullback`,
    the one computation of h = [alpha(t,0)/alpha(t,p)]^(1/3)
    exp((1/3) int_0^p beta1/alpha).  Its x-derivatives follow from r = h_x/h
    (`cset.derived("gauge_ratio")`), so no sampled differentiation is involved.
    """
    return _pullback(cset, float(t), np.asarray(points, dtype=float))[0]


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
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        return _anchored_A(self.cset, self.t, self.A_samples, self.source_grid.x, pts)[0]

    @cached_property
    def h_samples(self) -> np.ndarray:
        """h on the source grid, built when the inverse transport first reads it."""
        return gauge_weight(self.cset, self.t, self.source_grid.x)


def _anchored_A(cset, t, A_samples, gx, points) -> tuple:
    """(A, A') at the points: A from alpha^(-1/3) at the Gauss nodes of each
    point's cell, anchored at the node below, and A' = alpha^(-1/3) at the
    points, from one program call.

    One row: t a scalar, A_samples on the grid gx and 1-D points.  A stack:
    t a (K, 1) column, A_samples (K, n) and points (K, m), one row per time.
    """
    idx = np.clip(np.searchsorted(gx, points, side="right") - 1, 0, gx.size - 1)
    a = gx[idx]
    halves = 0.5 * (points - a)
    mids = 0.5 * (points + a)
    lead = points.shape[:-1]
    nodes = (mids[..., None] + halves[..., None] * _GL_NODES).reshape(lead + (-1,))
    nodes = np.concatenate([nodes, points], axis=-1)
    del a, mids  # a block's stacks are large: hold only what is read below
    vals = np.asarray(cset.derived("alpha_inv_cbrt").eval(t, nodes))
    del nodes
    m = _GL_NODES.size * points.shape[-1]
    seg = halves * (vals[..., :m].reshape(lead + (-1, _GL_NODES.size)) @ _GL_WEIGHTS)
    A = np.take_along_axis(A_samples, idx, axis=-1) + seg
    return A, vals[..., m:]


def invert_A(gmap: GaugeMap, y) -> np.ndarray | float:
    """Solve A(t, x) = y by monotone bracketing plus Newton (see `_invert`).

    Raises for y outside the sampled range (solution mass touching the
    domain edge).
    """
    scalar = np.isscalar(y) or np.ndim(y) == 0
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    x, _ = _invert(gmap.cset, gmap.t, gmap.A_samples[None], gmap.source_grid.x, yv[None])
    return float(x[0, 0]) if scalar else x[0]


def _invert(cset, t, A_samples: np.ndarray, gx: np.ndarray, y: np.ndarray) -> tuple:
    """(x, Newton updates per row) solving A(t, x) = y row by row, for a
    (K, n) stack of A rows on the grid gx, (K, m) targets and t a scalar
    (K = 1) or a (K, 1) column.

    A' = alpha^(-1/3) supplies the exact Newton slope; each iteration takes
    the residual and the slope from one program call over the rows still
    iterating.  A row stops once its residual is below 0.1 INVERSION_TOL or
    after eight updates, so it takes the updates of its one-row solve, and
    convergence to |A(x) - y| < INVERSION_TOL is verified on its last
    residual.  Raises for targets outside a row's sampled range.
    """
    lo, hi = A_samples[:, :1], A_samples[:, -1:]
    span = np.maximum(hi - lo, 1.0)
    outside = (y.min(axis=-1, keepdims=True) < lo - 1e-12 * span) | (
        y.max(axis=-1, keepdims=True) > hi + 1e-12 * span
    )
    if outside.any():
        row = int(np.argmax(outside))
        raise ValueError(
            f"inversion target outside sampled range [{lo[row, 0]:.6g}, {hi[row, 0]:.6g}]"
        )
    y = np.clip(y, lo, hi)
    x = np.stack([np.interp(yr, Ar, gx) for yr, Ar in zip(y, A_samples)])
    res = np.empty_like(x)
    updates = np.zeros(len(x), dtype=int)
    left = np.arange(len(x))  # the rows still iterating
    for update in range(9):  # at most eight Newton updates, each one checked
        pick = slice(None) if left.size == len(x) else left
        A, slope = _anchored_A(
            cset, t if np.ndim(t) == 0 else t[pick], A_samples[pick], gx, x[pick]
        )
        r = res[pick] = A - y[pick]
        going = ~(np.abs(r).max(axis=-1) < 0.1 * INVERSION_TOL)
        if update == 8 or not going.any():
            break
        left = left[going]
        x[left] = np.clip(x[left] - r[going] / slope[going], gx[0], gx[-1])
        updates[left] += 1
    worst = np.abs(res).max(axis=-1)
    stalled = worst > INVERSION_TOL
    if stalled.any():
        raise RuntimeError(f"inversion stalled: residual {worst[stalled].max():.3e}")
    return x, updates


@lru_cache(maxsize=8)
def _grid_rule(grid: Grid) -> _AnchoredRule:
    """The anchored rule on a grid's nodes, built once per grid sizing."""
    return _AnchoredRule(grid.x)


def _straighten(cset: CoefficientSet, t, grid: Grid) -> np.ndarray:
    """A = int_0^x alpha^(-1/3) on the grid, over the Gauss nodes of the
    grid's anchored rule: one row for a scalar t, a (K, n) stack for a
    (K, 1) column of times.

    Rejects alpha that is not positive on the grid and an A that is not
    strictly increasing.
    """
    a_vals = np.asarray(cset.alpha.eval(t, grid.x), dtype=float)
    if a_vals.min() <= 0.0:
        raise ValueError(
            f"alpha must be strictly positive; min sampled value {a_vals.min():.3e}"
        )
    rule = _grid_rule(grid)
    integrand = cset.derived("alpha_inv_cbrt").eval(t, rule.nodes)
    # a column of times gives every row, also where alpha does not drift
    A = rule.integrate(np.broadcast_to(integrand, np.shape(t)[:-1] + rule.nodes.shape))
    if np.any(np.diff(A, axis=-1) <= 0.0):
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
    """The slice at t: the one-row case of `build_gauge_maps`."""
    return build_gauge_maps(cset, (t,), source_grid, image_grid)[0]


def build_gauge_maps(
    cset: CoefficientSet, times, source_grid: Grid, image_grid: Grid
) -> list:
    """The slices at `times`: A, its inverse at the image nodes, h there,
    and b..f, each a `GaugeMap`.

    One call chain builds them all, on (K, n) stacks with a (K, 1) column of
    times: `_straighten`, the row-wise Newton of `_invert`, `_pullback` with
    one anchored rule per row, and `_transformed`.  Every entry equals the
    slice's one-row build (one time, 1-D arrays) bit for bit, and each map
    holds copies of its own rows, so a kept map does not keep its block
    alive.  Image nodes outside the sampled A-range (the 5% padding collar)
    reuse the boundary pullback point: b..f extend by their edge values there.
    """
    times = [float(t) for t in times]
    one = len(times) == 1
    t = times[0] if one else np.array(times)[:, None]
    A = _straighten(cset, t, source_grid)
    lo, hi = A[..., :1], A[..., -1:]
    xi = image_grid.x
    clamped = (xi < lo) | (xi > hi)
    targets = np.clip(xi, lo, hi)
    pts, _ = _invert(cset, t, np.atleast_2d(A), source_grid.x, np.atleast_2d(targets))
    pts = pts.reshape(targets.shape)
    h, *pulled = _pullback(cset, t, pts)
    b_to_f = _transformed(h, *pulled)

    def row(a, i):
        return a if one else a[i].copy()

    maps = []
    for i, ti in enumerate(times):
        coefficients = TransformedCoefficients(ti, image_grid, *(row(v, i) for v in b_to_f))
        coefficients.validate()
        maps.append(GaugeMap(
            t=ti,
            source_grid=source_grid,
            image_grid=image_grid,
            cset=cset,
            A_samples=row(A, i),
            A_inverse_samples=row(pts, i),
            inverse_clamped=row(clamped, i),
            h_at_inverse=row(h, i),
            coefficients=coefficients,
        ))
    return maps


def _pullback(cset: CoefficientSet, t, points: np.ndarray) -> tuple:
    """(h, A_t, h_t/h, the `_PULLBACK_FIELDS`) at ascending points: one row
    for a scalar t, or a (K, n) stack of rows, each ascending, for a (K, 1)
    column of times.

    Three programs sample, each once: beta1/alpha (for h) and, when the set
    depends on t, the two drift integrands d/dt alpha^(-1/3) and
    d/dt(beta1/alpha) at the Gauss nodes of one anchored rule per row; the
    pullback fields and alpha_t at the points; alpha and alpha_t at 0.  The
    node samples are integrated and dropped before the fields are sampled,
    so a block holds one of the two stacks at a time.  Coefficients
    independent of t have no drift.
    """
    pts = np.asarray(points, dtype=float)
    drifting = cset.is_time_dependent
    rule = _AnchoredRule(pts)
    gauge, *drift = (
        rule.integrate(v)
        for v in cset.sample(("ratio1",) + (_TIME_INTEGRANDS if drifting else ()), t, rule.nodes)
    )
    del rule
    *fields, al_t = (
        np.asarray(v, dtype=float) for v in cset.sample(_PULLBACK_FIELDS + ("alpha_t",), t, pts)
    )
    al0, al_t0 = (np.asarray(v, dtype=float) for v in cset.sample(("alpha", "alpha_t"), t, 0.0))
    if np.min(al0) <= 0.0:
        raise ValueError("alpha(t, 0) must be positive")
    if fields[0].min() <= 0.0:
        raise ValueError("alpha must be strictly positive at the sample points")
    h = (al0 / fields[0]) ** (1.0 / 3.0) * np.exp(gauge / 3.0)
    zeros = np.zeros_like(pts)
    if not drifting:
        return h, zeros, zeros, fields
    A_t_integral, ratio1_t_integral = drift
    A_t = A_t_integral if cset.alpha.depends_on_t else zeros
    ht_h = (al_t0 / al0 - al_t / fields[0]) / 3.0 + ratio1_t_integral / 3.0
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
    def constant_kdv(cls, grid: Grid, epsilon: float = -6.0):
        """b = c = d = f = 0, e = epsilon at t = 0: plain KdV in the image frame."""
        z = np.zeros(grid.num_points)
        return cls(
            t=0.0, grid=grid, b=z.copy(), c=z.copy(), d=z.copy(),
            e=np.full(grid.num_points, float(epsilon)), f=z.copy(),
        )

    def validate(self) -> None:
        scale = max(1.0, float(np.abs(self.b).max()))
        if float(self.b.min()) < -1e-10 * scale:
            raise ValueError(
                f"transformed diffusion coefficient dips negative: {self.b.min():.3e}"
            )


def _transformed(h, A_t, ht_h, fields) -> tuple:
    """(b, c, d, e, f) from `_pullback`'s h, drift terms and fields, on one
    row or a stack of rows."""
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
    return b, c, d, e, f


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
# pullback points per block of announced slices: a GaugeSystem on n-point
# grids builds clip(BLOCK_POINTS // n, 1, SLICE_CACHE) slices per block, few
# enough that the block's (K, n) stacks of every intermediate stay small
# (a traced peak below 0.7 MB at K = 4, n = 512) and that none of its
# slices is evicted before it is read
BLOCK_POINTS = 2048


class TimeSlices:
    """Slices `build(t)` keyed by time, for the RK stage times of a solve.

    A time is keyed as round(t, 14) and its slice is built at the key, so
    stage times that agree to 14 decimals share one slice; with `frozen`
    every time maps to the one slice at 0.0.  The slices at the `keep`
    times (keyed the same way) are never evicted; of the others the newest
    SLICE_CACHE are kept, oldest evicted first.  A hit returns the same
    object.

    With `build_block`, a caller may `announce` the times it will ask for
    next.  A miss at an announced time then builds that time together with
    the next announced times not yet built, at most `block_size` in all, by
    one `build_block(keys)` call; a miss at any other time calls `build`.
    Should the block fail, the missed time is built alone, so an error
    surfaces at the time it belongs to.
    """

    def __init__(self, build, frozen: bool, keep=(), build_block=None, block_size: int = 1):
        self._build = build
        self._frozen = frozen
        self._keep = frozenset(round(float(t), 14) for t in keep)
        self._kept: dict = {}
        self._recent: dict = {}
        self._build_block = build_block
        self._block_size = block_size
        self._announced = iter(())
        self._ahead: deque = deque()  # announced keys read from `_announced`, not yet passed

    def announce(self, times) -> None:
        """The times to be asked for next, in nondecreasing order and read
        lazily; replaces any earlier announcement, and `announce(())`
        withdraws it."""
        self._announced = (round(float(t), 14) for t in times)
        self._ahead.clear()

    def _upcoming(self, key: float) -> list:
        """`key` and the announced keys after it that are not yet built, at
        most `block_size`; empty when `key` is not the next announced key."""
        ahead = self._ahead

        def read() -> bool:
            nxt = next(self._announced, None)
            if nxt is not None:
                ahead.append(nxt)
            return nxt is not None

        while (ahead or read()) and ahead[0] < key:
            ahead.popleft()
        if not ahead or ahead[0] != key:
            return []
        keys, i = [key], 1
        while len(keys) < self._block_size and (i < len(ahead) or read()):
            k = ahead[i]
            i += 1
            if k > keys[-1] and k not in self._kept and k not in self._recent:
                keys.append(k)
        return keys

    def __call__(self, t: float):
        key = 0.0 if self._frozen else round(float(t), 14)
        hit = (self._kept if key in self._keep else self._recent).get(key)
        if hit is not None:
            return hit
        keys = [] if self._frozen or self._build_block is None else self._upcoming(key)
        if not keys:
            keys, built = [key], [self._build(key)]
        else:
            try:
                built = self._build_block(keys)
            except (ValueError, RuntimeError):
                if len(keys) == 1:
                    raise
                keys, built = [key], self._build_block([key])
        for k, value in zip(keys, built):
            store = self._kept if k in self._keep else self._recent
            if store is self._recent and len(store) >= SLICE_CACHE:
                store.pop(next(iter(store)))
            store[k] = value
        return built[0]


class GaugeSystem:
    """Gauge slices at any time, built on demand.

    `map_at(t)` is one TimeSlices over one image grid, and
    `coefficients_at(t)` reads b..f from its slice: frozen coefficient sets
    build one slice for all times, time-dependent ones a slice per 14-decimal
    time key, and the slices at the `keep` times (times a caller revisits
    after a solve, such as its monitor times) are kept for the life of the
    system.  Times announced to `map_at` (a solve's stage times) are built
    in blocks by `build_gauge_maps`, clip(BLOCK_POINTS // n, 1, SLICE_CACHE)
    slices per block on n-point grids; other times one by one by
    `build_gauge_map`.  `times` only sizes the image grid.  The cache's
    builders hold no reference to the system, so a dropped system is freed
    without the cyclic collector.
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
            build_block=lambda times: build_gauge_maps(cset, times, source_grid, image_grid),
            block_size=min(max(BLOCK_POINTS // image_grid.num_points, 1), SLICE_CACHE),
        )

    def coefficients_at(self, t: float) -> TransformedCoefficients:
        return self.map_at(t).coefficients
