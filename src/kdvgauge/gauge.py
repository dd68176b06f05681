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

A slice samples only what the solvers and transports read: A on the source
grid, h on the source grid (inverse transport) and at the pullback points
A^-1(image nodes) (forward transport), both from the one closed form in
`gauge_weight`; the h-derivatives and A_t enter only b..f, at the pullback
points, through the cached derived forms of the coefficient set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet, anchored_cumulative
from .expressions import CoefficientExpr
from .spectral import Grid, SpectralState, edge_mass_fraction, interpolate, make_grid

__all__ = [
    "GaugeMap",
    "TransformedCoefficients",
    "compute_A",
    "invert_A",
    "gauge_weight",
    "build_gauge_map",
    "image_grid_for",
    "transform_coefficients",
    "forward_transform",
    "inverse_transform",
    "gauge_weight_log_time_derivative",
    "GaugeSystem",
]

EDGE_MASS_LIMIT = 1e-6
INVERSION_TOL = 1e-11


def compute_A(alpha: CoefficientExpr, t: float, grid: Grid) -> np.ndarray:
    """Sample the straightening map A(t, x) = int_0^x alpha^(-1/3) on the grid.

    Rejects non-coercive alpha.
    """
    a_vals = np.asarray(alpha.eval(float(t), grid.x), dtype=float)
    if a_vals.min() <= 0.0:
        raise ValueError(
            f"alpha must be strictly positive; min sampled value {a_vals.min():.3e}"
        )
    inv_cbrt = alpha ** (-1.0 / 3.0)
    A = anchored_cumulative(lambda y: inv_cbrt.eval(float(t), y), grid.x)
    if np.any(np.diff(A) <= 0.0):
        raise ValueError("straightening map is not strictly increasing")
    return A


def gauge_weight(cset: CoefficientSet, t: float, points: np.ndarray) -> np.ndarray:
    """The gauge weight h(t, p) at ascending points p, from the closed form.

    h = [alpha(t,0)/alpha(t,p)]^(1/3) exp((1/3) int_0^p beta1/alpha); its
    x-derivatives follow from r = h_x/h (`cset.derived("gauge_ratio")`), so
    no sampled differentiation is involved.
    """
    t = float(t)
    pts = np.asarray(points, dtype=float)
    a0 = float(cset.alpha.eval(t, 0.0))
    if a0 <= 0.0:
        raise ValueError("alpha(t, 0) must be positive")
    a_vals = np.asarray(cset.alpha.eval(t, pts), dtype=float)
    if a_vals.min() <= 0.0:
        raise ValueError("alpha must be strictly positive at the sample points")
    ratio1 = cset.derived("ratio1")
    integral = anchored_cumulative(lambda y: np.asarray(ratio1.eval(t, y)), pts)
    return (a0 / a_vals) ** (1.0 / 3.0) * np.exp(integral / 3.0)


@dataclass
class GaugeMap:
    """One time slice of the change of variables, sampled on both grids."""

    t: float
    source_grid: Grid
    image_grid: Grid
    cset: CoefficientSet
    A_samples: np.ndarray
    h_samples: np.ndarray
    A_inverse_samples: np.ndarray  # pullback points for the image nodes
    inverse_clamped: np.ndarray  # image nodes outside the sampled A-range
    h_at_inverse: np.ndarray

    def a_of(self, points: np.ndarray) -> np.ndarray:
        """Evaluate A at arbitrary source points (node anchor + one cell)."""
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        gx = self.source_grid.x
        idx = np.clip(np.searchsorted(gx, pts, side="right") - 1, 0, gx.size - 1)
        inv_cbrt = self.cset.derived("alpha_inv_cbrt")
        from .coefficients import _GL_NODES, _GL_WEIGHTS  # shared rule

        a = gx[idx]
        halves = 0.5 * (pts - a)
        mids = 0.5 * (pts + a)
        nodes = mids[:, None] + halves[:, None] * _GL_NODES[None, :]
        vals = np.asarray(inv_cbrt.eval(self.t, nodes.ravel())).reshape(nodes.shape)
        seg = halves * (vals @ _GL_WEIGHTS)
        return self.A_samples[idx] + seg

    @property
    def a_range(self) -> tuple[float, float]:
        return float(self.A_samples[0]), float(self.A_samples[-1])


def invert_A(gmap: GaugeMap, y) -> np.ndarray | float:
    """Solve A(t, x) = y by monotone bracketing plus Newton.

    A' = alpha^(-1/3) supplies the exact Newton slope; convergence to
    |A(x) - y| < 1e-11 is verified.  Raises for y outside the sampled range
    (solution mass touching the domain edge).
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
    inv_cbrt = gmap.cset.derived("alpha_inv_cbrt")
    for _ in range(8):
        res = gmap.a_of(x) - yv
        if np.abs(res).max() < 0.1 * INVERSION_TOL:
            break
        slope = np.asarray(inv_cbrt.eval(gmap.t, x), dtype=float)
        x = np.clip(x - res / slope, gx[0], gx[-1])
    res = np.abs(gmap.a_of(x) - yv).max()
    if res > INVERSION_TOL:
        raise RuntimeError(f"inversion stalled: residual {res:.3e}")
    return float(x[0]) if scalar else x


def image_grid_for(
    cset: CoefficientSet,
    source_grid: Grid,
    times=(0.0,),
    padding: float = 0.05,
    num_points: int | None = None,
) -> Grid:
    """One fixed grid covering the image of the source domain under A.

    The image interval varies with t for time-dependent alpha; the union
    over the supplied times is covered, padded by `padding`, and symmetrized
    about 0 so the image grid keeps the anchored node at the origin.
    """
    reach = 0.0
    for t in np.atleast_1d(np.asarray(times, dtype=float)):
        A = compute_A(cset.alpha, float(t), source_grid)
        reach = max(reach, abs(A[0]), abs(A[-1]))
    H = reach * (1.0 + padding)
    return make_grid(H, num_points or source_grid.num_points)


def build_gauge_map(
    cset: CoefficientSet, t: float, source_grid: Grid, image_grid: Grid
) -> GaugeMap:
    gmap = GaugeMap(
        t=float(t),
        source_grid=source_grid,
        image_grid=image_grid,
        cset=cset,
        A_samples=compute_A(cset.alpha, t, source_grid),
        h_samples=gauge_weight(cset, t, source_grid.x),
        A_inverse_samples=np.zeros(image_grid.num_points),
        inverse_clamped=np.zeros(image_grid.num_points, dtype=bool),
        h_at_inverse=np.ones(image_grid.num_points),
    )
    lo, hi = gmap.a_range
    xi = image_grid.x
    gmap.inverse_clamped = (xi < lo) | (xi > hi)
    gmap.A_inverse_samples = np.asarray(invert_A(gmap, np.clip(xi, lo, hi)))
    gmap.h_at_inverse = gauge_weight(cset, t, gmap.A_inverse_samples)
    return gmap


def gauge_weight_log_time_derivative(
    cset: CoefficientSet, t: float, points: np.ndarray
) -> np.ndarray:
    """h_t / h from the differentiated closed form (no time differencing).

    Equals (1/3)[alpha_t(t,0)/alpha(t,0) - alpha_t/alpha] plus (1/3) of the
    anchored integral of d/dt(beta1/alpha); points must be sorted ascending.
    """
    pts = np.asarray(points, dtype=float)
    if not cset.is_time_dependent:
        return np.zeros_like(pts)
    al = np.asarray(cset.alpha.eval(t, pts), dtype=float)
    al_t = np.asarray(cset.alpha.eval(t, pts, dt_order=1), dtype=float)
    al0 = float(cset.alpha.eval(t, 0.0))
    al_t0 = float(cset.alpha.eval(t, 0.0, dt_order=1))
    ratio1_t = cset.derived("ratio1_t")
    integral = anchored_cumulative(lambda z: np.asarray(ratio1_t.eval(t, z)), pts)
    return (al_t0 / al0 - al_t / al) / 3.0 + integral / 3.0


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
    pullback_points: np.ndarray
    clamped: np.ndarray

    @classmethod
    def constant_kdv(cls, grid: Grid, epsilon: float = -6.0, t: float = 0.0):
        """b = c = d = f = 0, e = epsilon: plain KdV in the image frame."""
        z = np.zeros(grid.num_points)
        return cls(
            t=t, grid=grid, b=z.copy(), c=z.copy(), d=z.copy(),
            e=np.full(grid.num_points, float(epsilon)), f=z.copy(),
            pullback_points=grid.x.copy(),
            clamped=np.zeros(grid.num_points, dtype=bool),
        )

    def validate(self) -> None:
        scale = max(1.0, float(np.abs(self.b).max()))
        if float(self.b.min()) < -1e-10 * scale:
            raise ValueError(
                f"transformed diffusion coefficient dips negative: {self.b.min():.3e}"
            )


def transform_coefficients(
    cset: CoefficientSet, gmap: GaugeMap, image_grid: Grid
) -> TransformedCoefficients:
    """Pull every source quantity back through A^-1 and assemble b..f.

    Image nodes outside the sampled A-range (the 5% padding collar) reuse
    the boundary pullback point, i.e. the coefficients are extended by
    their edge values; localized runs never exercise that collar.
    """
    if not gmap.image_grid.compatible_with(image_grid):
        raise ValueError("gauge map was built for a different image grid")
    t = gmap.t
    y = gmap.A_inverse_samples
    al = np.asarray(cset.alpha.eval(t, y), dtype=float)
    al_x = np.asarray(cset.alpha.eval(t, y, dx_order=1), dtype=float)
    al_2x = np.asarray(cset.alpha.eval(t, y, dx_order=2), dtype=float)
    be = np.asarray(cset.beta.eval(t, y), dtype=float)
    ga = np.asarray(cset.gamma.eval(t, y), dtype=float)
    de = np.asarray(cset.delta.eval(t, y), dtype=float)
    ep = np.asarray(cset.epsilon.eval(t, y), dtype=float)
    h = gmap.h_at_inverse
    r_expr = cset.derived("gauge_ratio")
    r = np.asarray(r_expr.eval(t, y), dtype=float)
    rx = np.asarray(cset.derived("gauge_ratio_x").eval(t, y), dtype=float)
    rxx = np.asarray(cset.derived("gauge_ratio_xx").eval(t, y), dtype=float)
    hx_h = r
    h2x_h = r * r + rx
    h3x_h = r**3 + 3.0 * r * rx + rxx

    # A_t and h_t/h at the pullback points (anchored quadratures in y)
    if cset.alpha.depends_on_t:
        inv_cbrt_t = cset.derived("alpha_inv_cbrt_t")
        A_t = anchored_cumulative(lambda z: np.asarray(inv_cbrt_t.eval(t, z)), y)
    else:
        A_t = np.zeros_like(y)
    ht_h = gauge_weight_log_time_derivative(cset, t, y)

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

    out = TransformedCoefficients(
        t=t, grid=image_grid, b=b, c=c, d=d, e=e, f=f,
        pullback_points=y, clamped=gmap.inverse_clamped.copy(),
    )
    out.validate()
    return out


def forward_transform(u: SpectralState, gmap: GaugeMap) -> SpectralState:
    """Transport u to the image frame: v(x) = h(A^-1 x) u(A^-1 x).

    Off-grid evaluation of u uses trigonometric interpolation, keeping
    spectral accuracy through the composition.  Rejects fields whose outer
    10% of the source domain carries more than 1e-6 of the mass.
    """
    if not u.grid.compatible_with(gmap.source_grid):
        raise ValueError("field does not live on the gauge map's source grid")
    frac = edge_mass_fraction(u)
    if frac > EDGE_MASS_LIMIT:
        raise ValueError(
            f"solution mass at the source-domain edge ({frac:.2e}) exceeds {EDGE_MASS_LIMIT:g}"
        )
    vals = interpolate(u, gmap.A_inverse_samples)
    v = gmap.h_at_inverse * vals
    v = np.where(gmap.inverse_clamped, 0.0, v)
    return SpectralState.from_physical(gmap.image_grid, v)


def inverse_transform(v: SpectralState, gmap: GaugeMap) -> SpectralState:
    """Transport back: u(x) = v(A(x)) / h(x)."""
    if not v.grid.compatible_with(gmap.image_grid):
        raise ValueError("field does not live on the gauge map's image grid")
    frac = edge_mass_fraction(v)
    if frac > EDGE_MASS_LIMIT:
        raise ValueError(
            f"solution mass at the image-domain edge ({frac:.2e}) exceeds {EDGE_MASS_LIMIT:g}"
        )
    vals = interpolate(v, gmap.A_samples)
    u = vals / gmap.h_samples
    return SpectralState.from_physical(gmap.source_grid, u)


class GaugeSystem:
    """Per-time gauge maps and transformed coefficients, built on demand.

    Slices are independent, so construction per time is trivially
    parallelizable; this implementation keeps a small cache keyed by time.
    """

    def __init__(
        self,
        cset: CoefficientSet,
        source_grid: Grid,
        image_grid: Grid | None = None,
        times=(0.0,),
        padding: float = 0.05,
    ):
        self.cset = cset
        self.source_grid = source_grid
        self.image_grid = image_grid or image_grid_for(
            cset, source_grid, times=times, padding=padding
        )
        self._maps: dict[float, GaugeMap] = {}
        self._coeffs: dict[float, TransformedCoefficients] = {}

    def _trim(self, cache: dict, keep: int = 8) -> None:
        while len(cache) > keep:
            cache.pop(next(iter(cache)))

    def _key(self, t: float) -> float:
        # frozen coefficients produce one slice for all times
        return 0.0 if not self.cset.is_time_dependent else round(float(t), 14)

    def map_at(self, t: float) -> GaugeMap:
        key = self._key(t)
        if key not in self._maps:
            self._maps[key] = build_gauge_map(
                self.cset, key, self.source_grid, self.image_grid
            )
            self._trim(self._maps)
        return self._maps[key]

    def coefficients_at(self, t: float) -> TransformedCoefficients:
        key = self._key(t)
        if key not in self._coeffs:
            self._coeffs[key] = transform_coefficients(
                self.cset, self.map_at(key), self.image_grid
            )
            self._trim(self._coeffs)
        return self._coeffs[key]

