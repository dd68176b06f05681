"""Coefficient sets for the variable-coefficient equation and their checks.

A problem is described by closed-form fields alpha, beta, gamma, delta,
epsilon together with a split beta = beta1 + beta2 (beta2 <= 0) and a
claimed coercivity constant alpha0.  The checker evaluates, on a truncated
domain, the boundedness conditions that the well-posedness theory needs:

  H1  alpha0 <= alpha <= 1/alpha0
  H2  | int_0^x d/dt(alpha^(-1/3)) dy |  bounded
  H3  | int_0^x d/dt(beta1/alpha) dy |   bounded, and
      - int_0^x beta1/alpha dy           bounded above
  H4  | int_0^x beta1/alpha dy |         bounded (two-sided; classical gauge)

Sup-type quantities can only be certified on the sampled window, so each
entry carries a boundary-trend flag: a quantity still growing at
|x| = half_width is inconclusive at infinity and fails the check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expressions import CoefficientExpr, parse_coefficient
from .spectral import Grid

__all__ = [
    "CoefficientSet",
    "split_beta",
    "check_hypotheses",
    "HypothesisEntry",
    "HypothesisReport",
    "anchored_cumulative",
]

# 5-point Gauss-Legendre rule on [-1, 1]; degree-9 exactness keeps the
# anchored integrals far below the gauge tolerances on desk-scale cells.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def anchored_cumulative(fn, points: np.ndarray) -> np.ndarray:
    """Cumulative integral int_0^p fn for each p, anchored exactly at 0.

    `points` must be sorted ascending; x = 0 is inserted as an exact anchor
    so the result vanishes there regardless of where the nodes fall.  `fn`
    must accept numpy arrays.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1:
        raise ValueError("points must be one-dimensional")
    if pts.size == 0:
        return np.zeros(0)
    if np.any(np.diff(pts) < 0):
        raise ValueError("points must be sorted ascending")
    grid = np.concatenate([pts, [0.0]])
    order = np.argsort(grid, kind="stable")
    sorted_pts = grid[order]
    a = sorted_pts[:-1]
    b = sorted_pts[1:]
    halves = 0.5 * (b - a)
    mids = 0.5 * (a + b)
    nodes = mids[:, None] + halves[:, None] * _GL_NODES[None, :]
    vals = fn(nodes.ravel()).reshape(nodes.shape)
    seg = halves * (vals @ _GL_WEIGHTS)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    anchor = int(np.searchsorted(sorted_pts, 0.0, side="left"))
    # exact: the anchor slot holds int_{sorted_pts[0]}^{0}
    cum = cum - cum[anchor]
    out = np.empty(grid.size)
    out[order] = cum
    return out[: pts.size]


@dataclass
class CoefficientSet:
    """All coefficient fields of one problem, plus the beta split."""

    alpha: CoefficientExpr
    beta: CoefficientExpr
    gamma: CoefficientExpr
    delta: CoefficientExpr
    epsilon: CoefficientExpr
    beta1: CoefficientExpr
    beta2: CoefficientExpr
    alpha0: float = 1.0
    _derived: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_strings(
        cls,
        alpha: str = "1",
        beta: str = "0",
        gamma: str = "0",
        delta: str = "0",
        epsilon: str = "1",
        beta1: str | None = None,
        beta2: str | None = None,
        alpha0: float = 1.0,
    ) -> "CoefficientSet":
        beta_expr = parse_coefficient(beta)
        if beta1 is None and beta2 is None:
            b1, b2 = beta_expr, parse_coefficient("0")
        else:
            b1 = parse_coefficient(beta1 if beta1 is not None else "0")
            b2 = parse_coefficient(beta2 if beta2 is not None else "0")
        return cls(
            alpha=parse_coefficient(alpha),
            beta=beta_expr,
            gamma=parse_coefficient(gamma),
            delta=parse_coefficient(delta),
            epsilon=parse_coefficient(epsilon),
            beta1=b1,
            beta2=b2,
            alpha0=float(alpha0),
        )

    @classmethod
    def constant_kdv(cls, epsilon: float = -6.0) -> "CoefficientSet":
        """Unit dispersion, no lower-order terms: u_t + u_xxx = eps u u_x."""
        return cls.from_strings(alpha="1", epsilon=repr(float(epsilon)), alpha0=1.0)

    @property
    def is_time_dependent(self) -> bool:
        return any(
            e.depends_on_t
            for e in (self.alpha, self.beta, self.gamma, self.delta, self.epsilon,
                      self.beta1, self.beta2)
        )

    # derived closed forms shared by the gauge machinery -------------------

    def derived(self, name: str) -> CoefficientExpr:
        cache = self._derived
        if name not in cache:
            if name == "alpha_inv_cbrt":
                cache[name] = self.alpha ** (-1.0 / 3.0)
            elif name == "alpha_inv_cbrt_t":
                cache[name] = self.derived("alpha_inv_cbrt").dt()
            elif name == "ratio1":  # beta1 / alpha
                cache[name] = self.beta1 / self.alpha
            elif name == "ratio1_t":
                cache[name] = self.derived("ratio1").dt()
            elif name == "gauge_ratio":  # h_x / h
                cache[name] = (self.beta1 - self.alpha.dx()) / (3.0 * self.alpha)
            elif name == "gauge_ratio_x":
                cache[name] = self.derived("gauge_ratio").dx()
            elif name == "gauge_ratio_xx":
                cache[name] = self.derived("gauge_ratio_x").dx()
            else:
                raise KeyError(name)
        return cache[name]

    def validate_split(self, x: np.ndarray, times, tol: float = 1e-10) -> None:
        """Assert beta1 + beta2 == beta and beta2 <= 0 on the samples."""
        x = np.asarray(x, dtype=float)
        for t in np.atleast_1d(np.asarray(times, dtype=float)):
            b = np.asarray(self.beta.eval(float(t), x))
            b1 = np.asarray(self.beta1.eval(float(t), x))
            b2 = np.asarray(self.beta2.eval(float(t), x))
            scale = max(1.0, float(np.abs(b).max()))
            gap = float(np.abs(b1 + b2 - b).max())
            if gap > tol * scale:
                raise ValueError(
                    f"beta1 + beta2 deviates from beta by {gap:.3e} at t={t:g}"
                )
            if float(b2.max()) > 1e-12 * scale:
                raise ValueError(
                    f"beta2 must be <= 0 everywhere; max {float(b2.max()):.3e} at t={t:g}"
                )


def split_beta(
    beta: CoefficientExpr,
    strategy: str,
    kappa: float = 10.0,
    beta1: CoefficientExpr | None = None,
    beta2: CoefficientExpr | None = None,
) -> tuple[CoefficientExpr, CoefficientExpr]:
    """Produce a smooth split beta = beta1 + beta2 with beta2 <= 0.

    "user_provided" passes the given pair through; "softplus" builds
    beta1 = log(1 + exp(kappa beta)) / kappa, which is positive, smooth and
    exceeds beta, leaving beta2 = beta - beta1 <= 0.  The exponential is
    evaluated directly, so |kappa * beta| must stay below ~700 on the
    domain (bounded beta is a standing assumption); screening catches the
    rest.
    """
    if strategy == "user_provided":
        if beta1 is None or beta2 is None:
            raise ValueError("user_provided split needs explicit beta1 and beta2")
        return beta1, beta2
    if strategy == "softplus":
        if not kappa > 0:
            raise ValueError("softplus sharpness kappa must be positive")
        soft = ((kappa * beta).apply("exp") + 1.0).apply("log") / kappa
        return soft, beta - soft
    raise ValueError(f"unknown split strategy {strategy!r}")


@dataclass
class HypothesisEntry:
    name: str
    passed: bool
    extremal: float
    location: tuple[float, float]  # (t, x) where the extremal is attained
    boundary_growing: bool
    note: str = ""

    def format_line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        flag = " [unbounded trend at boundary: inconclusive at infinity]" if self.boundary_growing else ""
        t, x = self.location
        return (
            f"{self.name:<26s} {status:<4s} extremal {self.extremal:+.6e} "
            f"at (t={t:.3g}, x={x:.4g}){flag}"
            + (f"  -- {self.note}" if self.note else "")
        )


@dataclass
class HypothesisReport:
    entries: list[HypothesisEntry]
    half_width: float
    T: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, name: str) -> HypothesisEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def format_text(self) -> str:
        head = (
            f"hypothesis check on [0,{self.T:g}] x [-{self.half_width:g},{self.half_width:g}]"
            f" -> {'PASS' if self.passed else 'FAIL'}"
        )
        return "\n".join([head] + ["  " + e.format_line() for e in self.entries])


def _boundary_trend(values: np.ndarray, objective: np.ndarray) -> bool:
    """True when the objective peaks at an edge and keeps growing there."""
    n = objective.size
    w = max(2, n // 10)
    peak = float(objective.max())
    thresh = 0.01 * (1.0 + peak)
    argmax = int(np.argmax(objective))
    grow_left = argmax < w and (objective[0] - objective[w - 1]) > thresh
    grow_right = argmax >= n - w and (objective[-1] - objective[n - w]) > thresh
    return bool(grow_left or grow_right)


def check_hypotheses(
    cset: CoefficientSet, grid: Grid, T: float, t_samples: int = 5
) -> HypothesisReport:
    """Evaluate H1-H4 and the split validity on [0, T] x grid.

    Sup-type integrals are computed with the anchored cumulative rule; the
    H2 integrand is taken in the d/dt(alpha^(-1/3)) form, which equals
    -(1/3) alpha^(-4/3) alpha_t, so both stated variants are covered up to
    the constant factor.
    """
    x = grid.x
    times = np.linspace(0.0, T, max(2, int(t_samples)))
    inv_cbrt_t = cset.derived("alpha_inv_cbrt_t")
    ratio1 = cset.derived("ratio1")
    ratio1_t = cset.derived("ratio1_t")

    def track(fn_objective, signed_values_fn):
        best = -np.inf
        best_loc = (0.0, 0.0)
        growing = False
        for t in times:
            vals = signed_values_fn(float(t))
            obj = fn_objective(vals)
            i = int(np.argmax(obj))
            if obj[i] > best:
                best = float(obj[i])
                best_loc = (float(t), float(x[i]))
            growing = growing or _boundary_trend(vals, obj)
        return best, best_loc, growing

    entries: list[HypothesisEntry] = []

    # H1: coercivity window
    a_min, a_max = np.inf, -np.inf
    loc_min = (0.0, 0.0)
    for t in times:
        a = np.asarray(cset.alpha.eval(float(t), x), dtype=float)
        i = int(np.argmin(a))
        if a[i] < a_min:
            a_min, loc_min = float(a[i]), (float(t), float(x[i]))
        a_max = max(a_max, float(a.max()))
    slack = 1e-12 * max(1.0, abs(a_min), abs(a_max))
    h1_ok = (a_min >= cset.alpha0 - slack) and (a_max <= 1.0 / cset.alpha0 + slack)
    entries.append(
        HypothesisEntry(
            "H1 coercivity",
            h1_ok,
            a_min,
            loc_min,
            False,
            f"alpha in [{a_min:.6g}, {a_max:.6g}], claimed [{cset.alpha0:g}, {1.0 / cset.alpha0:g}]",
        )
    )

    # H2: | int_0^x d/dt alpha^(-1/3) |
    if cset.alpha.depends_on_t:
        ext, loc, grow = track(
            np.abs, lambda t: anchored_cumulative(lambda y: inv_cbrt_t.eval(t, y), x)
        )
        note = "equivalent to -(1/3) int alpha^(-4/3) alpha_t"
    else:
        ext, loc, grow = 0.0, (0.0, 0.0), False
        note = "alpha time-independent: integrand identically 0"
    entries.append(HypothesisEntry("H2 drift of straightening", not grow, ext, loc, grow, note))

    # H3a: | int_0^x d/dt (beta1/alpha) |
    if cset.beta1.depends_on_t or cset.alpha.depends_on_t:
        ext, loc, grow = track(
            np.abs, lambda t: anchored_cumulative(lambda y: ratio1_t.eval(t, y), x)
        )
        note = ""
    else:
        ext, loc, grow = 0.0, (0.0, 0.0), False
        note = "ratio time-independent: integrand identically 0"
    entries.append(HypothesisEntry("H3a gauge drift", not grow, ext, loc, grow, note))

    # H3b: - int_0^x beta1/alpha bounded above
    ext, loc, grow = track(
        lambda v: v, lambda t: -anchored_cumulative(lambda y: ratio1.eval(t, y), x)
    )
    entries.append(
        HypothesisEntry(
            "H3b gauge bounded below",
            not grow,
            ext,
            loc,
            grow,
            "sup of - int_0^x beta1/alpha",
        )
    )

    # H4: | int_0^x beta1/alpha | bounded (classical two-sided gauge)
    ext, loc, grow = track(
        np.abs, lambda t: anchored_cumulative(lambda y: ratio1.eval(t, y), x)
    )
    entries.append(
        HypothesisEntry(
            "H4 two-sided gauge", not grow, ext, loc, grow, "needed for Hadamard well-posedness"
        )
    )

    # split validity
    split_ok = True
    split_note = "beta1 + beta2 = beta and beta2 <= 0 on samples"
    worst = 0.0
    worst_loc = (0.0, 0.0)
    for t in times:
        b = np.asarray(cset.beta.eval(float(t), x), dtype=float)
        b1 = np.asarray(cset.beta1.eval(float(t), x), dtype=float)
        b2 = np.asarray(cset.beta2.eval(float(t), x), dtype=float)
        scale = max(1.0, float(np.abs(b).max()))
        gap = np.abs(b1 + b2 - b)
        i = int(np.argmax(gap))
        if gap[i] > worst:
            worst, worst_loc = float(gap[i]), (float(t), float(x[i]))
        if gap[i] > 1e-10 * scale or float(b2.max()) > 1e-12 * scale:
            split_ok = False
            split_note = f"split defect {gap[i]:.3e} or positive beta2 {float(b2.max()):.3e}"
    entries.append(
        HypothesisEntry("split validity", split_ok, worst, worst_loc, False, split_note)
    )

    return HypothesisReport(entries=entries, half_width=grid.half_width, T=float(T))
