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

from .expressions import CoefficientExpr, ExpressionError, Program, parse_coefficient
from .spectral import Grid

__all__ = [
    "CoefficientSet",
    "softplus_split",
    "check_hypotheses",
    "HypothesisEntry",
    "HypothesisReport",
]

# 5-point Gauss-Legendre rule on [-1, 1]; degree-9 exactness keeps the
# anchored integrals far below the gauge tolerances on desk-scale cells.
# The values of np.polynomial.legendre.leggauss(5), bit for bit (a test
# checks them), written out: importing numpy.polynomial for them took
# about 0.9 MB of every run's peak RSS.
_GL_NODES = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                      0.5384693101056831, 0.906179845938664])
_GL_WEIGHTS = np.array([0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                        0.4786286704993663, 0.23692688505618928])


class _AnchoredRule:
    """Cumulative integrals int_0^p on ascending points p, anchored exactly at 0.

    `nodes` are the 5 Gauss nodes of each cell between consecutive points
    (with x = 0 inserted as an exact anchor, so every integral vanishes
    there wherever the points fall), flattened; `integrate` turns an
    integrand sampled there into int_0^p for each point p.  One rule serves
    every integrand wanted on the same points.

    A (K, n) stack of point rows gives one rule per row: `nodes` is then
    (K, 5 n) and `integrate` takes one row of integrand values per row.  A
    rule on one row of points integrates a (K, 5 n) stack of integrands
    (say, one per time) row by row.  Each row equals the one-row rule's
    result bit for bit.
    """

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=float)
        if pts.ndim not in (1, 2):
            raise ValueError("points must be one row or a stack of rows")
        if np.any(np.diff(pts, axis=-1) < 0):
            raise ValueError("points must be sorted ascending")
        self.size = pts.shape[-1]
        grid = np.concatenate([pts, np.zeros(pts.shape[:-1] + (1,))], axis=-1)
        order = np.argsort(grid, axis=-1, kind="stable")
        sorted_pts = np.take_along_axis(grid, order, axis=-1)
        a = sorted_pts[..., :-1]
        b = sorted_pts[..., 1:]
        self._halves = 0.5 * (b - a)
        mids = 0.5 * (a + b)
        self.nodes = (mids[..., None] + self._halves[..., None] * _GL_NODES).reshape(
            pts.shape[:-1] + (-1,)
        )
        # the slot of x = 0 among the sorted points, and where each sorted
        # slot goes, as indices into a row or into each row of a stack
        anchor = (sorted_pts < 0.0).sum(axis=-1, keepdims=True)
        if pts.ndim == 1:
            self._anchor, self._scatter = (..., slice(anchor[0], anchor[0] + 1)), (..., order)
        else:
            rows = np.arange(pts.shape[0])[:, None]
            self._anchor, self._scatter = (rows, anchor), (rows, order)

    def integrate(self, values) -> np.ndarray:
        vals = np.asarray(values)
        lead = vals.shape[:-1]
        if self.size == 0:
            return np.zeros(lead + (0,))
        seg = self._halves * (vals.reshape(lead + (-1, _GL_NODES.size)) @ _GL_WEIGHTS)
        cum = np.concatenate([np.zeros(lead + (1,)), np.cumsum(seg, axis=-1)], axis=-1)
        # exact: the anchor slot holds int_{sorted_pts[0]}^{0}
        cum = cum - cum[self._anchor]
        out = np.empty(lead + (self.size + 1,))
        out[self._scatter] = cum
        return out[..., : self.size]


_FIELDS = ("alpha", "beta", "gamma", "delta", "epsilon", "beta1", "beta2")


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
    _programs: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_strings(
        cls,
        alpha: str = "1",
        beta: str = "0",
        gamma: str = "0",
        delta: str = "0",
        epsilon: str = "1",
        beta1: str | None = None,
        beta2: str = "0",
        alpha0: float = 1.0,
    ) -> "CoefficientSet":
        """The set of these texts; beta1 defaults to beta, as in a config."""
        beta_expr = parse_coefficient(beta)
        return cls(
            alpha=parse_coefficient(alpha),
            beta=beta_expr,
            gamma=parse_coefficient(gamma),
            delta=parse_coefficient(delta),
            epsilon=parse_coefficient(epsilon),
            beta1=beta_expr if beta1 is None else parse_coefficient(beta1),
            beta2=parse_coefficient(beta2),
            alpha0=float(alpha0),
        )

    @classmethod
    def constant_kdv(cls, epsilon: float = -6.0) -> "CoefficientSet":
        """Unit dispersion, no lower-order terms: u_t + u_xxx = eps u u_x."""
        return cls.from_strings(alpha="1", epsilon=repr(float(epsilon)), alpha0=1.0)

    @property
    def is_time_dependent(self) -> bool:
        return any(getattr(self, name).depends_on_t for name in _FIELDS)

    # derived closed forms shared by the gauge machinery -------------------

    def derived(self, name: str) -> CoefficientExpr:
        cache = self._derived
        if name not in cache:
            if name == "alpha_x":
                cache[name] = self.alpha.dx()
            elif name == "alpha_xx":
                cache[name] = self.alpha.dx(2)
            elif name == "alpha_t":
                cache[name] = self.alpha.dt()
            elif name == "alpha_inv_cbrt":
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

    def sample(self, names: tuple, t, x) -> list:
        """The named fields at (t, x), from one program compiled per `names`.

        A name is a coefficient field or a `derived` form.  Subexpressions
        the fields share (every gauge form is built from alpha) are
        evaluated once per call; each value equals `<field>.eval(t, x)` bit
        for bit.
        """
        program = self._programs.get(names)
        if program is None:
            program = self._programs[names] = Program([
                (getattr(self, n) if n in _FIELDS else self.derived(n)).root
                for n in names
            ])
        return program(t, x)

    def screen(self, times, x) -> None:
        """Screen every field (`CoefficientExpr.screen`) on times x points.

        The ExpressionError of the first singular field is prefixed with
        the field's name, which is all that names a field built without
        source text (a softplus split).
        """
        for name in _FIELDS:
            try:
                getattr(self, name).screen(times, x)
            except ExpressionError as exc:
                raise ExpressionError(f"{name}: {exc}") from None


def softplus_split(
    beta: CoefficientExpr, kappa: float = 10.0
) -> tuple[CoefficientExpr, CoefficientExpr]:
    """Smooth split beta = beta1 + beta2 with beta2 <= 0, for `strategy = softplus`.

    beta1 = log(1 + exp(kappa beta)) / kappa is positive, smooth and exceeds
    beta, leaving beta2 = beta - beta1 <= 0.  The exponential is evaluated
    directly, so |kappa * beta| must stay below ~700 on the domain (bounded
    beta is a standing assumption); screening catches the rest.
    """
    if not kappa > 0:
        raise ValueError("softplus sharpness kappa must be positive")
    soft = ((kappa * beta).apply("exp") + 1.0).apply("log") / kappa
    return soft, beta - soft


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


def _boundary_trend(objective: np.ndarray) -> bool:
    """True when the objective peaks at an edge and keeps growing there."""
    n = objective.size
    w = max(2, n // 10)
    peak = float(objective.max())
    thresh = 0.01 * (1.0 + peak)
    argmax = int(np.argmax(objective))
    grow_left = argmax < w and (objective[0] - objective[w - 1]) > thresh
    grow_right = argmax >= n - w and (objective[-1] - objective[n - w]) > thresh
    return bool(grow_left or grow_right)


def _track(times, x, objectives) -> tuple[float, tuple[float, float], bool]:
    """The sup over (t, x) of one objective given per sample time, the (t, x)
    where it is attained, and whether it keeps growing at an edge at any time;
    NaN at the first sample that is not finite, with its (t, x)."""
    best, loc, growing = -np.inf, (0.0, 0.0), False
    for t, obj in zip(times, objectives):
        bad = ~np.isfinite(obj)
        if bad.any():
            return np.nan, (t, float(x[int(np.argmax(bad))])), False
        i = int(np.argmax(obj))
        if obj[i] > best:
            best, loc = float(obj[i]), (t, float(x[i]))
        growing = growing or _boundary_trend(obj)
    return best, loc, growing


# the gate's fields on the grid, and its integrands at the grid's Gauss
# nodes: d/dt alpha^(-1/3) (H2), d/dt(beta1/alpha) (H3a), beta1/alpha (H3b, H4)
_GATE_FIELDS = ("alpha", "beta", "beta1", "beta2")
_GATE_INTEGRANDS = ("alpha_inv_cbrt_t", "ratio1_t", "ratio1")


def check_hypotheses(
    cset: CoefficientSet, grid: Grid, T: float, t_samples: int = 5
) -> HypothesisReport:
    """Evaluate H1-H4 and the split validity on [0, T] x grid.

    Sup-type integrals are anchored cumulative integrals over one rule on
    the grid; at each sample time one program samples the fields on the
    grid and one the integrands at the rule's nodes, and int_0^x beta1/alpha
    serves both H3b and H4.  The H2 integrand is taken in the
    d/dt(alpha^(-1/3)) form, which equals -(1/3) alpha^(-4/3) alpha_t, so
    both stated variants are covered up to the constant factor.  A sup-type
    entry fails at its first sample that is not finite, reading NaN there.
    """
    x = grid.x
    times = [float(t) for t in np.linspace(0.0, T, max(2, int(t_samples)))]
    rule = _AnchoredRule(x)
    fields = [cset.sample(_GATE_FIELDS, t, x) for t in times]
    integrands = [cset.sample(_GATE_INTEGRANDS, t, rule.nodes) for t in times]

    entries: list[HypothesisEntry] = []

    # H1: coercivity window
    a_min, a_max = np.inf, -np.inf
    loc_min = (0.0, 0.0)
    for t, (a, _, _, _) in zip(times, fields):
        i = int(np.argmin(a))
        if a[i] < a_min:
            a_min, loc_min = float(a[i]), (t, float(x[i]))
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

    # the sup-type entries, with no objectives where the integrand vanishes
    # identically: H2 | int_0^x d/dt alpha^(-1/3) |, H3a | int_0^x d/dt
    # (beta1/alpha) |, H3b - int_0^x beta1/alpha bounded above, H4
    # | int_0^x beta1/alpha |
    alpha_moves = cset.alpha.depends_on_t
    ratio_moves = alpha_moves or cset.beta1.depends_on_t
    with np.errstate(all="ignore"):  # a sample that is not finite fails its entry
        gauge = [rule.integrate(v[2]) for v in integrands]  # int_0^x beta1/alpha
        for name, objectives, note in (
            ("H2 drift of straightening",
             alpha_moves and [np.abs(rule.integrate(v[0])) for v in integrands],
             "equivalent to -(1/3) int alpha^(-4/3) alpha_t" if alpha_moves
             else "alpha time-independent: integrand identically 0"),
            ("H3a gauge drift", ratio_moves and [np.abs(rule.integrate(v[1])) for v in integrands],
             "" if ratio_moves else "ratio time-independent: integrand identically 0"),
            ("H3b gauge bounded below", [-g for g in gauge], "sup of - int_0^x beta1/alpha"),
            ("H4 two-sided gauge", [np.abs(g) for g in gauge],
             "needed for Hadamard well-posedness"),
        ):
            ext, loc, grow = (
                _track(times, x, objectives) if objectives else (0.0, (0.0, 0.0), False)
            )
            entries.append(HypothesisEntry(name, not (grow or np.isnan(ext)), ext, loc, grow, note))

    # split validity
    split_ok = True
    split_note = "beta1 + beta2 = beta and beta2 <= 0 on samples"
    worst = 0.0
    worst_loc = (0.0, 0.0)
    for t, (_, b, b1, b2) in zip(times, fields):
        scale = max(1.0, float(np.abs(b).max()))
        gap = np.abs(b1 + b2 - b)
        i = int(np.argmax(gap))
        if gap[i] > worst:
            worst, worst_loc = float(gap[i]), (t, float(x[i]))
        if gap[i] > 1e-10 * scale or float(b2.max()) > 1e-12 * scale:
            split_ok = False
            split_note = f"split defect {gap[i]:.3e} or positive beta2 {float(b2.max()):.3e}"
    entries.append(
        HypothesisEntry("split validity", split_ok, worst, worst_loc, False, split_note)
    )

    return HypothesisReport(entries=entries, half_width=grid.half_width, T=float(T))
