"""Dyadic frequency projectors, Zygmund and weighted norms, commutators.

The building block is a fixed smooth even bump eta with eta = 1 on [-1, 1]
and support in [-2, 2], realized with the standard exp(-1/t) transition so
results are reproducible bit-for-bit.  Band symbols:

    phi_1(k)   = eta(k)
    phi_N(k)   = eta(k/N) - eta(2k/N)          (N = 2, 4, 8, ...)
    P_{<=N}    symbol eta(k/N)
    P_{<<N}    realized as P_{<=N/8} (empty below N = 8)
    tilde P_N  = sum of P_K over dyadic K in [N/4, 4N]

Products inside the commutators are computed alias-free on a 2x padded grid
and truncated back to the resolved band, so the quadratic commutator
identity holds to round-off on the discrete torus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid, SpectralState, derivative, inner_product

__all__ = [
    "bump_eta",
    "bump_eta_prime",
    "DyadicProjector",
    "ProjectorBank",
    "project",
    "zygmund_norm",
    "weighted_b_seminorm",
    "commutator",
    "double_commutator",
    "comcom_residual",
    "resonance_omega3",
    "RESONANCE_SIGN_NOTE",
]


def _m(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0, zero otherwise (flat C-infinity glue)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / t[pos])
    return out


def _m_prime(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 1e-30  # below this exp(-1/t) underflows anyway
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out[pos] = np.exp(-1.0 / t[pos]) / t[pos] ** 2
    return out


def bump_eta(xi) -> np.ndarray:
    """Smooth even bump: 1 on [-1, 1], 0 outside [-2, 2], monotone between.

    Transition q(t) = m(1-t) / (m(t) + m(1-t)) with m(t) = exp(-1/t).
    """
    scalar = np.isscalar(xi) or np.ndim(xi) == 0
    a = np.abs(np.atleast_1d(np.asarray(xi, dtype=float)))
    t = np.clip(a - 1.0, 0.0, 1.0)
    num = _m(1.0 - t)
    den = _m(t) + num
    with np.errstate(invalid="ignore"):
        q = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    out = np.where(a <= 1.0, 1.0, np.where(a >= 2.0, 0.0, q))
    return float(out[0]) if scalar else out


def bump_eta_prime(xi) -> np.ndarray:
    """Analytic derivative of bump_eta (zero outside the transition bands)."""
    scalar = np.isscalar(xi) or np.ndim(xi) == 0
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    a = np.abs(x)
    t = np.clip(a - 1.0, 1e-30, 1.0)
    num = _m(1.0 - t)
    den = _m(t) + num
    dnum = -_m_prime(1.0 - t)
    dden = _m_prime(t) + dnum
    with np.errstate(invalid="ignore", divide="ignore"):
        qp = (dnum * den - num * dden) / den**2
    out = np.where((a > 1.0) & (a < 2.0), qp * np.sign(x), 0.0)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class DyadicProjector:
    """Fourier multiplier with symbol sampled on a grid's wavenumbers."""

    N: int
    kind: str
    grid: Grid
    symbol: np.ndarray


def _phi_symbol(N: int, k: np.ndarray) -> np.ndarray:
    if N == 1:
        return bump_eta(k)
    return bump_eta(k / N) - bump_eta(2.0 * k / N)


class ProjectorBank:
    """All dyadic projectors for one grid, with cached symbol tables."""

    def __init__(self, grid: Grid):
        self.grid = grid
        kmax = grid.k_max
        top = 1
        while top < 2.0 * kmax:
            top *= 2
        self.dyadic_ns = [2**j for j in range(top.bit_length())]
        self._cache: dict[tuple[str, int], DyadicProjector] = {}

    def _build(self, kind: str, N: int) -> DyadicProjector:
        key = (kind, N)
        if key in self._cache:
            return self._cache[key]
        k = self.grid.wavenumbers
        if kind == "P_N":
            sym = _phi_symbol(N, k)
        elif kind == "P_leq_N":
            sym = bump_eta(k / N)
        elif kind == "P_ll_N":
            # concrete gap: everything at or below N/8
            sym = bump_eta(8.0 * k / N) if N >= 8 else np.zeros_like(k)
        elif kind == "P_geq_N":
            sym = np.ones_like(k) if N <= 1 else 1.0 - bump_eta(2.0 * k / N)
        elif kind == "tilde_P_N":
            sym = np.zeros_like(k)
            K = max(1, N // 4)
            while K <= 4 * N:
                sym = sym + _phi_symbol(K, k)
                K *= 2
        else:
            raise ValueError(f"unknown projector kind {kind!r}")
        proj = DyadicProjector(N=N, kind=kind, grid=self.grid, symbol=sym)
        self._cache[key] = proj
        return proj

    def p_n(self, N: int) -> DyadicProjector:
        return self._build("P_N", N)

    def p_leq(self, N: int) -> DyadicProjector:
        return self._build("P_leq_N", N)

    def p_ll(self, N: int) -> DyadicProjector:
        return self._build("P_ll_N", N)

    def p_geq(self, N: int) -> DyadicProjector:
        return self._build("P_geq_N", N)

    def p_tilde(self, N: int) -> DyadicProjector:
        return self._build("tilde_P_N", N)


def project(field: SpectralState, projector: DyadicProjector) -> SpectralState:
    if not field.grid.compatible_with(projector.grid):
        raise ValueError("projector was built for a different grid")
    return SpectralState(
        field.grid, field.coefficients * projector.symbol, field.is_real_field
    )


def zygmund_norm(field: SpectralState, s: float) -> float:
    """sup over dyadic N of N^s * max |P_N field| in physical space."""
    bank = ProjectorBank(field.grid)
    best = 0.0
    for N in bank.dyadic_ns:
        piece = project(field, bank.p_n(N))
        amp = float(np.abs(piece.physical()).max())
        best = max(best, N**s * amp)
    return best


def _nonnegative_weight(b_field) -> np.ndarray:
    """The weight as floats clipped at zero; rejects negative samples beyond
    round-off."""
    b = np.asarray(b_field, dtype=float)
    scale = max(1.0, float(np.abs(b).max()))
    if b.min() < -1e-10 * scale:
        raise ValueError(f"negative weight samples: min b = {b.min():.3e}")
    return np.clip(b, 0.0, None)


def _b_energy(state: SpectralState, b: np.ndarray, s: float, bank: ProjectorBank) -> float:
    """sum_N (1+N)^{2s} int b |P_N u_x|^2 dx for one state and a weight b >= 0."""
    ux = derivative(state, 1)
    total = 0.0
    for N in bank.dyadic_ns:
        piece = np.abs(project(ux, bank.p_n(N)).physical())
        total += (1.0 + N) ** (2.0 * s) * state.grid.dx * float(np.sum(b * piece * piece))
    return total


def weighted_b_seminorm(trajectory, b_field: np.ndarray, theta: float) -> float:
    """Trajectory seminorm sum_N (1+N)^(2 theta) ||sqrt(b) P_N u_x||^2 over time.

    `trajectory` needs `.times` and `.states`; b_field is sampled on the
    states' grid (1D, or 2D with one row per stored time).  Negative weight
    samples beyond round-off are rejected.
    """
    states = trajectory.states
    times = np.asarray(trajectory.times, dtype=float)
    if len(states) == 0:
        return 0.0
    grid = states[0].grid
    b = _nonnegative_weight(b_field)
    if b.ndim == 1:
        b = np.broadcast_to(b, (len(states), grid.num_points))
    bank = ProjectorBank(grid)
    g = np.array([_b_energy(state, b[i], theta, bank) for i, state in enumerate(states)])
    if len(states) == 1:
        total = g[0] * 0.0
    else:
        total = np.trapezoid(g, times)
    return float(np.sqrt(max(total, 0.0)))


# -- commutators --------------------------------------------------------------


def _pad_coefficients(c: np.ndarray, n: int) -> np.ndarray:
    half = n // 2
    out = np.zeros(2 * n, dtype=complex)
    out[:half] = c[:half]
    out[-half:] = c[half:]
    return out


def _truncated_product(f: SpectralState, g: SpectralState) -> SpectralState:
    """Alias-free pointwise product, truncated to the resolved band."""
    f._check_same_grid(g)
    n = f.grid.num_points
    half = n // 2
    ff = np.fft.ifft(_pad_coefficients(f.coefficients, n) * (2 * n))
    gg = np.fft.ifft(_pad_coefficients(g.coefficients, n) * (2 * n))
    if f.is_real_field:
        ff = ff.real
    if g.is_real_field:
        gg = gg.real
    prod_hat = np.fft.fft(ff * gg) / (2 * n)
    out = np.empty(n, dtype=complex)
    out[:half] = prod_hat[:half]
    out[half:] = prod_hat[-half:]
    return SpectralState(f.grid, out, f.is_real_field and g.is_real_field)


def _commutator_low(f_low: SpectralState, g: SpectralState, pn: DyadicProjector) -> SpectralState:
    """[P_N, f_low] g with f_low already frequency-localized."""
    t1 = project(_truncated_product(f_low, g), pn)
    t2 = _truncated_product(f_low, project(g, pn))
    return t1 - t2


def commutator(
    f: SpectralState, g: SpectralState, N: int, bank: ProjectorBank | None = None
) -> SpectralState:
    """[P_N, P_{<<N} f] g, products dealiased consistently."""
    bank = bank or ProjectorBank(f.grid)
    f_low = project(f, bank.p_ll(N))
    return _commutator_low(f_low, g, bank.p_n(N))


def double_commutator(
    f: SpectralState, g: SpectralState, N: int, bank: ProjectorBank | None = None
) -> SpectralState:
    """[P_N, [P_N, P_{<<N} f]] g."""
    bank = bank or ProjectorBank(f.grid)
    f_low = project(f, bank.p_ll(N))
    pn = bank.p_n(N)
    inner = _commutator_low(f_low, g, pn)
    return project(inner, pn) - _commutator_low(f_low, project(g, pn), pn)


def comcom_residual(
    f: SpectralState, g: SpectralState, N: int, bank: ProjectorBank | None = None
) -> float:
    """Relative defect of the exact quadratic commutator identity.

    int [P_N, P_{<<N}f] g . P_N g  ==  (1/2) int [P_N,[P_N,P_{<<N}f]] gt . gt
    with gt the tilde-band part of g.  The defect is normalized by
    max(|lhs|, |rhs|, eps) where eps is the no-cancellation magnitude of the
    integrals, so exact-zero degenerate cases report round-off, not 0/0
    noise.  The identity is exact on the discrete torus, hence the residual
    is round-off only.
    """
    bank = bank or ProjectorBank(f.grid)
    lhs = inner_product(commutator(f, g, N, bank), project(g, bank.p_n(N)))
    gt = project(g, bank.p_tilde(N))
    rhs = 0.5 * inner_product(double_commutator(f, gt, N, bank), gt)
    f_low_sup = float(np.abs(project(f, bank.p_ll(N)).physical()).max())
    gt_l2 = np.sqrt(
        np.sum(np.abs(gt.coefficients) ** 2) * 2.0 * f.grid.half_width
    )
    eps = f_low_sup * gt_l2**2 + 1e-300
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), eps)


# -- cubic resonance ----------------------------------------------------------

RESONANCE_SIGN_NOTE = (
    "resonance sign convention: direct expansion of the phase-defect sum "
    "sigma(-sum tau, -sum xi) + sum_i sigma(tau_i, xi_i), sigma(tau, xi) = "
    "tau - xi^3, gives +3(xi1+xi2)(xi2+xi3)(xi1+xi3); the factored form is "
    "sometimes quoted with an overall minus sign, but only the magnitude "
    "enters resonance-size arguments."
)


def resonance_omega3(xi1: float, xi2: float, xi3: float) -> float:
    """Phase defect of three interacting cubic-dispersion waves.

    Computed from the dispersion symbol sigma(tau, xi) = tau - xi^3 as
    sigma(-sum tau, -sum xi) + sum_i sigma(tau_i, xi_i); the tau's cancel,
    leaving (xi1+xi2+xi3)^3 - xi1^3 - xi2^3 - xi3^3, which factors as
    3 (xi1+xi2)(xi2+xi3)(xi1+xi3).
    """
    s = xi1 + xi2 + xi3
    return s**3 - xi1**3 - xi2**3 - xi3**3
