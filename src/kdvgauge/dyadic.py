"""Dyadic frequency projectors, dissipation sum, commutators.

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

from .spectral import Grid, SpectralState, inner_product, l2_norm

__all__ = [
    "bump_eta",
    "bump_eta_prime",
    "DyadicProjector",
    "ProjectorBank",
    "project",
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
    """Fourier multiplier with symbol sampled on a grid's half-band
    wavenumbers (every symbol is even in k)."""

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
        elif kind == "tilde_P_N":
            sym = np.zeros_like(k)
            K = max(1, N // 4)
            while K <= 4 * N:
                sym = sym + _phi_symbol(K, k)
                K *= 2
        else:
            raise ValueError(f"unknown projector kind {kind!r}")
        proj = DyadicProjector(grid=self.grid, symbol=sym)
        self._cache[key] = proj
        return proj

    def p_n(self, N: int) -> DyadicProjector:
        return self._build("P_N", N)

    def p_leq(self, N: int) -> DyadicProjector:
        return self._build("P_leq_N", N)

    def p_ll(self, N: int) -> DyadicProjector:
        return self._build("P_ll_N", N)

    def p_tilde(self, N: int) -> DyadicProjector:
        return self._build("tilde_P_N", N)


def project(field: SpectralState, projector: DyadicProjector) -> SpectralState:
    if field.grid != projector.grid:
        raise ValueError("projector was built for a different grid")
    return SpectralState(field.grid, field.coefficients * projector.symbol)


def _b_energy(
    coefficients: np.ndarray, b: np.ndarray, s: float, bank: ProjectorBank
) -> np.ndarray:
    """sum_N (1+N)^{2s} int b |P_N u_x|^2 dx for a weight b >= 0, per half
    spectrum along the last axis of `coefficients` on the bank's grid.

    `b` broadcasts against the fields, one row per spectrum or one for all.
    Only elementwise operations, transforms and sums along the last axis
    act, so each row's value is the one-row value bit for bit.
    """
    grid = bank.grid
    ux = coefficients * (1j * grid.wavenumbers)
    ux[..., grid.nyquist_index] = 0.0  # as `spectral.derivative`
    total = np.zeros(ux.shape[:-1])
    # one set of work arrays serves every band: a 16-row block at n = 1024
    # otherwise leaves the heap about 1 MB larger after the ledger
    spectra = np.empty_like(ux)
    piece = np.empty(ux.shape[:-1] + (grid.num_points,))
    weighted = np.empty_like(piece)
    for N in bank.dyadic_ns:
        np.multiply(ux, bank.p_n(N).symbol, out=spectra)
        np.fft.irfft(spectra, grid.num_points, norm="forward", out=piece)
        np.abs(piece, out=piece)
        np.multiply(b, piece, out=weighted)
        weighted *= piece
        # a numpy power: a weight past the float range is inf, not an OverflowError
        with np.errstate(over="ignore", invalid="ignore"):
            total += np.float64(1.0 + N) ** (2.0 * s) * grid.dx * np.sum(weighted, axis=-1)
    return total


# -- commutators --------------------------------------------------------------


def _truncated_product(f: SpectralState, g: SpectralState) -> SpectralState:
    """Alias-free pointwise product, truncated to the resolved band.

    Both half spectra are padded to the 2n-point grid, where the n-point
    Nyquist mode K is interior and carries half its coefficient at each of
    +-K; the product's entry at K keeps its real part, the cos(K x) content
    that the n-point grid resolves.
    """
    f._check_same_grid(g)
    n = f.grid.num_points
    size = n // 2 + 1

    def padded(c: np.ndarray) -> np.ndarray:
        out = np.zeros(n + 1, dtype=complex)
        out[:size] = c
        out[size - 1] *= 0.5
        return np.fft.irfft(out, 2 * n, norm="forward")

    prod = np.fft.rfft(padded(f.coefficients) * padded(g.coefficients), norm="forward")[:size]
    prod[-1] = prod[-1].real
    return SpectralState(f.grid, prod)


def _commutator_low(f_low: SpectralState, g: SpectralState, pn: DyadicProjector) -> SpectralState:
    """[P_N, f_low] g with f_low already frequency-localized."""
    t1 = project(_truncated_product(f_low, g), pn)
    t2 = _truncated_product(f_low, project(g, pn))
    return t1 - t2


def commutator(f: SpectralState, g: SpectralState, N: int, bank: ProjectorBank) -> SpectralState:
    """[P_N, P_{<<N} f] g, products dealiased consistently."""
    f_low = project(f, bank.p_ll(N))
    return _commutator_low(f_low, g, bank.p_n(N))


def double_commutator(
    f: SpectralState, g: SpectralState, N: int, bank: ProjectorBank
) -> SpectralState:
    """[P_N, [P_N, P_{<<N} f]] g."""
    f_low = project(f, bank.p_ll(N))
    pn = bank.p_n(N)
    inner = _commutator_low(f_low, g, pn)
    return project(inner, pn) - _commutator_low(f_low, project(g, pn), pn)


def comcom_residual(f: SpectralState, g: SpectralState, N: int, bank: ProjectorBank) -> float:
    """Relative defect of the exact quadratic commutator identity.

    int [P_N, P_{<<N}f] g . P_N g  ==  (1/2) int [P_N,[P_N,P_{<<N}f]] gt . gt
    with gt the tilde-band part of g.  The defect is normalized by
    max(|lhs|, |rhs|, eps) where eps is the no-cancellation magnitude of the
    integrals, so exact-zero degenerate cases report round-off, not 0/0
    noise.  The identity is exact on the discrete torus, hence the residual
    is round-off only.
    """
    lhs = inner_product(commutator(f, g, N, bank), project(g, bank.p_n(N)))
    gt = project(g, bank.p_tilde(N))
    rhs = 0.5 * inner_product(double_commutator(f, gt, N, bank), gt)
    f_low_sup = float(np.abs(project(f, bank.p_ll(N)).physical()).max())
    eps = f_low_sup * l2_norm(gt) ** 2 + 1e-300
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
