"""Uniform periodic grid and FFT-based spectral operations.

Fields are real and live on the torus [-half_width, half_width) with
power-of-two sampling n.  Spectral coefficients are stored normalized so that

    u(x) = sum_k c(k) exp(i k x),   c(-k) = conj(c(k)),

and only the Hermitian half spectrum is kept: the n/2 + 1 coefficients of
k = 0, dk, ..., (n/2) dk (rfft order, dk = pi / half_width, the last entry
the Nyquist mode, k = 0 and Nyquist real).  Each interior mode stands for
itself and its conjugate, so sums over the full spectrum weight each stored
mode by `Grid.multiplicity` (1 at k = 0 and at Nyquist, 2 in between).  With
this normalization the quadrature L2 norm equals
(sum_k m(k) |c(k)|^2 * 2 * half_width)^(1/2) exactly (Parseval).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "GridSizeError",
    "SpectralState",
    "make_grid",
    "derivative",
    "sobolev_norm",
    "l2_norm",
    "mass",
    "interpolate",
    "Interpolant",
    "inner_product",
    "edge_mass_fraction",
    "EDGE_MASS_LIMIT",
]


class GridSizeError(ValueError):
    """Raised for grid sizing that the spectral machinery cannot support."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-half_width, half_width).

    Derived arrays (nodes, the half band's wavenumbers, their multiplicity,
    the dealias and edge masks) are computed once and shared read-only; the
    instance is safe to use across threads.  Grids compare and hash by their
    sizing alone.
    """

    half_width: float
    num_points: int
    dx: float = field(init=False, compare=False)
    x: np.ndarray = field(init=False, repr=False, compare=False)
    wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)
    multiplicity: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)
    edge_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.half_width > 0:
            raise GridSizeError(f"half_width must be positive, got {self.half_width}")
        if not _is_power_of_two(self.num_points) or self.num_points < 16:
            raise GridSizeError(
                f"num_points must be a power of two >= 16, got {self.num_points}"
            )
        dx = 2.0 * self.half_width / self.num_points
        object.__setattr__(self, "dx", dx)
        x = -self.half_width + dx * np.arange(self.num_points)
        object.__setattr__(self, "x", x)
        # the outer 10% of the domain, where the edge mass is measured
        object.__setattr__(self, "edge_mask", np.abs(x) >= 0.9 * self.half_width)
        k = 2.0 * np.pi * np.fft.rfftfreq(self.num_points, d=dx)
        object.__setattr__(self, "wavenumbers", k)
        # every interior mode stands for itself and its conjugate
        multiplicity = np.full(k.size, 2.0)
        multiplicity[[0, -1]] = 1.0
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "dealias_mask", k <= (2.0 / 3.0) * k[-1])

    @property
    def k_max(self) -> float:
        """Largest resolved wavenumber magnitude (Nyquist)."""
        return np.pi * self.num_points / (2.0 * self.half_width)

    @property
    def nyquist_index(self) -> int:
        return self.num_points // 2

    def fold(self, points: np.ndarray) -> np.ndarray:
        """Map arbitrary coordinates into [-half_width, half_width)."""
        L = self.half_width
        return np.mod(np.asarray(points, dtype=float) + L, 2.0 * L) - L


def make_grid(half_width: float, num_points: int) -> Grid:
    """Build a periodic grid; rejects non-power-of-two or non-positive sizing."""
    return Grid(float(half_width), int(num_points))


@dataclass
class SpectralState:
    """A real scalar field stored by its normalized half spectrum.

    The constructor refuses coefficients that are not the grid's half
    spectrum, and a nonzero imaginary part at k = 0 or at Nyquist, where a
    real field's coefficients are real.
    """

    grid: Grid
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        c = self.coefficients
        size = self.grid.nyquist_index + 1
        if np.shape(c) != (size,):
            raise ValueError(
                f"coefficients of shape {np.shape(c)} are not the half spectrum "
                f"({size},) of a {self.grid.num_points}-point grid"
            )
        # not `!= 0`: a NaN end passes, so a field that is not finite reaches
        # the check that names it (the wavepacket's edge-mass refusal)
        if np.abs(c[0].imag) > 0 or np.abs(c[-1].imag) > 0:
            raise ValueError(
                "the k = 0 and Nyquist coefficients of a real field are real; got "
                f"imaginary parts {c[0].imag:g} and {c[-1].imag:g}"
            )

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "SpectralState":
        values = np.asarray(values)
        if values.shape != (grid.num_points,):
            raise ValueError(
                f"field shape {values.shape} does not match grid ({grid.num_points},)"
            )
        if np.iscomplexobj(values):
            raise ValueError("fields are real; got complex values")
        return cls(grid=grid, coefficients=np.fft.rfft(values, norm="forward"))

    @classmethod
    def zero(cls, grid: Grid) -> "SpectralState":
        return cls(grid, np.zeros(grid.nyquist_index + 1, dtype=complex))

    def physical(self) -> np.ndarray:
        return np.fft.irfft(self.coefficients, self.grid.num_points, norm="forward")

    def __add__(self, other: "SpectralState") -> "SpectralState":
        self._check_same_grid(other)
        return SpectralState(self.grid, self.coefficients + other.coefficients)

    def __sub__(self, other: "SpectralState") -> "SpectralState":
        self._check_same_grid(other)
        return SpectralState(self.grid, self.coefficients - other.coefficients)

    def __rmul__(self, scalar: float) -> "SpectralState":
        return SpectralState(self.grid, scalar * self.coefficients)

    def _check_same_grid(self, other: "SpectralState") -> None:
        if self.grid != other.grid:
            raise ValueError("states live on incompatible grids")


def derivative(state: SpectralState, order: int = 1) -> SpectralState:
    """Spectral derivative: multiply coefficients by (i k)^order.

    The unpaired Nyquist mode is zeroed so that odd-order derivatives stay
    real-valued.
    """
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    k = state.grid.wavenumbers
    coeffs = state.coefficients * (1j * k) ** order
    coeffs[state.grid.nyquist_index] = 0.0
    return SpectralState(state.grid, coeffs)


def sobolev_norm(state: SpectralState, s: float) -> float:
    """Discrete H^s norm: (sum_k (1+k^2)^s |c(k)|^2 * 2 half_width)^(1/2),
    summed over the full spectrum through the half band's multiplicity."""
    return float(_sobolev_norms(state.grid, state.coefficients, s))


def _sobolev_norms(grid: Grid, coefficients: np.ndarray, s: float) -> np.ndarray:
    """`sobolev_norm` of each half spectrum along the last axis of
    `coefficients`; each row's sum is the one-row sum bit for bit.  The norm
    of a blown-up state is inf or nan without a numpy warning: the solve that
    made it reports the blow-up."""
    k = grid.wavenumbers
    weights = grid.multiplicity * (1.0 + k * k) ** s
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(weights * np.abs(coefficients) ** 2, axis=-1)
        return np.sqrt(total * 2.0 * grid.half_width)


def l2_norm(state: SpectralState) -> float:
    return sobolev_norm(state, 0.0)


def mass(state: SpectralState) -> float:
    """Integral of the field over the torus (zero-mode times domain length)."""
    return float((state.coefficients[0] * 2.0 * state.grid.half_width).real)


def inner_product(a: SpectralState, b: SpectralState) -> float:
    """L2 inner product of two real fields via Parseval."""
    a._check_same_grid(b)
    val = np.sum(a.grid.multiplicity * (a.coefficients * np.conj(b.coefficients)).real)
    return float(val * 2.0 * a.grid.half_width)


class Interpolant:
    """Trigonometric interpolation of fields on one grid at fixed points.

    Query points are folded periodically.  Exact to round-off for
    band-limited fields; reproduces stored samples at grid nodes.  The phase
    tables are built once and applied to every state passed in, so fields
    transported through one map share them.

    On the half spectrum the field is u(y) = Re sum_k m(k) c(k) exp(i k o),
    o = y + half_width, with m = `Grid.multiplicity`; the Nyquist term is
    c_N cos(K o).  The n/2 modes below Nyquist are factorized: mode
    p = a*B + b has wavenumber p dk, so exp(i p dk o) = exp(i a B dk o)
    * exp(i b dk o) with B a power of two near sqrt(n/2).  With Lo the m x B
    table of the second factor, Hi the m x n/(2B) table of the first and C
    the weighted coefficients m(k) c(k) as an n/(2B) x B array,
    u = Re rowsum(Hi * (Lo @ C.T)) + c_N cos(K o).  That is m (B + n/(2B))
    complex exponentials instead of m n/2, the m n/2 multiply-adds in one
    matrix product, and O(m sqrt(n)) working memory.  Every term is still
    summed exactly once, and both factors take their wavenumbers from
    `grid.wavenumbers`, so the result is the dense sum to round-off.
    """

    def __init__(self, grid: Grid, query_points: np.ndarray):
        self.grid = grid
        y = grid.fold(np.atleast_1d(np.asarray(query_points, dtype=float)))
        half = grid.nyquist_index
        self.block = block = 1 << (half.bit_length() // 2)
        k = grid.wavenumbers
        # stored coefficients are indexed from the first node, so evaluation
        # phases are taken relative to x = -half_width
        offset = y + grid.half_width
        self.lo = np.exp(1j * np.outer(offset, k[:block]))
        self.hi = np.exp(1j * np.outer(offset, k[:half:block]))
        self.nyquist = np.cos(offset * k[-1])

    def __call__(self, state: SpectralState) -> np.ndarray:
        """The field's values at the query points."""
        if state.grid != self.grid:
            raise ValueError("field does not live on the interpolant's grid")
        half = self.grid.nyquist_index
        c = state.coefficients
        table = (self.grid.multiplicity[:half] * c[:half]).reshape(half // self.block, self.block)
        out = np.einsum("ij,ij->i", self.hi, self.lo @ table.T).real
        return out + c[-1].real * self.nyquist


def interpolate(state: SpectralState, query_points: np.ndarray) -> np.ndarray:
    """The field at arbitrary points, through a one-off `Interpolant`; a
    scalar query gives a scalar."""
    scalar = np.isscalar(query_points) or np.ndim(query_points) == 0
    out = Interpolant(state.grid, query_points)(state)
    return out[0] if scalar else out


# above this edge mass the domain is too small: the solver warns, the
# transports refuse, and the wavepacket config is refused
EDGE_MASS_LIMIT = 1e-6


def edge_mass_fraction(state: SpectralState) -> float:
    """Fraction of the squared field sitting in the outer 10% of the domain.

    Used to monitor that localized solutions stay away from the periodic
    wrap; values above EDGE_MASS_LIMIT mean the domain is too small.
    """
    return _edge_mass(state.grid, state.physical())


def _edge_mass(grid: Grid, values: np.ndarray) -> float:
    """`edge_mass_fraction` of a field from its physical values on `grid`."""
    u = np.abs(values) ** 2
    total = u.sum()
    if total == 0.0:
        return 0.0
    return float(u[grid.edge_mask].sum() / total)
