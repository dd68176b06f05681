"""Pseudospectral toolkit for third-order dispersive equations with
variable coefficients: gauge straightening, dyadic frequency analysis, and
verification experiments."""

from .coefficients import (
    CoefficientSet,
    HypothesisReport,
    check_hypotheses,
    softplus_split,
)
from .dyadic import (
    ProjectorBank,
    bump_eta,
    commutator,
    comcom_residual,
    double_commutator,
    project,
    resonance_omega3,
)
from .expressions import CoefficientExpr, ExpressionError, parse_coefficient
from .gauge import (
    GaugeMap,
    GaugeSystem,
    TransformedCoefficients,
    build_gauge_map,
    forward_transform,
    gauge_weight,
    image_grid_for,
    inverse_transform,
    invert_A,
)
from .solver import (
    SolverConfig,
    SpaceTimeBump,
    Trajectory,
    solve,
    weak_residual,
)
from .spectral import (
    Grid,
    GridSizeError,
    SpectralState,
    derivative,
    interpolate,
    l2_norm,
    make_grid,
    sobolev_norm,
)

__version__ = "0.1.0"
