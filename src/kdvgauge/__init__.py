"""Pseudospectral toolkit for third-order dispersive equations with
variable coefficients: gauge straightening, dyadic frequency analysis, and
verification experiments."""

from .coefficients import (
    CoefficientSet,
    HypothesisReport,
    anchored_cumulative,
    check_hypotheses,
    split_beta,
)
from .dyadic import (
    ProjectorBank,
    bump_eta,
    commutator,
    comcom_residual,
    double_commutator,
    project,
    resonance_omega3,
    weighted_b_seminorm,
    zygmund_norm,
)
from .expressions import CoefficientExpr, ExpressionError, parse_coefficient
from .gauge import (
    GaugeMap,
    GaugeSystem,
    TransformedCoefficients,
    build_gauge_map,
    compute_A,
    forward_transform,
    gauge_weight,
    image_grid_for,
    inverse_transform,
    invert_A,
    transform_coefficients,
)
from .solver import (
    SolverConfig,
    SpaceTimeBump,
    Trajectory,
    energy_monitor,
    solve,
    step_original,
    step_transformed,
    weak_residual,
)
from .spectral import (
    Grid,
    GridSizeError,
    SpectralState,
    dealias,
    derivative,
    interpolate,
    l2_norm,
    make_grid,
    sobolev_norm,
)

__version__ = "0.1.0"
