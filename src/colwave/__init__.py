"""colwave: nets of smooth solutions to small-nonlinearity wave equations.

Builds per-epsilon solutions of u_tt - Lap(u) = eps**b f(u) in space
dimensions 1-3 by Picard iteration on the classical solution operator,
and measures convergence in the ultra-metric calculus of seminorm decay
exponents along a geometric epsilon ladder.
"""

from .errors import (
    ColwaveError,
    DivergenceError,
    InsufficientDataError,
    LifespanExceededError,
    UnsupportedOrderError,
    ValidationError,
)
from .nets import (
    EpsilonLadder,
    InitialDatum,
    NonlinearitySpec,
    Problem,
    make_ladder,
)
from .seminorms import (
    Field,
    Net,
    NetClass,
    SpaceTimeGrid,
    ValuationEstimate,
    classify,
    seminorm,
    ultra_metric,
    valuation,
)
from .linwave import (
    QuadratureSpec,
    check_support,
    linear_value,
    solve_linear,
)
from .semilinear import SolveReport, picard_solve, residual_sup, solve_net
from .verify import check_wave_oracle, oracle_lifespan

__version__ = "0.1.0"

__all__ = [
    "ColwaveError",
    "DivergenceError",
    "InsufficientDataError",
    "LifespanExceededError",
    "UnsupportedOrderError",
    "ValidationError",
    "EpsilonLadder",
    "InitialDatum",
    "NonlinearitySpec",
    "Problem",
    "make_ladder",
    "Field",
    "Net",
    "NetClass",
    "SpaceTimeGrid",
    "ValuationEstimate",
    "classify",
    "seminorm",
    "ultra_metric",
    "valuation",
    "QuadratureSpec",
    "check_support",
    "linear_value",
    "solve_linear",
    "SolveReport",
    "picard_solve",
    "residual_sup",
    "solve_net",
    "check_wave_oracle",
    "oracle_lifespan",
    "__version__",
]
