"""Reaction probabilities for point-like sites on metric graphs.

Four independent routes to the same quantity: Green-matrix algebra
(kac), a direct survival solve on the vertex set (feynman_kac), a
piecewise ODE solve with spread-out reactive zones (diffuse), and a
Monte Carlo oracle on the vertex-visit chain (mc).
"""

from .algebra import Polynomial, RationalForm, det
from .diffuse import (
    ActiveZoneSpec,
    CollapseRow,
    PiecewiseSolution,
    collapse_study,
    solve_diffuse,
)
from .document import (
    ParsedDocument,
    emit_document,
    load_document,
    parse_document,
    prepare,
)
from .errors import (
    DocumentError,
    GraphReactError,
    PreconditionError,
    SingularSystemError,
)
from .feynman_kac import SurvivalField, evaluate_at, solve_survival
from .fixtures import Fixture, fixture_suite
from .graph import (
    Edge,
    EdgeWeights,
    MetricGraph,
    PointOnGraph,
    Vertex,
    derive_weights,
    require_valid,
    uniform_weights,
    validate,
    weights_violations,
)
from .harmonic import GreenMatrix, HittingSplit, green_matrix, hitting_split
from .kac import (
    ConversionResult,
    KappaSpec,
    chain_alpha_recursive,
    conversion,
    placement_leading_coeff,
    rational_form,
)
from .mc import (
    GridChain,
    SimConfig,
    SimEstimate,
    build_grid,
    estimate_survival,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveZoneSpec",
    "CollapseRow",
    "ConversionResult",
    "DocumentError",
    "Edge",
    "EdgeWeights",
    "Fixture",
    "GraphReactError",
    "GreenMatrix",
    "GridChain",
    "HittingSplit",
    "KappaSpec",
    "MetricGraph",
    "ParsedDocument",
    "PiecewiseSolution",
    "PointOnGraph",
    "Polynomial",
    "PreconditionError",
    "RationalForm",
    "SimConfig",
    "SimEstimate",
    "SingularSystemError",
    "SurvivalField",
    "Vertex",
    "build_grid",
    "chain_alpha_recursive",
    "collapse_study",
    "conversion",
    "derive_weights",
    "det",
    "emit_document",
    "estimate_survival",
    "evaluate_at",
    "fixture_suite",
    "green_matrix",
    "hitting_split",
    "load_document",
    "parse_document",
    "placement_leading_coeff",
    "prepare",
    "rational_form",
    "require_valid",
    "simulate",
    "solve_diffuse",
    "solve_survival",
    "uniform_weights",
    "validate",
    "weights_violations",
]
