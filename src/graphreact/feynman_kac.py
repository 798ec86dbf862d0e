"""Direct survival solver on the combinatorial graph.

The survival function with local-time killing at the active vertices is
edge-affine, equals 1 at the exits, and at every other vertex satisfies

    sum over half-edges e out of v of p_v(e) * (F(t(e)) - F(v)) / l_e = kappa_v F(v)

with kappa_v zero at inert vertices.  That is one linear system in the
vertex values: the flux matrix that harmonic assembles for the Green
solve, with the killing term on the diagonal.  It is solved here with no
reference to the Green matrix itself, so the two routes can be checked
against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .errors import PreconditionError
from .graph import EdgeWeights, MetricGraph, PointOnGraph, require_valid
from .harmonic import flux_coefficients, flux_system, vertex_mask
from .kac import KappaSpec


@dataclass(frozen=True, eq=False)
class SurvivalField:
    """Survival probabilities at the vertices, extended affinely on edges."""

    graph: MetricGraph
    values: dict[str, float]

    def __getitem__(self, vertex_id: str) -> float:
        return self.values[vertex_id]

    def at(self, x: PointOnGraph | str) -> float:
        return evaluate_at(self, x)


def solve_survival(g: MetricGraph, w: EdgeWeights, ks: KappaSpec) -> SurvivalField:
    """Solve the survival boundary problem on the vertex set.

    Exits carry value 1; active vertices with infinite strength carry
    value 0 (instant absorption); every other vertex gets its flux
    equation with the killing term on the diagonal.
    """
    require_valid(g)
    return survival_field(g, flux_coefficients(g, w), ks)


def survival_field(g: MetricGraph, coeff: np.ndarray, ks: KappaSpec) -> SurvivalField:
    """solve_survival on a valid graph from its flux coefficients, which a
    kappa sweep computes once."""
    active = g.active_vertices
    kappa = np.zeros(len(g.vertex_ids))
    kappa[[g.vertex_index[c] for c in active]] = ks.values(active)
    exits = vertex_mask(g, g.exit_vertices)
    sol = algebra.solve_many(flux_system(g, coeff, exits | np.isinf(kappa), kappa),
                             exits.astype(float))
    return SurvivalField(g, dict(zip(g.vertex_ids, sol.tolist())))


def evaluate_at(field: SurvivalField, x: PointOnGraph | str) -> float:
    """Evaluate the field at a point, interpolating along edges."""
    if isinstance(x, str):
        x = PointOnGraph.at_vertex(x)
    if x.is_vertex:
        if x.vertex not in field.values:
            raise PreconditionError(f"unknown vertex {x.vertex!r}")
        return field.values[x.vertex]
    g = field.graph
    if not (0 <= x.edge < len(g.edges)):
        raise PreconditionError(f"edge index {x.edge} out of range")
    e = g.edges[x.edge]
    if not (0.0 <= x.offset <= e.length):
        raise PreconditionError(f"offset {x.offset!r} outside [0, {e.length}]")
    u, v = e.endpoints
    t = x.offset / e.length
    return (1.0 - t) * field.values[u] + t * field.values[v]
