"""Direct survival solver on the combinatorial graph.

The survival function with local-time killing at the active vertices is
edge-affine, equals 1 at the exits, and at every other vertex satisfies

    sum over half-edges e out of v of p_v(e) * (F(t(e)) - F(v)) / l_e = kappa_v F(v)

with kappa_v zero at inert vertices.  That is one linear system in the
vertex values: the flux matrix that harmonic assembles for the sites'
network solve, with the killing term on the diagonal.  It is solved here
with no reference to that network or to the Green matrix, so the two
routes can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .graph import EdgeWeights, MetricGraph, PointOnGraph, locate, require_valid
from .harmonic import flux_coefficients, flux_system, vertex_mask
from .kac import KappaSpec


@dataclass(frozen=True, eq=False)
class SurvivalField:
    """Survival probabilities at the vertices, extended affinely on edges."""

    graph: MetricGraph
    values: dict[str, float]

    def __getitem__(self, vertex_id: str) -> float:
        return self.values[vertex_id]


def solve_survival(g: MetricGraph, w: EdgeWeights, ks: KappaSpec) -> SurvivalField:
    """Solve the survival boundary problem on the vertex set.

    Exits carry value 1; active vertices with infinite strength carry
    value 0 (instant absorption); every other vertex gets its flux
    equation with the killing term on the diagonal.
    """
    require_valid(g)
    active = g.active_vertices
    kappa = np.zeros(len(g.vertex_ids))
    kappa[[g.vertex_index[c] for c in active]] = ks.values(active)
    exits = vertex_mask(g, g.exit_vertices)
    a = flux_system(g, flux_coefficients(g, w), exits | np.isinf(kappa), kappa)
    sol = algebra.solve_many(a, exits.astype(float))
    return SurvivalField(g, dict(zip(g.vertex_ids, sol.tolist())))


def evaluate_at(field: SurvivalField, x: PointOnGraph | str) -> float:
    """Evaluate the field at a point, interpolating along edges."""
    x = locate(field.graph, x)
    if x.is_vertex:
        return field.values[x.vertex]
    e = field.graph.edges[x.edge]
    u, v = e.endpoints
    t = x.offset / e.length
    return (1.0 - t) * field.values[u] + t * field.values[v]
