"""Direct survival solver on the combinatorial graph.

The survival function with local-time killing at the active vertices is
edge-affine, equals 1 at the exits, and at every other vertex satisfies

    sum over half-edges e out of v of p_v(e) * (F(t(e)) - F(v)) / l_e = kappa_v F(v)

with kappa_v zero at inert vertices.  That is one linear system in the
vertex values: the flux matrix that harmonic assembles for the sites'
network solve, with the killing term on the diagonal.

The walk reflects at an inert end, so a dead-end branch, with no site
and no exit, adds no local time at a site and changes no exit: F is
constant on it.  So the system is solved on the graph's kernel
(MetricGraph.kernel) alone, and each vertex of a branch takes the value
of the vertex the branch hangs on.  A kernel vertex's row keeps only its
half-edges to kernel vertices: a term into a dead end has F(t) = F(v)
and drops out.  This route shares the flux coefficients and the graph's
dead-end map with kac, which do no arithmetic on the system; its
elimination uses neither the sites' network nor the Green matrix, so
the two routes can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import algebra
from .errors import SingularSystemError
from .graph import EdgeWeights, MetricGraph, PointOnGraph, locate, require_valid
from .harmonic import flux_coefficients, flux_system
from .kac import KappaSpec, strengths

#: how far outside [0, 1] a survival may round.  A well-posed solve
#: misses by a few ulps (2.2e-16 each); 1e-12 is far above that and far
#: below the 1e-9 to which the routes are held, so a value outside is a
#: wrong answer, not rounding
SURVIVAL_SLACK = 1e-12


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
    equation with the killing term on the diagonal.  This is the
    one-point case of survival_curve.
    """
    require_valid(g)
    sites = g.kernel.sites
    kappa = np.zeros(len(sites))
    kappa[sites] = ks.values(g.active_vertices)
    return SurvivalField(g, dict(zip(g.vertex_ids, _vertex_values(g, w, kappa).tolist())))


def survival_curve(
    g: MetricGraph, w: EdgeWeights, specs: Sequence[KappaSpec]
) -> list[SurvivalField]:
    """The survival field at each strength in specs.

    The systems of a block of points (algebra.blocks) are one stack;
    each field is the one that solve_survival gives alone.
    """
    require_valid(g)
    sites = g.kernel.sites
    kappa = np.zeros((len(specs), len(sites)))
    kappa[:, sites] = strengths(specs, g.active_vertices)
    fields = []
    for block in algebra.blocks(*kappa.shape):
        values = _vertex_values(g, w, kappa[block]).tolist()
        fields += [SurvivalField(g, dict(zip(g.vertex_ids, row))) for row in values]
    return fields


def _vertex_values(g: MetricGraph, w: EdgeWeights, kappa: np.ndarray) -> np.ndarray:
    """The vertex values at strengths kappa over the living vertices of
    g.kernel, (n,) or (K, n) for a stack of K points.  Only those are
    unknowns: a vertex of a dead-end branch takes the value of the vertex
    the branch hangs on.  The flux coefficients are shared; kappa moves
    only the diagonals of the active vertices and fixes those of infinite
    strength, so a stack is one flux_system call and one
    algebra.solve_many call, dense or factored point by point with
    SuperLU by order.

    A survival is a probability.  A value outside [-1e-12, 1 + 1e-12]
    (SURVIVAL_SLACK, which says why 1e-12) is an error that the residual
    check let through, so it raises SingularSystemError."""
    kern = g.kernel
    a = flux_system(kern, flux_coefficients(g, w)[kern.half], kern.exits | np.isinf(kappa), kappa)
    x = algebra.solve_many(a, np.zeros(kappa.shape) + kern.exits)
    low, high = x.min(), x.max()
    if not -SURVIVAL_SLACK <= low <= high <= 1.0 + SURVIVAL_SLACK:  # NaN fails too
        raise SingularSystemError(
            f"survival {high if low >= 0.0 else low:.3e} outside [0, 1]: the vertex system "
            "is too ill-conditioned")
    return x.T[kern.key].T  # the vertices' axis is last; x[..., key] costs twice as much


def evaluate_at(field: SurvivalField, x: PointOnGraph | str) -> float:
    """Evaluate the field at a point, interpolating along edges."""
    x = locate(field.graph, x)
    if x.is_vertex:
        return field.values[x.vertex]
    e = field.graph.edges[x.edge]
    u, v = e.endpoints
    t = x.offset / e.length
    return (1.0 - t) * field.values[u] + t * field.values[v]
