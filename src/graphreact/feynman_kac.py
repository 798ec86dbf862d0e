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
(MetricGraph.kernel) alone, in its rows: the sites, where kappa enters,
one row for the exits, fixed at 1, and the inner vertices.  A vertex of
a branch takes the value of the vertex the branch hangs on, and a term
into a dead end has F(t) = F(v) and drops out.  A SurvivalField keeps
the solved rows, and a point reads them through graph.locate_rows, as
kac reads its first-hit split from the rows of H.  The conversion 1 - F
solves the same matrix, so fk's alpha (conversion_at) keeps its digits
at tiny kappa, as kac's does.  This route shares the flux coefficients
and the kernel with kac, which do no arithmetic on the system; its
elimination uses neither the sites' network nor the Green matrix, so
the two routes can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import algebra
from .errors import SingularSystemError
from .graph import EdgeWeights, MetricGraph, PointOnGraph, frozen, locate_rows, require_valid
from .harmonic import flux_coefficients, flux_system
from .kac import KappaSpec, strengths

#: how far outside [0, 1] a survival may round.  A well-posed solve
#: misses by a few ulps (2.2e-16 each); 1e-12 is far above that and far
#: below the 1e-9 to which the routes are held, so a value outside is a
#: wrong answer, not rounding
SURVIVAL_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class SurvivalField:
    """Survival probabilities at the vertices, extended affinely on edges:
    ``survival`` psi as solved and ``converted``, 1 - psi, over the rows of
    graph.kernel, read-only.  ``field[v]`` is psi at the vertex v, the
    row key[vertex_index[v]]; evaluate_at and conversion_at read a point
    through graph.locate_rows.
    """

    graph: MetricGraph
    survival: np.ndarray
    converted: np.ndarray

    def __getitem__(self, vertex_id: str) -> float:
        g = self.graph
        return float(self.survival[g.kernel.key[g.vertex_index[vertex_id]]])


def solve_survival(g: MetricGraph, w: EdgeWeights, ks: KappaSpec) -> SurvivalField:
    """Solve the survival boundary problem on the vertex set.

    Exits carry value 1; active vertices with infinite strength carry
    value 0 (instant absorption); every other vertex gets its flux
    equation with the killing term on the diagonal.  This is the
    one-point case of survival_curve.
    """
    require_valid(g)
    kappa = np.zeros(g.kernel.order)
    kappa[: g.kernel.m] = ks.values(g.active_vertices)
    return SurvivalField(g, *_vertex_values(g, w, kappa))


def survival_curve(
    g: MetricGraph, w: EdgeWeights, specs: Sequence[KappaSpec]
) -> list[SurvivalField]:
    """The survival field at each strength in specs.

    The systems of a block of points (algebra.blocks) are one stack;
    each field is the one that solve_survival gives alone.
    """
    require_valid(g)
    kappa = np.zeros((len(specs), g.kernel.order))
    kappa[:, : g.kernel.m] = strengths(specs, g.active_vertices)
    fields = []
    for block in algebra.blocks(*kappa.shape):
        fields += [SurvivalField(g, psi, converted)
                   for psi, converted in zip(*_vertex_values(g, w, kappa[block]))]
    return fields


def _vertex_values(
    g: MetricGraph, w: EdgeWeights, kappa: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The survivals and the conversions over the kernel's rows, read-only,
    at strengths kappa over those rows, (n,) or (K, n) for K points.
    Each system solves psi, with 1 at the exits' row on the right, and
    phi = 1 - psi, with -kappa_v at a site and 1 where kappa_v is infinite;
    a conversion is phi where phi < psi, else 1 - psi, as kac forms it.  A
    psi or phi outside [-1e-12, 1 + 1e-12] (SURVIVAL_SLACK) raises."""
    kern = g.kernel
    fixed = np.isinf(kappa)
    rhs = np.zeros((*kappa.shape, 2))
    rhs[..., 1], rhs[..., kern.m, 0] = np.where(fixed, 1.0, -kappa), 1.0
    fixed[..., kern.m] = True  # the exits' row
    a = flux_system(kern, flux_coefficients(g, w)[kern.half], fixed, kappa)
    x = frozen(algebra.solve_many(a, rhs))
    low, high = x.min(), x.max()
    if not -SURVIVAL_SLACK <= low <= high <= 1.0 + SURVIVAL_SLACK:  # NaN fails too
        raise SingularSystemError(
            f"survival {high if low >= 0.0 else low:.3e} outside [0, 1]: the vertex system "
            "is too ill-conditioned")
    psi, phi = x[..., 0], x[..., 1]
    return psi, frozen(np.where(phi < psi, phi, 1.0 - psi))


def evaluate_at(field: SurvivalField, x: PointOnGraph | str) -> float:
    """Evaluate the field at a point, interpolating along edges."""
    return _interpolate(field.graph, field.survival, x)


def conversion_at(field: SurvivalField, x: PointOnGraph | str) -> float:
    """1 - psi at a point, interpolating along edges."""
    return _interpolate(field.graph, field.converted, x)


def _interpolate(g: MetricGraph, r: np.ndarray, x: PointOnGraph | str) -> float:
    u, v, t = locate_rows(g, x)
    return float(r[u] + t * (r[v] - r[u]))
