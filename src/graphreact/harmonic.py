"""Hitting splits and the active-site Green matrix.

Both quantities come from harmonic problems on the graph: a function
with zero flux at a vertex and fixed boundary values is affine along
every edge, so it is determined by its vertex values alone.  The flux
functional at a vertex v is

    rho_v(F) = sum over half-edges e out of v of p_v(e) * (F(t(e)) - F(v)) / l_e,

and one assembly of these functionals serves every vertex system in the
package: the Green solve here and the survival solve in feynman_kac.
flux_coefficients gives every p_v(e)/l_e as one array, in the order of
the graph's cached half-edge table, and flux_system turns it into a
Triplets list of entries, which algebra factors with SuperLU above the
size at which that beats dense LU (algebra.SPARSE_MIN_ORDER).
mc.build_grid reads p_v(e)/l_e on its own: built from the table, its
set-up on the small graphs it is used on measured slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping

import numpy as np

from .errors import PreconditionError
from .graph import EdgeWeights, MetricGraph, PointOnGraph, require_valid, resolve_vertex
from . import algebra


@dataclass(frozen=True, eq=False)
class HittingSplit:
    """Probability of reaching an active vertex before any exit.

    ``alpha_inf`` is that probability from the start point; ``p[j]`` is
    the probability the first active vertex hit is ``active[j]``,
    conditional on hitting one at all.  When ``alpha_inf`` is zero the
    split is all zeros by convention.
    """

    alpha_inf: float
    p: np.ndarray
    active: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class GreenMatrix:
    """Expected local times between active vertices, in length units.

    ``entries[i, j]`` is the expected occupation at ``active[j]`` before
    exit, starting from ``active[i]``.
    """

    active: tuple[str, ...]
    entries: np.ndarray


def vertex_flux(
    g: MetricGraph, w: EdgeWeights, potential: Mapping[str, float], vertex_id: str
) -> float:
    """The flux functional rho_v applied to an edge-affine potential."""
    if vertex_id not in g.out_edges:
        raise PreconditionError(f"unknown vertex {vertex_id!r}")
    total = 0.0
    fv = potential[vertex_id]
    for he in g.out_edges[vertex_id]:
        e = g.edges[he.edge]
        total += w.at(vertex_id, he.edge) * (potential[he.target] - fv) / e.length
    return total


def flux_coefficients(g: MetricGraph, w: EdgeWeights) -> np.ndarray:
    """p_v(e)/l_e for every half-edge, in the order of g.half_edge_table."""
    t = g.half_edge_table
    return w.along(t.keys) / t.length


def flux_system(
    g: MetricGraph, coeff: np.ndarray, fixed: np.ndarray, kill: np.ndarray | float = 0.0
) -> algebra.Triplets:
    """Matrix whose row v is rho_v - kill[v] as a linear form in the vertex
    values, with an identity row at each vertex where the boolean mask
    ``fixed`` is set, so that the right-hand side sets its value.
    ``coeff`` is flux_coefficients(g, w)."""
    t = g.half_edge_table
    n = len(fixed)
    c = np.where(fixed[t.source], 0.0, coeff)
    diag = np.where(fixed, 1.0, -np.bincount(t.source, c, n) - kill)
    return algebra.Triplets(t.rows, t.cols, np.concatenate((c, diag)), n)


def vertex_mask(g: MetricGraph, vertices: Collection[str]) -> np.ndarray:
    """Boolean vector over the vertex rows, set at ``vertices``."""
    mask = np.zeros(len(g.vertex_ids), dtype=bool)
    mask[[g.vertex_index[v] for v in vertices]] = True
    return mask


def _green(g: MetricGraph, w: EdgeWeights) -> tuple[GreenMatrix, np.ndarray]:
    """The Green matrix, plus the expected local times at the active
    vertices (columns) from every vertex (rows, in vertex order).

    For each active vertex c, solve the edge-affine problem vanishing on
    all exits with zero flux everywhere except rho_c = -1; by optional
    stopping its value at a vertex is the expected local time at c.
    """
    active = g.active_vertices
    rows = [g.vertex_index[c] for c in active]
    b = np.zeros((len(g.vertex_ids), len(active)))
    b[rows, np.arange(len(active))] = -1.0
    a = flux_system(g, flux_coefficients(g, w), vertex_mask(g, g.exit_vertices))
    f = algebra.solve_many(a, b)
    return GreenMatrix(active, f[rows, :]), f


def green_and_split(
    g: MetricGraph, w: EdgeWeights, x: PointOnGraph | str
) -> tuple[GreenMatrix, HittingSplit]:
    """The Green matrix and the first-hit split from x, from one solve.

    A walk from x collects local time on the active set only after its
    first hit there, so G[x, A] = H_x . G[A, A], where H_x[c] is the
    probability that c is the first active vertex hit before any exit.
    A small solve against G[A, A] gives H_x; its sum is ``alpha_inf``.
    """
    require_valid(g)
    start = resolve_vertex(g, x)
    active = g.active_vertices
    if not active:
        return GreenMatrix((), np.zeros((0, 0))), HittingSplit(0.0, np.zeros(0), ())
    gm, f = _green(g, w)
    zero = HittingSplit(0.0, np.zeros(len(active)), active)
    if start in active:
        return gm, HittingSplit(1.0, np.eye(len(active))[active.index(start)], active)
    if start in g.exit_vertices:
        return gm, zero
    h = algebra.solve_many(gm.entries.T, f[g.vertex_index[start], :])
    alpha_inf = float(h.sum())
    if alpha_inf <= 0.0:
        return gm, zero
    return gm, HittingSplit(alpha_inf, h / alpha_inf, active)


def hitting_split(
    g: MetricGraph, w: EdgeWeights, x: PointOnGraph | str
) -> HittingSplit:
    """First-hit distribution over active vertices, from start point x."""
    return green_and_split(g, w, x)[1]


def green_matrix(g: MetricGraph, w: EdgeWeights) -> GreenMatrix:
    """Local-time matrix over the active vertices."""
    require_valid(g)
    if not g.active_vertices:
        raise PreconditionError("graph has no active vertices")
    return _green(g, w)[0]


def mean_local_time(g: MetricGraph, w: EdgeWeights, c: str) -> float:
    """Expected local time at the unique active vertex, started there."""
    active = g.active_vertices
    if len(active) != 1:
        raise PreconditionError(
            f"mean_local_time needs exactly one active vertex, got {len(active)}"
        )
    if active[0] != c:
        raise PreconditionError(f"vertex {c!r} is not the active vertex {active[0]!r}")
    return float(green_matrix(g, w).entries[0, 0])
