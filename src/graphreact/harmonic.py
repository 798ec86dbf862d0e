"""Hitting splits and the active-site Green matrix.

Both quantities come from harmonic problems on the graph: a function
with zero flux at a vertex and fixed boundary values is affine along
every edge, so it is determined by its vertex values alone.  The flux
functional at a vertex v is

    rho_v(F) = sum over half-edges e out of v of p_v(e) * (F(t(e)) - F(v)) / l_e,

and one assembly of these functionals serves every vertex system in the
package: the Green solve here and the survival solve in feynman_kac.
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


def _flux_laplacian(
    g: MetricGraph, w: EdgeWeights, fixed: Collection[str]
) -> tuple[np.ndarray, dict[str, int]]:
    """Matrix whose row v is rho_v as a linear form in the vertex values,
    with an identity row at each vertex of ``fixed`` so that the
    right-hand side sets its value; also returns the vertex-to-row index."""
    idx = {vid: i for i, vid in enumerate(g.vertex_ids)}
    a = np.zeros((len(idx), len(idx)))
    for vid, i in idx.items():
        if vid in fixed:
            a[i, i] = 1.0
            continue
        for he in g.out_edges[vid]:
            coeff = w.at(vid, he.edge) / g.edges[he.edge].length
            a[i, idx[he.target]] += coeff
            a[i, i] -= coeff
    return a, idx


def _green(g: MetricGraph, w: EdgeWeights) -> tuple[GreenMatrix, np.ndarray, dict[str, int]]:
    """The Green matrix, plus the expected local times at the active
    vertices (columns) from every vertex (rows) and the row index.

    For each active vertex c, solve the edge-affine problem vanishing on
    all exits with zero flux everywhere except rho_c = -1; by optional
    stopping its value at a vertex is the expected local time at c.
    """
    active = g.active_vertices
    a, idx = _flux_laplacian(g, w, set(g.exit_vertices))
    b = np.zeros((len(idx), len(active)))
    for j, c in enumerate(active):
        b[idx[c], j] = -1.0
    f = algebra.solve_many(a, b)
    return GreenMatrix(active, f[[idx[c] for c in active], :]), f, idx


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
    gm, f, idx = _green(g, w)
    zero = HittingSplit(0.0, np.zeros(len(active)), active)
    if start in active:
        return gm, HittingSplit(1.0, np.eye(len(active))[active.index(start)], active)
    if start in g.exit_vertices:
        return gm, zero
    h = algebra.solve_many(gm.entries.T, f[idx[start], :])
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
