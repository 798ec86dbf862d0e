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

The kappa-free work of a problem is solved once and memoized in the
graph's ``solved`` dict: flux_coefficients under (id(w), "flux") and
green_and_split under (id(w), "green", start), start being the vertex
id at a vertex or an edge end and (edge, offset) inside an edge, where
the Green solve's vertex rows are interpolated.  An entry holds w weakly
and is a hit only while that reference still points at w, so a reused
id gives no false hit, and each miss drops the entries of weights that
are gone.  The arrays returned and w.p are read-only; a failed solve is
not stored.  feynman_kac shares only the flux coefficients, never the
Green solve, so it stays a route independent of kac.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Collection

import numpy as np

from .errors import PreconditionError
from .graph import EdgeWeights, MetricGraph, PointOnGraph, locate, require_valid
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


def _memo(g: MetricGraph, w: EdgeWeights, key: tuple, solve):
    """solve(), once per graph, living weights object and key."""
    memo = g.solved
    entry = memo.get((id(w), *key))
    if entry is None or entry[0]() is not w:
        for k in [k for k, (ref, _) in memo.items() if ref() is None]:
            del memo[k]
        entry = memo[(id(w), *key)] = (weakref.ref(w), solve())
    return entry[1]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def flux_coefficients(g: MetricGraph, w: EdgeWeights) -> np.ndarray:
    """p_v(e)/l_e for every half-edge, in the order of g.half_edge_table."""
    t = g.half_edge_table
    return _memo(g, w, ("flux",), lambda: _frozen(w.along(t.keys) / t.length))


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
    return GreenMatrix(active, _frozen(f[rows, :])), f


def green_and_split(
    g: MetricGraph, w: EdgeWeights, x: PointOnGraph | str
) -> tuple[GreenMatrix, HittingSplit]:
    """The Green matrix and the first-hit split from x, from one solve.

    A walk from x collects local time on the active set only after its
    first hit there, so G[x, A] = H_x . G[A, A], where H_x[c] is the
    probability that c is the first active vertex hit before any exit.
    x is any point: every Green function is affine along an edge, so at
    offset a of an edge (u, v) of length l, G[x, A] is
    (1 - t) G[u, A] + t G[v, A] with t = a/l, from the same Green solve.
    A small solve against G[A, A] gives H_x, clipped at 0 against
    roundoff; its sum is ``alpha_inf``.  Memoized: see the module
    docstring.
    """
    require_valid(g)
    x = locate(g, x)
    start = x.vertex if x.is_vertex else (x.edge, x.offset)
    return _memo(g, w, ("green", start), lambda: _green_and_split(g, w, x))


def _green_and_split(
    g: MetricGraph, w: EdgeWeights, x: PointOnGraph
) -> tuple[GreenMatrix, HittingSplit]:
    active = g.active_vertices
    if not active:
        return GreenMatrix((), np.zeros((0, 0))), HittingSplit(0.0, np.zeros(0), ())
    gm, f = _green(g, w)
    h = np.zeros(len(active))
    if x.vertex in active:
        h[active.index(x.vertex)] = 1.0
    elif x.vertex not in g.exit_vertices:  # a point inside an edge has vertex None
        if x.is_vertex:
            row = f[g.vertex_index[x.vertex], :]
        else:
            e, t = g.edges[x.edge], x.offset / g.edges[x.edge].length
            u, v = f[[g.vertex_index[end] for end in e.endpoints], :]
            row = (1.0 - t) * u + t * v
        h = np.maximum(algebra.solve_many(gm.entries.T, row), 0.0)
    alpha_inf = float(h.sum())
    return gm, HittingSplit(alpha_inf, _frozen(h / alpha_inf if alpha_inf > 0.0 else h), active)


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
