"""Hitting splits, the sites' reduced network and the Green matrix.

All three come from harmonic problems: a function with zero flux at a
vertex and fixed boundary values is affine along every edge, so its
vertex values determine it.  The flux functional at a vertex v is

    rho_v(F) = sum over half-edges e out of v of p_v(e) * (F(t(e)) - F(v)) / l_e.

flux_coefficients gives every p_v(e)/l_e, in the order of the graph's
cached half-edge table, and flux_system turns them into the Triplets of
a vertex system, which algebra factors densely or with SuperLU by size:
over every vertex from the half-edge table, as diffuse's zone solve is,
or over the graph's kernel, as feynman_kac's survival solve is.

The harmonic measures H: H[v, j] is the probability that the walk from
v reaches active[j] first among the m active sites and the exits, and a
start's split is its row of H.  The sites and exits keep their identity
rows.  The walk reflects at an inert end, so a branch with no site and
no exit changes no hitting probability: it leaves the branch where it
came in.  The graph strips such branches once, without arithmetic or
weights (MetricGraph.dead_ends), and each of their vertices takes the
row of the living vertex it hangs on.  The kernel left
(MetricGraph.kernel), the living vertices and the half-edges between
them, is what both kac and feynman_kac solve on.  One solve, over the k
inert vertices of the kernel, gives their rows: its matrix is the flux
system's block of their rows and columns, without the half-edges into
dead ends, and their coefficients to the sites and exits make the right
side.  On a chain nothing is left to solve, and no elimination meets an
edge into a dead end, however short.  Watched on the sites, the walk is
a network, the Kron reduction of the flux system, with rates

    R[i, j] = sum over half-edges e out of active[i] of p(e)/l_e * H[t(e), j],

column m the exits and the diagonal dropped: a half-edge into a dead end
comes back, which is no move, so the sum runs over the kernel's
half-edges, each giving its coefficient to a site or exit plus C_SI H_I
through the inner vertices.  Its Laplacian L = diag(R 1) - R[:, :m] is
G[A, A]^-1; every rate is a sum of nonnegative terms, as in GTH state
reduction, so L needs no subtraction.

site_network is memoized per (g, w) by ``g.memo`` under "sites", and
flux_coefficients under "flux".  The start is not in the key: a new
start costs no solve.  Only the solved rows of H are kept while w lives,
(m + 1 + k)-by-(m + 1) floats, with each vertex's place among them; a
vertex outside them reads the row of its root.  The arrays returned and
w.p are read-only.  feynman_kac shares only the flux coefficients and
the kernel, which do no arithmetic on a system, so its elimination stays
independent of kac's; every route shares the coefficients as its one
check of the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, SingularSystemError
from .graph import (
    EdgeWeights,
    HalfEdgeTable,
    Kernel,
    MetricGraph,
    PointOnGraph,
    frozen,
    locate,
    require_valid,
)
from . import algebra


@dataclass(frozen=True, eq=False)
class HittingSplit:
    """Probability of reaching an active vertex before any exit.

    ``alpha_inf`` is that probability from the start point, never above
    1; ``p[j]`` is the probability the first active vertex hit is
    ``active[j]``, conditional on hitting one at all.  When ``alpha_inf``
    is zero the split is all zeros by convention.
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


@dataclass(frozen=True, eq=False)
class SiteNetwork:
    """The walk watched on the active sites: L, its exit rates R[:, m] = L 1,
    the rows [I; H_I] of H over the sites, the exits and the inner vertices,
    with the exits' column last, the row ``key[v]`` of each vertex v in them,
    and the split of every start asked."""

    active: tuple[str, ...]
    laplacian: np.ndarray
    exit_rates: np.ndarray
    rows: np.ndarray
    key: np.ndarray
    splits: dict = field(default_factory=dict)

    def split(self, g: MetricGraph, x: PointOnGraph | str) -> HittingSplit:
        """The first-hit split from x; at t = a/l along an edge (u, v), from
        the row (1 - t) H[u] + t H[v]."""
        x = locate(g, x)
        if x not in self.splits:
            if x.is_vertex:
                h = self.rows[self.key[g.vertex_index[x.vertex]], :-1]
            else:
                e, t = g.edges[x.edge], x.offset / g.edges[x.edge].length
                u, v = self.rows[self.key[[g.vertex_index[end] for end in e.endpoints]], :-1]
                h = (1.0 - t) * u + t * v
            total = float(h.sum())
            p = h / total if total > 0.0 else np.zeros(len(h))
            # roundoff can lift the sum of a row of H an ulp above 1
            self.splits[x] = HittingSplit(min(total, 1.0), frozen(p), self.active)
        return self.splits[x]


def flux_coefficients(g: MetricGraph, w: EdgeWeights) -> np.ndarray:
    """p_v(e)/l_e for every half-edge, in the order of g.half_edge_table.

    Every rate out of a vertex other than an exit must be a positive float,
    so no set of vertices of a valid graph holds the walk; an exit's weights
    never enter.  A ratio that overflows or underflows to 0 raises
    SingularSystemError; a weight that is not finite or is negative, a
    vertex with no positive weight, and then a weight of 0, PreconditionError.
    """
    return g.memo(w, ("flux",), lambda: frozen(_flux(g, w)))


def _flux(g: MetricGraph, w: EdgeWeights) -> np.ndarray:
    t = g.half_edge_table
    p = w.along(t.keys)
    with np.errstate(over="ignore", under="ignore"):
        c = p / t.length
    if np.count_nonzero((0.0 < c) & (c < math.inf)) < len(c):  # NaN fails too
        inner = ~g.exit_mask[t.source]
        idle = np.bincount(t.source, p, len(g.vertex_ids)) <= 0.0
        for bad, error, message in (
            (np.isinf(c) & np.isfinite(p), SingularSystemError,
             "p/l overflows a float at {} (length {!r})"),
            (inner & ~((0.0 <= c) & (c < math.inf)), PreconditionError,
             "edge weights must be finite and nonnegative"),
            (inner & idle[t.source], PreconditionError,
             "every vertex but an exit needs a positive edge weight"),
            (inner & (p == 0.0), PreconditionError, "weight at {} is 0"),
            (inner & (c == 0.0), SingularSystemError, "p/l underflows to 0 at {} (length {!r})"),
        ):
            if np.count_nonzero(bad):
                vertex, edge = t.keys[bad.argmax()]
                raise error(message.format(f"vertex {vertex!r} on edge {edge}",
                                           g.edges[edge].length))
    return c


def flux_system(
    t: HalfEdgeTable | Kernel,
    coeff: np.ndarray,
    fixed: np.ndarray,
    kill: np.ndarray | float = 0.0,
) -> algebra.Triplets:
    """Matrix whose row v is rho_v - kill[v] as a linear form in the vertex
    values, with an identity row at each vertex where the boolean mask
    ``fixed`` is set, so that the right-hand side sets its value.  ``t``
    holds the half-edges: a graph's half_edge_table, with ``coeff``
    flux_coefficients(g, w), or its kernel, with those coefficients read
    through ``kernel.half``; the vertices are then the kernel's.  A (K, n)
    mask, with kill of shape (K, n), gives the stack of K such matrices:
    they share the flux coefficients and differ on the diagonal and in the
    fixed rows."""
    n = fixed.shape[-1]
    # a fixed row's flux never enters: its coefficients are 0 and its diagonal 1
    c = np.where(fixed.take(t.source, axis=-1), 0.0, coeff)
    diag = np.where(fixed, 1.0, -np.bincount(t.source, coeff, n) - kill)
    return algebra.Triplets(t.rows, t.cols, np.concatenate((c, diag), axis=-1), n)


def site_network(g: MetricGraph, w: EdgeWeights) -> SiteNetwork:
    """The sites' reduced network; memoized (see the module docstring)."""
    require_valid(g)
    return g.memo(w, ("sites",), lambda: _site_network(g, w))


def _site_network(g: MetricGraph, w: EdgeWeights) -> SiteNetwork:
    active, kern = g.active_vertices, g.kernel
    m = len(active)
    sites, exits = kern.sites, kern.exits
    inner = ~(sites | exits)
    k = int(np.count_nonzero(inner))
    # each living vertex's row of H stacked as [I; H over the inner vertices]:
    # its site number, m at an exit, m + 1 + its place among the inner vertices
    row = np.empty(len(inner), dtype=np.intp)
    row[sites], row[exits], row[inner] = np.arange(m), m, np.arange(m + 1, m + 1 + k)
    coeff = flux_coefficients(g, w)[kern.half]
    src, dst = row[kern.source], row[kern.target]
    # F[i, j]: the coefficients from row i to the site j or, at j = m, to the
    # exits.  Its first m rows are the sites' direct rates, its last k the
    # inner vertices' right side.  The kernel has no half-edge into a dead
    # end: that one comes back, which is no move.  An exit's own half-edge
    # lands in the exits' row, which is never read: its weight never enters.
    to_fixed = dst <= m
    f = np.bincount(src[to_fixed] * (m + 1) + dst[to_fixed], coeff[to_fixed],
                    (m + 1 + k) * (m + 1)).reshape(-1, m + 1)
    r, h = f[:m], np.eye(m + 1)
    if k:
        # the inner vertices' block: the half-edges between them, then each
        # row's diagonal, minus its coefficients in the kernel
        out = src > m
        inside, every = out & (dst > m), np.arange(k)
        diag = -np.bincount(src[out], coeff[out], m + 1 + k)[m + 1:]
        a = algebra.Triplets(np.concatenate((src[inside] - (m + 1), every)),
                             np.concatenate((dst[inside] - (m + 1), every)),
                             np.concatenate((coeff[inside], diag)), k)
        hi = algebra.solve_many(a, -f[m + 1:])
        np.maximum(hi, 0.0, out=hi)  # LU roundoff can leave -1e-16 where a probability is 0
        h = np.concatenate((h, hi))
        # R = F[:m] + C_SI H_I, C_SI the coefficients from the sites to the inner vertices
        via = ((src < m) & (dst > m)).nonzero()[0]
        np.add.at(r, src[via], coeff[via, None] * h[dst[via]])
    r.flat[:: m + 2] = 0.0  # a return to the site left is no move
    lap = -r[:, :m]
    lap.flat[:: m + 1] = r.sum(axis=1)
    # a copy: a view of R's column would keep F, (m + 1 + k)-by-(m + 1), alive
    return SiteNetwork(active, frozen(lap), frozen(r[:, m].copy()), frozen(h),
                       frozen(row[kern.key]))


def hitting_split(g: MetricGraph, w: EdgeWeights, x: PointOnGraph | str) -> HittingSplit:
    """First-hit distribution over active vertices, from start point x."""
    return site_network(g, w).split(g, x)


def green_matrix(g: MetricGraph, w: EdgeWeights) -> GreenMatrix:
    """Local-time matrix over the active vertices, L^-1."""
    net = site_network(g, w)
    if not net.active:
        raise PreconditionError("graph has no active vertices")
    inverse = algebra.solve_many(net.laplacian, np.eye(len(net.active)))
    return GreenMatrix(net.active, frozen(inverse))
