"""Reference implementations that tests compare the package against.

No route of the package uses these: each computes a quantity the
package also computes, by a second, independent method.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from graphreact import algebra
from graphreact.algebra import Polynomial
from graphreact.errors import PreconditionError
from graphreact.graph import Edge, EdgeWeights, MetricGraph, PointOnGraph, Vertex, locate
from graphreact.harmonic import GreenMatrix
from graphreact.kac import KappaSpec


def row_subtracted(a: np.ndarray, j: int) -> np.ndarray:
    """Subtract row j from every row (row j of the result is zero)."""
    a = np.asarray(a, dtype=float)
    if not (0 <= j < a.shape[0]):
        raise PreconditionError(f"row index {j} out of range for {a.shape[0]} rows")
    return a - a[j][None, :]


def det_poly(g: np.ndarray) -> Polynomial:
    """Coefficients of det(I + t*G) as a polynomial in t.

    The coefficient of t^m is the sum of the m-by-m principal minors of
    G.  Coefficients are recovered by evaluating the determinant at the
    integer nodes t = 0..n and solving the (mild, small-n) Vandermonde
    system; the node t = 0 pins the constant term to exactly 1.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise PreconditionError(f"matrix must be square, got shape {g.shape}")
    n = g.shape[0]
    eye = np.eye(n)
    values = np.array([algebra.det(eye + t * g) - 1.0 for t in range(1, n + 1)])
    vand = np.array([[float(t**m) for m in range(1, n + 1)] for t in range(1, n + 1)])
    higher = algebra.solve_many(vand, values)
    return Polynomial((1.0, *higher))


def survival_det(gm: GreenMatrix, ks: KappaSpec, j: int) -> float:
    """Survival at site j as the determinant ratio
    det(I + G^(j) M_kappa) / det(I + G M_kappa)."""
    if not (0 <= j < len(gm.active)):
        raise PreconditionError(f"site index {j} out of range")
    values = ks.values(gm.active)
    if not np.all(np.isfinite(values)):
        raise PreconditionError("kappa must be finite for the determinant ratio")
    n = len(gm.active)
    eye = np.eye(n)
    num = algebra.det(eye + row_subtracted(gm.entries, j) * values[None, :])
    den = algebra.det(eye + gm.entries * values[None, :])
    return num / den


def vertex_flux(
    g: MetricGraph, w: EdgeWeights, potential: Mapping[str, float], vertex_id: str
) -> float:
    """The flux functional rho_v applied to an edge-affine potential."""
    if vertex_id not in g.vertex_ids:
        raise PreconditionError(f"unknown vertex {vertex_id!r}")
    total = 0.0
    fv = potential[vertex_id]
    for k, e in enumerate(g.edges):
        u, v = e.endpoints
        if vertex_id in (u, v):
            target = v if u == vertex_id else u
            total += w.at(vertex_id, k) * (potential[target] - fv) / e.length
    return total


def censored_rates(g: MetricGraph, w: EdgeWeights, states: Sequence[int]) -> np.ndarray:
    """Out-rates of the vertex chain watched on ``states`` (vertex rows),
    from the dense Schur complement R_SS + R_SI (diag(out_I) - R_II)^-1 R_IS.

    R_uv sums w_u(e)/l_e over the edges e between u and v, with no rates
    out of an exit; I holds the other vertices and out_I their whole row
    sums of R.  Row i, column j of the result is the rate from
    states[i] to states[j]; its diagonal, the returns, is 0.
    """
    n = len(g.vertex_ids)
    r = np.zeros((n, n))
    exits = set(g.exit_vertices)
    for k, e in enumerate(g.edges):
        for u, v in (e.endpoints, e.endpoints[::-1]):
            if u not in exits:
                r[g.vertex_index[u], g.vertex_index[v]] += w.at(u, k) / e.length
    s = np.asarray(states)
    i = np.setdiff1d(np.arange(n), s)
    reduced = np.diag(r[i].sum(axis=1)) - r[np.ix_(i, i)]
    out = r[np.ix_(s, s)] + r[np.ix_(s, i)] @ np.linalg.solve(reduced, r[np.ix_(i, s)])
    np.fill_diagonal(out, 0.0)
    return out


def dead_end_parents(g: MetricGraph) -> dict[str, str]:
    """The vertex that each vertex of a dead-end branch hangs from: the
    branches that strip away, leaf by leaf, when no start is kept.  A
    vertex counts each of its edges, so a branch joined by parallel edges
    stays."""
    ends = {v: [] for v in g.vertex_ids}
    for e in g.edges:
        u, v = e.endpoints
        ends[u].append(v)
        ends[v].append(u)
    fixed = set(g.active_vertices) | set(g.exit_vertices)
    parent = {}
    leaves = [v for v, n in ends.items() if len(n) == 1 and v not in fixed]
    while leaves:
        x = leaves.pop()
        (v,) = (u for u in ends[x] if u not in parent)
        parent[x] = v
        if sum(u not in parent for u in ends[v]) == 1 and v not in fixed:
            leaves.append(v)
    return parent


def exact_survival(g: MetricGraph, w: EdgeWeights, ks: KappaSpec) -> dict[str, Fraction]:
    """The survival at every vertex, exactly: Gauss-Jordan elimination on
    Fractions of feynman_kac's vertex system.

    Every float length, weight and kappa is an exact rational, so the
    result is the exact solution of the system that the floats define;
    only converting it to a float rounds.  The row of a vertex v is
    sum over half-edges e out of v of p_v(e)/l_e (F(t(e)) - F(v)) =
    kappa_v F(v); an exit is fixed at 1 and a site of infinite kappa at 0.
    """
    index = g.vertex_index
    n = len(index)
    kappa = dict(zip(g.active_vertices, ks.values(g.active_vertices).tolist()))
    rows = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for v, row in zip(g.vertex_ids, rows):
        i = index[v]
        if v in g.exit_vertices or kappa.get(v) == float("inf"):
            row[i], row[n] = Fraction(1), Fraction(v in g.exit_vertices)
            continue
        row[i] = -Fraction(kappa.get(v, 0.0))
        for k, e in enumerate(g.edges):
            for end, other in (e.endpoints, e.endpoints[::-1]):
                if end == v:
                    c = Fraction(w.at(v, k)) / Fraction(e.length)
                    row[index[other]] += c
                    row[i] -= c
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        top[:] = [x / top[col] for x in top]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], top)]
    return {v: rows[index[v]][n] for v in g.vertex_ids}


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def scalar_walks(
    grid, ks: KappaSpec, x: PointOnGraph | str, seed: int, n: int, cap: int
) -> tuple[list[float], list[int], list[bool]]:
    """Each of n trajectories of ``mc.estimate_survival``'s censored walk,
    one at a time in Python floats and integers.

    Trajectory i reads draw k of its SplitMix64 stream,
    mix64(key_i + (k+1)*GAMMA), for move k.  Its next state is the count
    of the entries of its row of ``walk.cum`` at or below the uniform,
    found by a scan of every column, and each arrival multiplies in the
    state's sojourn factor 1/(1 + kappa*M), or s/(s + M) with s = 1/kappa
    where kappa*M overflows.  A walk stops at an exit, at a factor of 0,
    or after ``cap`` moves.  Returns each product, its move count and
    whether it reached the cap.
    """
    g = grid.graph
    start = locate(g, x)
    walk = grid.walk(start)
    width = walk.cum.shape[1]
    factor = [1.0] * len(walk.states)
    sites = g.active_vertices
    for vid, kappa in zip(sites, ks.values(sites).tolist() if sites else ()):
        i = int(walk.state[g.vertex_index[vid]])
        m = float(walk.sojourn_mean[i])
        factor[i] = (1.0 / (1.0 + kappa * m) if kappa * m < float("inf")
                     else (1.0 / kappa) / (1.0 / kappa + m))
    absorbing = g.exit_mask[walk.states].tolist()
    stop = [a or f == 0.0 for a, f in zip(absorbing, factor)]
    cum, nbr = walk.cum.tolist(), walk.nbr.tolist()
    index = g.vertex_index
    products, moves, capped = [], [], []
    for i in range(n):
        key = _mix64((seed & _MASK64) ^ _mix64((i + 1) * _GAMMA & _MASK64))

        def uniform(k):
            return (_mix64((key + (k + 1) * _GAMMA) & _MASK64) >> 11) * 2.0**-53

        t = 0
        if start.is_vertex:
            state = int(walk.state[index[start.vertex]])
        else:
            e = g.edges[start.edge]
            first, second = (int(walk.state[index[v]]) for v in e.endpoints)
            state = second if uniform(0) * e.length < start.offset else first
            t = 1
        weight = factor[state]
        while not stop[state] and t < cap:
            u = uniform(t)
            column = sum(u >= c for c in cum[state][:-1])
            state = nbr[state * width + column]
            t += 1
            weight *= factor[state]
        products.append(weight)
        moves.append(t)
        capped.append(not stop[state])
    return products, moves, capped


def _fresh_vertex_id(g: MetricGraph, base: str = "x") -> str:
    taken = g.vertex_index
    if base not in taken:
        return base
    n = 2
    while f"{base}{n}" in taken:
        n += 1
    return f"{base}{n}"


def split_at(g: MetricGraph, x: PointOnGraph | str) -> tuple[MetricGraph, str]:
    """Insert a degree-2 inert vertex at an edge-interior point.

    Every route takes the point as it is; this cut is the reference they
    are checked against.  The edge is replaced in place by its first half
    (same index) and the second half is appended, so other edge indices
    are stable.  Both halves inherit the parent's radius.  A point that
    ``locate`` makes a vertex, an edge end included, is a no-op.
    """
    x = locate(g, x)
    if x.is_vertex:
        return g, x.vertex
    new_id = _fresh_vertex_id(g)
    e = g.edges[x.edge]
    u, w = e.endpoints
    edges = list(g.edges)
    edges[x.edge] = Edge((u, new_id), x.offset, e.radius)
    edges.append(Edge((new_id, w), e.length - x.offset, e.radius))
    vertices = g.vertices + (Vertex(new_id, "inert"),)
    return MetricGraph(vertices, tuple(edges), g.dimension), new_id


def cut_at(
    g: MetricGraph, w: EdgeWeights, x: PointOnGraph
) -> tuple[MetricGraph, EdgeWeights, str]:
    """g cut at the point x inside an edge, with a new vertex there.

    split_at makes the graph.  The new vertex gets weight 1/2 on each
    half, and the far end's weight on the cut edge moves to the appended
    second half; every other weight is w's.  Returns the cut graph, its
    weights and the new vertex: a start at that vertex is a start at x.
    """
    g2, mid = split_at(g, x)
    k, appended = x.edge, len(g2.edges) - 1
    far = g.edges[k].endpoints[1]
    table = dict(w.p)
    table[(far, appended)] = table.pop((far, k))
    table[(mid, k)] = table[(mid, appended)] = 0.5
    return g2, EdgeWeights(table), mid
