"""Survival with spread-out reactive zones, and their collapse to points.

Here the reaction is not concentrated at vertices: each active vertex v
is surrounded by a star-shaped zone reaching a distance h*delta down
every incident edge, inside which the walker is killed at rate k/h.
The survival function then solves, edge by edge,

    D u'' = (k/h) u   inside zones,      u'' = 0   outside,

with continuity and C1 matching where segments meet, conservative flux
(sum of p_v(e) u' into edges = 0) at non-exit vertices and u = 1 at
exits.  Inside a zone the solution is a cosh/sinh pair in
mu = sqrt(k/(h D)); bases are anchored at each segment's own start so
nothing overflows as mu grows.  As h decreases to 0 the solution
converges (first order in h) to the point-site survival at strength
kappa = k*delta/D, which is what collapse_study tabulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import algebra
from .errors import PreconditionError
from .feynman_kac import evaluate_at, solve_survival
from .graph import EdgeWeights, MetricGraph, PointOnGraph, require_valid
from .kac import KappaSpec


@dataclass(frozen=True)
class ActiveZoneSpec:
    """Reactive-zone parameters.

    rate k (1/time), zone radius scale delta (length), diffusion D
    (length^2/time), and the dimensionless zone scale h.  The zone
    half-width on each incident edge is h*delta and the collapsed
    point-site strength is kappa = k*delta/D.
    """

    rate: float
    delta: float
    diffusion: float
    h: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise PreconditionError(f"rate must be >= 0 and finite, got {self.rate!r}")
        for name in ("delta", "diffusion", "h"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise PreconditionError(f"{name} must be positive and finite, got {v!r}")

    @property
    def kappa(self) -> float:
        return self.rate * self.delta / self.diffusion

    @property
    def mu(self) -> float:
        return math.sqrt(self.rate / (self.h * self.diffusion))

    @property
    def zone_width(self) -> float:
        return self.h * self.delta


@dataclass(frozen=True)
class Segment:
    """One piece of an edge: offset range and local solution u(s) for
    s measured from ``start``.

    Reactive segments use u = value*cosh(mu s) + slope*sinh(mu s)/mu,
    plain ones u = value + slope*s, so (value, slope) are always u and
    u' at the segment start.
    """

    start: float
    length: float
    reactive: bool
    value: float = 0.0
    slope: float = 0.0

    def end_value(self, mu: float) -> float:
        ca, cb = _end_value_coeffs(self, mu)
        return ca * self.value + cb * self.slope

    def end_slope(self, mu: float) -> float:
        ca, cb = _end_slope_coeffs(self, mu)
        return ca * self.value + cb * self.slope

    def value_at(self, s: float, mu: float) -> float:
        if self.reactive:
            return self.value * math.cosh(mu * s) + self.slope * math.sinh(mu * s) / mu
        return self.value + self.slope * s


def _end_value_coeffs(seg: Segment, mu: float) -> tuple[float, float]:
    if seg.reactive:
        return math.cosh(mu * seg.length), math.sinh(mu * seg.length) / mu
    return 1.0, seg.length


def _end_slope_coeffs(seg: Segment, mu: float) -> tuple[float, float]:
    if seg.reactive:
        return mu * math.sinh(mu * seg.length), math.cosh(mu * seg.length)
    return 0.0, 1.0


@dataclass(frozen=True, eq=False)
class PiecewiseSolution:
    """Solved survival with diffuse zones: per-edge segments plus vertex
    values."""

    graph: MetricGraph
    zone: ActiveZoneSpec
    vertex_values: dict[str, float]
    segments: dict[int, tuple[Segment, ...]]

    def evaluate(self, x: PointOnGraph | str) -> float:
        if isinstance(x, str):
            x = PointOnGraph.at_vertex(x)
        if x.is_vertex:
            if x.vertex not in self.vertex_values:
                raise PreconditionError(f"unknown vertex {x.vertex!r}")
            return self.vertex_values[x.vertex]
        segs = self.segments.get(x.edge)
        if segs is None:
            raise PreconditionError(f"edge index {x.edge} out of range")
        length = self.graph.edges[x.edge].length
        if not (0.0 <= x.offset <= length):
            raise PreconditionError(f"offset {x.offset!r} outside [0, {length}]")
        for seg in segs:
            if x.offset <= seg.start + seg.length or seg is segs[-1]:
                return seg.value_at(x.offset - seg.start, self.zone.mu)
        raise AssertionError("unreachable: segments cover the edge")


def _edge_segments(
    g: MetricGraph, zone: ActiveZoneSpec, active: set[str], k: int
) -> list[Segment]:
    e = g.edges[k]
    u, v = e.endpoints
    width = zone.zone_width if zone.rate > 0 else 0.0
    cuts: list[Segment] = []
    left = width if u in active and width > 0 else 0.0
    right = e.length - width if v in active and width > 0 else e.length
    if left > 0:
        cuts.append(Segment(0.0, left, True))
    cuts.append(Segment(left, right - left, False))
    if right < e.length:
        cuts.append(Segment(right, e.length - right, True))
    return cuts


def solve_diffuse(
    g: MetricGraph, w: EdgeWeights, zone: ActiveZoneSpec
) -> PiecewiseSolution:
    """Assemble and solve the piecewise survival problem.

    Zones must not overlap: h*delta has to stay below half of every edge
    incident to an active vertex.
    """
    require_valid(g)
    active = set(g.active_vertices)
    exits = set(g.exit_vertices)
    width = zone.zone_width
    for k, e in enumerate(g.edges):
        if (e.endpoints[0] in active or e.endpoints[1] in active) and zone.rate > 0:
            if width >= e.length / 2:
                raise PreconditionError(
                    f"zone width {width} must be < half of edge {k} "
                    f"(length {e.length})"
                )

    layout = {k: _edge_segments(g, zone, active, k) for k in range(len(g.edges))}
    n_seg = sum(len(s) for s in layout.values())
    idx = {vid: i for i, vid in enumerate(g.vertex_ids)}
    nv = len(idx)
    seg_base: dict[tuple[int, int], int] = {}
    pos = nv
    for k in sorted(layout):
        for s in range(len(layout[k])):
            seg_base[(k, s)] = pos
            pos += 2
    size = nv + 2 * n_seg
    entries: list[tuple[int, int, float]] = []  # (row, column, value); repeats add up
    b = np.zeros(size)
    mu = zone.mu

    rows = iter(range(size))

    def seg_cols(k: int, s: int) -> tuple[int, int]:
        base = seg_base[(k, s)]
        return base, base + 1

    # edge interior: tie segment chains together and to the endpoint values
    for k, segs in layout.items():
        u, v = g.edges[k].endpoints
        r = next(rows)
        av, _bv = seg_cols(k, 0)
        entries += [(r, av, 1.0), (r, idx[u], -1.0)]
        for s in range(len(segs) - 1):
            av, bv = seg_cols(k, s)
            an, bn = seg_cols(k, s + 1)
            cva, cvb = _end_value_coeffs(segs[s], mu)
            csa, csb = _end_slope_coeffs(segs[s], mu)
            r = next(rows)
            entries += [(r, av, cva), (r, bv, cvb), (r, an, -1.0)]
            r = next(rows)
            entries += [(r, av, csa), (r, bv, csb), (r, bn, -1.0)]
        av, bv = seg_cols(k, len(segs) - 1)
        cva, cvb = _end_value_coeffs(segs[-1], mu)
        r = next(rows)
        entries += [(r, av, cva), (r, bv, cvb), (r, idx[v], -1.0)]

    # vertices: Dirichlet at exits, conservative flux elsewhere
    for vid in g.vertex_ids:
        r = next(rows)
        if vid in exits:
            entries.append((r, idx[vid], 1.0))
            b[r] = 1.0
            continue
        for he in g.out_edges[vid]:
            p = w.at(vid, he.edge)
            segs = layout[he.edge]
            if g.edges[he.edge].endpoints[0] == vid:
                _, bv = seg_cols(he.edge, 0)
                entries.append((r, bv, p))
            else:
                av, bv = seg_cols(he.edge, len(segs) - 1)
                csa, csb = _end_slope_coeffs(segs[-1], mu)
                entries += [(r, av, -p * csa), (r, bv, -p * csb)]

    i, j, val = zip(*entries)
    a = algebra.Triplets(np.array(i), np.array(j), np.array(val, dtype=float), size)
    sol = algebra.solve_many(a, b)
    vertex_values = {vid: float(sol[idx[vid]]) for vid in g.vertex_ids}
    segments = {
        k: tuple(
            replace(seg, value=float(sol[seg_cols(k, s)[0]]),
                    slope=float(sol[seg_cols(k, s)[1]]))
            for s, seg in enumerate(segs)
        )
        for k, segs in layout.items()
    }
    return PiecewiseSolution(g, zone, vertex_values, segments)


@dataclass(frozen=True)
class CollapseRow:
    h: float
    psi_h: float
    psi_limit: float
    abs_err: float


def collapse_study(
    g: MetricGraph,
    w: EdgeWeights,
    zone: ActiveZoneSpec,
    h_list: list[float],
    x: PointOnGraph | str,
) -> list[CollapseRow]:
    """Survival at x for each zone scale h against the point-site limit.

    The reference value is the survival-field solution at strength
    kappa = k*delta/D.  h_list must be strictly decreasing and each
    scale must fit the zone constraint.
    """
    if not h_list:
        raise PreconditionError("h_list must be nonempty")
    if any(h2 >= h1 for h1, h2 in zip(h_list, h_list[1:])):
        raise PreconditionError("h_list must be strictly decreasing")
    field = solve_survival(g, w, KappaSpec.constant(zone.kappa))
    psi_limit = evaluate_at(field, x)
    rows = []
    for h in h_list:
        sol = solve_diffuse(g, w, replace(zone, h=h))
        psi_h = sol.evaluate(x)
        rows.append(CollapseRow(h, psi_h, psi_limit, abs(psi_h - psi_limit)))
    return rows


def collapse_csv(rows: list[CollapseRow]) -> str:
    """Render a collapse table as CSV (columns h, psi_h, psi_limit, abs_err)."""
    lines = ["h,psi_h,psi_limit,abs_err"]
    for r in rows:
        lines.append(
            f"{r.h:.12g},{r.psi_h:.12g},{r.psi_limit:.12g},{r.abs_err:.12g}"
        )
    return "\n".join(lines) + "\n"
