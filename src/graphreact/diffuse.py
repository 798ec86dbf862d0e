"""Survival with spread-out reactive zones, and their collapse to points.

Here the reaction is not concentrated at vertices: each active vertex v
is surrounded by a star-shaped zone reaching a distance a = h*delta down
every incident edge, inside which the walker is killed at rate k/h.
The survival function then solves, edge by edge,

    D u'' = (k/h) u   inside zones,      u'' = 0   outside,

with continuity and C1 matching where segments meet, conservative flux
(sum of p_v(e) u' into edges = 0) at non-exit vertices and u = 1 at
exits.

Each edge reduces exactly to a two-port on its end values: the slope
into it at one end is c * (far value) - (c + kill) * (near value).  A
zone segment has the Dirichlet-to-Neumann map
mu [[coth, -csch], [-csch, coth]](mu a), mu = sqrt(k/(h D)), and a plain
segment of length l has c = 1/l and no kill (Berkolaiko & Kuchment,
Introduction to Quantum Graphs, ch. 3).  Eliminating the junctions
chains an edge's segments in series.  Couplings and kills are written
through e^{-mu a} as sums of nonnegative terms (the stabilized form of
Ascher, Mattheij & Russell, Numerical Solution of BVPs for ODEs, sect.
4), so nothing overflows or cancels as mu grows, and they are formed
from x = mu a = delta sqrt(k h / D) and a, never from mu, which can
overflow where x is small.  The flux conditions then form the vertex
system of the point-site survival solve, with p*c off the diagonal and
the kills on it, over every vertex.  The point-site solve leaves out the
dead-end branches, which meet no site; this one keeps them, since a zone
lies on every edge at a site, an edge into a dead end included, so such
a branch is not free of killing.  If the kill overflows, every zone
absorbs at once and its vertex is fixed at 0.  As h decreases to 0 the
solution converges (first order in h) to the point-site survival at
strength kappa = k*delta/D, which is what collapse_study tabulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import algebra
from .errors import PreconditionError
from .feynman_kac import evaluate_at, solve_survival
from .graph import EdgeWeights, MetricGraph, PointOnGraph, frozen, locate, require_valid
from .harmonic import flux_coefficients, flux_system
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
        """sqrt(k/(h D)); infinite when the quotient overflows."""
        return math.sqrt(self.rate / self.h / self.diffusion)

    @property
    def mu_width(self) -> float:
        """mu times the zone width; where mu overflows, delta sqrt(k h / D),
        which stays finite while it is below the largest float."""
        mu = self.mu
        if math.isfinite(mu):
            return mu * self.zone_width
        return math.sqrt(self.rate) * math.sqrt(self.h) / math.sqrt(self.diffusion) * self.delta

    @property
    def zone_width(self) -> float:
        return self.h * self.delta


def _zone_port(x: float, a: float, mu: float = math.inf) -> tuple[float, float]:
    """Coupling mu csch x = (x / sinh x) / a and per-end kill
    mu tanh(x / 2) = x tanh(x / 2) / a of a zone segment of length a, with
    x = mu a > 0, written through e^{-x}.  A finite mu scales them, which
    rounds as it always has; where mu overflows, the forms in x and a hold.
    An infinite x gives (0, inf): the zone absorbs at once."""
    if math.isinf(x):
        return 0.0, math.inf
    e = math.exp(-x)
    scale, a = (mu, 1.0) if math.isfinite(mu) else (x, a)
    return 2.0 * scale * e / -math.expm1(-2.0 * x) / a, scale * -math.expm1(-x) / (1.0 + e) / a


@dataclass(frozen=True)
class Segment:
    """One piece of an edge: its offset range and its solved values, u0 at
    ``start`` and u1 at the far end.

    Inside a zone (``reactive``, ``x`` = mu * length with mu the decay
    rate) u(s) is (u0 sinh mu(length - s) + u1 sinh mu s) / sinh x,
    elsewhere affine; the views evaluate it in forms scaled by e^{-x}.
    """

    start: float
    length: float
    reactive: bool
    u0: float
    u1: float
    x: float = 0.0

    def _port(self) -> tuple[float, float]:
        return _zone_port(self.x, self.length) if self.reactive else (1.0 / self.length, 0.0)

    @property
    def slope(self) -> float:
        c, kill = self._port()
        return c * (self.u1 - self.u0) - kill * self.u0

    @property
    def end_slope(self) -> float:
        c, kill = self._port()
        return c * (self.u1 - self.u0) + kill * self.u1

    def value_at(self, s: float) -> float:
        """u at offset s from the start."""
        if not self.reactive:
            return self.u0 + (self.u1 - self.u0) * s / self.length
        if not 0.0 < s < self.length:
            return self.u0 if s <= 0.0 else self.u1
        x, y = self.x * (s / self.length), self.x * ((self.length - s) / self.length)
        return (self.u0 * math.exp(-x) * math.expm1(-2.0 * y)
                + self.u1 * math.exp(-y) * math.expm1(-2.0 * x)
                ) / math.expm1(-2.0 * self.x)


@dataclass(frozen=True, eq=False)
class PiecewiseSolution:
    """Solved survival with diffuse zones: ``values``, the solve's vector
    over the vertex rows (graph.vertex_ids), read-only, with ``sol[v]``
    the value at the vertex v, and each edge's segments, derived from them
    on first use."""

    graph: MetricGraph
    zone: ActiveZoneSpec
    values: np.ndarray
    # per row of graph.half_edge_table: whether a zone sits at its source, and
    # the value at that zone's inner end is (cz u(source) + fc u(target)) / s2,
    # with cz the zone's coupling; None when no zone is laid
    inner: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __getitem__(self, vertex_id: str) -> float:
        return float(self.values[self.graph.vertex_index[vertex_id]])

    @cached_property
    def segments(self) -> dict[int, tuple[Segment, ...]]:
        """Each edge's pieces in offset order: a zone at each active end
        and the plain part between."""
        g, u = self.graph, self.values
        a, x = self.zone.zone_width, self.zone.mu_width
        ends = {}  # (edge, end vertex): the value at the inner end of the zone there
        if self.inner is not None:
            t = g.half_edge_table
            near, fc, s2 = self.inner
            j = (_zone_port(x, a, self.zone.mu)[0] * u[t.source] + fc * u[t.target]) / s2
            for i in np.flatnonzero(near).tolist():
                ends[int(t.edge[i]), g.vertex_ids[t.source[i]]] = float(j[i])
        out = {}
        for k, e in enumerate(g.edges):
            first, last = e.endpoints
            v0, v1 = self[first], self[last]
            u0, u1 = ends.get((k, first)), ends.get((k, last))
            segs = [Segment(0.0, a, True, v0, u0, x)] if u0 is not None else []
            plain = e.length - a * ((u0 is not None) + (u1 is not None))
            segs.append(Segment(a if segs else 0.0, plain, False,
                                v0 if u0 is None else u0, v1 if u1 is None else u1))
            if u1 is not None:
                segs.append(Segment(e.length - a, a, True, u1, v1, x))
            out[k] = tuple(segs)
        return out

    def evaluate(self, x: PointOnGraph | str) -> float:
        x = locate(self.graph, x)
        if x.is_vertex:
            return self[x.vertex]
        segs = self.segments[x.edge]
        for seg in segs:
            if x.offset <= seg.start + seg.length or seg is segs[-1]:
                return seg.value_at(x.offset - seg.start)
        raise AssertionError("unreachable: segments cover the edge")


class _Zones:
    """What the diffuse solve on a valid graph needs that no zone
    parameter changes, per half-edge of ``g.half_edge_table``: built
    once per (g, w) by ``g.memo`` and reused for every h.  It holds
    neither the graph nor the weights."""

    def __init__(self, g: MetricGraph, w: EdgeWeights):
        t = g.half_edge_table
        active = g.site_mask
        self.p = w.along(t.keys)
        self.flux = flux_coefficients(g, w)  # p/l, which checks the weights
        self.near, self.far = active[t.source], active[t.target]
        self.zones = self.near + self.far.astype(float)  # zones on the half-edge's edge
        # the zone width must stay below half of every edge at an active vertex
        self.max_width = t.length[self.near | self.far].min(initial=math.inf) / 2

    def solve(self, g: MetricGraph, zone: ActiveZoneSpec) -> PiecewiseSolution:
        t = g.half_edge_table
        a = zone.zone_width
        any_zone = bool(g.active_vertices)
        if zone.rate > 0 and any_zone and a >= self.max_width:
            k = int(t.edge[(self.near | self.far) & (a >= t.length / 2)].min())
            raise PreconditionError(f"zone width {a} must be < half of edge {k} "
                                    f"(length {g.edges[k].length})")
        x = zone.mu_width
        fixed, inner = g.exit_mask, None
        if not (any_zone and x > 0):  # k = 0, or mu * h * delta underflowed
            coeff, kill = self.flux, 0.0
        else:
            cz, kz = _zone_port(x, a, zone.mu)
            if math.isinf(cz):
                raise PreconditionError(f"zone width {a!r} is too narrow to resolve")
            wall = math.isinf(kz)
            plain = 1.0 / (t.length - a * self.zones)
            s1 = plain + (cz + kz)
            # the edge as seen from its source end: the plain part, then the far zone
            fc = plain * np.where(self.far, cz / s1, 1.0)
            fk = plain * (1.0 if wall else kz / s1) * self.far
            # then the near zone in front: eliminate the junction between them
            s2 = (cz + kz) + (fc + fk)
            rs = cz / s2
            coeff = self.p * np.where(self.near, fc * rs, fc)
            if wall:  # the zoned vertices are fixed at 0: their kill never enters
                fixed, half_kill = g.exit_mask | g.site_mask, fk
            else:
                half_kill = np.where(self.near, kz + (kz + fk) * rs, fk)
            kill = np.bincount(t.source, self.p * half_kill, len(fixed))
            inner = (self.near, fc, s2)
        x = algebra.solve_many(flux_system(t, coeff, fixed, kill), g.exit_mask.astype(float))
        return PiecewiseSolution(g, zone, frozen(x), inner)


def _zones(g: MetricGraph, w: EdgeWeights) -> _Zones:
    return g.memo(w, ("zones",), lambda: _Zones(g, w))


def solve_diffuse(
    g: MetricGraph, w: EdgeWeights, zone: ActiveZoneSpec
) -> PiecewiseSolution:
    """Assemble and solve the survival problem with diffuse zones.

    Zones must not overlap: h*delta has to stay below half of every edge
    incident to an active vertex.
    """
    require_valid(g)
    return _zones(g, w).solve(g, zone)


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
    psi_limit = evaluate_at(solve_survival(g, w, KappaSpec.constant(zone.kappa)), x)
    zones = _zones(g, w)
    rows = []
    for h in h_list:
        psi_h = zones.solve(g, replace(zone, h=h)).evaluate(x)
        rows.append(CollapseRow(h, psi_h, psi_limit, abs(psi_h - psi_limit)))
    return rows
