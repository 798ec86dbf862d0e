"""Metric-graph data model: vertex roles, edge weights, points, surgery.

A metric graph is a finite set of vertices joined by undirected edges
carrying positive lengths.  Every edge also carries a relative radius,
used to derive the direction weights ``p_v(e)`` that govern how flux at
a vertex splits between its incident edges.  Vertices have one of three
roles: ``inert`` (plain junction), ``active`` (reaction site) or
``exit`` (absorbing endpoint, which must have degree 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import PreconditionError

ROLES = ("inert", "active", "exit")

#: tolerance on per-vertex weight rows summing to 1
WEIGHT_ROW_TOL = 1e-12


@dataclass(frozen=True)
class Vertex:
    id: str
    role: str = "inert"


@dataclass(frozen=True)
class Edge:
    """Undirected edge between two distinct vertices.

    ``length`` is in length units; ``radius`` is the dimensionless
    relative radius entering the weight rule.
    """

    endpoints: tuple[str, str]
    length: float
    radius: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "endpoints", tuple(self.endpoints))


@dataclass(frozen=True)
class HalfEdge:
    """One of the two orientations of an undirected edge."""

    edge: int  # index into MetricGraph.edges
    source: str
    target: str

    def reverse(self) -> HalfEdge:
        return HalfEdge(self.edge, self.target, self.source)


@dataclass(frozen=True, eq=False)
class HalfEdgeTable:
    """Every half-edge of a graph as array rows, grouped by source vertex
    in vertex order (the order of ``MetricGraph.half_edges``).

    ``source`` and ``target`` are vertex rows (positions in
    ``vertex_ids``), ``edge`` the edge index and ``length`` its length;
    ``keys`` are the (source id, edge index) pairs that key EdgeWeights.
    ``rows`` and ``cols`` are the entries of a vertex system: (source,
    target) for every half-edge, then (v, v) for every vertex row.
    """

    source: np.ndarray
    target: np.ndarray
    edge: np.ndarray
    length: np.ndarray
    keys: tuple[tuple[str, int], ...]
    rows: np.ndarray
    cols: np.ndarray


@dataclass(frozen=True)
class PointOnGraph:
    """A location on the graph: a vertex, or an interior point of an edge.

    The edge form stores the offset from the edge's first endpoint, in
    length units, strictly inside ``(0, length)``.
    """

    vertex: str | None = None
    edge: int | None = None
    offset: float | None = None

    def __post_init__(self):
        vertex_form = self.vertex is not None
        edge_form = self.edge is not None and self.offset is not None
        if vertex_form == edge_form:
            raise PreconditionError(
                "point must be either a vertex or an (edge, offset) pair"
            )

    @classmethod
    def at_vertex(cls, vertex_id: str) -> PointOnGraph:
        return cls(vertex=vertex_id)

    @classmethod
    def on_edge(cls, edge: int, offset: float) -> PointOnGraph:
        return cls(edge=edge, offset=float(offset))

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None


@dataclass(frozen=True)
class MetricGraph:
    """Immutable metric graph; all operations on it are pure functions.

    ``dimension`` is the ambient dimension used only by the weight rule,
    which raises radii to the power ``dimension - 1``.
    """

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    dimension: int = 3

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))

    @cached_property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    @cached_property
    def roles(self) -> dict[str, str]:
        return {v.id: v.role for v in self.vertices}

    @cached_property
    def out_edges(self) -> dict[str, tuple[HalfEdge, ...]]:
        """Half-edges grouped by source vertex."""
        out: dict[str, list[HalfEdge]] = {v.id: [] for v in self.vertices}
        for k, e in enumerate(self.edges):
            u, w = e.endpoints
            if u in out:
                out[u].append(HalfEdge(k, u, w))
            if w in out:
                out[w].append(HalfEdge(k, w, u))
        return {v: tuple(h) for v, h in out.items()}

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        """Vertex id to row: its position in ``vertex_ids``."""
        return {vid: i for i, vid in enumerate(self.vertex_ids)}

    @cached_property
    def half_edge_table(self) -> HalfEdgeTable:
        """The half-edges as arrays; needs a valid graph."""
        index = self.vertex_index
        ends = np.fromiter((index[v] for e in self.edges for v in e.endpoints), np.intp,
                           2 * len(self.edges)).reshape(-1, 2)
        # edge k gives half-edges 2k (first endpoint out) and 2k+1; a stable
        # sort by source keeps each vertex's half-edges in edge order
        order = np.argsort(ends.ravel(), kind="stable")
        source, target = ends.ravel()[order], ends[:, ::-1].ravel()[order]
        edge = order // 2
        every = np.arange(len(index))
        return HalfEdgeTable(
            source=source,
            target=target,
            edge=edge,
            length=np.array([e.length for e in self.edges], dtype=float)[edge],
            keys=tuple(zip(map(self.vertex_ids.__getitem__, source.tolist()), edge.tolist())),
            rows=np.concatenate((source, every)),
            cols=np.concatenate((target, every)),
        )

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """``validate(self)``, computed once: the graph never changes."""
        return tuple(validate(self))

    def half_edges(self) -> Iterator[HalfEdge]:
        for hs in self.out_edges.values():
            yield from hs

    def degree(self, vertex_id: str) -> int:
        return len(self.out_edges.get(vertex_id, ()))

    def vertices_with_role(self, role: str) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices if v.role == role)

    @cached_property
    def active_vertices(self) -> tuple[str, ...]:
        return self.vertices_with_role("active")

    @cached_property
    def exit_vertices(self) -> tuple[str, ...]:
        return self.vertices_with_role("exit")


@dataclass(frozen=True)
class EdgeWeights:
    """Direction weights ``p_v(e)`` keyed by (vertex id, edge index).

    Self-loops are disallowed, so the pair identifies a half-edge with
    the given source vertex unambiguously even with parallel edges.
    """

    p: dict[tuple[str, int], float]

    def at(self, vertex_id: str, edge_index: int) -> float:
        try:
            return self.p[(vertex_id, edge_index)]
        except KeyError:
            raise PreconditionError(
                f"no weight for vertex {vertex_id!r} on edge {edge_index}"
            ) from None

    def along(self, keys: Sequence[tuple[str, int]]) -> np.ndarray:
        """The weights at (vertex id, edge index) pairs, as an array."""
        try:
            return np.fromiter(map(self.p.__getitem__, keys), float, len(keys))
        except KeyError as exc:
            self.at(*exc.args[0])  # raises PreconditionError naming the pair
            raise


def validate(g: MetricGraph) -> list[str]:
    """Check all graph invariants; returns one message per violation.

    An empty list means the graph is valid.  Violations are data, not
    exceptions: callers decide what to do with them.
    """
    problems: list[str] = []
    if not isinstance(g.dimension, int) or g.dimension < 1:
        problems.append(f"dimension must be a positive integer, got {g.dimension!r}")

    seen: set[str] = set()
    for v in g.vertices:
        if v.id in seen:
            problems.append(f"duplicate vertex id {v.id!r}")
        seen.add(v.id)
        if v.role not in ROLES:
            problems.append(f"vertex {v.id!r} has unknown role {v.role!r}")

    for k, e in enumerate(g.edges):
        u, w = e.endpoints
        label = f"edge {k} ({u!r}-{w!r})"
        for end in (u, w):
            if end not in seen:
                problems.append(f"{label} references unknown vertex {end!r}")
        if u == w:
            problems.append(f"{label} is a self-loop")
        if not (isinstance(e.length, (int, float)) and math.isfinite(e.length) and e.length > 0):
            problems.append(f"{label} has non-positive length {e.length!r}")
        if not (isinstance(e.radius, (int, float)) and math.isfinite(e.radius) and e.radius > 0):
            problems.append(f"{label} has non-positive radius {e.radius!r}")

    exits = [v for v in g.vertices if v.role == "exit"]
    if not exits:
        problems.append("graph has no exit vertex")
    for v in exits:
        if g.degree(v.id) != 1:
            problems.append(
                f"exit vertex {v.id!r} has degree {g.degree(v.id)}, expected 1"
            )

    if not problems:
        # reachability only makes sense once the structure is sound
        reached = {v.id for v in exits}
        frontier = list(reached)
        while frontier:
            vid = frontier.pop()
            for he in g.out_edges[vid]:
                if he.target not in reached:
                    reached.add(he.target)
                    frontier.append(he.target)
        for v in g.vertices:
            if v.id not in reached:
                problems.append(f"vertex {v.id!r} has no path to an exit vertex")

    return problems


def require_valid(g: MetricGraph) -> None:
    if g.violations:
        raise PreconditionError("invalid graph: " + "; ".join(g.violations))


def derive_weights(g: MetricGraph) -> EdgeWeights:
    """Weights from relative radii: p_v(e) = r_e^(d-1) / sum over v's edges.

    Rows sum to 1 by construction.  With equal radii this reduces to
    1/deg(v).
    """
    d = g.dimension
    p: dict[tuple[str, int], float] = {}
    for vid, hs in g.out_edges.items():
        if not hs:
            continue
        powers = [g.edges[h.edge].radius ** (d - 1) for h in hs]
        total = sum(powers)
        for h, rp in zip(hs, powers):
            p[(vid, h.edge)] = rp / total
    return EdgeWeights(p)


def uniform_weights(g: MetricGraph) -> EdgeWeights:
    """Weights p_v(e) = 1/deg(v) regardless of radii."""
    p: dict[tuple[str, int], float] = {}
    for vid, hs in g.out_edges.items():
        for h in hs:
            p[(vid, h.edge)] = 1.0 / len(hs)
    return EdgeWeights(p)


def weights_violations(g: MetricGraph, w: EdgeWeights) -> list[str]:
    """Check coverage, range and row normalization of a weight table."""
    problems: list[str] = []
    expected = {(h.source, h.edge) for h in g.half_edges()}
    for key in w.p:
        if key not in expected:
            problems.append(f"weight for non-incident pair {key!r}")
    for vid, hs in g.out_edges.items():
        if not hs:
            continue
        row = []
        for h in hs:
            val = w.p.get((vid, h.edge))
            if val is None:
                problems.append(f"missing weight at vertex {vid!r}, edge {h.edge}")
            elif not (0.0 < val <= 1.0):
                problems.append(
                    f"weight at vertex {vid!r}, edge {h.edge} outside (0,1]: {val!r}"
                )
            else:
                row.append(val)
        if len(row) == len(hs) and abs(sum(row) - 1.0) > WEIGHT_ROW_TOL:
            problems.append(
                f"weights at vertex {vid!r} sum to {sum(row)!r}, expected 1"
            )
    return problems


def _fresh_vertex_id(g: MetricGraph, base: str = "x") -> str:
    taken = set(g.vertex_ids)
    if base not in taken:
        return base
    n = 2
    while f"{base}{n}" in taken:
        n += 1
    return f"{base}{n}"


def split_at(g: MetricGraph, x: PointOnGraph) -> tuple[MetricGraph, str]:
    """Insert a degree-2 inert vertex at an edge-interior point.

    The edge is replaced in place by its first half (same index) and the
    second half is appended, so other edge indices are stable.  Both
    halves inherit the parent's radius.  A vertex-form point is a no-op.
    """
    if x.is_vertex:
        if x.vertex not in set(g.vertex_ids):
            raise PreconditionError(f"unknown vertex {x.vertex!r}")
        return g, x.vertex

    if not (0 <= x.edge < len(g.edges)):
        raise PreconditionError(f"edge index {x.edge} out of range")
    e = g.edges[x.edge]
    if not (0.0 < x.offset < e.length):
        raise PreconditionError(
            f"offset {x.offset!r} outside (0, {e.length}) on edge {x.edge}"
        )

    new_id = _fresh_vertex_id(g)
    u, w = e.endpoints
    edges = list(g.edges)
    edges[x.edge] = Edge((u, new_id), x.offset, e.radius)
    edges.append(Edge((new_id, w), e.length - x.offset, e.radius))
    vertices = g.vertices + (Vertex(new_id, "inert"),)
    return MetricGraph(vertices, tuple(edges), g.dimension), new_id


def resolve_vertex(g: MetricGraph, x: PointOnGraph | str) -> str:
    """Vertex id of a vertex-form point; edge-interior points must be
    split first."""
    if isinstance(x, str):
        vid = x
    elif x.is_vertex:
        vid = x.vertex
    else:
        raise PreconditionError(
            "edge-interior point: split the graph at it first (split_at)"
        )
    if vid not in set(g.vertex_ids):
        raise PreconditionError(f"unknown vertex {vid!r}")
    return vid
