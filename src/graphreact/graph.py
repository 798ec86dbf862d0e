"""Metric-graph data model: vertex roles, edge weights, points.

A metric graph is a finite set of vertices joined by undirected edges
carrying positive lengths.  Every edge also carries a relative radius,
used to derive the direction weights ``p_v(e)`` that govern how flux at
a vertex splits between its incident edges.  Vertices have one of three
roles: ``inert`` (plain junction), ``active`` (reaction site) or
``exit`` (absorbing endpoint, which must have degree 1).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import Container, Mapping, NamedTuple, Sequence

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


@dataclass(frozen=True, eq=False)
class HalfEdgeTable:
    """Every half-edge of a graph as array rows, grouped by source vertex
    in vertex order, with each vertex's half-edges in edge order.

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


class Kernel(NamedTuple):
    """What is left of a graph when its dead-end branches go: the living
    vertices and the half-edges between them, with the living vertices
    numbered in vertex order.

    ``key`` gives every vertex its living row: its own, or for a vertex of
    a dead-end branch, the row of the vertex the branch hangs on.
    ``half`` masks the half-edges between living vertices in the half-edge
    table; ``source`` and ``target`` are their ends as living rows, in
    table order, and ``rows`` and ``cols`` the entries of a vertex system
    over the living vertices, as in HalfEdgeTable.  ``sites`` and
    ``exits`` mask the living rows.  A graph with nothing to strip is its
    own kernel: ``key`` and ``half`` are then slice(None), so reading
    through them copies nothing, and the rest are the graph's own arrays.
    """

    key: np.ndarray | slice
    half: np.ndarray | slice
    source: np.ndarray
    target: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    sites: np.ndarray
    exits: np.ndarray


@dataclass(frozen=True)
class PointOnGraph:
    """A location on the graph: a vertex, or a point of an edge.

    The edge form stores the offset from the edge's first endpoint, in
    length units, in ``[0, length]``; ``locate`` turns an end into its
    vertex.
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


class _cached:
    """functools.cached_property without the lock that it takes under
    Python 3.11, ~1 us on each first read: the value goes into the
    instance's ``__dict__``, which shadows this descriptor from then on.
    Threads that race each compute it and all get the value stored first."""

    def __init__(self, compute):
        self.compute, self.__doc__ = compute, compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.name, self.compute(obj))


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

    def __reduce__(self):  # a copy starts afresh: ``solved`` holds weak references
        return MetricGraph, (self.vertices, self.edges, self.dimension)

    @_cached
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    @_cached
    def vertex_index(self) -> dict[str, int]:
        """Vertex id to row: its position in ``vertex_ids``."""
        return {vid: i for i, vid in enumerate(self.vertex_ids)}

    @_cached
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

    @_cached
    def dead_ends(self) -> np.ndarray:
        """Read-only: the vertex row each vertex hangs on (_dead_ends);
        needs a valid graph."""
        return frozen(_dead_ends(self))

    @_cached
    def kernel(self) -> Kernel:
        """The living vertices and the half-edges between them; needs a
        valid graph."""
        t, hang = self.half_edge_table, self.dead_ends
        n = len(hang)
        living = hang == np.arange(n)
        count = np.count_nonzero(living)
        if count == n:
            every = slice(None)
            return Kernel(every, every, t.source, t.target, t.rows, t.cols,
                          self.site_mask, self.exit_mask)
        key = np.empty(n, dtype=np.intp)
        key[living] = np.arange(count)
        key = key[hang]
        # a dead-end branch and the vertex it hangs on share a key, so a
        # half-edge joins two living vertices where its ends' keys differ;
        # the entries of a living vertex's own row, (v, v), come last
        rows, cols = key[t.rows], key[t.cols]
        half = rows[: len(t.source)] != cols[: len(t.source)]
        entries = np.concatenate((half, living))
        rows, cols = frozen(rows[entries]), frozen(cols[entries])
        h = len(rows) - count
        return Kernel(frozen(key), frozen(half), rows[:h], cols[:h], rows, cols,
                      frozen(self.site_mask[living]), frozen(self.exit_mask[living]))

    @_cached
    def solved(self) -> dict:
        """The memo of the kappa-free work on this graph (see ``memo``)."""
        return {}

    def memo(self, w: EdgeWeights, key: tuple, solve):
        """solve(), once per living weights object and key, kept in
        ``solved`` beside a weak reference to w.  An entry is a hit only
        while that reference points at w, so a reused id gives no false
        hit, and each miss drops the entries of weights that are gone.  A
        result holds neither w nor the graph; a failed solve is not kept.
        """
        memo = self.solved
        entry = memo.get((id(w), *key))
        if entry is None or entry[0]() is not w:
            for k in [k for k, (ref, _) in memo.items() if ref() is None]:
                del memo[k]
            entry = memo[(id(w), *key)] = (weakref.ref(w), solve())
        return entry[1]

    @_cached
    def violations(self) -> tuple[str, ...]:
        """``validate(self)``, computed once: the graph never changes."""
        return tuple(validate(self))

    @_cached
    def active_vertices(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices if v.role == "active")

    @_cached
    def exit_vertices(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices if v.role == "exit")

    @_cached
    def site_mask(self) -> np.ndarray:
        """Read-only boolean vector over the vertex rows, set at the active vertices."""
        return frozen(np.array([v.role == "active" for v in self.vertices], dtype=bool))

    @_cached
    def exit_mask(self) -> np.ndarray:
        """Read-only boolean vector over the vertex rows, set at the exits."""
        return frozen(np.array([v.role == "exit" for v in self.vertices], dtype=bool))


def frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only: what the graph keeps must never change."""
    a.setflags(write=False)  # half the cost of setting a.flags.writeable
    return a


#: most rounds of _dead_ends: a random tree of 10^4 vertices and 4 sites
#: took 20, a dead-end path takes as many as it is long
_DEAD_END_ROUNDS = 32


def _dead_ends(g: MetricGraph) -> np.ndarray:
    """The vertex row each vertex hangs on: its own, or for an inert vertex
    of a dead-end branch, the row of the living vertex the branch hangs on.

    A branch with no site and no exit changes neither a hitting probability
    nor a survival: the walk reflects at its ends and leaves it where it
    came in, having met no site.  A round removes every inert vertex with
    at most one living half-edge and records the vertex at the other end;
    pointer jumping then sends each removed vertex to a living one.  A
    branch joined by parallel edges keeps two living half-edges, so it
    stays.  Needs a valid graph.

    A round costs O(n), so there are at most _DEAD_END_ROUNDS.  A branch
    deeper than that keeps the vertices nearest its root: they stay
    unknowns of the solves, which are still right, only larger.
    """
    t = g.half_edge_table
    n, gone = len(g.vertex_ids), len(t.source) + 2
    living = np.bincount(t.source, minlength=n)
    living[g.site_mask | g.exit_mask] = gone  # never removed
    # the sum of the targets of a vertex's living half-edges: with one, its target
    ends = np.bincount(t.source, t.target, n)
    hang = np.arange(n)
    leaves = (living <= 1).nonzero()[0]
    rounds = 0
    while len(leaves) and rounds < _DEAD_END_ROUNDS:
        up = hang[leaves] = ends[leaves].astype(np.intp)
        living[leaves] = gone
        living -= np.bincount(up, minlength=n)
        ends -= np.bincount(up, leaves, n)
        leaves = (living <= 1).nonzero()[0]
        rounds += 1
    for _ in range(rounds - 1):  # every round's vertices hang on living ones by the last
        up = hang[hang]
        if (up == hang).all():
            break
        hang = up
    return hang


@dataclass(frozen=True)
class EdgeWeights:
    """Direction weights ``p_v(e)`` keyed by (vertex id, edge index).

    Self-loops are disallowed, so the pair identifies a half-edge with
    the given source vertex unambiguously even with parallel edges.
    ``p`` is a read-only view of a copy of the table given: harmonic
    memoizes solves by the weights object, so its values must never
    change.  Lookups read the copy itself, which is faster than the view.
    """

    p: Mapping[tuple[str, int], float]

    def __post_init__(self):
        table = dict(self.p)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "p", MappingProxyType(table))

    def __reduce__(self):  # a mappingproxy cannot be pickled
        return EdgeWeights, (self._table,)

    def at(self, vertex_id: str, edge_index: int) -> float:
        try:
            return self._table[(vertex_id, edge_index)]
        except KeyError:
            raise PreconditionError(
                f"no weight for vertex {vertex_id!r} on edge {edge_index}"
            ) from None

    def along(self, keys: Sequence[tuple[str, int]]) -> np.ndarray:
        """The weights at (vertex id, edge index) pairs, as an array."""
        try:
            return np.fromiter(map(self._table.__getitem__, keys), float, len(keys))
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

    neighbours: dict[str, list[str]] = {}  # a self-loop's end is listed twice
    for v in g.vertices:
        if v.id in neighbours:
            problems.append(f"duplicate vertex id {v.id!r}")
        neighbours[v.id] = []
        if v.role not in ROLES:
            problems.append(f"vertex {v.id!r} has unknown role {v.role!r}")

    for k, e in enumerate(g.edges):
        u, w = e.endpoints
        length, radius = e.length, e.radius
        if (u != w and u in neighbours and w in neighbours
                and type(length) is float and 0.0 < length < math.inf
                and type(radius) is float and 0.0 < radius < math.inf):
            # a sound edge, the common case: no label to build
            neighbours[u].append(w)
            neighbours[w].append(u)
            continue
        label = f"edge {k} ({u!r}-{w!r})"
        for end, other in ((u, w), (w, u)):
            if end in neighbours:
                neighbours[end].append(other)
            else:
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
        if len(neighbours[v.id]) != 1:
            problems.append(
                f"exit vertex {v.id!r} has degree {len(neighbours[v.id])}, expected 1"
            )

    if not problems:
        # reachability only makes sense once the structure is sound
        reached = {v.id for v in exits}
        frontier = list(reached)
        while frontier:
            vid = frontier.pop()
            for target in neighbours[vid]:
                if target not in reached:
                    reached.add(target)
                    frontier.append(target)
        for v in g.vertices:
            if v.id not in reached:
                problems.append(f"vertex {v.id!r} has no path to an exit vertex")

    return problems


def require_valid(g: MetricGraph) -> None:
    if g.violations:
        raise PreconditionError("invalid graph: " + "; ".join(g.violations))


def _incident(g: MetricGraph) -> dict[str, list[int]]:
    """The edges at each vertex, in edge order: an edge is listed once
    per end, so a self-loop twice, and an end naming no vertex is
    skipped.  Works on graphs that fail validation."""
    at: dict[str, list[int]] = {v.id: [] for v in g.vertices}
    for k, e in enumerate(g.edges):
        for end in e.endpoints:
            if end in at:
                at[end].append(k)
    return at


def derive_weights(g: MetricGraph) -> EdgeWeights:
    """Weights from relative radii: p_v(e) = r_e^(d-1) / sum over v's edges.

    Rows sum to 1 by construction.  Each radius is divided by the largest
    at v before the power, so no power overflows, and equal radii give
    exactly 1/deg(v).  A weight that underflows to 0, outside (0, 1],
    raises PreconditionError naming its vertex, edge and radius.
    """
    return EdgeWeights(derived_rows(g, ()))


def derived_rows(g: MetricGraph, skip: Container[str]) -> dict[tuple[str, int], float]:
    """derive_weights' table without the rows of the vertices in skip,
    which are never derived: a document's explicit rows replace them."""
    d = g.dimension
    p: dict[tuple[str, int], float] = {}
    for vid, ks in _incident(g).items():
        if not ks or vid in skip:
            continue
        radii = [g.edges[k].radius for k in ks]
        top = max(radii)
        powers = [(r / top) ** (d - 1) for r in radii]
        total = sum(powers)
        for k, r, rp in zip(ks, radii, powers):
            if (pk := rp / total) == 0.0:
                raise PreconditionError(f"weight at vertex {vid!r} on edge {k} underflows to 0 "
                                        f"(radius {r!r}, dimension {d})")
            p[(vid, k)] = pk
    return p


def uniform_weights(g: MetricGraph) -> EdgeWeights:
    """Weights p_v(e) = 1/deg(v) regardless of radii."""
    p: dict[tuple[str, int], float] = {}
    for vid, ks in _incident(g).items():
        for k in ks:
            p[(vid, k)] = 1.0 / len(ks)
    return EdgeWeights(p)


def weights_violations(g: MetricGraph, w: EdgeWeights) -> list[str]:
    """Check coverage, range and row normalization of a weight table."""
    problems: list[str] = []
    at = _incident(g)
    expected = {(vid, k) for vid, ks in at.items() for k in ks}
    for key in w.p:
        if key not in expected:
            problems.append(f"weight for non-incident pair {key!r}")
    for vid, ks in at.items():
        if not ks:
            continue
        row = []
        for k in ks:
            val = w.p.get((vid, k))
            if val is None:
                problems.append(f"missing weight at vertex {vid!r}, edge {k}")
            elif not (0.0 < val <= 1.0):
                problems.append(
                    f"weight at vertex {vid!r}, edge {k} outside (0,1]: {val!r}"
                )
            else:
                row.append(val)
        if len(row) == len(ks) and abs(sum(row) - 1.0) > WEIGHT_ROW_TOL:
            problems.append(
                f"weights at vertex {vid!r} sum to {sum(row)!r}, expected 1"
            )
    return problems


def locate(g: MetricGraph, x: PointOnGraph | str) -> PointOnGraph:
    """The point x on g in its canonical form; the one check of a point.

    A vertex id or vertex-form point must name a vertex of g.  An edge
    point needs an edge index in range and an offset in [0, length]: an
    offset of exactly 0 (-0.0 too) or the length is that end's vertex
    point, and one strictly inside stays the edge point.  Anything else
    raises PreconditionError.
    """
    if isinstance(x, str):
        x = PointOnGraph.at_vertex(x)
    if x.is_vertex:
        if x.vertex not in g.vertex_index:
            raise PreconditionError(f"unknown vertex {x.vertex!r}")
        return x
    if not (0 <= x.edge < len(g.edges)):
        raise PreconditionError(f"edge index {x.edge} out of range")
    e = g.edges[x.edge]
    if not (0.0 <= x.offset <= e.length):
        raise PreconditionError(f"offset {x.offset!r} outside [0, {e.length}] on edge {x.edge}")
    if x.offset in (0.0, e.length):
        return PointOnGraph.at_vertex(e.endpoints[x.offset > 0.0])
    return x
