"""Graph documents: a strict JSON schema for graphs plus injection point.

Schema (unknown keys are rejected everywhere):

    {
      "vertices": [{"id": "v0", "role": "inert"}, ...],
      "edges":    [{"from": "v0", "to": "c", "length": 1.0, "radius": 1.0}, ...],
      "weights":  {"v0": {"0": 1.0}, ...},          # optional explicit p_v(e)
      "dimension": 3,                                # optional, default 3
      "injection": {"vertex": "v0"}                  # optional
                   | {"edge": ["v0", "c"], "offset": 0.25}
    }

Explicit weights are keyed by vertex id and edge index (as a string, a
JSON restriction) and override the radius-derived row for that vertex;
vertices without an explicit row keep the derived weights.  An edge
injection's pair is the [from, to] of exactly one edge, and its offset
runs from ``from`` over [0, length].
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import DocumentError, PreconditionError
from .graph import (
    Edge,
    EdgeWeights,
    MetricGraph,
    PointOnGraph,
    Vertex,
    derive_weights,
    derived_rows,
    locate,
    weights_violations,
)

_TOP_KEYS = {"vertices", "edges", "weights", "dimension", "injection"}
_VERTEX_KEYS = {"id", "role"}
_EDGE_KEYS = {"from", "to", "length", "radius"}
_INJ_KEYS = {"vertex", "edge", "offset"}


@dataclass(frozen=True)
class ParsedDocument:
    graph: MetricGraph
    explicit_weights: dict[str, dict[int, float]] | None
    injection: PointOnGraph | None


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise DocumentError(f"{where}: unknown keys {unknown}")


def _need(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise DocumentError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _number(value, what: str) -> float:
    """A JSON number as a float; ``what`` names it in the errors."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise DocumentError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:  # an integer past the float range
        raise DocumentError(f"{what} is too large for a float") from None


def load_document(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # an integer too long, or nesting too deep
        raise DocumentError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: document root must be an object")
    return doc


def parse_document(doc: dict) -> ParsedDocument:
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    _reject_unknown(doc, _TOP_KEYS, "document")

    raw_vertices = _need(doc, "vertices", "document")
    raw_edges = _need(doc, "edges", "document")
    if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
        raise DocumentError("vertices and edges must be lists")

    vertices = []
    for i, item in enumerate(raw_vertices):
        where = f"vertices[{i}]"
        if not isinstance(item, dict):
            raise DocumentError(f"{where}: must be an object")
        _reject_unknown(item, _VERTEX_KEYS, where)
        vid = _need(item, "id", where)
        if not isinstance(vid, str):
            raise DocumentError(f"{where}: id must be a string")
        role = item.get("role", "inert")
        vertices.append(Vertex(vid, role))

    edges = []
    for i, item in enumerate(raw_edges):
        where = f"edges[{i}]"
        if not isinstance(item, dict):
            raise DocumentError(f"{where}: must be an object")
        _reject_unknown(item, _EDGE_KEYS, where)
        u = _need(item, "from", where)
        v = _need(item, "to", where)
        if not (isinstance(u, str) and isinstance(v, str)):
            raise DocumentError(f"{where}: from and to must be vertex id strings")
        length = _number(_need(item, "length", where), f"{where}: length")
        radius = _number(item.get("radius", 1.0), f"{where}: radius")
        edges.append(Edge((u, v), length, radius))

    dimension = doc.get("dimension", 3)
    if not isinstance(dimension, int) or isinstance(dimension, bool):
        raise DocumentError("dimension must be an integer")
    _number(dimension, "dimension")  # derive_weights takes powers of it

    graph = MetricGraph(tuple(vertices), tuple(edges), dimension)

    explicit = None
    if "weights" in doc:
        raw_w = doc["weights"]
        if not isinstance(raw_w, dict):
            raise DocumentError("weights must be an object keyed by vertex id")
        explicit = {}
        for vid, row in raw_w.items():
            where = f"weights[{vid!r}]"
            if not isinstance(row, dict):
                raise DocumentError(f"{where}: must map edge index to weight")
            parsed_row = {}
            for key, val in row.items():
                try:
                    k = int(key)
                except (TypeError, ValueError):
                    raise DocumentError(
                        f"{where}: edge index {key!r} is not an integer"
                    ) from None
                parsed_row[k] = _number(val, f"{where}[{key}]: weight")
            explicit[vid] = parsed_row

    injection = None
    if "injection" in doc:
        raw_inj = doc["injection"]
        if not isinstance(raw_inj, dict):
            raise DocumentError("injection must be an object")
        _reject_unknown(raw_inj, _INJ_KEYS, "injection")
        if "vertex" in raw_inj:
            if "edge" in raw_inj or "offset" in raw_inj:
                raise DocumentError("injection: give either vertex or edge+offset")
            if not isinstance(raw_inj["vertex"], str):
                raise DocumentError("injection: vertex must be a vertex id string")
            injection = PointOnGraph.at_vertex(raw_inj["vertex"])
        else:
            pair = _need(raw_inj, "edge", "injection")
            offset = _need(raw_inj, "offset", "injection")
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(end, str) for end in pair)):
                raise DocumentError("injection: edge must be a [from, to] pair of vertex ids")
            offset = _number(offset, "injection: offset")
            index = _find_edge(graph, pair[0], pair[1])
            injection = PointOnGraph.on_edge(index, offset)

    return ParsedDocument(graph, explicit, injection)


def _find_edge(g: MetricGraph, u: str, v: str) -> int:
    """The one edge whose [from, to] is [u, v]."""
    found = [k for k, e in enumerate(g.edges) if e.endpoints == (u, v)]
    if len(found) > 1:
        raise DocumentError(f"injection: [{u!r}, {v!r}] names edges {found}, not one edge")
    if found:
        return found[0]
    if (v, u) in (e.endpoints for e in g.edges):
        raise DocumentError(f"injection: the edge between {u!r} and {v!r} "
                            f"is stored as [{v!r}, {u!r}]")
    raise DocumentError(f"injection: no edge between {u!r} and {v!r}")


def _resolve_weights(
    g: MetricGraph, explicit: dict[str, dict[int, float]] | None
) -> EdgeWeights:
    if not explicit:
        return derive_weights(g)
    # derived rows of the vertices without an explicit one, then the explicit rows
    table = derived_rows(g, explicit)
    for vid, row in explicit.items():
        if vid not in g.vertex_index:
            raise DocumentError(f"weights: unknown vertex {vid!r}")
        for k in row:
            if not (0 <= k < len(g.edges)):
                raise DocumentError(f"weights[{vid!r}]: edge index {k} out of range")
        for k, val in row.items():
            table[(vid, k)] = val
    resolved = EdgeWeights(table)
    problems = weights_violations(g, resolved)
    if problems:
        raise DocumentError("weights: " + "; ".join(problems))
    return resolved


def prepare(
    parsed: ParsedDocument,
) -> tuple[MetricGraph, EdgeWeights, PointOnGraph | str | None]:
    """Resolve a parsed document into (graph, weights, start).

    The start is the injection as ``locate`` gives it: the vertex id of a
    vertex or an edge end, the edge point of a point inside an edge, and
    None without an injection.  No edge is cut: every route takes a point
    inside an edge as it is.
    """
    g = parsed.graph
    start = None
    if parsed.injection is not None:
        try:
            start = locate(g, parsed.injection)
        except PreconditionError as exc:
            raise DocumentError(f"injection: {exc}") from None
        if start.is_vertex:
            start = start.vertex
    return g, _resolve_weights(g, parsed.explicit_weights), start


def emit_document(parsed: ParsedDocument) -> dict:
    """Document dict that parses back to an identical graph."""
    g = parsed.graph
    doc: dict = {
        "vertices": [{"id": v.id, "role": v.role} for v in g.vertices],
        "edges": [
            {
                "from": e.endpoints[0],
                "to": e.endpoints[1],
                "length": e.length,
                "radius": e.radius,
            }
            for e in g.edges
        ],
        "dimension": g.dimension,
    }
    if parsed.explicit_weights is not None:
        doc["weights"] = {
            vid: {str(k): val for k, val in row.items()}
            for vid, row in parsed.explicit_weights.items()
        }
    if parsed.injection is not None:
        if parsed.injection.is_vertex:
            doc["injection"] = {"vertex": parsed.injection.vertex}
        else:
            e = g.edges[parsed.injection.edge]
            _find_edge(g, *e.endpoints)  # DocumentError if parallel edges share the pair
            doc["injection"] = {
                "edge": [e.endpoints[0], e.endpoints[1]],
                "offset": parsed.injection.offset,
            }
    return doc
