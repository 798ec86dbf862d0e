"""Shared graph builders and randomized-instance generators for the tests."""

from __future__ import annotations

import numpy as np

from graphreact import Edge, EdgeWeights, MetricGraph, Vertex, derive_weights


def path_graph(l0: float = 1.0, l1: float = 1.0) -> tuple[MetricGraph, str]:
    """Entrance - active site - exit; injection at the entrance."""
    g = MetricGraph(
        (Vertex("v0"), Vertex("c", "active"), Vertex("a", "exit")),
        (Edge(("v0", "c"), l0), Edge(("c", "a"), l1)),
    )
    return g, "v0"


def degree1_graph(l: float = 1.0) -> tuple[MetricGraph, str]:
    """Single edge from a degree-1 active site to the exit."""
    g = MetricGraph(
        (Vertex("c", "active"), Vertex("a", "exit")),
        (Edge(("c", "a"), l),),
    )
    return g, "c"


def star_graph(
    n: int, exit_len: float = 1.0, leaf_lengths: tuple[float, ...] | None = None
) -> tuple[MetricGraph, str]:
    """Active center of degree n: one exit edge plus n-1 inert leaves."""
    if leaf_lengths is None:
        leaf_lengths = tuple(0.5 + 0.25 * i for i in range(n - 1))
    assert len(leaf_lengths) == n - 1
    vertices = [Vertex("c", "active"), Vertex("a", "exit")]
    edges = [Edge(("c", "a"), exit_len)]
    for i, l in enumerate(leaf_lengths):
        vertices.append(Vertex(f"b{i}"))
        edges.append(Edge(("c", f"b{i}"), l))
    return MetricGraph(tuple(vertices), tuple(edges)), "b0"


def chain_graph(gaps: tuple[float, ...]) -> tuple[MetricGraph, str, tuple[str, ...]]:
    """v0 - c1 - ... - cm - exit with the given consecutive gaps."""
    m = len(gaps) - 1
    assert m >= 1
    vertices = [Vertex("v0")]
    edges = []
    prev = "v0"
    for j in range(m):
        cid = f"c{j + 1}"
        vertices.append(Vertex(cid, "active"))
        edges.append(Edge((prev, cid), gaps[j]))
        prev = cid
    vertices.append(Vertex("a", "exit"))
    edges.append(Edge((prev, "a"), gaps[m]))
    g = MetricGraph(tuple(vertices), tuple(edges))
    return g, "v0", tuple(f"c{j + 1}" for j in range(m))


def y_graph() -> tuple[MetricGraph, str]:
    """Unit Y: inert start arm, active arm, exit arm around one junction."""
    g = MetricGraph(
        (Vertex("x0"), Vertex("j"), Vertex("c", "active"), Vertex("a", "exit")),
        (Edge(("x0", "j"), 1.0), Edge(("j", "c"), 1.0), Edge(("j", "a"), 1.0)),
    )
    return g, "x0"


def random_graph(
    rng: np.random.Generator,
    max_core: int = 5,
    max_extra: int = 2,
    max_active: int = 3,
    random_radii: bool = False,
    min_core: int = 2,
) -> tuple[MetricGraph, str]:
    """Random connected graph with <= 8 vertices, 1-2 exits, 1-3 active,
    by default.

    Core vertices form a random tree plus a few extra (possibly
    parallel) edges; exits attach as fresh leaves so their degree is 1.
    """
    n_core = int(rng.integers(min_core, max_core + 1))
    pairs: list[tuple[str, str]] = []
    for i in range(1, n_core):
        parent = int(rng.integers(0, i))
        pairs.append((f"n{parent}", f"n{i}"))
    for _ in range(int(rng.integers(0, max_extra + 1))):
        i, j = rng.integers(0, n_core, size=2)
        if i != j:
            pairs.append((f"n{int(i)}", f"n{int(j)}"))
    n_exit = 2 if rng.random() < 0.3 else 1
    for k in range(n_exit):
        host = int(rng.integers(0, n_core))
        pairs.append((f"n{host}", f"e{k}"))

    n_active = int(rng.integers(1, min(max_active, n_core) + 1))
    active = set(int(i) for i in rng.choice(n_core, size=n_active, replace=False))

    vertices = [
        Vertex(f"n{i}", "active" if i in active else "inert") for i in range(n_core)
    ]
    vertices += [Vertex(f"e{k}", "exit") for k in range(n_exit)]
    edges = []
    for u, v in pairs:
        length = float(rng.uniform(0.3, 1.8))
        radius = float(rng.uniform(0.5, 2.0)) if random_radii else 1.0
        edges.append(Edge((u, v), length, radius))
    g = MetricGraph(tuple(vertices), tuple(edges))
    start = f"n{int(rng.integers(0, n_core))}"
    return g, start


def hub_graph(rng: np.random.Generator, degree: int = 64) -> tuple[MetricGraph, str]:
    """A ``random_graph`` with random radii whose vertex n0 gets leaves
    up to the given degree; every fourth leaf is an exit."""
    g, start = random_graph(rng, random_radii=True)
    have = sum("n0" in e.endpoints for e in g.edges)
    vertices, edges = list(g.vertices), list(g.edges)
    for i in range(degree - have):
        vertices.append(Vertex(f"h{i}", "exit" if i % 4 == 0 else "inert"))
        length, radius = float(rng.uniform(0.3, 1.8)), float(rng.uniform(0.5, 2.0))
        edges.append(Edge(("n0", f"h{i}"), length, radius))
    return MetricGraph(tuple(vertices), tuple(edges)), start


def random_green_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Plausible local-time matrix: from an actual random graph when it
    has n active vertices, else a random symmetric positive matrix."""
    a = rng.uniform(0.2, 1.5, size=(n, n))
    m = a @ a.T + n * np.eye(n) * 0.1
    return m


def kappa_samples(count: int = 20) -> np.ndarray:
    """Zero plus a log-spaced sweep, the standard evaluation grid."""
    return np.concatenate([[0.0], np.geomspace(1e-3, 1e3, count - 1)])


def weights_for(g: MetricGraph):
    return derive_weights(g)


def branchy_tree(
    rng: np.random.Generator, n: int = 24, n_active: int = 3, n_exit: int = 2
) -> MetricGraph:
    """Random recursive tree of n core vertices with random lengths and
    radii, n_active of them active and n_exit fresh exit leaves on
    distinct core vertices.  Its inert leaves and the inert subtrees
    they end make dead-end branches."""
    pairs = [(f"n{int(rng.integers(0, i))}", f"n{i}") for i in range(1, n)]
    hosts = rng.choice(n, size=n_exit, replace=False)
    pairs += [(f"n{int(h)}", f"e{k}") for k, h in enumerate(hosts)]
    active = set(rng.choice(n, size=n_active, replace=False).tolist())
    vertices = [Vertex(f"n{i}", "active" if i in active else "inert") for i in range(n)]
    vertices += [Vertex(f"e{k}", "exit") for k in range(n_exit)]
    edges = [Edge((u, v), float(rng.uniform(0.3, 1.8)), float(rng.uniform(0.5, 2.0)))
             for u, v in pairs]
    return MetricGraph(tuple(vertices), tuple(edges))


def explicit_rows(g: MetricGraph, rng: np.random.Generator) -> EdgeWeights:
    """Random explicit weight rows at every vertex."""
    p = {}
    for vid in g.vertex_ids:
        ks = [k for k, e in enumerate(g.edges) if vid in e.endpoints]
        raw = rng.uniform(0.1, 1.0, len(ks))
        p.update({(vid, k): float(x) for k, x in zip(ks, raw / raw.sum())})
    return EdgeWeights(p)


def with_chords(g: MetricGraph, rng: np.random.Generator, count: int) -> MetricGraph:
    """g with count more edges between random inert or active vertices;
    a chord may run beside an edge, as a parallel edge."""
    inner = [v.id for v in g.vertices if v.role != "exit"]
    chords = [Edge(tuple(rng.choice(inner, size=2, replace=False).tolist()),
                   float(rng.uniform(0.3, 1.8)), float(rng.uniform(0.5, 2.0)))
              for _ in range(count)]
    return MetricGraph(g.vertices, g.edges + tuple(chords))


def dead_end_graphs(
    rng: np.random.Generator, sizes: tuple[int, int], chords: int
) -> list[tuple[str, MetricGraph, EdgeWeights]]:
    """(id, graph, weights): three random trees and three graphs with
    ``chords`` chords, of core sizes drawn from range(*sizes), with
    dead-end branches, each with derived and with explicit weights."""
    cases = []
    for i in range(6):
        g = branchy_tree(rng, n=int(rng.integers(*sizes)), n_active=int(rng.integers(1, 4)))
        if i >= 3:
            g = with_chords(g, rng, chords)
        kind = "cyclic" if i >= 3 else "tree"
        cases.append((f"{kind}{i}-derived", g, derive_weights(g)))
        cases.append((f"{kind}{i}-explicit", g, explicit_rows(g, rng)))
    return cases


def parallel_branch_graph() -> MetricGraph:
    """A Y around j with a branch u behind two parallel edges: u stays,
    its leaf b and the start arm x0 are dead ends."""
    return MetricGraph(
        tuple(Vertex(v, role) for v, role in (
            ("x0", "inert"), ("j", "inert"), ("c", "active"), ("a", "exit"),
            ("u", "inert"), ("b", "inert"))),
        (Edge(("x0", "j"), 1.0), Edge(("j", "c"), 0.8, 2.0), Edge(("j", "a"), 1.2),
         Edge(("j", "u"), 0.6), Edge(("u", "j"), 0.9, 0.5), Edge(("u", "b"), 0.4)),
    )


def dead_end_path(depth: int) -> tuple[MetricGraph, tuple[str, ...]]:
    """The chain v0 -1- c1 -0.5- c2 -0.8- c3 -0.7- a with an inert path
    b0 ... b(depth-1) hanging on c1, and that path."""
    g, _, _ = chain_graph((1.0, 0.5, 0.8, 0.7))
    path = tuple(f"b{i}" for i in range(depth))
    return MetricGraph(g.vertices + tuple(Vertex(v) for v in path),
                       g.edges + tuple(Edge((u, v), 0.3 + 0.01 * i)
                                       for i, (u, v) in enumerate(zip(["c1", *path], path)))
                       ), path


def graph_document(g: MetricGraph, w: EdgeWeights) -> dict:
    """g as a graph document, with every weight of w as an explicit row."""
    rows: dict[str, dict[str, float]] = {}
    for (vid, k), p in w.p.items():
        rows.setdefault(vid, {})[str(k)] = p
    return {
        "vertices": [{"id": v.id, "role": v.role} for v in g.vertices],
        "edges": [{"from": e.endpoints[0], "to": e.endpoints[1], "length": e.length,
                   "radius": e.radius} for e in g.edges],
        "weights": rows,
        "dimension": g.dimension,
    }


def assert_same_field(got, want) -> None:
    """Two survival fields hold the same survival and converted rows, bit
    for bit."""
    for name in ("survival", "converted"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
