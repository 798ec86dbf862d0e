"""Shared graph builders and randomized-instance generators for the tests."""

from __future__ import annotations

import numpy as np

from graphreact import Edge, MetricGraph, Vertex, derive_weights


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
