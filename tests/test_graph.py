import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from graphreact import (
    Edge,
    EdgeWeights,
    MetricGraph,
    PointOnGraph,
    PreconditionError,
    Vertex,
    derive_weights,
    load_document,
    parse_document,
    uniform_weights,
    validate,
    weights_violations,
)
from helpers import path_graph, random_graph
from oracles import split_at

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_minimal_valid_graph():
    g = MetricGraph(
        (Vertex("v0"), Vertex("a", "exit")),
        (Edge(("v0", "a"), 1.0),),
    )
    assert validate(g) == []


def test_exit_degree_violation():
    g = MetricGraph(
        (Vertex("v0"), Vertex("a", "exit"), Vertex("b")),
        (Edge(("v0", "a"), 1.0), Edge(("a", "b"), 1.0)),
    )
    problems = validate(g)
    assert any("'a'" in p and "degree" in p for p in problems)


def test_zero_length_edge_violation():
    g = MetricGraph(
        (Vertex("v0"), Vertex("a", "exit")),
        (Edge(("v0", "a"), 0.0),),
    )
    assert any("length" in p for p in validate(g))


def test_structural_violations():
    g = MetricGraph(
        (Vertex("v0"), Vertex("v0"), Vertex("a", "exit")),
        (
            Edge(("v0", "v0"), 1.0),
            Edge(("v0", "ghost"), 1.0),
            Edge(("v0", "a"), -2.0),
        ),
    )
    problems = "\n".join(validate(g))
    assert "duplicate vertex id" in problems
    assert "self-loop" in problems
    assert "unknown vertex 'ghost'" in problems
    assert "length" in problems


def test_unsound_graph_messages_in_order():
    # validation and the weight rules read the edge list itself, so they
    # run on graphs with duplicate ids, unknown ends and self-loops
    g = MetricGraph(
        (Vertex("v0"), Vertex("v0"), Vertex("a", "exit"), Vertex("b", "weird")),
        (Edge(("v0", "v0"), 1.0, 2.0), Edge(("v0", "ghost"), 1.0, 0.5),
         Edge(("v0", "a"), -2.0), Edge(("a", "b"), 1.0)),
    )
    assert validate(g) == [
        "duplicate vertex id 'v0'",
        "vertex 'b' has unknown role 'weird'",
        "edge 0 ('v0'-'v0') is a self-loop",
        "edge 1 ('v0'-'ghost') references unknown vertex 'ghost'",
        "edge 2 ('v0'-'a') has non-positive length -2.0",
        "exit vertex 'a' has degree 2, expected 1",
    ]
    assert list(uniform_weights(g).p.items()) == [
        (("v0", 0), 0.25), (("v0", 1), 0.25), (("v0", 2), 0.25),
        (("a", 2), 0.5), (("a", 3), 0.5), (("b", 3), 1.0),
    ]
    assert list(derive_weights(g).p) == list(uniform_weights(g).p)
    bad = EdgeWeights({("v0", 0): 0.7, ("ghost", 1): 0.5, ("a", 2): 2.0})
    assert weights_violations(g, bad) == [
        "weight for non-incident pair ('ghost', 1)",
        "missing weight at vertex 'v0', edge 1",
        "missing weight at vertex 'v0', edge 2",
        "weight at vertex 'a', edge 2 outside (0,1]: 2.0",
        "missing weight at vertex 'a', edge 3",
        "missing weight at vertex 'b', edge 3",
    ]


def test_no_exit_and_unreachable():
    assert any("no exit" in p for p in validate(
        MetricGraph((Vertex("v0"),), ())
    ))
    g = MetricGraph(
        (Vertex("v0"), Vertex("a", "exit"), Vertex("lost"), Vertex("lost2")),
        (Edge(("v0", "a"), 1.0), Edge(("lost", "lost2"), 1.0)),
    )
    problems = validate(g)
    assert any("'lost'" in p and "no path" in p for p in problems)


def test_parallel_edges_allowed():
    g = MetricGraph(
        (Vertex("u"), Vertex("v"), Vertex("a", "exit")),
        (Edge(("u", "v"), 1.0), Edge(("u", "v"), 2.0), Edge(("v", "a"), 1.0)),
    )
    assert validate(g) == []
    w = derive_weights(g)
    assert w.at("u", 0) == pytest.approx(0.5)
    assert w.at("u", 1) == pytest.approx(0.5)


def test_derive_weights_uniform_radii_degree3():
    g = MetricGraph(
        (Vertex("c"), Vertex("a", "exit"), Vertex("b0"), Vertex("b1")),
        (
            Edge(("c", "a"), 1.0),
            Edge(("c", "b0"), 2.0),
            Edge(("c", "b1"), 0.5),
        ),
    )
    w = derive_weights(g)
    for k in range(3):
        assert w.at("c", k) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_derive_weights_radius_rule():
    def two_edge_graph(d, r0, r1):
        return MetricGraph(
            (Vertex("c"), Vertex("a", "exit"), Vertex("b")),
            (Edge(("c", "a"), 1.0, r0), Edge(("c", "b"), 1.0, r1)),
            dimension=d,
        )

    w = derive_weights(two_edge_graph(2, 1.0, 3.0))
    assert w.at("c", 0) == pytest.approx(0.25, abs=1e-15)
    assert w.at("c", 1) == pytest.approx(0.75, abs=1e-15)

    w = derive_weights(two_edge_graph(3, 1.0, 2.0))
    assert w.at("c", 0) == pytest.approx(0.2, abs=1e-15)
    assert w.at("c", 1) == pytest.approx(0.8, abs=1e-15)


@pytest.mark.parametrize("dimension, scale", [(3, 1e200), (400, 10.0)])
def test_derive_weights_at_huge_radius_powers(dimension, scale):
    g = MetricGraph(
        (Vertex("c"), Vertex("a", "exit"), Vertex("b"), Vertex("e")),
        (Edge(("c", "a"), 1.0, scale), Edge(("c", "b"), 1.0, scale),
         Edge(("c", "e"), 1.0, scale), Edge(("b", "e"), 1.0, scale / 2.0)),
        dimension=dimension,
    )
    w = derive_weights(g)
    assert [w.at("c", k) for k in range(3)] == [1.0 / 3.0] * 3
    assert w.at("b", 1) == 1.0 / (1.0 + 0.5 ** (dimension - 1))
    assert weights_violations(g, w) == []


def test_weight_rows_sum_to_one_randomized():
    rng = np.random.default_rng(42)
    for _ in range(30):
        g, _ = random_graph(rng, random_radii=True)
        w = derive_weights(g)
        assert weights_violations(g, w) == []
        for vid in g.vertex_ids:
            row = sum(w.at(vid, k) for k, e in enumerate(g.edges) if vid in e.endpoints)
            assert abs(row - 1.0) <= 1e-12


def _radius_rule(g):
    """p_v(e) vertex by vertex: each radius over the largest at v, to the
    power d - 1, over their sum taken in edge order."""
    p = {}
    for vid in g.vertex_ids:
        radii = {k: e.radius for k, e in enumerate(g.edges) if vid in e.endpoints}
        top = max(radii.values())
        powers = {k: (r / top) ** (g.dimension - 1) for k, r in radii.items()}
        total = sum(powers.values())
        p.update({(vid, k): x / total for k, x in powers.items()})
    return p


def test_derive_weights_equal_the_per_vertex_rule():
    graphs = [parse_document(load_document(path)).graph
              for path in sorted(FIXTURES.glob("*.json"))]
    rng = np.random.default_rng(31)
    for _ in range(40):
        g, _ = random_graph(rng, random_radii=True)
        # and a parallel copy of one edge, with its own radius
        e = g.edges[int(rng.integers(len(g.edges)))]
        twin = Edge(e.endpoints, 0.9, float(rng.uniform(0.5, 2.0)))
        graphs.append(MetricGraph(g.vertices, g.edges + (twin,)))
    for g in graphs:
        for d in range(1, 6):
            g = MetricGraph(g.vertices, g.edges, d)
            assert list(derive_weights(g).p.items()) == list(_radius_rule(g).items())


def test_split_bookkeeping():
    g, _ = path_graph(2.0, 1.0)
    g2, mid = split_at(g, PointOnGraph.on_edge(0, 0.5))
    assert validate(g2) == []
    assert sum(mid in e.endpoints for e in g2.edges) == 2
    assert g2.vertices[g2.vertex_index[mid]].role == "inert"
    lengths = sorted(e.length for e in g2.edges if mid in e.endpoints)
    assert lengths == [0.5, 1.5]
    # untouched edge keeps its index and data
    assert g2.edges[1] == g.edges[1]
    # children inherit the radius
    for e in g2.edges:
        if mid in e.endpoints:
            assert e.radius == g.edges[0].radius


def test_split_identity_on_vertex_point():
    g, start = path_graph()
    g2, vid = split_at(g, PointOnGraph.at_vertex(start))
    assert g2 is g and vid == start


def test_split_offset_out_of_range():
    g, _ = path_graph()
    for off in (-0.5, 2.0):
        with pytest.raises(PreconditionError):
            split_at(g, PointOnGraph.on_edge(0, off))
    # an end of the edge is its vertex: nothing to split
    for off, end in ((0.0, "v0"), (1.0, "c")):
        g2, vid = split_at(g, PointOnGraph.on_edge(0, off))
        assert g2 is g and vid == end


def test_point_form_validation():
    with pytest.raises(PreconditionError):
        PointOnGraph()
    with pytest.raises(PreconditionError):
        PointOnGraph(vertex="v", edge=0, offset=0.5)
    with pytest.raises(PreconditionError):
        PointOnGraph(edge=0)


def test_explicit_weight_violations_detected():
    from graphreact import EdgeWeights

    g, _ = path_graph()
    bad = EdgeWeights({("v0", 0): 0.7, ("c", 0): 0.5, ("c", 1): 0.5, ("a", 1): 1.0})
    assert any("sum" in p for p in weights_violations(g, bad))
    missing = EdgeWeights({("v0", 0): 1.0, ("c", 0): 1.0, ("a", 1): 1.0})
    assert any("missing" in p for p in weights_violations(g, missing))


def test_uniform_weights_match_equal_radii():
    rng = np.random.default_rng(7)
    g, _ = random_graph(rng, random_radii=False)
    assert uniform_weights(g).p == derive_weights(g).p


def test_weights_keep_their_own_copy_and_pickle():
    rng = np.random.default_rng(9)
    g, _ = random_graph(rng, random_radii=True)
    table = dict(derive_weights(g).p)
    w = EdgeWeights(table)
    table.clear()  # the weights keep their own copy
    assert w == derive_weights(g)
    assert pickle.loads(pickle.dumps(w)) == w


def test_edges_that_are_not_plain_floats_get_every_check():
    # ints, float subclasses, bools, nan and inf take the checks that
    # build each message, with the same outcome as before
    g = MetricGraph(
        (Vertex("v0"), Vertex("b"), Vertex("c"), Vertex("a", "exit")),
        (Edge(("v0", "b"), 2), Edge(("b", "c"), np.float64(0.5), True),
         Edge(("c", "a"), float("nan"), float("inf"))),
    )
    assert validate(g) == [
        "edge 2 ('c'-'a') has non-positive length nan",
        "edge 2 ('c'-'a') has non-positive radius inf",
    ]
    assert validate(MetricGraph(g.vertices, g.edges[:2] + (Edge(("c", "a"), 1.0),))) == []


def test_role_masks_are_cached_and_read_only():
    g = MetricGraph(
        (Vertex("v0"), Vertex("c", "active"), Vertex("j"), Vertex("a", "exit"),
         Vertex("d", "active"), Vertex("b", "exit")),
        (Edge(("v0", "c"), 1.0), Edge(("c", "j"), 1.0), Edge(("j", "a"), 1.0),
         Edge(("j", "d"), 1.0), Edge(("d", "b"), 1.0)),
    )
    assert g.site_mask.tolist() == [False, True, False, False, True, False]
    assert g.exit_mask.tolist() == [False, False, False, True, False, True]
    assert g.site_mask is g.site_mask and g.exit_mask is g.exit_mask
    for mask in (g.site_mask, g.exit_mask):
        with pytest.raises(ValueError):
            mask[0] = True


@pytest.mark.parametrize("dimension, radius", [
    (2000, 0.5),  # 0.5**1999 underflows
    (3, 1e-200),  # 1e-200**2 underflows
])
def test_derived_weight_that_underflows_is_rejected(dimension, radius):
    # v0's only edge gets weight 1; at c, the edge of the small radius gets 0
    g = MetricGraph(
        (Vertex("v0"), Vertex("c", "active"), Vertex("a", "exit")),
        (Edge(("v0", "c"), 1.0, radius), Edge(("c", "a"), 1.0, 1.0)),
        dimension,
    )
    message = (f"weight at vertex 'c' on edge 0 underflows to 0 "
               f"(radius {radius!r}, dimension {dimension})")
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        derive_weights(g)


def test_derived_weights_just_above_underflow_stay_positive():
    # 1e-160**2 is subnormal, not 0
    g = MetricGraph(
        (Vertex("v0"), Vertex("c", "active"), Vertex("a", "exit")),
        (Edge(("v0", "c"), 1.0, 1e-160), Edge(("c", "a"), 1.0)),
    )
    w = derive_weights(g)
    assert 0.0 < w.at("c", 0) < 1e-300
    assert weights_violations(g, w) == []
