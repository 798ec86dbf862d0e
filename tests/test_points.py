"""Starts anywhere on the graph.

An edge end is its vertex on every route, bit for bit, and a point inside
an edge gives what a graph cut there gives (oracles.cut_at).
"""

import math

import numpy as np
import pytest

from graphreact import (
    ActiveZoneSpec,
    KappaSpec,
    PointOnGraph,
    PreconditionError,
    SimConfig,
    build_grid,
    collapse_study,
    conversion,
    derive_weights,
    estimate_survival,
    evaluate_at,
    hitting_split,
    rational_form,
    simulate,
    solve_diffuse,
    solve_survival,
)
from graphreact.graph import locate
from helpers import path_graph, random_graph
from oracles import cut_at

KS = KappaSpec.constant(1.3)
ZONE = ActiveZoneSpec(rate=1.3, delta=1.0, diffusion=1.0, h=0.1)
CFG = SimConfig(0.25, 2000, 5)


def _split(g, w, x):
    hs = hitting_split(g, w, x)
    return hs.alpha_inf, hs.p.tolist(), hs.active


# each route's result at a start, as a value that == compares bit for bit
ROUTES = {
    "conversion": lambda g, w, x: conversion(g, w, x, KS),
    "hitting_split": _split,
    "rational_form": lambda g, w, x: rational_form(g, w, x),
    "evaluate_at": lambda g, w, x: evaluate_at(solve_survival(g, w, KS), x),
    "collapse_study": lambda g, w, x: collapse_study(g, w, ZONE, [0.1, 0.05], x),
    "estimate_survival": lambda g, w, x: estimate_survival(build_grid(g, w, 0.25), KS, x, CFG),
}

# (edge, offset, vertex) on path_graph(0.7, 1.3): v0 -0.7- c -1.3- a
ENDS = [(0, 0.0, "v0"), (0, -0.0, "v0"), (0, 0.7, "c"),
        (1, 0.0, "c"), (1, -0.0, "c"), (1, 1.3, "a")]


@pytest.mark.parametrize("edge, offset, vertex", ENDS)
def test_locate_makes_an_edge_end_its_vertex(edge, offset, vertex):
    g, _ = path_graph(0.7, 1.3)
    assert locate(g, PointOnGraph.on_edge(edge, offset)) == PointOnGraph.at_vertex(vertex)
    assert locate(g, PointOnGraph.on_edge(edge, offset)) == locate(g, vertex)


def test_locate_keeps_a_point_inside_an_edge_and_rejects_the_rest():
    g, _ = path_graph(0.7, 1.3)
    inside = PointOnGraph.on_edge(1, 0.4)
    assert locate(g, inside) is inside
    assert locate(g, "c") == PointOnGraph.at_vertex("c")
    assert not locate(g, inside).is_vertex
    for bad in ("ghost", PointOnGraph.on_edge(2, 0.1), PointOnGraph.on_edge(0, 0.7000001),
                PointOnGraph.on_edge(0, -1e-300), PointOnGraph.on_edge(0, math.nan)):
        with pytest.raises(PreconditionError):
            locate(g, bad)


@pytest.mark.parametrize("route", list(ROUTES))
@pytest.mark.parametrize("edge, offset, vertex", ENDS)
def test_an_edge_end_gives_its_vertex_result_bit_for_bit(route, edge, offset, vertex):
    # a graph each, so that no memo entry is shared
    (g1, _), (g2, _) = path_graph(0.7, 1.3), path_graph(0.7, 1.3)
    at_vertex = ROUTES[route](g1, derive_weights(g1), vertex)
    assert ROUTES[route](g2, derive_weights(g2), PointOnGraph.on_edge(edge, offset)) == at_vertex


def test_kac_routes_take_a_point_inside_an_edge():
    # v0 -1- c -1- a: alpha is 2/3 from v0 at kappa 1, and from offset s
    # of edge 1 the walk hits c before a with probability 1 - s
    g, _ = path_graph()
    w = derive_weights(g)
    x = PointOnGraph.on_edge(1, 0.25)
    hs = hitting_split(g, w, x)
    assert hs.alpha_inf == pytest.approx(0.75, abs=1e-14)
    assert hs.p.tolist() == [1.0]
    res = conversion(g, w, x, KappaSpec.constant(1.0))
    assert res.alpha == pytest.approx(0.75 * 2.0 / 3.0, abs=1e-14)
    assert conversion(g, w, PointOnGraph.on_edge(0, 0.25), KappaSpec.constant(1.0)).alpha \
        == pytest.approx(2.0 / 3.0, abs=1e-14)


def _interior_point(rng, g):
    k = int(rng.integers(len(g.edges)))
    return PointOnGraph.on_edge(k, float(rng.uniform(0.05, 0.95)) * g.edges[k].length)


def test_an_interior_start_matches_the_cut_graph_on_random_graphs():
    rng = np.random.default_rng(15)
    for _ in range(40):
        g, _ = random_graph(rng, random_radii=True)
        w = derive_weights(g)
        x = _interior_point(rng, g)
        g2, w2, mid = cut_at(g, w, x)
        hs, hs2 = hitting_split(g, w, x), hitting_split(g2, w2, mid)
        assert hs.alpha_inf == pytest.approx(hs2.alpha_inf, abs=1e-12)
        assert hs.p == pytest.approx(hs2.p, abs=1e-12)
        for kappa in (0.3, 2.0, math.inf):
            ks = KappaSpec.constant(kappa)
            assert conversion(g, w, x, ks).alpha == pytest.approx(
                conversion(g2, w2, mid, ks).alpha, abs=1e-12)
        assert evaluate_at(solve_survival(g, w, KS), x) == pytest.approx(
            solve_survival(g2, w2, KS)[mid], abs=1e-12)
        # zones narrower than a quarter of every edge of the cut graph
        zone = ActiveZoneSpec(1.3, 1.0, 1.0, h=min(e.length for e in g2.edges) / 4)
        assert solve_diffuse(g, w, zone).evaluate(x) == pytest.approx(
            solve_diffuse(g2, w2, zone).evaluate(mid), abs=1e-12)


def test_an_interior_start_in_mc_matches_the_cut_graph():
    rng = np.random.default_rng(16)
    for seed in range(6):
        g, _ = random_graph(rng, random_radii=True)
        w = derive_weights(g)
        x = _interior_point(rng, g)
        g2, w2, mid = cut_at(g, w, x)
        est = simulate(g, w, KS, x, SimConfig(0.25, 20_000, seed))
        assert abs(est.mean - solve_survival(g2, w2, KS)[mid]) <= 4.0 * est.standard_error

