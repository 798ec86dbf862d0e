import numpy as np
import pytest

from graphreact import (
    KappaSpec,
    PointOnGraph,
    PreconditionError,
    conversion,
    derive_weights,
    evaluate_at,
    hitting_split,
    solve_survival,
)
from helpers import chain_graph, path_graph, random_graph, star_graph, y_graph
from oracles import split_at


def test_star_hand_solved_system():
    # two unknowns: center value and the common leaf value
    g, _ = star_graph(4, exit_len=1.0)
    w = derive_weights(g)
    f = solve_survival(g, w, KappaSpec.constant(0.5))
    assert f["c"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    for leaf in ("b0", "b1", "b2"):
        assert f[leaf] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert f["a"] == pytest.approx(1.0, abs=1e-12)


def test_kappa_zero_gives_all_ones():
    rng = np.random.default_rng(2)
    for _ in range(5):
        g, _ = random_graph(rng)
        f = solve_survival(g, derive_weights(g), KappaSpec.constant(0.0))
        for vid in g.vertex_ids:
            assert f[vid] == pytest.approx(1.0, abs=1e-12)


def test_cross_method_agreement():
    rng = np.random.default_rng(77)
    for _ in range(30):
        g, start = random_graph(rng, random_radii=True)
        w = derive_weights(g)
        kappa = float(rng.uniform(0.0, 50.0))
        alpha_kac = conversion(g, w, start, KappaSpec.constant(kappa)).alpha
        psi = solve_survival(g, w, KappaSpec.constant(kappa))[start]
        assert abs(alpha_kac - (1.0 - psi)) <= 1e-9


def test_evaluate_at_interpolation():
    g, _ = path_graph(1.0, 1.0)
    w = derive_weights(g)
    f = solve_survival(g, w, KappaSpec.constant(1.0))
    mid = evaluate_at(f, PointOnGraph.on_edge(0, 0.5))
    assert mid == pytest.approx(0.5 * (f["v0"] + f["c"]), abs=1e-15)
    assert evaluate_at(f, "c") == f["c"]
    with pytest.raises(PreconditionError):
        evaluate_at(f, PointOnGraph.on_edge(0, 1.5))
    with pytest.raises(PreconditionError):
        evaluate_at(f, PointOnGraph.on_edge(7, 0.5))
    with pytest.raises(PreconditionError):
        evaluate_at(f, "ghost")


def test_evaluate_matches_midpoint_example():
    # affine interpolation between endpoint values 0.2 and 0.6
    from graphreact import MetricGraph, SurvivalField, Edge, Vertex

    g = MetricGraph(
        (Vertex("u"), Vertex("a", "exit")),
        (Edge(("u", "a"), 2.0),),
    )
    f = SurvivalField(g, {"u": 0.2, "a": 0.6})
    assert evaluate_at(f, PointOnGraph.on_edge(0, 1.0)) == pytest.approx(0.4, abs=1e-15)


def test_split_then_solve_matches_interpolation():
    rng = np.random.default_rng(10)
    for _ in range(10):
        g, _ = random_graph(rng)
        w = derive_weights(g)
        ks = KappaSpec.constant(float(rng.uniform(0.1, 5.0)))
        f = solve_survival(g, w, ks)
        k = int(rng.integers(0, len(g.edges)))
        off = float(rng.uniform(0.1, 0.9)) * g.edges[k].length
        x = PointOnGraph.on_edge(k, off)
        direct = evaluate_at(f, x)
        g2, mid = split_at(g, x)
        f2 = solve_survival(g2, derive_weights(g2), ks)
        assert abs(f2[mid] - direct) <= 1e-12


def test_bounds_and_strict_decrease_behind_site():
    g, start, _ = chain_graph((1.0, 1.0))
    w = derive_weights(g)
    f = solve_survival(g, w, KappaSpec.constant(2.0))
    for vid in g.vertex_ids:
        assert 0.0 <= f[vid] <= 1.0
    # the start is separated from the exit by the active site
    assert f[start] < 1.0


def test_monotone_in_kappa():
    rng = np.random.default_rng(40)
    for _ in range(15):
        g, _ = random_graph(rng)
        w = derive_weights(g)
        sites = g.active_vertices
        base = {s: float(rng.uniform(0.0, 3.0)) for s in sites}
        f1 = solve_survival(g, w, KappaSpec.per_vertex(base))
        bumped = dict(base)
        bump_site = sites[int(rng.integers(0, len(sites)))]
        bumped[bump_site] = base[bump_site] + float(rng.uniform(0.1, 5.0))
        f2 = solve_survival(g, w, KappaSpec.per_vertex(bumped))
        for vid in g.vertex_ids:
            assert f2[vid] <= f1[vid] + 1e-12


def test_infinite_kappa_matches_hitting_probability():
    g, start = y_graph()
    w = derive_weights(g)
    f = solve_survival(g, w, KappaSpec.constant(float("inf")))
    assert f["c"] == 0.0
    hs = hitting_split(g, w, start)
    assert f[start] == pytest.approx(1.0 - hs.alpha_inf, abs=1e-12)


def test_per_site_infinite_dirichlet():
    g, start, sites = chain_graph((1.0, 1.0, 1.0))
    w = derive_weights(g)
    ks = KappaSpec.per_vertex({sites[0]: float("inf"), sites[1]: 0.0})
    f = solve_survival(g, w, ks)
    assert f[sites[0]] == 0.0
    # everything behind the absorbing site is dead
    assert f[start] == pytest.approx(0.0, abs=1e-12)


def test_cross_method_agreement_2000_vertex_tree():
    # far above the sparse crossover: both routes factor with SuperLU
    rng = np.random.default_rng(2000)
    g, start = random_graph(rng, max_core=1998, min_core=1998, max_extra=0,
                            max_active=6, random_radii=True)
    w = derive_weights(g)
    sites = g.active_vertices
    for ks in (KappaSpec.constant(2.5),
               KappaSpec.per_vertex({s: float(rng.uniform(0.1, 10.0)) for s in sites})):
        alpha_kac = conversion(g, w, start, ks).alpha
        assert abs(alpha_kac - (1.0 - solve_survival(g, w, ks)[start])) <= 1e-9
