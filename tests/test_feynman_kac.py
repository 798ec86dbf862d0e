import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from graphreact import (
    KappaSpec,
    MetricGraph,
    PointOnGraph,
    PreconditionError,
    conversion,
    derive_weights,
    evaluate_at,
    graph,
    hitting_split,
    solve_survival,
)
from graphreact.feynman_kac import survival_curve
from helpers import (
    chain_graph,
    dead_end_graphs,
    dead_end_path,
    graph_document,
    parallel_branch_graph,
    path_graph,
    random_graph,
    star_graph,
    y_graph,
)
from oracles import dead_end_parents, exact_survival, split_at


def _reference_survival():
    """perfbench's sparse solve of the whole vertex system, assembled from a
    graph document with scipy alone."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "graphs.py"
    spec = importlib.util.spec_from_file_location("perfbench_graphs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_survival


reference_survival = _reference_survival()


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


def _dead_end_cases():
    """(id, graph, weights), each with dead-end branches: random trees and
    cyclic graphs with derived and explicit weights, a branch behind
    parallel edges, which stays, and a dead-end path longer than
    _DEAD_END_ROUNDS, which strips only in part.  Small enough for the
    exact oracle."""
    cases = dead_end_graphs(np.random.default_rng(25), (8, 18), 2)
    g = parallel_branch_graph()
    cases.append(("parallel", g, derive_weights(g)))
    g, _ = dead_end_path(graph._DEAD_END_ROUNDS + 4)
    cases.append(("deep", g, derive_weights(g)))
    return [pytest.param(g, w, id=name) for name, g, w in cases]


_DEAD_END_CASES = _dead_end_cases()


def _assert_exact(g, w, ks, field, reference=True):
    """Every vertex of the field within 1e-9 of the exact survival and, for
    finite kappa, of the reference solve."""
    exact = exact_survival(g, w, ks)
    want = {v: float(x) for v, x in exact.items()}
    if reference:
        kappa = dict(zip(g.active_vertices, ks.values(g.active_vertices).tolist()))
        ref = reference_survival(graph_document(g, w), kappa)
    for v in g.vertex_ids:
        assert abs(field[v] - want[v]) <= 1e-9, (v, field[v], want[v])
        if reference:
            assert abs(field[v] - ref[v]) <= 1e-9, (v, field[v], ref[v])


@pytest.mark.parametrize("g, w", _DEAD_END_CASES)
def test_fk_with_dead_ends_matches_the_exact_and_reference_solves(g, w):
    assert dead_end_parents(g)
    rng = np.random.default_rng(len(g.vertex_ids))
    for ks in (KappaSpec.constant(0.7),
               KappaSpec.per_vertex({s: float(rng.uniform(0.05, 20.0))
                                     for s in g.active_vertices})):
        _assert_exact(g, w, ks, solve_survival(g, w, ks))
    # the stacked sweep gives the same fields
    specs = [KappaSpec.constant(k) for k in (0.0, 0.7, 30.0)]
    for ks, field in zip(specs, survival_curve(g, w, specs)):
        assert field.values == solve_survival(g, w, ks).values


def test_fk_with_a_dead_end_path_longer_than_the_rounds():
    # the rounds strip the path's far end only; its 4 vertices nearest c1 stay
    g, path = dead_end_path(graph._DEAD_END_ROUNDS + 4)
    kept = [g.vertex_ids[v] for v in np.flatnonzero(g.dead_ends == np.arange(len(g.vertex_ids)))]
    assert [v for v in kept if v.startswith("b")] == list(path[:4])
    w = derive_weights(g)
    field = solve_survival(g, w, KappaSpec.constant(1.5))
    assert len({field[v] for v in path[4:]}) == 1
    _assert_exact(g, w, KappaSpec.constant(1.5), field)


def test_fk_with_infinite_kappa_at_a_site_that_has_a_dead_end_branch():
    # b0-b1-b2 and the start arm v0 hang on c1: absorbed there, they survive with 0
    g, path = dead_end_path(3)
    w = derive_weights(g)
    assert set(dead_end_parents(g)) == {"v0", *path}
    for ks in (KappaSpec.per_vertex({"c1": math.inf, "c2": 0.4, "c3": 2.0}),
               KappaSpec.constant(math.inf)):
        field = solve_survival(g, w, ks)
        assert all(field[v] == 0.0 for v in ("c1", "v0", *path))
        _assert_exact(g, w, ks, field, reference=False)  # the reference takes finite kappa


@pytest.mark.parametrize("g, w", _DEAD_END_CASES[:2] + _DEAD_END_CASES[-2:-1])
def test_fk_from_a_start_inside_a_dead_end_edge(g, w):
    parent = dead_end_parents(g)
    ks = KappaSpec.constant(2.0)
    field, exact = solve_survival(g, w, ks), exact_survival(g, w, ks)
    edges = [k for k, e in enumerate(g.edges) if any(v in parent for v in e.endpoints)]
    assert edges
    for k in edges:
        x = PointOnGraph.on_edge(k, 0.3 * g.edges[k].length)
        (root,) = {_root(parent, v) for v in g.edges[k].endpoints}
        assert evaluate_at(field, x) == field[root]
        assert abs(evaluate_at(field, x) - float(exact[root])) <= 1e-9
        alpha = conversion(g, w, x, ks).alpha
        assert abs(alpha - (1.0 - evaluate_at(field, x))) <= 1e-9


def _root(parent, v):
    while v in parent:
        v = parent[v]
    return v


@pytest.mark.parametrize("g, w", _DEAD_END_CASES[:-1])
def test_the_dead_end_map_matches_the_oracle(g, w):
    parent = dead_end_parents(g)
    index = g.vertex_index
    want = [index[_root(parent, v)] for v in g.vertex_ids]
    assert g.dead_ends.tolist() == want
    assert not g.dead_ends.flags.writeable


def test_the_dead_end_map_is_computed_once_per_graph(monkeypatch):
    calls = []
    strip = graph._dead_ends

    def counting(g):
        calls.append(g)
        return strip(g)

    monkeypatch.setattr(graph, "_dead_ends", counting)
    g0, w0 = _DEAD_END_CASES[0].values
    g = MetricGraph(g0.vertices, g0.edges, g0.dimension)  # nothing memoized yet
    w = derive_weights(g)
    start = g.vertex_ids[0]
    conversion(g, w, start, KappaSpec.constant(1.0))
    assert len(calls) == 1
    solve_survival(g, w, KappaSpec.constant(1.0))
    survival_curve(g, derive_weights(g), [KappaSpec.constant(2.0)])
    assert calls == [g]
