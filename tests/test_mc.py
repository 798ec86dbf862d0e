import numpy as np
import pytest

from graphreact import (
    Edge,
    KappaSpec,
    MetricGraph,
    PointOnGraph,
    PreconditionError,
    SimConfig,
    Vertex,
    build_grid,
    derive_weights,
    estimate_survival,
    hitting_split,
    simulate,
)
from helpers import chain_graph, path_graph, star_graph, y_graph


def test_grid_substeps_single_edge():
    g = MetricGraph(
        (Vertex("v0"), Vertex("a", "exit")),
        (Edge(("v0", "a"), 1.0),),
    )
    grid = build_grid(g, derive_weights(g), 0.25)
    assert grid.substeps == (4,)
    assert grid.size == 2 + 3  # two vertices, three interior nodes


def test_grid_vertex_transitions_reduce_to_weights():
    # equal substep sizes at the center: transition probs are p_v(e)
    g, _ = star_graph(3, exit_len=1.0, leaf_lengths=(1.0, 1.0))
    w = derive_weights(g)
    grid = build_grid(g, w, 0.25)
    center = grid.vertex_node["c"]
    probs = np.diff(np.concatenate([[0.0], grid.cum[center]]))
    assert np.allclose(sorted(probs[:3]), [1 / 3] * 3, atol=1e-12)


def test_grid_mixed_steps_normalized():
    g = MetricGraph(
        (Vertex("j"), Vertex("a", "exit"), Vertex("b")),
        (Edge(("j", "a"), 1.0), Edge(("j", "b"), 0.7)),
    )
    grid = build_grid(g, derive_weights(g), 0.25)
    j = grid.vertex_node["j"]
    assert grid.cum[j, -1] == 1.0


def test_grid_interior_point_lookup():
    g, _ = path_graph(1.0, 1.0)
    grid = build_grid(g, derive_weights(g), 0.25)
    node = grid.node_index(PointOnGraph.on_edge(0, 0.5))
    assert node >= len(g.vertex_ids)
    assert grid.node_index(PointOnGraph.on_edge(0, 0.25)) != node
    with pytest.raises(PreconditionError):
        grid.node_index(PointOnGraph.on_edge(0, 0.3))


def test_step_larger_than_edge_rejected():
    g, _ = path_graph(1.0, 0.4)
    with pytest.raises(PreconditionError):
        build_grid(g, derive_weights(g), 0.5)


def test_kappa_zero_exact():
    g, start = path_graph()
    w = derive_weights(g)
    est = simulate(g, w, KappaSpec.constant(0.0), start, SimConfig(0.25, 400, 9))
    assert est.mean == 1.0
    assert est.standard_error == 0.0
    assert est.capped == 0


def test_path_reference_run_within_four_se():
    # the heavyweight reference run: 1e5 trajectories at step 0.05
    g, start = path_graph()
    w = derive_weights(g)
    cfg = SimConfig(step=0.05, trajectories=100_000, seed=11)
    est = simulate(g, w, KappaSpec.constant(1.0), start, cfg)
    assert abs(est.mean - 1.0 / 3.0) <= 4.0 * est.standard_error
    assert est.standard_error <= 2e-3


def test_star_within_four_se():
    g, start = star_graph(3, exit_len=1.0, leaf_lengths=(1.0, 1.0))
    w = derive_weights(g)
    cfg = SimConfig(step=0.25, trajectories=30_000, seed=5)
    est = simulate(g, w, KappaSpec.constant(2.0), start, cfg)
    assert abs(est.mean - 1.0 / 7.0) <= 4.0 * est.standard_error


def test_bit_identical_reruns_and_thread_invariance():
    g, start = star_graph(3, exit_len=1.0, leaf_lengths=(1.0, 1.0))
    w = derive_weights(g)
    runs = []
    for _ in range(3):
        cfg = SimConfig(step=0.25, trajectories=20_000, seed=123)
        runs.append(simulate(g, w, KappaSpec.constant(2.0), start, cfg))
    assert runs[0].mean == runs[1].mean == runs[2].mean
    assert runs[0].standard_error == runs[1].standard_error == runs[2].standard_error


def test_seed_changes_the_estimate():
    g, start = path_graph()
    w = derive_weights(g)
    ks = KappaSpec.constant(1.0)
    a = simulate(g, w, ks, start, SimConfig(0.25, 5_000, 1))
    b = simulate(g, w, ks, start, SimConfig(0.25, 5_000, 2))
    assert a.mean != b.mean


def test_absorb_at_sites_matches_hitting_probability():
    g, start = y_graph()
    w = derive_weights(g)
    est = simulate(
        g, w, KappaSpec.constant(float("inf")), start, SimConfig(0.25, 40_000, 3)
    )
    alpha_inf = hitting_split(g, w, start).alpha_inf
    se = max(est.standard_error, 1e-6)
    assert abs((1.0 - est.mean) - alpha_inf) <= 4.0 * se


def test_non_grid_start_rejected():
    g, _ = path_graph()
    w = derive_weights(g)
    grid = build_grid(g, w, 0.25)
    with pytest.raises(PreconditionError):
        estimate_survival(
            grid, KappaSpec.constant(1.0), PointOnGraph.on_edge(0, 0.33),
            SimConfig(0.25, 10, 1),
        )


def test_step_cap_reported_and_biased_flag():
    g, start = path_graph()
    w = derive_weights(g)
    cfg = SimConfig(step=0.25, trajectories=500, seed=4, step_cap=3)
    est = simulate(g, w, KappaSpec.constant(1.0), start, cfg)
    assert est.capped > 0
    assert est.biased
    assert 0.0 <= est.mean <= 1.0
    assert est.steps_max <= 3


def test_start_at_exit_is_certain_survival():
    g, _ = path_graph()
    w = derive_weights(g)
    est = simulate(g, w, KappaSpec.constant(3.0), "a", SimConfig(0.25, 100, 8))
    assert est.mean == 1.0
    assert est.steps_max == 0


def test_interior_start_matches_split_solve():
    # starting from an interior grid node is also exact; compare with the
    # field solver after splitting there
    from graphreact import solve_survival, split_at

    g, _ = path_graph()
    w = derive_weights(g)
    x = PointOnGraph.on_edge(1, 0.5)
    g2, mid = split_at(g, x)
    exact = solve_survival(g2, derive_weights(g2), KappaSpec.constant(1.0))[mid]
    est = simulate(g, w, KappaSpec.constant(1.0), x, SimConfig(0.25, 40_000, 21))
    assert abs(est.mean - exact) <= 4.0 * est.standard_error


def test_per_site_kappa_supported():
    from graphreact import solve_survival

    g, start, sites = chain_graph((1.0, 1.0, 1.0))
    w = derive_weights(g)
    ks = KappaSpec.per_vertex({sites[0]: 0.5, sites[1]: 3.0})
    exact = solve_survival(g, w, ks)[start]
    est = simulate(g, w, ks, start, SimConfig(0.25, 30_000, 6))
    assert abs(est.mean - exact) <= 4.0 * est.standard_error


def test_uniform_stays_below_one():
    from graphreact.mc import _uniform

    u = _uniform(np.array([0, 2**64 - 1], dtype=np.uint64))
    assert u[0] == 0.0
    assert u[1] < 1.0
    assert 1.0 - u[1] > 0.0


def test_vertex_transitions_do_not_grow_with_refinement():
    # returns to a vertex are one draw, so the transition count per
    # trajectory does not depend on the step
    g, start = path_graph()
    w = derive_weights(g)
    for step in (0.25, 0.02):
        est = simulate(g, w, KappaSpec.constant(1.0), start, SimConfig(step, 20_000, 17))
        assert est.steps_mean < 20
        assert est.capped == 0
        assert abs(est.mean - 1.0 / 3.0) <= 4.0 * est.standard_error


def test_parallel_edges_with_different_substeps():
    # an active vertex joined to the next by edges of 1 and 4 substeps
    from graphreact import solve_survival

    g = MetricGraph(
        (Vertex("v0"), Vertex("c", "active"), Vertex("b", "active"), Vertex("a", "exit")),
        (
            Edge(("v0", "c"), 1.0),
            Edge(("c", "b"), 0.25),
            Edge(("c", "b"), 1.0),
            Edge(("b", "a"), 1.0),
        ),
    )
    w = derive_weights(g)
    grid = build_grid(g, w, 0.25)
    assert grid.substeps == (4, 1, 4, 4)
    ks = KappaSpec.per_vertex({"c": 1.5, "b": 0.7})
    exact = solve_survival(g, w, ks)["v0"]
    est = estimate_survival(grid, ks, "v0", SimConfig(0.25, 40_000, 31))
    assert abs(est.mean - exact) <= 4.0 * est.standard_error


def test_off_center_interior_start():
    # node 1 of 4 on the edge c-a: the exit end is reached first w.p. 1/4
    from graphreact import solve_survival, split_at

    g, _ = path_graph()
    x = PointOnGraph.on_edge(1, 0.25)
    g2, mid = split_at(g, x)
    exact = solve_survival(g2, derive_weights(g2), KappaSpec.constant(2.0))[mid]
    est = simulate(g, derive_weights(g), KappaSpec.constant(2.0), x, SimConfig(0.25, 40_000, 8))
    assert abs(est.mean - exact) <= 4.0 * est.standard_error


def test_capped_product_counts_the_current_visit():
    # one transition takes every walker from v0 to the site c, where one
    # visit has mean local time 1/(2*0.5/0.25) = 0.25
    g, start = path_graph()
    cfg = SimConfig(step=0.25, trajectories=100, seed=4, step_cap=1)
    est = simulate(g, derive_weights(g), KappaSpec.constant(1.0), start, cfg)
    assert est.capped == 100
    assert est.steps_max == 1
    assert est.mean == pytest.approx(1.0 / 1.25, rel=1e-12)
