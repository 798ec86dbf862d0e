import json
import math
from pathlib import Path

import numpy as np
import pytest

from graphreact import (
    ActiveZoneSpec,
    Edge,
    EdgeWeights,
    KappaSpec,
    MetricGraph,
    PointOnGraph,
    PreconditionError,
    SimConfig,
    SimEstimate,
    SingularSystemError,
    Vertex,
    build_grid,
    derive_weights,
    estimate_survival,
    hitting_split,
    simulate,
    solve_diffuse,
    solve_survival,
)
from graphreact.graph import locate
from graphreact.harmonic import flux_coefficients
from helpers import (
    branchy_tree,
    chain_graph,
    hub_graph,
    path_graph,
    random_graph,
    star_graph,
    y_graph,
)
from oracles import dead_end_parents, scalar_walks


def test_grid_vertex_transitions_reduce_to_weights(monkeypatch):
    # equal edge lengths at the center: transition probs are p_v(e)
    g, _ = star_graph(3, exit_len=1.0, leaf_lengths=(1.0, 1.0))
    w = derive_weights(g)
    grid = _uncensored(monkeypatch, g, w)
    center = grid.graph.vertex_index["c"]
    probs = np.diff(np.concatenate([[0.0], grid.walk(locate(g, "c")).cum[center]]))
    assert np.allclose(sorted(probs[:3]), [1 / 3] * 3, atol=1e-12)


def test_grid_mixed_steps_normalized(monkeypatch):
    g = MetricGraph(
        (Vertex("j"), Vertex("a", "exit"), Vertex("b")),
        (Edge(("j", "a"), 1.0), Edge(("j", "b"), 0.7)),
    )
    grid = _uncensored(monkeypatch, g, derive_weights(g))
    j = grid.graph.vertex_index["j"]
    assert grid.walk(locate(g, "j")).cum[j, -1] == 1.0


@pytest.mark.parametrize("offset", [5.0, -0.5, float("nan"), float("inf")])
def test_grid_rejects_offsets_off_the_edge(offset):
    g, _ = path_graph()
    grid = build_grid(g, derive_weights(g), 0.5)
    with pytest.raises(PreconditionError, match="outside"):
        estimate_survival(grid, KappaSpec.constant(1.0), PointOnGraph.on_edge(0, offset),
                          SimConfig(0.5, 10, 1))


@pytest.mark.parametrize("edge, offset, vertex", [(0, 0.0, "v0"), (0, 1.0, "c"),
                                                  (1, 0.0, "c"), (1, 1.0, "a")])
def test_edge_ends_start_at_their_vertex(edge, offset, vertex):
    g, _ = path_graph()
    grid = build_grid(g, derive_weights(g), 0.25)
    ks, cfg = KappaSpec.constant(1.0), SimConfig(0.25, 2000, 5)
    at_end = estimate_survival(grid, ks, PointOnGraph.on_edge(edge, offset), cfg)
    assert at_end == estimate_survival(grid, ks, vertex, cfg)


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


def test_any_interior_start_matches_split_solve():
    # a start is exact anywhere inside an edge, not only at multiples of the step
    from graphreact import solve_survival
    from oracles import split_at

    g, _ = path_graph()
    x = PointOnGraph.on_edge(0, 0.33)
    g2, mid = split_at(g, x)
    ks = KappaSpec.constant(1.0)
    exact = solve_survival(g2, derive_weights(g2), ks)[mid]
    est = simulate(g, derive_weights(g), ks, x, SimConfig(0.25, 40_000, 13))
    assert abs(est.mean - exact) <= 4.0 * est.standard_error


@pytest.mark.parametrize("field, value", [("trajectories", 2.5), ("trajectories", True),
                                          ("seed", 1.5), ("seed", "7"), ("step_cap", 3.0),
                                          ("step_cap", False), ("step", "0.25")])
def test_config_rejects_values_of_the_wrong_type(field, value):
    args = {"step": 0.25, "trajectories": 10, "seed": 1, field: value}
    with pytest.raises(PreconditionError, match=field):
        SimConfig(**args)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_config_needs_two_trajectories(n):
    with pytest.raises(PreconditionError, match="two trajectories"):
        SimConfig(0.25, n, 1)


def test_config_takes_numpy_integers():
    g, start = path_graph()
    w, ks = derive_weights(g), KappaSpec.constant(1.0)
    est = simulate(g, w, ks, start, SimConfig(0.25, 500, 3, step_cap=100))
    cfg = SimConfig(0.25, np.int64(500), np.int64(3), step_cap=np.int32(100))
    assert simulate(g, w, ks, start, cfg) == est


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
    # starting from an interior point is also exact; compare with the
    # field solver after splitting there
    from graphreact import solve_survival
    from oracles import split_at

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
    # returns to a vertex take no draw, so the transition count per
    # trajectory does not depend on the step
    g, start = path_graph()
    w = derive_weights(g)
    for step in (0.25, 0.02):
        est = simulate(g, w, KappaSpec.constant(1.0), start, SimConfig(step, 20_000, 17))
        assert est.steps_mean < 20
        assert est.capped == 0
        assert abs(est.mean - 1.0 / 3.0) <= 4.0 * est.standard_error


def _fixture(name):
    from graphreact import parse_document, prepare

    path = Path(__file__).resolve().parent.parent / "fixtures" / f"{name}.json"
    return prepare(parse_document(json.loads(path.read_text())))


def test_vertex_start_estimate_does_not_depend_on_the_step():
    g, w, start = _fixture("chain_m3")
    ks = KappaSpec.constant(1.5)
    runs = [simulate(g, w, ks, start, SimConfig(step, 2000, 7)) for step in (0.5, 0.25, 0.1)]
    assert runs[0] == runs[1] == runs[2]


def _branch_starts(g):
    """A core vertex, a vertex two folds deep in a dead-end branch, and
    the point a quarter along the longest dead-end edge."""
    parent = dead_end_parents(g)
    core = next(v for v in g.vertex_ids
                if v not in parent and v not in g.active_vertices + g.exit_vertices)
    deep = next(v for v in g.vertex_ids if parent.get(v) in parent)
    dead = max((k for k, e in enumerate(g.edges) if any(v in parent for v in e.endpoints)),
               key=lambda k: g.edges[k].length)
    return core, deep, PointOnGraph.on_edge(dead, g.edges[dead].length / 4)


def _uncensored(monkeypatch, g, w):
    """The chain with every vertex a state, so that its walks are the
    uncensored ones: no vertex is eliminated, and weights of its own keep
    its walks apart from those of w in the graph's memo."""
    from graphreact import mc

    monkeypatch.setattr(mc, "_MAX_DEGREE", 0)
    return build_grid(g, EdgeWeights(w.p), 0.25)


def _walks(g):
    """The number of censored walks in the graph's memo."""
    return sum(key[1] == "walk" for key in g.solved)


def _states(grid, start):
    """The vertex ids of the states of the walk from ``start``."""
    walk = grid.walk(locate(grid.graph, start))
    return {grid.graph.vertex_ids[v] for v in walk.states}


def _tree_problem():
    g = branchy_tree(np.random.default_rng(2))
    w = derive_weights(g)
    return g, w, _branch_starts(g)[1]


@pytest.mark.parametrize("kappa", [1.0, 5.0])
@pytest.mark.parametrize("name", ["path_site", "chain_m3", "star_n3", "ygraph", "tree"])
def test_sample_variance_matches_the_exact_variance(name, kappa):
    # a product of sojourn factors 1/(1 + kappa M''_v) of the censored walk
    # raised to the power k is one with per-site kappa
    # ((1 + kappa M''_v)**k - 1)/M''_v, so the raw moments E W**k of the
    # estimator are survivals
    from graphreact import solve_survival

    g, w, start = _tree_problem() if name == "tree" else _fixture(name)
    grid = build_grid(g, w, 0.25)
    walk = grid.walk(locate(g, start))
    sojourn = {v: walk.sojourn_mean[walk.state[g.vertex_index[v]]] for v in g.active_vertices}
    m1, m2, m3, m4 = (
        solve_survival(g, w, KappaSpec.per_vertex(
            {v: ((1.0 + kappa * s) ** k - 1.0) / s for v, s in sojourn.items()}))[start]
        for k in (1, 2, 3, 4)
    )
    var = m2 - m1**2
    mu4 = m4 - 4.0 * m3 * m1 + 6.0 * m2 * m1**2 - 3.0 * m1**4
    n = 20_000
    est = estimate_survival(grid, KappaSpec.constant(kappa), start, SimConfig(0.25, n, 12))
    # the sample variance n SE**2 has variance mu4/n - var**2 (n-3)/(n(n-1))
    spread = math.sqrt(mu4 / n - var**2 * (n - 3) / (n * (n - 1)))
    assert abs(n * est.standard_error**2 - var) <= 4.0 * spread
    assert abs(est.mean - m1) <= 4.0 * est.standard_error


@pytest.mark.parametrize("which", ["core", "branch", "dead-end edge"])
def test_folded_walk_matches_the_survival_with_fewer_moves(which, monkeypatch):
    # the censored walk against the survival and against the uncensored walk
    from graphreact import solve_survival
    from oracles import split_at

    g = branchy_tree(np.random.default_rng(2))
    w = derive_weights(g)
    ks = KappaSpec.constant(1.3)
    grid = build_grid(g, w, 0.25)
    x = dict(zip(["core", "branch", "dead-end edge"], _branch_starts(g)))[which]
    if isinstance(x, str):
        exact = solve_survival(g, w, ks)[x]
    else:
        g2, mid = split_at(g, x)
        exact = solve_survival(g2, derive_weights(g2), ks)[mid]
    cfg = SimConfig(0.25, 20_000, 19)
    est = estimate_survival(grid, ks, x, cfg)
    full = estimate_survival(_uncensored(monkeypatch, g, w), ks, x, cfg)
    assert abs(est.mean - exact) <= 4.0 * est.standard_error
    assert abs(full.mean - exact) <= 4.0 * full.standard_error
    assert est.steps_mean < full.steps_mean
    assert est.capped == full.capped == 0


def test_start_and_its_edge_are_never_folded():
    # the states are the sites, the exits and the start, or both ends of
    # the start's edge, and nothing else
    g = branchy_tree(np.random.default_rng(2))
    grid = build_grid(g, derive_weights(g), 0.25)
    fixed = set(g.active_vertices) | set(g.exit_vertices)
    core, deep, on_edge = _branch_starts(g)
    assert deep in dead_end_parents(g)
    for x in (core, deep):
        assert _states(grid, x) == fixed | {x}
    assert _states(grid, on_edge) == fixed | set(g.edges[on_edge.edge].endpoints)


def _without_a_way_out(back: float):
    """b leaves toward c with weight back, and otherwise toward its leaf t."""
    g = MetricGraph(
        (Vertex("v0"), Vertex("c", "active"), Vertex("a", "exit"), Vertex("b"),
         Vertex("t"), Vertex("u")),
        (Edge(("v0", "c"), 1.0), Edge(("c", "a"), 1.0), Edge(("c", "b"), 2.0),
         Edge(("b", "t"), 1.0), Edge(("c", "u"), 1.0)),
    )
    w = EdgeWeights({("v0", 0): 1.0, ("c", 0): 0.25, ("c", 1): 0.25, ("c", 2): 0.25,
                     ("c", 4): 0.25, ("b", 2): back, ("b", 3): 1.0, ("t", 3): 1.0,
                     ("u", 4): 1.0, ("a", 1): 1.0})
    return g, w


def test_branch_without_a_way_out_is_kept():
    # the branch {b, t} with only a weak way back to c folds into c, and
    # the folded walk keeps its time there: every walk from c moves once,
    # to the exit, so its product is one constant that holds the survival
    # up to rounding.  From the branch's leaf each stay at t is one move,
    # where uncensored the walk takes about 2000 to leave the branch.
    # With no way back at all the weights are refused (see below)
    g, w = _without_a_way_out(1e-3)
    grid = build_grid(g, w, 0.25)
    assert _states(grid, "c") == {"c", "a"}
    assert _states(grid, "v0") == {"v0", "c", "a"}
    assert _states(grid, "t") == {"t", "c", "a"}
    ks = KappaSpec.constant(0.7)
    exact = solve_survival(g, w, ks)
    cfg = SimConfig(0.25, 4_000, 5)
    est = estimate_survival(grid, ks, "c", cfg)
    assert est.steps_max == 1 and est.standard_error == 0.0
    assert est.mean == pytest.approx(exact["c"], rel=1e-12)
    est = estimate_survival(grid, ks, "t", cfg)
    assert est.capped == 0 and est.steps_max < 100
    assert abs(est.mean - exact["t"]) <= 4.0 * est.standard_error


@pytest.mark.parametrize("route", [
    lambda g, w: build_grid(g, w, 0.25),
    lambda g, w: hitting_split(g, w, "v0"),
    lambda g, w: solve_survival(g, w, KappaSpec.constant(1.0)),
    lambda g, w: solve_diffuse(g, w, ActiveZoneSpec(1.0, 0.1, 1.0, 0.1)),
], ids=["mc", "kac", "fk", "diffuse"])
def test_branch_without_a_way_out_is_rejected(route):
    # with no rate from b back to c, a walk that enters b never leaves
    # {b, t}: mc ran such walks to the cap, and the solves hit a singular
    # matrix.  A weight of 0 and one whose p/l underflows are both refused
    g, w = _without_a_way_out(0.0)
    with pytest.raises(PreconditionError, match=r"^weight at vertex 'b' on edge 2 is 0$"):
        route(g, w)
    g, w = _without_a_way_out(5e-324)
    with pytest.raises(SingularSystemError,
                       match=r"^p/l underflows to 0 at vertex 'b' on edge 2 \(length 2\.0\)$"):
        route(g, w)


@pytest.mark.parametrize("most", [None, 64])
def test_vertex_with_too_many_rates_stays_a_state(most, monkeypatch):
    # the inert hub h keeps 22 rates out and 2 in once its leaves go, more
    # than the 16 an eliminated vertex may have
    from graphreact import mc, solve_survival

    if most:
        monkeypatch.setattr(mc, "_MAX_DEGREE", most)
    exits, leaves = [f"e{i}" for i in range(20)], [f"u{i}" for i in range(6)]
    g = MetricGraph(
        (Vertex("v0"), Vertex("h"), Vertex("c", "active"),
         *(Vertex(v, "exit") for v in exits), *(Vertex(v) for v in leaves)),
        tuple(Edge((u, v), 1.0) for u, v in [("v0", "h"), ("h", "c")]
              + [("h", v) for v in exits + leaves]),
    )
    w = derive_weights(g)
    grid = build_grid(g, w, 0.5)
    fixed = {"v0", "c", *exits}
    assert _states(grid, "v0") == (fixed if most else fixed | {"h"})
    ks = KappaSpec.constant(2.0)
    est = estimate_survival(grid, ks, "v0", SimConfig(0.5, 20_000, 3))
    assert abs(est.mean - solve_survival(g, w, ks)["v0"]) <= 4.0 * est.standard_error


def _censoring_cases(kind):
    if kind == "no way out":
        # the branch {b, t} whose only way out is a weak weight back to c
        for back in (1.0, 1e-3, 1e-12):
            g, w = _without_a_way_out(back)
            yield g, w, "c"
            yield g, w, "t"
            yield g, w, 0
        return
    rng = np.random.default_rng(["tree", "hub", "cyclic"].index(kind))
    for i in range(8):
        if kind == "tree":
            g = branchy_tree(rng, n=int(rng.integers(8, 40)))
        elif kind == "hub":
            g = hub_graph(rng, degree=int(rng.integers(6, 24)))[0]
        else:
            g = random_graph(rng, max_core=9, max_extra=5, random_radii=True)[0]
        if i % 2:
            yield g, derive_weights(g), int(rng.integers(len(g.edges)))
        else:
            yield g, derive_weights(g), str(rng.choice(g.vertex_ids))


@pytest.mark.parametrize("kind", ["tree", "hub", "cyclic", "no way out"])
def test_censored_rates_match_the_dense_schur_complement(kind):
    from graphreact import mc
    from oracles import censored_rates

    # vertex starts, and the middle of an edge for an edge index
    for g, w, x in _censoring_cases(kind):
        grid = build_grid(g, w, 0.25)
        if not isinstance(x, str):
            x = PointOnGraph.on_edge(x, g.edges[x].length / 2)
        walk = grid.walk(locate(g, x))
        keep = g.site_mask | g.exit_mask
        ends = [x] if isinstance(x, str) else g.edges[x.edge].endpoints
        keep[[g.vertex_index[v] for v in ends]] = True
        states, rows = mc._censor(g.half_edge_table, flux_coefficients(g, w), g.exit_mask, keep)
        assert states == walk.states.tolist()
        want = censored_rates(g, w, states)
        for i, row in enumerate(rows):
            got = np.zeros(len(states))
            got[walk.state[list(row)]] = list(row.values())
            assert np.allclose(got, want[i], rtol=1e-12, atol=0.0), (x, i)
            if g.exit_mask[states[i]]:
                assert walk.sojourn_mean[i] == 0.0
            else:
                assert walk.sojourn_mean[i] == pytest.approx(1.0 / want[i].sum(), rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_sojourn_means_match_the_fold_where_only_dead_ends_go(seed):
    # every core vertex of the tree is a site, so only dead-end branches
    # go, and M''_v is the fold's 1/sum over the edges that stay of
    # p_v(e)/l_e, bit for bit
    tree = branchy_tree(np.random.default_rng(seed), n=10 + 6 * seed)
    branches = dead_end_parents(tree)
    g = MetricGraph(tuple(Vertex(v.id, "active") if v.id not in branches and v.role != "exit"
                          else v for v in tree.vertices), tree.edges)
    assert branches == dead_end_parents(g)
    grid = build_grid(g, derive_weights(g), 0.25)
    walk = grid.walk(locate(g, g.active_vertices[0]))
    kept = np.array([v not in branches for v in g.vertex_ids])
    assert np.array_equal(walk.states, kept.nonzero()[0])
    t = g.half_edge_table
    out = kept[t.source] & kept[t.target] & ~g.exit_mask[t.source]
    total = np.bincount(t.source[out], flux_coefficients(g, grid.weights)[out], len(kept))
    fold = np.divide(1.0, total, out=np.zeros(len(kept)), where=total > 0)
    assert np.array_equal(walk.sojourn_mean, fold[kept])


# estimates from the documents' injections: on path_site and chain_m3
# every vertex is a state, and their estimates are those of the
# uncensored walk bit for bit; ygraph's walk eliminates its junction j
UNFOLDED = {
    "path_site": (0.7, SimConfig(0.05, 3000, 41), set(), SimEstimate(
        mean=0.4174126287399657, standard_error=0.003463441651327186, trajectories=3000,
        capped=0, steps_mean=3.9966666666666666, steps_max=22)),
    "chain_m3": (2.5, SimConfig(0.05, 3000, 42), set(), SimEstimate(
        mean=0.008197629714488529, standard_error=0.00028953449997744945, trajectories=3000,
        capped=0, steps_mean=15.188666666666666, steps_max=124)),
    "ygraph": (4.0, SimConfig(0.25, 3000, 43), {"j"}, SimEstimate(
        mean=0.5680775162924098, standard_error=0.008152975967332379, trajectories=3000,
        capped=0, steps_mean=1.986, steps_max=14)),
}


@pytest.mark.parametrize("name", list(UNFOLDED))
def test_documents_with_nothing_to_fold_keep_their_estimates(name):
    g, w, start = _fixture(name)
    kappa, cfg, gone, pinned = UNFOLDED[name]
    grid = build_grid(g, w, cfg.step)
    assert _states(grid, start) == set(g.vertex_ids) - gone
    assert estimate_survival(grid, KappaSpec.constant(kappa), start, cfg) == pinned


def test_core_starts_share_one_walk(monkeypatch):
    # starts at the sites and the exits, which are states of every walk,
    # share one guide build; each other start set gets one of its own
    from graphreact import mc

    built = []
    of = mc._EdgeGuide.of
    monkeypatch.setattr(mc._EdgeGuide, "of", staticmethod(lambda cum: built.append(cum) or of(cum)))
    g = branchy_tree(np.random.default_rng(2))
    grid = build_grid(g, derive_weights(g), 0.25)
    ks, cfg = KappaSpec.constant(0.8), SimConfig(0.25, 200, 5)
    for x in g.active_vertices + g.exit_vertices:
        estimate_survival(grid, ks, x, cfg)
    assert _walks(g) == len(built) == 1
    _, deep, on_edge = _branch_starts(g)
    for x in (deep, on_edge, deep, on_edge):
        estimate_survival(grid, ks, x, cfg)
    assert _walks(g) == len(built) == 3


def test_z_scores_against_the_survival_on_random_graphs():
    # trees with dead-end branches, hubs and cyclic graphs, from vertex
    # and interior starts
    from graphreact import solve_survival
    from oracles import split_at

    rng = np.random.default_rng(2024)
    z = []
    for i in range(48):
        kind = i % 3
        if kind == 0:
            g = branchy_tree(rng, n=int(rng.integers(8, 30)))
        elif kind == 1:
            g = hub_graph(rng, degree=int(rng.integers(6, 24)))[0]
        else:
            g = random_graph(rng, max_core=7, max_extra=3, random_radii=True)[0]
        w = derive_weights(g)
        ks = KappaSpec.constant(float(np.exp(rng.uniform(np.log(0.2), np.log(5.0)))))
        grid = build_grid(g, w, 0.25)
        if i % 2:
            k = int(rng.integers(len(g.edges)))
            x = PointOnGraph.on_edge(k, g.edges[k].length * rng.uniform(0.05, 0.95))
            g2, mid = split_at(g, x)
            exact = solve_survival(g2, derive_weights(g2), ks)[mid]
        else:
            x = str(rng.choice([v for v in g.vertex_ids if v not in g.exit_vertices]))
            exact = solve_survival(g, w, ks)[x]
        est = estimate_survival(grid, ks, x, SimConfig(0.25, 4000, 100 + i))
        assert est.capped == 0
        if est.standard_error > 0:
            z.append((est.mean - exact) / est.standard_error)
    z = np.array(z)
    assert len(z) >= 40
    assert np.abs(z).max() < 4.0
    assert abs(z.mean()) < 0.6
    assert 0.6 < z.std() < 1.4


def test_parallel_edges_with_different_substeps():
    # an active vertex joined to the next by edges of lengths 0.25 and 1
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
    ks = KappaSpec.per_vertex({"c": 1.5, "b": 0.7})
    exact = solve_survival(g, w, ks)["v0"]
    est = estimate_survival(grid, ks, "v0", SimConfig(0.25, 40_000, 31))
    assert abs(est.mean - exact) <= 4.0 * est.standard_error


def test_off_center_interior_start():
    # a quarter along the edge c-a: the exit end is reached first w.p. 1/4
    from graphreact import solve_survival
    from oracles import split_at

    g, _ = path_graph()
    x = PointOnGraph.on_edge(1, 0.25)
    g2, mid = split_at(g, x)
    exact = solve_survival(g2, derive_weights(g2), KappaSpec.constant(2.0))[mid]
    est = simulate(g, derive_weights(g), KappaSpec.constant(2.0), x, SimConfig(0.25, 40_000, 8))
    assert abs(est.mean - exact) <= 4.0 * est.standard_error


def test_capped_product_counts_the_current_visit():
    # one transition takes every walker from v0 to the site c, where a
    # sojourn has mean local time 1/(0.5/1 + 0.5/1) = 1
    g, start = path_graph()
    cfg = SimConfig(step=0.25, trajectories=100, seed=4, step_cap=1)
    est = simulate(g, derive_weights(g), KappaSpec.constant(1.0), start, cfg)
    assert est.capped == 100
    assert est.steps_max == 1
    assert est.mean == pytest.approx(1.0 / 2.0, rel=1e-12)


def _trap_graph():
    # from the junction j a walk meets the site c0, the leaf site c1
    # (sojourn mean 2), the site c2 in front of the exit a, or the exit b
    return MetricGraph(
        (Vertex("x0"), Vertex("j"), Vertex("c0", "active"), Vertex("c1", "active"),
         Vertex("c2", "active"), Vertex("a", "exit"), Vertex("b", "exit")),
        (Edge(("x0", "j"), 1.0), Edge(("j", "c0"), 1.0), Edge(("j", "c1"), 2.0),
         Edge(("j", "c2"), 0.8), Edge(("c2", "a"), 1.0), Edge(("j", "b"), 1.5)),
    )


# c0 absorbs at once, c1's 1e308 takes the s/(s + M) branch, and c2 is finite
_TRAP_MIX = KappaSpec.per_vertex({"c0": math.inf, "c1": 1e308, "c2": 0.7})


def _pinned_case(name):
    path, _ = path_graph()
    hub, hub_start = hub_graph(np.random.default_rng(64))
    trap = _trap_graph()
    g, x, kappa, cfg = {
        "path": (path, "v0", 1.0, SimConfig(0.05, 2000, 11)),
        "path-interior": (path, PointOnGraph.on_edge(1, 0.25), 2.0, SimConfig(0.25, 2000, 8)),
        "star3": (*star_graph(3), 2.0, SimConfig(0.25, 2000, 5)),
        "hub": (hub, hub_start, 1.5, SimConfig(0.25, 2000, 3)),
        "hub-capped": (hub, hub_start, 0.7, SimConfig(0.25, 2000, 4, step_cap=6)),
        "trap-inf": (trap, PointOnGraph.on_edge(0, 0.4), math.inf, SimConfig(0.25, 2000, 12)),
        "trap-mix": (trap, "j", _TRAP_MIX, SimConfig(0.25, 2000, 13)),
        "trap-mix-capped": (trap, "x0", _TRAP_MIX, SimConfig(0.25, 2000, 14, step_cap=3)),
        "trap-at-site": (trap, "c0", _TRAP_MIX, SimConfig(0.25, 200, 15)),
    }[name]
    ks = kappa if isinstance(kappa, KappaSpec) else KappaSpec.constant(kappa)
    return g, derive_weights(g), ks, x, cfg


# estimates recorded with one sojourn factor per visit, one draw per move
# and the dead-end branches folded; a change to the sampler's law or to its
# use of the streams moves them
PINNED = {
    "path": SimEstimate(mean=0.334438117980957, standard_error=0.003995195393505642,
                        trajectories=2000, capped=0, steps_mean=4.022, steps_max=32),
    "path-interior": SimEstimate(mean=0.4084000000000001, standard_error=0.007853378749232042,
                                 trajectories=2000, capped=0, steps_mean=1.7395, steps_max=2),
    "star3": SimEstimate(mean=0.1407102923902578, standard_error=0.003119694642884162,
                         trajectories=2000, capped=0, steps_mean=6.239, steps_max=64),
    "hub": SimEstimate(mean=0.4302567834097096, standard_error=0.009302208554360682,
                       trajectories=2000, capped=0, steps_mean=3.887, steps_max=27),
    "hub-capped": SimEstimate(mean=0.5366640960123463, standard_error=0.008112689639094364,
                              trajectories=2000, capped=412, steps_mean=3.291, steps_max=6),
    # walks that stop at a zero factor, recorded with the loop that moved
    # each stopped walker to the sink within the move that stopped it
    "trap-inf": SimEstimate(mean=0.207, standard_error=0.00906181870703335, trajectories=2000,
                            capped=0, steps_mean=3.1725, steps_max=9),
    "trap-mix": SimEstimate(mean=0.3454335528211061, standard_error=0.00900321106034862,
                            trajectories=2000, capped=0, steps_mean=2.2915, steps_max=14),
    "trap-mix-capped": SimEstimate(mean=0.3476079108875499, standard_error=0.00896285404931549,
                                   trajectories=2000, capped=141, steps_mean=1.6835,
                                   steps_max=3),
    "trap-at-site": SimEstimate(mean=0.0, standard_error=0.0, trajectories=200, capped=0,
                                steps_mean=0.0, steps_max=0),
}


@pytest.mark.parametrize("case", list(PINNED))
def test_estimates_pinned_bit_for_bit(case):
    assert simulate(*_pinned_case(case)) == PINNED[case]


@pytest.mark.parametrize("case", ["path-interior", "hub-capped", "trap-inf", "trap-mix",
                                  "trap-mix-capped", "trap-at-site"])
def test_estimates_match_the_scalar_walker(case):
    g, w, ks, x, cfg = _pinned_case(case)
    grid = build_grid(g, w, cfg.step)
    products, moves, capped = scalar_walks(grid, ks, x, cfg.seed, cfg.trajectories,
                                           cfg.step_cap)
    weights, n = np.array(products), cfg.trajectories
    est = estimate_survival(grid, ks, x, cfg)
    assert type(est.steps_mean) is float and type(est.steps_max) is int
    assert est == SimEstimate(
        mean=float(np.mean(weights)),
        standard_error=(float(np.std(weights, ddof=1) / math.sqrt(n))
                        if weights.min() < weights.max() else 0.0),
        trajectories=n,
        capped=sum(capped),
        steps_mean=float(np.mean(moves)),
        steps_max=max(moves),
    )


# (_BLOCK, _CHUNK, _COMPACT): blocks of 7 that compact at half; the same
# blocks compacting while their draw block holds hundreds of rows; one block
# of every walk that compacts only once all are parked; and blocks of 500
# that compact at an eighth
BLOCKINGS = [(7, 5, 2), (7, 4096, 2), (2000, 3, 1), (500, 4096, 8)]


@pytest.mark.parametrize("case", list(PINNED))
def test_estimates_do_not_depend_on_blocking(case, monkeypatch):
    from graphreact import mc

    for blocking in BLOCKINGS:
        for name, value in zip(("_BLOCK", "_CHUNK", "_COMPACT"), blocking):
            monkeypatch.setattr(mc, name, value)
        assert simulate(*_pinned_case(case)) == PINNED[case], blocking


def test_guide_table_built_once_per_grid(monkeypatch):
    from graphreact import mc

    built = []
    of = mc._EdgeGuide.of
    monkeypatch.setattr(mc._EdgeGuide, "of", staticmethod(lambda cum: built.append(cum) or of(cum)))
    monkeypatch.setattr(mc, "_BLOCK", 500)  # four blocks per estimate
    g, w, ks, x, cfg = _pinned_case("hub")
    grid = build_grid(g, w, cfg.step)
    assert built == []
    for _ in range(2):
        assert estimate_survival(grid, ks, x, cfg) == PINNED["hub"]
    assert len(built) == 1


# `graphreact mc FIXTURE --kappa 1.5 --delta 0.05 --n 2000 --seed 7`, second
# line of stdout
PINNED_CLI = {
    "chain_m1": "1.5,0.298922746219,0.00345146769942,2000,0.05,7",
    "chain_m2": "1.5,0.130324155042,0.00264503285188,2000,0.05,7",
    "chain_m3": "1.5,0.0227745143435,0.00086624314835,2000,0.05,7",
    "interval_site": "1.5,0.4,0,2000,0.05,7",
    "interval_zone": "1.5,0.4,0,2000,0.05,7",
    "path_site": "1.5,0.255490113925,0.00345703043395,2000,0.05,7",
    "star_n2": "1.5,0.245319396339,0.00408152758216,2000,0.05,7",
    "star_n3": "1.5,0.180098340474,0.00325734444782,2000,0.05,7",
    "star_n4": "1.5,0.138603686069,0.00300585824137,2000,0.05,7",
    "ygraph": "1.5,0.625108233928,0.0085243970471,2000,0.05,7",
}


def test_cli_mc_output_is_byte_stable(capsys):
    from graphreact.cli import main

    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    assert sorted(f.stem for f in fixtures.glob("*.json")) == sorted(PINNED_CLI)
    for name, row in PINNED_CLI.items():
        args = ["mc", str(fixtures / f"{name}.json"), "--kappa", "1.5", "--delta", "0.05",
                "--n", "2000", "--seed", "7"]
        assert main(args) == 0
        assert capsys.readouterr().out == f"kappa,mean,se,n,delta,seed\n{row}\n"


def _long_interval(tmp_path):
    # interval_site with its edge ten times as long: M_c = 10
    doc = json.loads((Path(__file__).resolve().parent.parent / "fixtures"
                      / "interval_site.json").read_text())
    doc["edges"][0]["length"] = 10.0
    path = tmp_path / "interval_long.json"
    path.write_text(json.dumps(doc))
    return path


def test_sojourn_factor_does_not_overflow(tmp_path, capsys):
    import warnings

    from graphreact import parse_document, prepare, solve_survival
    from graphreact.cli import main

    path = _long_interval(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["mc", str(path), "--kappa", "1e308", "--delta", "0.5", "--n", "10",
                     "--seed", "1"]) == 0
    mean = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
    assert 0.0 < mean <= 1e-308
    g, w, start = prepare(parse_document(json.loads(path.read_text())))
    ks = KappaSpec.constant(1e300)
    est = simulate(g, w, ks, start, SimConfig(0.5, 10, 1))
    assert est.mean == pytest.approx(solve_survival(g, w, ks)[start], rel=1e-9)


@pytest.mark.parametrize("kappa, n", [("1.5", "2000"), ("0.01", "2000"), ("1.5", "500")])
def test_constant_product_has_no_error_and_passes_compare(kappa, n, capsys):
    # every walk from the site c leaves by its one edge to the exit, so
    # every product is the one sojourn factor
    from graphreact.cli import main

    doc = str(Path(__file__).resolve().parent.parent / "fixtures" / "interval_site.json")
    assert main(["compare", doc, "--kappa", kappa, "--delta", "0.05", "--n", n,
                 "--seed", "7"]) == 0
    mc_row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert mc_row[0] == "mc"
    assert mc_row[3:] == ["0", "pass"]


def test_compare_at_the_default_delta_on_a_short_split_edge(tmp_path, capsys):
    # the injection splits v0-c 0.05 from v0, shorter than the default
    # --delta of 0.1
    from graphreact.cli import main

    doc = json.loads((Path(__file__).resolve().parent.parent / "fixtures"
                      / "path_site.json").read_text())
    doc["injection"] = {"edge": ["v0", "c"], "offset": 0.05}
    path = tmp_path / "path_site.json"
    path.write_text(json.dumps(doc))
    assert main(["compare", str(path), "--kappa", "1"]) == 0
    mc_row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert mc_row[0] == "mc"
    assert mc_row[-1] == "pass"


def test_cli_mc_prints_negative_zero_kappa_as_zero(capsys):
    from graphreact.cli import main

    doc = str(Path(__file__).resolve().parent.parent / "fixtures" / "path_site.json")
    assert main(["mc", doc, "--kappa", "-0", "--delta", "0.05", "--n", "10", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "kappa,mean,se,n,delta,seed\n0,1,0,10,0.05,1\n"


def _crowded_star():
    # three thin leaves put their boundaries 1e-4 apart, inside the first
    # of the center's buckets
    leaves = [("t0", 0.01), ("t1", 0.01), ("t2", 0.01), ("b", 1.0)]
    g = MetricGraph(
        (Vertex("c", "active"), Vertex("a", "exit"), *(Vertex(v) for v, _ in leaves)),
        (Edge(("c", "a"), 1.0), *(Edge(("c", v), 1.0, r) for v, r in leaves)),
    )
    return g, "b"


def _weighted_path(p_back: float):
    # c leaves toward v0 with probability p_back
    g, _ = path_graph()
    return g, EdgeWeights({("v0", 0): 1.0, ("c", 0): p_back, ("c", 1): 1.0 - p_back, ("a", 1): 1.0})


@pytest.mark.parametrize("graph", ["padded", "hub", "crowded", "bucket-edge", "top-bucket"])
def test_guide_table_matches_the_column_count(graph, monkeypatch):
    from graphreact import mc

    g, w = {
        "padded": lambda: (star_graph(4)[0], None),
        "hub": lambda: (hub_graph(np.random.default_rng(64))[0], None),
        "crowded": lambda: (_crowded_star()[0], None),
        "bucket-edge": lambda: _weighted_path(0.875),  # the top bucket's lower edge
        "top-bucket": lambda: _weighted_path(0.95),
    }[graph]()
    grid = _uncensored(monkeypatch, g, w or derive_weights(g))
    cum = grid.walk(locate(g, g.vertex_ids[0])).cum  # one row per vertex
    nv, width = cum.shape
    table = mc._EdgeGuide.of(cum)
    k = 1 << table.shift
    assert k >= 4 * width
    assert table.passes <= width - 1
    if graph == "crowded":
        assert table.passes >= 2
    if graph == "bucket-edge":
        assert cum[grid.graph.vertex_index["c"], 0] * k == k - 1
        assert table.passes == 0
    if graph == "top-bucket":
        assert table.passes == 1
    if graph == "padded":  # leaves of degree 1 in rows of width 4
        assert ((cum[:, -2] == 1.0) & ~g.exit_mask).any()

    edges = np.arange(k + 1) / k
    u = np.concatenate([cum.ravel(), edges, np.nextafter(edges, 0), np.nextafter(edges, 1),
                        [0.0, 1.0 - 2.0**-53]])
    # the draws m = u * 2**53 on and next to each value, within [0, 2**53)
    m = np.floor(u * 2.0**53).astype(np.int64)
    m = np.unique(np.clip(np.concatenate([m - 1, m, m + 1]), 0, 2**53 - 1))
    for v in range(nv):
        state = np.full(m.size, v)
        expect = (m[:, None] * 2.0**-53 >= cum[v, :-1]).sum(axis=1)
        assert np.array_equal(table.leave(state << table.shift, m) - v * width, expect), v
    assert (table.leave(np.full(m.size, nv << table.shift), m) == nv * width).all()


def test_grid_rejects_missing_and_unusable_weights():
    g, _ = path_graph()
    missing = EdgeWeights({("v0", 0): 1.0, ("c", 0): 0.5, ("a", 1): 1.0})
    with pytest.raises(PreconditionError, match="no weight for vertex 'c' on edge 1"):
        build_grid(g, missing, 0.25)
    for bad in (float("nan"), -0.5, float("inf")):
        w = EdgeWeights({("v0", 0): 1.0, ("c", 0): 0.5, ("c", 1): bad, ("a", 1): 1.0})
        with pytest.raises(PreconditionError, match="finite and nonnegative"):
            build_grid(g, w, 0.25)
    zero = EdgeWeights({("v0", 0): 1.0, ("c", 0): 0.0, ("c", 1): 0.0, ("a", 1): 1.0})
    with pytest.raises(PreconditionError, match="needs a positive edge weight"):
        build_grid(g, zero, 0.25)


def _count_censors(monkeypatch):
    from graphreact import mc

    calls = []
    censor = mc._censor
    monkeypatch.setattr(mc, "_censor", lambda *args: calls.append(1) or censor(*args))
    return calls


def test_simulate_at_two_kappas_builds_the_walk_once(monkeypatch):
    g, w, start = _fixture("ygraph")
    calls = _count_censors(monkeypatch)
    cfg = SimConfig(0.25, 500, 7)
    for kappa in (0.5, 4.0, 0.5):
        est = simulate(g, w, KappaSpec.constant(kappa), start, cfg)
        g2, w2, _ = _fixture("ygraph")
        assert est == simulate(g2, w2, KappaSpec.constant(kappa), start, cfg)
    # one walk on g, and one on each fresh graph
    assert len(calls) == 1 + 3


def test_grids_on_one_graph_and_weights_share_their_walks(monkeypatch):
    g, w, start = _fixture("ygraph")
    calls = _count_censors(monkeypatch)
    x = locate(g, start)
    walk = build_grid(g, w, 0.25).walk(x)
    assert build_grid(g, w, 1.0).walk(x) is walk
    assert len(calls) == 1
    # a new weights object, even with the same table, builds its own
    other = build_grid(g, EdgeWeights(w.p), 0.25).walk(x)
    assert other is not walk and len(calls) == 2
    assert np.array_equal(other.cum, walk.cum) and np.array_equal(other.nbr, walk.nbr)


def test_walks_of_weights_made_anew_do_not_grow_the_memo():
    g, _, start = _fixture("chain_m3")
    ks, cfg = KappaSpec.constant(1.0), SimConfig(0.25, 100, 3)
    want = simulate(*_fixture("chain_m3")[:2], ks, start, cfg)
    for _ in range(20):
        assert simulate(g, derive_weights(g), ks, start, cfg) == want
    assert len(g.solved) <= 2  # the flux and walk entries of the last weights
