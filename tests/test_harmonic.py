import gc
import math
import pickle
import weakref

import numpy as np
import pytest

from graphreact import (
    ActiveZoneSpec,
    Edge,
    EdgeWeights,
    KappaSpec,
    MetricGraph,
    PreconditionError,
    SimConfig,
    SingularSystemError,
    Vertex,
    build_grid,
    conversion,
    derive_weights,
    evaluate_at,
    fixture_suite,
    green_matrix,
    hitting_split,
    parse_document,
    prepare,
    rational_form,
    simulate,
    solve_diffuse,
    solve_survival,
    uniform_weights,
    PointOnGraph,
)
from graphreact import algebra, graph, harmonic
from graphreact.feynman_kac import survival_curve
from graphreact.harmonic import flux_coefficients, flux_system, site_network
from helpers import (
    assert_same_field,
    chain_graph,
    dead_end_graphs,
    dead_end_path,
    kappa_samples,
    parallel_branch_graph,
    path_graph,
    random_graph,
    star_graph,
    y_graph,
)
from oracles import censored_rates, dead_end_parents, split_at, vertex_flux


def test_flux_of_constant_is_zero():
    rng = np.random.default_rng(0)
    g, _ = random_graph(rng)
    w = derive_weights(g)
    potential = {vid: 2.7 for vid in g.vertex_ids}
    for vid in g.vertex_ids:
        assert vertex_flux(g, w, potential, vid) == 0.0


def test_flux_unit_slopes_at_star_center():
    n = 4
    g, _ = star_graph(n, exit_len=1.0, leaf_lengths=(0.5, 0.75, 1.0))
    w = derive_weights(g)
    potential = {"c": 0.0, "a": 1.0, "b0": 0.5, "b1": 0.75, "b2": 1.0}
    # every edge has slope 1 away from the center, so the flux is 1
    assert vertex_flux(g, w, potential, "c") == pytest.approx(1.0, abs=1e-15)


def test_flux_star_reference_potential():
    # constant on the leaf edges, slope -1 toward the exit: flux -1/n
    for n in (2, 3, 5):
        g, _ = star_graph(n, exit_len=1.0)
        w = derive_weights(g)
        potential = {vid: 1.0 for vid in g.vertex_ids}
        potential["a"] = 0.0
        assert vertex_flux(g, w, potential, "c") == pytest.approx(-1.0 / n, abs=1e-15)


def test_flux_system_rows_match_vertex_flux():
    rng = np.random.default_rng(21)
    parallel = MetricGraph(
        (Vertex("u"), Vertex("v", "active"), Vertex("a", "exit")),
        (Edge(("u", "v"), 1.0, 0.5), Edge(("u", "v"), 2.0, 1.5), Edge(("v", "a"), 0.7)),
    )
    graphs = [parallel] + [random_graph(rng, random_radii=radii)[0]
                           for radii in (False, True) for _ in range(20)]
    for g in graphs:
        w = derive_weights(g)
        free = np.zeros(len(g.vertex_ids), dtype=bool)
        potential = rng.standard_normal(len(g.vertex_ids))
        flux = flux_system(g.half_edge_table, flux_coefficients(g, w), free).dense() @ potential
        values = dict(zip(g.vertex_ids, potential.tolist()))
        for vid, row_flux in zip(g.vertex_ids, flux.tolist()):
            assert abs(row_flux - vertex_flux(g, w, values, vid)) <= 1e-13


def test_hitting_split_chain_first_site_takes_all():
    g, start, sites = chain_graph((1.0, 0.5, 0.8, 0.7))
    w = derive_weights(g)
    hs = hitting_split(g, w, start)
    assert hs.active == sites
    assert hs.alpha_inf == pytest.approx(1.0, abs=1e-12)
    assert hs.p[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(hs.p[1:]) <= 1e-12)


def test_hitting_split_from_active_vertex():
    g, _, sites = chain_graph((1.0, 0.5, 0.5))
    w = derive_weights(g)
    hs = hitting_split(g, w, sites[1])
    assert hs.alpha_inf == pytest.approx(1.0, abs=1e-15)
    assert hs.p[1] == pytest.approx(1.0, abs=1e-15)


def test_hitting_split_from_exit_is_zero():
    g, _ = path_graph()
    w = derive_weights(g)
    hs = hitting_split(g, w, "a")
    assert hs.alpha_inf == 0.0
    assert np.all(hs.p == 0.0)


def test_hitting_split_y_graph():
    g, start = y_graph()
    w = derive_weights(g)
    hs = hitting_split(g, w, start)
    # from the junction the walk is symmetric between site and exit arms
    assert hs.alpha_inf == pytest.approx(0.5, abs=1e-12)
    assert hs.p[0] == pytest.approx(1.0, abs=1e-12)


def test_green_star_is_degree_times_exit_length():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4, 5):
        exit_len = float(rng.uniform(0.5, 1.5))
        leaves = tuple(float(rng.uniform(0.2, 2.0)) for _ in range(n - 1))
        g, _ = star_graph(n, exit_len=exit_len, leaf_lengths=leaves)
        w = derive_weights(g)
        gm = green_matrix(g, w)
        assert gm.entries.shape == (1, 1)
        assert gm.entries[0, 0] == pytest.approx(n * exit_len, abs=1e-12)


def test_green_chain_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = int(rng.integers(1, 6))
        gaps = tuple(float(rng.uniform(0.3, 1.5)) for _ in range(m + 1))
        g, _, sites = chain_graph(gaps)
        w = derive_weights(g)
        gm = green_matrix(g, w)
        tails = [sum(gaps[j:]) for j in range(1, m + 1)]
        expected = np.array(
            [[2.0 * tails[max(i, j)] for j in range(m)] for i in range(m)]
        )
        assert np.max(np.abs(gm.entries - expected)) <= 1e-10


def test_green_path_single_site():
    g, _ = path_graph(0.7, 1.3)
    w = derive_weights(g)
    gm = green_matrix(g, w)
    assert gm.entries[0, 0] == pytest.approx(2.0 * 1.3, abs=1e-12)


def test_green_symmetric_for_equal_degree_sites():
    # plain symmetry needs the active sites to carry equal weight sums;
    # interior chain sites (all degree 2) are the canonical case
    rng = np.random.default_rng(21)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        gaps = tuple(float(rng.uniform(0.3, 1.5)) for _ in range(m + 1))
        g, _, _ = chain_graph(gaps)
        gm = green_matrix(g, derive_weights(g))
        assert np.max(np.abs(gm.entries - gm.entries.T)) <= 1e-9


def test_green_weighted_reciprocity_and_positivity():
    # the invariant that survives unequal site degrees: diag(S) G is
    # symmetric, with S_v the radius-power sum at v (degree for equal radii)
    rng = np.random.default_rng(22)
    checked = 0
    for i in range(40):
        g, _ = random_graph(rng, random_radii=(i % 2 == 0))
        w = derive_weights(g)
        active = g.active_vertices
        if len(active) < 2:
            continue
        gm = green_matrix(g, w)
        assert np.all(gm.entries > 0.0)
        d = g.dimension
        s = np.array(
            [
                sum(e.radius ** (d - 1) for e in g.edges if c in e.endpoints)
                for c in active
            ]
        )
        h = s[:, None] * gm.entries
        assert np.max(np.abs(h - h.T)) <= 1e-9 * max(1.0, np.max(np.abs(h)))
        checked += 1
    assert checked >= 20


def _single_site_local_time(g):
    gm = green_matrix(g, derive_weights(g))
    assert gm.active == ("c",)
    return gm.entries[0, 0]


def test_mean_local_time_variants():
    g, _ = path_graph(0.4, 1.0)
    assert _single_site_local_time(g) == pytest.approx(2.0, abs=1e-12)

    g1 = MetricGraph(
        (Vertex("c", "active"), Vertex("a", "exit")),
        (Edge(("c", "a"), 1.0),),
    )
    assert _single_site_local_time(g1) == pytest.approx(1.0, abs=1e-12)

    g2, _ = star_graph(4, exit_len=0.5)
    assert _single_site_local_time(g2) == pytest.approx(4 * 0.5, abs=1e-12)


def test_degree2_insertion_leaves_green_and_split_invariant():
    rng = np.random.default_rng(8)
    for _ in range(10):
        g, start = random_graph(rng, random_radii=False)
        w = derive_weights(g)
        if not g.active_vertices:
            continue
        gm = green_matrix(g, w)
        hs = hitting_split(g, w, start)
        k = int(rng.integers(0, len(g.edges)))
        off = float(rng.uniform(0.2, 0.8)) * g.edges[k].length
        g2, _ = split_at(g, PointOnGraph.on_edge(k, off))
        w2 = derive_weights(g2)
        gm2 = green_matrix(g2, w2)
        hs2 = hitting_split(g2, w2, start)
        assert np.max(np.abs(gm.entries - gm2.entries)) <= 1e-10
        assert abs(hs.alpha_inf - hs2.alpha_inf) <= 1e-10
        assert np.max(np.abs(hs.p - hs2.p)) <= 1e-10


@pytest.mark.parametrize("chords", [0, 2], ids=["trees", "chords"])
def test_site_rates_match_the_dense_schur_complement(chords):
    rng = np.random.default_rng(40 + chords)
    for i in range(20):
        g, _ = random_graph(rng, max_core=7, max_extra=chords, random_radii=(i % 2 == 0))
        _assert_rates_match_the_schur_complement(g, derive_weights(g))


def _assert_rates_match_the_schur_complement(g, w):
    """R and L of site_network against oracles.censored_rates, to 1e-12."""
    net = site_network(g, w)
    m = len(net.active)
    states = [g.vertex_index[v] for v in net.active + g.exit_vertices]
    oracle = censored_rates(g, w, states)[:m]
    want = np.column_stack((oracle[:, :m], oracle[:, m:].sum(axis=1)))
    got = np.column_stack((-net.laplacian, net.exit_rates))
    got[:, :m].flat[:: m + 1] = 0.0
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.allclose(np.diag(net.laplacian), want.sum(axis=1), rtol=1e-12, atol=0.0)


def _dead_end_cases():
    """(id, graph, weights): random trees and cyclic graphs with dead-end
    branches, with derived and explicit weights; a chain whose only inert
    vertex is a dead end; and dead ends behind parallel edges."""
    cases = dead_end_graphs(np.random.default_rng(70), (8, 40), 3)
    g, _, _ = chain_graph((1.0, 0.5, 0.8, 0.7))
    cases.append(("chain", g, derive_weights(g)))
    g = parallel_branch_graph()
    cases.append(("parallel", g, derive_weights(g)))
    return [pytest.param(g, w, id=name) for name, g, w in cases]


_DEAD_END_CASES = _dead_end_cases()


@pytest.mark.parametrize("g, w", _DEAD_END_CASES)
def test_site_rates_with_dead_ends_match_the_dense_schur_complement(g, w):
    assert dead_end_parents(g)
    _assert_rates_match_the_schur_complement(g, w)


@pytest.mark.parametrize("g, w", _DEAD_END_CASES)
def test_harmonic_measures_with_dead_ends_are_harmonic(g, w):
    net = site_network(g, w)
    h = net.rows[g.kernel.key, :len(net.active)]
    fixed = g.site_mask | g.exit_mask
    assert np.array_equal(h[g.site_mask], np.eye(len(net.active)))
    assert not h[g.exit_mask].any()
    coeff = flux_coefficients(g, w)
    scale = np.bincount(g.half_edge_table.source, coeff, len(g.vertex_ids))
    for column in h.T:
        values = dict(zip(g.vertex_ids, column.tolist()))
        for v in np.flatnonzero(~fixed).tolist():
            flux = vertex_flux(g, w, values, g.vertex_ids[v])
            assert abs(flux) <= 1e-12 * scale[v], (g.vertex_ids[v], flux)


@pytest.mark.parametrize("g, w", _DEAD_END_CASES)
def test_the_network_keeps_the_solved_rows_only(g, w):
    # a vertex of a dead-end branch reads its root's row, so no float array
    # has a row per vertex; key, n integers, is the one array of length n
    net = site_network(g, w)
    n, m = len(g.vertex_ids), len(net.active)
    k = n - m - len(g.exit_vertices) - len(dead_end_parents(g))
    assert net.rows.shape == (m + 1 + k, m + 1)
    assert g.kernel.key.shape == (n,) and g.kernel.key.dtype == np.intp
    for a in vars(net).values():
        if isinstance(a, np.ndarray) and a.dtype == float:
            assert len(a) < n, a.shape


@pytest.mark.parametrize("g, w", _DEAD_END_CASES)
def test_a_start_in_a_dead_end_gets_the_split_of_its_root(g, w):
    parent = dead_end_parents(g)

    def root(v):
        while v in parent:
            v = parent[v]
        return v

    for v in parent:
        want = hitting_split(g, w, root(v))
        got = hitting_split(g, w, v)
        assert got.alpha_inf == want.alpha_inf and np.array_equal(got.p, want.p)
    for k, e in enumerate(g.edges):
        if any(v in parent for v in e.endpoints):
            (anchor,) = {root(v) for v in e.endpoints}
            want = hitting_split(g, w, anchor)
            got = hitting_split(g, w, PointOnGraph.on_edge(k, 0.3 * e.length))
            assert got.alpha_inf == want.alpha_inf and np.array_equal(got.p, want.p)


def _layout_cases():
    """(graph, weights): every fixture, then the dead-end cases."""
    fixtures = [pytest.param(*prepare(parse_document(f.document))[:2], id=f.name)
                for f in fixture_suite()]
    return fixtures + _DEAD_END_CASES


@pytest.mark.parametrize("g, w", _layout_cases())
def test_the_kernel_numbers_the_sites_then_one_exit_row_then_the_inner_vertices(g, w):
    kern, index, key = g.kernel, g.vertex_index, g.kernel.key
    m, n = kern.m, kern.order
    assert [key[index[v]] for v in g.active_vertices] == list(range(m))
    assert [key[index[v]] for v in g.exit_vertices] == [m] * len(g.exit_vertices)
    hang = graph._dead_ends(g)
    inner = np.flatnonzero((hang == np.arange(len(hang))) & ~(g.site_mask | g.exit_mask))
    assert key[inner].tolist() == list(range(m + 1, n))
    assert site_network(g, w).rows.shape == (n, m + 1)
    # the kernel's system is the vertex system folded through key, without
    # the half-edges whose ends share a row, with the same diagonal
    t, coeff = g.half_edge_table, flux_coefficients(g, w)
    kill = np.zeros(n)
    kill[:m] = np.random.default_rng(n).uniform(0.1, 10.0, m)
    fixed = np.arange(n) == m
    src, dst = key[t.source], key[t.target]
    keep = src != dst
    want = np.zeros((n, n))
    np.add.at(want, (src[keep], dst[keep]), coeff[keep])
    np.add.at(want, (src[keep], src[keep]), -coeff[keep])
    want[np.diag_indices(n)] -= kill
    want[fixed] = 0.0
    want[fixed, fixed] = 1.0
    assert np.array_equal(flux_system(kern, coeff[kern.half], fixed, kill).dense(), want)


@pytest.mark.parametrize("g, w", _layout_cases())
def test_every_field_keeps_its_solve_s_own_rows(g, w):
    # fk's fields hold the kernel's rows, read through its key, as the
    # network does; diffuse keeps a row per vertex, as it solves every vertex
    kern, index = g.kernel, g.vertex_index
    specs = [KappaSpec.constant(k) for k in (0.0, 1.3, math.inf)]
    fields, curve = [solve_survival(g, w, ks) for ks in specs], survival_curve(g, w, specs)
    for field in fields + curve:
        held = [a for a in vars(field).values() if a is not g]
        assert len(held) == 2
        for a in held:
            assert isinstance(a, np.ndarray) and a.shape == (kern.order,)
            assert not a.flags.writeable
    for field in fields:
        for v in g.vertex_ids:
            want = field.survival[kern.key[index[v]]]
            assert field[v] == want and evaluate_at(field, v) == want
    for field, point in zip(fields, curve):
        assert_same_field(point, field)
    h = 0.25 * min(e.length for e in g.edges)
    sol = solve_diffuse(g, w, ActiveZoneSpec(rate=2.0, delta=1.0, diffusion=1.0, h=h))
    assert sol.values.shape == (len(g.vertex_ids),) and not sol.values.flags.writeable
    for v in g.vertex_ids:
        assert sol[v] == sol.evaluate(v) == sol.values[index[v]]


def test_a_dead_end_deeper_than_the_rounds_keeps_its_root_end():
    # a path of rounds + 8 inert vertices hangs on c1: the rounds strip its
    # far end, and the 8 vertices nearest c1 stay unknowns of the solve
    g, path = dead_end_path(graph._DEAD_END_ROUNDS + 8)
    w = derive_weights(g)
    hang = graph._dead_ends(g)
    kept = [g.vertex_ids[v] for v in np.flatnonzero(hang == np.arange(len(hang)))]
    assert [v for v in kept if v.startswith("b")] == list(path[:8])
    _assert_rates_match_the_schur_complement(g, w)
    for x in ("v0", path[-1], PointOnGraph.on_edge(len(g.edges) - 1, 0.1)):
        assert np.allclose(hitting_split(g, w, x).p, hitting_split(g, w, "c1").p,
                           rtol=0.0, atol=1e-12)


def _fresh(g):
    """The same graph as a new object, with nothing memoized on it."""
    return MetricGraph(g.vertices, g.edges, g.dimension)


def _count_network_builds(monkeypatch):
    """Record every build of a sites' network, a memo miss of "sites",
    from here on."""
    calls = []
    build = harmonic._site_network

    def counting(g, w):
        calls.append(g)
        return build(g, w)

    monkeypatch.setattr(harmonic, "_site_network", counting)
    return calls


def test_second_conversion_reuses_the_green_solve(monkeypatch):
    g, start, _ = chain_graph((1.0, 0.5, 0.8, 0.7))
    w = derive_weights(g)
    calls = _count_network_builds(monkeypatch)
    first = conversion(g, w, start, KappaSpec.constant(2.0))
    assert len(calls) == 1
    assert conversion(g, w, start, KappaSpec.constant(2.0)) == first
    conversion(g, w, start, KappaSpec.per_vertex({"c1": 1.0, "c2": 0.5, "c3": 3.0}))
    rational_form(g, w, start)
    hitting_split(g, w, start)
    assert len(calls) == 1


def test_memoized_conversions_match_fresh_problems_bit_for_bit():
    rng = np.random.default_rng(31)
    grid = [*kappa_samples(8), math.inf]
    for i in range(20):
        g, start = random_graph(rng, random_radii=(i % 2 == 0))
        w = derive_weights(g)
        for kappa in grid:
            ks = KappaSpec.constant(float(kappa))
            g2 = _fresh(g)
            w2 = derive_weights(g2)
            assert conversion(g, w, start, ks) == conversion(g2, w2, start, ks)
            assert_same_field(solve_survival(g, w, ks), solve_survival(g2, w2, ks))


def test_two_weight_objects_on_one_graph_keep_their_own_solves():
    g = MetricGraph(
        (Vertex("x0"), Vertex("j"), Vertex("c", "active"), Vertex("a", "exit")),
        (Edge(("x0", "j"), 1.0, 1.0), Edge(("j", "c"), 0.8, 2.0), Edge(("j", "a"), 1.2, 0.5)),
    )
    ks = KappaSpec.constant(1.5)
    alphas = []
    for make in (derive_weights, uniform_weights, derive_weights):
        w = make(g)
        alpha = conversion(g, w, "x0", ks).alpha
        g2 = _fresh(g)
        w2 = make(g2)
        assert alpha == conversion(g2, w2, "x0", ks).alpha
        assert alpha == pytest.approx(1.0 - solve_survival(g2, w2, ks)["x0"], abs=1e-12)
        alphas.append(alpha)
    assert abs(alphas[0] - alphas[1]) > 1e-2
    assert alphas[0] == alphas[2]


def test_weights_made_anew_do_not_grow_the_memo():
    g, start, _ = chain_graph((1.0, 0.5, 0.8))
    ks = KappaSpec.constant(1.0)
    want = conversion(_fresh(g), derive_weights(g), start, ks)
    for _ in range(20):
        assert conversion(g, derive_weights(g), start, ks) == want
    assert len(g.solved) <= 2  # the flux and sites entries of the last weights


def test_a_different_start_reuses_the_entry(monkeypatch):
    g, _, _ = chain_graph((1.0, 0.5, 0.8, 0.7))
    w = derive_weights(g)
    calls = _count_network_builds(monkeypatch)
    ks = KappaSpec.constant(0.7)
    for start in ("v0", "c2", "v0", "c2"):
        g2 = _fresh(g)
        assert conversion(g, w, start, ks) == conversion(g2, derive_weights(g2), start, ks)
    # one build on g for every start, and one per fresh graph
    assert len(calls) == 1 + 4


@pytest.mark.parametrize("route", [
    lambda g, w, x: conversion(g, w, x, KappaSpec.constant(0.7)), hitting_split, rational_form,
], ids=["conversion", "hitting_split", "rational_form"])
def test_an_edge_end_reuses_its_vertex_memo_entry(monkeypatch, route):
    g, _, _ = chain_graph((1.0, 0.5, 0.8, 0.7))  # v0 -1- c1 -0.5- c2 -0.8- c3 -0.7- a
    w = derive_weights(g)
    calls = _count_network_builds(monkeypatch)
    ends = {"v0": [(0, 0.0), (0, -0.0)], "c2": [(1, 0.5), (2, 0.0), (2, -0.0)]}
    for vertex, points in ends.items():
        route(g, w, vertex)
        for edge, offset in points:
            route(g, w, PointOnGraph.on_edge(edge, offset))
    # a point inside an edge reads the same entry: the start is not in the key
    for _ in range(2):
        route(g, w, PointOnGraph.on_edge(2, 0.3))
    assert len(calls) == 1
    assert [key[1:] for key in g.solved] == [("flux",), ("sites",)]


def test_survival_solve_shares_only_the_flux_coefficients():
    g, start, _ = chain_graph((1.0, 0.5, 0.8))
    w = derive_weights(g)
    solve_survival(g, w, KappaSpec.constant(1.0))
    assert [key[1:] for key in g.solved] == [("flux",)]
    conversion(g, w, start, KappaSpec.constant(1.0))
    assert sorted(key[1:] for key in g.solved) == [("flux",), ("sites",)]


def test_a_failed_solve_is_not_memoized(monkeypatch):
    g, start = y_graph()  # x0 hangs on j, which stays an unknown of the solve
    w = derive_weights(g)
    solve = algebra.solve_many

    def failing(a, b):
        raise SingularSystemError("injected")

    monkeypatch.setattr(algebra, "solve_many", failing)
    with pytest.raises(SingularSystemError):
        site_network(g, w)
    monkeypatch.setattr(algebra, "solve_many", solve)
    assert hitting_split(g, w, start).alpha_inf == pytest.approx(0.5, abs=1e-12)


def test_memoized_arrays_and_weights_reject_writes():
    g, start, _ = chain_graph((1.0, 0.5, 0.8))
    w = derive_weights(g)
    net = site_network(g, w)
    for a in (green_matrix(g, w).entries, net.laplacian, net.exit_rates, net.rows, g.kernel.key):
        with pytest.raises(ValueError):
            a[0] = 1.0
    for x in (start, "c2", PointOnGraph.on_edge(1, 0.2)):
        with pytest.raises(ValueError):
            hitting_split(g, w, x).p[0] = 0.5
    with pytest.raises(ValueError):
        flux_coefficients(g, w)[0] = 1.0
    with pytest.raises(TypeError):
        w.p[("v0", 0)] = 0.5


_NOT_FINITE = "edge weights must be finite and nonnegative"
_NO_WAY_OUT = "every vertex but an exit needs a positive edge weight"


@pytest.mark.parametrize("route", [
    lambda g, w: conversion(g, w, "v0", KappaSpec.constant(1.0)),
    lambda g, w: solve_survival(g, w, KappaSpec.constant(1.0)),
    lambda g, w: solve_diffuse(g, w, ActiveZoneSpec(1.0, 0.1, 1.0, 0.1)),
    lambda g, w: build_grid(g, w, 0.5),
], ids=["kac", "fk", "diffuse", "mc"])
@pytest.mark.parametrize("row, message", [
    ({("c", 1): math.nan}, _NOT_FINITE),
    ({("c", 1): -0.5}, _NOT_FINITE),
    ({("c", 1): math.inf}, _NOT_FINITE),
    ({("c", 0): 0.0, ("c", 1): 0.0}, _NO_WAY_OUT),
], ids=["nan", "negative", "inf", "zero row"])
def test_every_route_rejects_the_same_weights(route, row, message):
    # on c's edge to the exit a, or the whole of c's row
    g, _ = path_graph()
    w = EdgeWeights({**derive_weights(g).p, **row})
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        route(g, w)


def test_an_exit_weight_never_enters():
    g, start = path_graph()
    w = derive_weights(g)
    odd = EdgeWeights({**w.p, ("a", 1): math.nan})
    ks = KappaSpec.constant(1.0)
    assert conversion(g, odd, start, ks) == conversion(g, w, start, ks)
    assert_same_field(solve_survival(g, odd, ks), solve_survival(g, w, ks))


def test_a_solved_graph_pickles_without_its_memo():
    # the memo's weak references made pickle.dumps(g) raise TypeError
    g, start = path_graph()
    w = derive_weights(g)
    ks = KappaSpec.constant(1.0)
    res = conversion(g, w, start, ks)
    simulate(g, w, ks, start, SimConfig(0.5, 10, 1))
    solve_diffuse(g, w, ActiveZoneSpec(1.0, 0.1, 1.0, 0.1))
    copy = pickle.loads(pickle.dumps((g, w)))
    assert copy == (g, w)
    assert copy[0].solved == {}
    assert conversion(*copy, start, ks) == res


def test_no_memo_entry_holds_the_graph_or_the_weights():
    # every route's kappa-free work sits in g.solved; with no cycle through
    # it, the graph and the weights go as soon as the caller drops them
    g, start = path_graph()
    w = derive_weights(g)
    ks = KappaSpec.constant(1.0)
    conversion(g, w, start, ks)
    solve_survival(g, w, ks)
    solve_diffuse(g, w, ActiveZoneSpec(1.0, 0.1, 1.0, 0.1))
    simulate(g, w, ks, start, SimConfig(0.5, 10, 1))
    assert sorted(key[1] for key in g.solved) == ["flux", "sites", "walk", "zones"]
    graph, weights = weakref.ref(g), weakref.ref(w)
    gc.disable()
    try:
        del g, w
        assert graph() is None and weights() is None
    finally:
        gc.enable()
