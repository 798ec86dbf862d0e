import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from graphreact import (
    Edge,
    EdgeWeights,
    GreenMatrix,
    KappaSpec,
    MetricGraph,
    PreconditionError,
    SingularSystemError,
    Vertex,
    chain_alpha_recursive,
    conversion,
    derive_weights,
    green_matrix,
    placement_leading_coeff,
    rational_form,
    solve_survival,
)
from graphreact.harmonic import SiteNetwork
from graphreact.kac import survival_on_active
from helpers import (
    chain_graph,
    degree1_graph,
    kappa_samples,
    path_graph,
    random_graph,
    random_green_matrix,
    star_graph,
)
from oracles import survival_det


def _gm(entries, sites=None):
    entries = np.asarray(entries, dtype=float)
    sites = sites or tuple(f"c{i}" for i in range(entries.shape[0]))
    return GreenMatrix(tuple(sites), entries)


def _net(gm):
    """The sites' network whose Green matrix is gm: L = inv(G), exit rates L 1."""
    lap = np.linalg.inv(gm.entries)
    return SiteNetwork(gm.active, lap, lap.sum(axis=1), np.eye(len(lap) + 1))


def _survival(net, ks):
    """The survivals of survival_on_active at the strengths of ks."""
    return survival_on_active(net, ks.values(net.active))[0]


def test_survival_kappa_zero_is_one():
    gm = _gm(random_green_matrix(np.random.default_rng(0), 3))
    psi = _survival(_net(gm), KappaSpec.constant(0.0))
    assert np.allclose(psi, 1.0, atol=1e-14)


def test_survival_single_site_exponential_mean():
    lam = 2.0
    gm = _gm([[lam]])
    for kappa in (0.1, 1.0, 7.5):
        psi = _survival(_net(gm), KappaSpec.constant(kappa))
        assert psi[0] == pytest.approx(1.0 / (1.0 + lam * kappa), abs=1e-14)


def test_survival_det_matches_solve_on_chain():
    g, _, _ = chain_graph((1.0, 0.5, 0.5))
    gm = green_matrix(g, derive_weights(g))
    ks = KappaSpec.constant(1.3)
    psi = _survival(_net(gm), ks)
    for j in range(2):
        assert survival_det(gm, ks, j) == pytest.approx(psi[j], abs=1e-12)


def test_survival_det_kappa_zero_is_one():
    gm = _gm(random_green_matrix(np.random.default_rng(1), 2))
    assert survival_det(gm, KappaSpec.constant(0.0), 0) == 1.0


def test_survival_det_chain_numerator_collapses():
    # strictly triangular row-subtracted matrix: the ratio is 1/det(I + kG)
    g, _, _ = chain_graph((0.9, 0.7, 0.6, 0.5))
    gm = green_matrix(g, derive_weights(g))
    for kappa in (0.2, 1.0, 5.0):
        det_full = np.linalg.det(np.eye(3) + kappa * gm.entries)
        got = survival_det(gm, KappaSpec.constant(kappa), 0)
        assert got == pytest.approx(1.0 / det_full, rel=1e-12)


def test_cramer_identity_hundred_instances():
    rng = np.random.default_rng(17)
    for trial in range(100):
        n = int(rng.integers(1, 5))
        gm = _gm(random_green_matrix(rng, n))
        if trial % 2:
            ks = KappaSpec.constant(float(rng.uniform(0.0, 10.0)))
        else:
            ks = KappaSpec.per_vertex(
                {s: float(rng.uniform(0.0, 10.0)) for s in gm.active}
            )
        psi = _survival(_net(gm), ks)
        for j in range(n):
            assert survival_det(gm, ks, j) == pytest.approx(psi[j], abs=1e-12)


def test_conversion_path_closed_form():
    g, start = path_graph()
    w = derive_weights(g)
    res = conversion(g, w, start, KappaSpec.constant(1.0))
    assert abs(res.alpha - 2.0 / 3.0) <= 1e-12
    assert res.psi == pytest.approx(1.0 / 3.0, abs=1e-12)
    g1, s1 = degree1_graph()
    res1 = conversion(g1, derive_weights(g1), s1, KappaSpec.constant(1.0))
    assert abs(res1.alpha - 0.5) <= 1e-12


def test_conversion_star_degree_rule():
    g, start = star_graph(4, exit_len=1.0)
    res = conversion(g, derive_weights(g), start, KappaSpec.constant(0.5))
    assert abs(res.alpha - 2.0 / 3.0) <= 1e-12


def test_conversion_kappa_zero_exact():
    rng = np.random.default_rng(5)
    g, start = random_graph(rng)
    res = conversion(g, derive_weights(g), start, KappaSpec.constant(0.0))
    assert res.alpha == 0.0
    assert res.psi == 1.0


def test_conversion_kappa_infinity_is_hitting_probability():
    from graphreact import hitting_split

    rng = np.random.default_rng(6)
    for _ in range(10):
        g, start = random_graph(rng)
        w = derive_weights(g)
        res = conversion(g, w, start, KappaSpec.constant(float("inf")))
        assert res.alpha == pytest.approx(
            hitting_split(g, w, start).alpha_inf, abs=1e-14
        )


def test_conversion_per_site_matches_survival_field():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g, start = random_graph(rng, random_radii=True)
        w = derive_weights(g)
        sites = g.active_vertices
        ks = KappaSpec.per_vertex({s: float(rng.uniform(0.0, 8.0)) for s in sites})
        res = conversion(g, w, start, ks)
        psi = solve_survival(g, w, ks)[start]
        assert res.alpha == pytest.approx(1.0 - psi, abs=1e-10)


def test_conversion_per_site_infinite_matches_survival_field():
    # an infinite site is the s_j = 0 limit of the scaled survival solve
    inf = float("inf")
    g, start, sites = chain_graph((0.7, 1.0, 1.3, 0.9))
    cases = [(g, start, dict(zip(sites, values)))
             for values in ((inf, 0.0, 2.0), (0.0, inf, 2.0), (1.5, 0.0, inf), (inf,) * 3)]
    rng = np.random.default_rng(23)
    for _ in range(30):
        g, start = random_graph(rng, random_radii=True)
        choices = (inf, 0.0, float(rng.uniform(0.1, 8.0)))
        cases.append((g, start, {s: choices[int(rng.integers(3))] for s in g.active_vertices}))
    assert any(inf in kappa.values() and len(kappa) > 1 for _, _, kappa in cases[4:])
    for g, start, kappa in cases:
        w = derive_weights(g)
        ks = KappaSpec.per_vertex(kappa)
        res = conversion(g, w, start, ks)
        psi = solve_survival(g, w, ks)
        assert abs(res.alpha - (1.0 - psi[start])) <= 1e-10
        for site, s in zip(res.sites, res.site_survival):
            assert abs(s - psi[site]) <= 1e-10
            if math.isinf(kappa[site]):
                assert s == 0.0


def test_kappa_spec_validation():
    with pytest.raises(PreconditionError):
        KappaSpec.constant(-1.0)
    with pytest.raises(PreconditionError):
        KappaSpec(uniform=1.0, per_site={"c": 1.0})
    with pytest.raises(PreconditionError):
        KappaSpec()
    with pytest.raises(PreconditionError):
        KappaSpec.per_vertex({"c": 1.0}).values(("c", "d"))


def test_rational_form_path():
    g, start = path_graph()
    form = rational_form(g, derive_weights(g), start)
    assert np.allclose(form.numerator.coeffs, (0.0, 2.0), atol=1e-12)
    assert np.allclose(form.denominator.coeffs, (1.0, 2.0), atol=1e-12)


def test_rational_form_single_site_structure():
    g, start = star_graph(3, exit_len=0.8)
    w = derive_weights(g)
    form = rational_form(g, w, start)
    lam = 3 * 0.8
    assert form.numerator.coeffs[0] == 0.0
    assert form.numerator.coeffs[1] == pytest.approx(lam, abs=1e-12)
    assert form.denominator.coeffs[1] == pytest.approx(lam, abs=1e-12)


def test_rational_form_chain_denominator_degree():
    for m, gaps in ((1, (1.0, 0.8)), (2, (1.0, 0.5, 0.5)), (3, (0.9, 0.6, 0.8, 0.7))):
        g, start, _ = chain_graph(gaps)
        form = rational_form(g, derive_weights(g), start)
        assert form.denominator.degree == m
        assert form.numerator.degree <= m


def test_rational_form_matches_conversion():
    rng = np.random.default_rng(14)
    for _ in range(10):
        g, start = random_graph(rng, random_radii=True)
        w = derive_weights(g)
        form = rational_form(g, w, start)
        assert form.numerator(0.0) == 0.0
        for kappa in kappa_samples(20):
            res = conversion(g, w, start, KappaSpec.constant(float(kappa)))
            assert form(float(kappa)) == pytest.approx(res.alpha, abs=1e-9)


def test_chain_recursion_single_site():
    for l2 in (0.5, 1.0, 2.0):
        for kappa in (0.0, 0.7, 3.0):
            expected = l2 * kappa / (1.0 + l2 * kappa)
            assert chain_alpha_recursive((1.0, l2), kappa) == pytest.approx(
                expected, abs=1e-14
            )
    assert chain_alpha_recursive((1.0, 1.0, 1.0), 0.0) == 0.0


def test_chain_recursion_matches_engine_at_doubled_kappa():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        gaps = tuple(float(rng.uniform(0.3, 1.5)) for _ in range(m + 1))
        g, start, _ = chain_graph(gaps)
        w = derive_weights(g)
        kappa = float(rng.uniform(0.0, 10.0))
        alpha_engine = conversion(g, w, start, KappaSpec.constant(kappa)).alpha
        alpha_recursion = chain_alpha_recursive(gaps, 2.0 * kappa)
        assert abs(alpha_engine - alpha_recursion) <= 1e-10


def test_chain_recursion_preconditions():
    with pytest.raises(PreconditionError):
        chain_alpha_recursive((1.0,), 1.0)
    with pytest.raises(PreconditionError):
        chain_alpha_recursive((1.0, -1.0), 1.0)
    with pytest.raises(PreconditionError):
        chain_alpha_recursive((1.0, 1.0), float("inf"))


def test_placement_leading_coeff_single_site():
    for l2 in (0.4, 1.0, 1.7):
        g, _, _ = chain_graph((1.0, l2))
        assert placement_leading_coeff(g, derive_weights(g)) == pytest.approx(
            2.0 * l2, abs=1e-12
        )


def test_placement_leading_coeff_two_sites_product():
    g, _, _ = chain_graph((0.5, 0.3, 0.7))
    got = placement_leading_coeff(g, derive_weights(g))
    assert got == pytest.approx(4.0 * 0.3 * 0.7, rel=1e-9)


def test_placement_requires_chain():
    g, _ = star_graph(3)
    with pytest.raises(PreconditionError):
        placement_leading_coeff(g, derive_weights(g))


def test_small_kappa_slope():
    # oracle 1: finite difference of the conversion curve at zero
    # oracle 2: chain closed form, twice the summed distances to the exit
    gaps = (0.8, 0.5, 0.9)
    g, start, _ = chain_graph(gaps)
    w = derive_weights(g)
    form = rational_form(g, w, start)
    slope = form.numerator.coeffs[1]
    eps = 1e-7
    fd = conversion(g, w, start, KappaSpec.constant(eps)).alpha / eps
    assert slope == pytest.approx(fd, rel=1e-5)
    expected = 2.0 * ((0.5 + 0.9) + 0.9)
    assert slope == pytest.approx(expected, abs=1e-10)


def test_single_site_factorization():
    # with one site the start point only scales the curve
    g, _ = star_graph(3, exit_len=1.2, leaf_lengths=(0.5, 2.0))
    w = derive_weights(g)
    curves = []
    for x in ("b0", "b1", "c"):
        curves.append(
            [conversion(g, w, x, KappaSpec.constant(k)).alpha for k in (0.3, 1.0, 4.0)]
        )
    base = np.array(curves[0])
    for other in curves[1:]:
        ratios = np.array(other) / base
        assert np.max(ratios) - np.min(ratios) <= 1e-12


def test_conversion_breakdown_accounting():
    rng = np.random.default_rng(31)
    g, start = random_graph(rng)
    w = derive_weights(g)
    res = conversion(g, w, start, KappaSpec.constant(2.0))
    recon = res.alpha_inf * (1.0 - sum(res.breakdown))
    assert res.alpha == pytest.approx(recon, abs=1e-12)
    assert 0.0 <= res.alpha <= res.alpha_inf + 1e-12


def test_uniform_conversion_long_chain_large_kappa():
    # the determinant ratios this once went through overflowed to NaN here
    gaps = tuple(np.random.default_rng(0).uniform(0.5, 1.5, 161))
    g, start, _ = chain_graph(gaps)
    w = derive_weights(g)
    ks = KappaSpec.constant(100.0)
    alpha = conversion(g, w, start, ks).alpha
    assert math.isfinite(alpha)
    assert alpha == pytest.approx(1.0 - solve_survival(g, w, ks)[start], abs=1e-9)


@pytest.mark.parametrize(
    "gaps, kappas",
    [
        (np.random.default_rng(1).uniform(0.5, 1.5, 41), np.geomspace(0.01, 10.0, 25)),
        ((1.0,) * 14, np.geomspace(0.01, 10.0, 25)),
        (np.random.default_rng(2).uniform(0.5, 1.5, 161), np.geomspace(0.01, 1.0, 25)),
    ],
    ids=["chain40", "chain13-uniform", "chain160"],
)
def test_rational_form_matches_conversion_on_long_chains(gaps, kappas):
    g, start, _ = chain_graph(tuple(float(x) for x in gaps))
    w = derive_weights(g)
    form = rational_form(g, w, start)
    assert form.denominator.degree == len(gaps) - 1
    for kappa in kappas:
        res = conversion(g, w, start, KappaSpec.constant(float(kappa)))
        assert form(float(kappa)) == pytest.approx(res.alpha, abs=1e-9)


def test_rational_form_coefficients_past_the_float_range_raise():
    # a uniform unit chain of 600 sites: every coefficient printed as nan
    g, start, _ = chain_graph((1.0,) * 601)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning fails the test
        with pytest.raises(SingularSystemError, match="overflow"):
            rational_form(g, derive_weights(g), start)


def _explicit_weight_ring(seed: int, n: int):
    """Ring of n vertices, every other one active, with an exit leaf and
    a start leaf, and random explicit weight rows at every vertex."""
    rng = np.random.default_rng(seed)
    vertices = [Vertex(f"r{i}", "active" if i % 2 == 0 else "inert") for i in range(n)]
    vertices += [Vertex("a", "exit"), Vertex("s")]
    edges = [Edge((f"r{i}", f"r{(i + 1) % n}"), float(rng.uniform(0.3, 1.8))) for i in range(n)]
    edges += [Edge(("r1", "a"), 1.0), Edge(("r3", "s"), 0.7)]
    g = MetricGraph(tuple(vertices), tuple(edges))
    p = {}
    for vid in g.vertex_ids:
        ks = [k for k, e in enumerate(g.edges) if vid in e.endpoints]
        raw = rng.uniform(0.1, 1.0, len(ks))
        for k, x in zip(ks, raw / raw.sum()):
            p[(vid, k)] = float(x)
    return g, EdgeWeights(p), "s"


def test_rational_form_matches_conversion_with_complex_spectrum():
    g, w, start = _explicit_weight_ring(1, 16)
    assert np.any(np.abs(np.linalg.eigvals(green_matrix(g, w).entries).imag) > 1e-6)
    form = rational_form(g, w, start)
    for kappa in np.geomspace(0.01, 10.0, 25):
        res = conversion(g, w, start, KappaSpec.constant(float(kappa)))
        assert form(float(kappa)) == pytest.approx(res.alpha, abs=1e-9)


def test_placement_leading_coeff_twenty_site_chain():
    # det(G) = 2^20 on a uniform 20-site chain; the Vandermonde fit of
    # det(I + tG) read 1047163.56 here
    g, _, _ = chain_graph((1.0,) * 21)
    got = placement_leading_coeff(g, derive_weights(g))
    assert got == pytest.approx(2.0**20, rel=1e-9)


@pytest.mark.parametrize("gaps", [(1e10,) * 41, (1.0,) * 1031], ids=["wide-gaps", "1030-sites"])
def test_placement_leading_coeff_that_overflows_raises(gaps):
    # det(G) = 2^m on a uniform unit chain: 1.07e301 at m = 1000, past 1.8e308
    # at m = 1024; gaps of 1e7 on 40 sites give 1.1e292.  The product of
    # the pivots overflows, which must not come back as inf or a warning.
    g, _, _ = chain_graph(gaps)
    with pytest.raises(SingularSystemError, match="determinant overflows a float"):
        placement_leading_coeff(g, derive_weights(g))


@pytest.mark.parametrize("gap", [1e-10, 1e-8])
def test_placement_leading_coeff_that_underflows_raises(gap):
    # det(G) = 2^40 gap^40 on 40 sites: 1.1e-388 returned 0.0, the answer for
    # a singular matrix, and 1.1e-308, a subnormal, 1.099511627776018e-308
    g, _, _ = chain_graph((gap,) * 41)
    with pytest.raises(SingularSystemError, match="determinant underflows a float"):
        placement_leading_coeff(g, derive_weights(g))


@pytest.mark.parametrize("name", ["path_site", "chain_m3", "ygraph"])
def test_huge_finite_kappa_matches_survival_field(name):
    # I + G kappa overflowed to inf here, and the solve failed with residual nan
    from graphreact import load_document, parse_document, prepare

    path = Path(__file__).resolve().parent.parent / "fixtures" / f"{name}.json"
    g, w, start = prepare(parse_document(load_document(str(path))))
    sites = g.active_vertices
    for ks in (KappaSpec.constant(1e308),
               KappaSpec.per_vertex(dict.fromkeys(sites, 1e308)),
               KappaSpec.per_vertex({s: 1e308 if i % 2 else 0.7 for i, s in enumerate(sites)})):
        alpha = conversion(g, w, start, ks).alpha
        assert alpha == pytest.approx(1.0 - solve_survival(g, w, ks)[start], abs=1e-9)


def test_conversion_uniform_400_site_chain_matches_recursion():
    # 402 vertices: the Green solve goes through the sparse factorization
    gaps = (1.0,) * 401
    g, start, _ = chain_graph(gaps)
    w = derive_weights(g)
    # from kappa 3 on, the recursion's product overflows unless it is carried as 1/g
    for kappa in (1e-3, 0.02, 0.3, 3.0, 10.0):
        alpha = conversion(g, w, start, KappaSpec.constant(kappa)).alpha
        assert alpha == pytest.approx(chain_alpha_recursive(gaps, 2.0 * kappa), abs=1e-9)


@pytest.mark.parametrize("sites", [400, 500])
def test_long_uniform_chain_survival_is_never_negative(sites):
    # solving back against G[A, A] printed psi_kac -3.59e-12 and 178
    # negative site survivals at 400 sites, psi_kac -8.17e-13 at 500
    g, start, _ = chain_graph((1.0,) * (sites + 1))
    res = conversion(g, derive_weights(g), start, KappaSpec.constant(1.0))
    assert res.alpha_inf == 1.0
    assert res.p == (1.0,) + (0.0,) * (sites - 1)
    assert res.psi >= 0.0
    assert min(res.site_survival) >= 0.0


def test_tiny_kappa_keeps_alpha_accurate_and_nonnegative():
    # psi solved from L alone is 1 within cond(L) * eps, and alpha = 1 - p.psi
    # lost it: 8.9e-14 here for 1.6e-11, and -4.2e-15 on random graphs
    g, start, _ = chain_graph((1.0,) * 401)
    w = derive_weights(g)
    slope = float(green_matrix(g, w).entries[0].sum())  # alpha ~ kappa (G 1)[c1]
    for kappa in (1e-16, 1e-12):
        alpha = conversion(g, w, start, KappaSpec.constant(kappa)).alpha
        assert alpha == pytest.approx(kappa * slope, rel=1e-4)
    rng = np.random.default_rng(4)
    for i in range(200):
        g, start = random_graph(rng, max_core=8, max_extra=4 if i % 2 else 0, max_active=4)
        w = derive_weights(g)
        for kappa in (1e-300, 1e-16, 1e-12, 1e-8):
            res = conversion(g, w, start, KappaSpec.constant(kappa))
            assert res.alpha >= 0.0 and max(res.site_survival) <= 1.0


def test_conversion_stays_within_zero_alpha_inf_one():
    # the sum of a row of H came out 1 + 2.2e-16 on draw 26, started at n3,
    # so psi printed -2.2e-16 at kappa = inf; 469 of these 10500 conversions
    # left 0 <= alpha <= alpha_inf <= 1 and 75 had a negative alpha or psi
    rng = np.random.default_rng(9)
    kappas = (0.0, 1e-9, 0.1, 1.0, 10.0, 1e9, math.inf)
    for i in range(1500):
        g, start = random_graph(rng, max_core=8, max_extra=4 if i % 2 else 0, max_active=4,
                                random_radii=(i % 3 == 0))
        w = derive_weights(g)
        for kappa in kappas:
            res = conversion(g, w, start, KappaSpec.constant(kappa))
            assert 0.0 <= res.alpha <= res.alpha_inf <= 1.0, (i, kappa, res)
            assert 0.0 <= res.psi <= 1.0, (i, kappa, res)
