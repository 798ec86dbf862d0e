import math
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
    Vertex,
    chain_alpha_recursive,
    conversion,
    derive_weights,
    green_matrix,
    placement_leading_coeff,
    rational_form,
    solve_survival,
    survival_det,
    survival_on_active,
)
from helpers import (
    chain_graph,
    degree1_graph,
    kappa_samples,
    path_graph,
    random_graph,
    random_green_matrix,
    star_graph,
)


def _gm(entries, sites=None):
    entries = np.asarray(entries, dtype=float)
    sites = sites or tuple(f"c{i}" for i in range(entries.shape[0]))
    return GreenMatrix(tuple(sites), entries)


def test_survival_kappa_zero_is_one():
    gm = _gm(random_green_matrix(np.random.default_rng(0), 3))
    psi = survival_on_active(gm, KappaSpec.constant(0.0))
    assert np.allclose(psi, 1.0, atol=1e-14)


def test_survival_single_site_exponential_mean():
    lam = 2.0
    gm = _gm([[lam]])
    for kappa in (0.1, 1.0, 7.5):
        psi = survival_on_active(gm, KappaSpec.constant(kappa))
        assert psi[0] == pytest.approx(1.0 / (1.0 + lam * kappa), abs=1e-14)


def test_survival_det_matches_solve_on_chain():
    g, _, _ = chain_graph((1.0, 0.5, 0.5))
    gm = green_matrix(g, derive_weights(g))
    ks = KappaSpec.constant(1.3)
    psi = survival_on_active(gm, ks)
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
        psi = survival_on_active(gm, ks)
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


def test_conversion_per_site_infinite_rejected():
    g, start = path_graph()
    ks = KappaSpec.per_vertex({"c": float("inf")})
    with pytest.raises(PreconditionError):
        conversion(g, derive_weights(g), start, ks)


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
    for vid, hs in g.out_edges.items():
        raw = rng.uniform(0.1, 1.0, len(hs))
        for h, x in zip(hs, raw / raw.sum()):
            p[(vid, h.edge)] = float(x)
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
    for kappa in (1e-3, 0.02, 0.3):
        alpha = conversion(g, w, start, KappaSpec.constant(kappa)).alpha
        assert alpha == pytest.approx(chain_alpha_recursive(gaps, 2.0 * kappa), abs=1e-9)
