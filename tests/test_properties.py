"""Randomized invariant suites across the solver stack."""

import numpy as np
import pytest

from graphreact import (
    KappaSpec,
    PointOnGraph,
    conversion,
    derive_weights,
    green_matrix,
    hitting_split,
    rational_form,
    solve_survival,
)
from helpers import kappa_samples, random_graph
from oracles import split_at


def test_alpha_monotone_in_kappa():
    rng = np.random.default_rng(100)
    grid = [0.0, 0.05, 0.3, 1.0, 4.0, 20.0, 1e3, 1e6]
    for _ in range(50):
        g, start = random_graph(rng, random_radii=True)
        w = derive_weights(g)
        alphas = [conversion(g, w, start, KappaSpec.constant(k)).alpha for k in grid]
        for lo, hi in zip(alphas, alphas[1:]):
            assert hi >= lo - 1e-12


def test_alpha_zero_at_kappa_zero():
    rng = np.random.default_rng(101)
    for _ in range(50):
        g, start = random_graph(rng)
        w = derive_weights(g)
        assert abs(conversion(g, w, start, KappaSpec.constant(0.0)).alpha) <= 1e-12


def test_alpha_saturates_at_hitting_probability():
    rng = np.random.default_rng(102)
    for _ in range(50):
        g, start = random_graph(rng, random_radii=True)
        w = derive_weights(g)
        res = conversion(g, w, start, KappaSpec.constant(1e6))
        assert abs(res.alpha - res.alpha_inf) <= 1e-4


def test_degree2_insertion_invariance():
    rng = np.random.default_rng(103)
    for _ in range(50):
        g, start = random_graph(rng, random_radii=False)
        w = derive_weights(g)
        kappa = float(rng.uniform(0.1, 20.0))
        ks = KappaSpec.constant(kappa)
        before = conversion(g, w, start, ks).alpha
        g_before = green_matrix(g, w).entries
        psi_before = solve_survival(g, w, ks)

        k = int(rng.integers(0, len(g.edges)))
        off = float(rng.uniform(0.15, 0.85)) * g.edges[k].length
        g2, _ = split_at(g, PointOnGraph.on_edge(k, off))
        w2 = derive_weights(g2)
        after = conversion(g2, w2, start, ks).alpha
        g_after = green_matrix(g2, w2).entries
        psi_after = solve_survival(g2, w2, ks)

        assert abs(before - after) <= 1e-10
        assert np.max(np.abs(g_before - g_after)) <= 1e-10
        for vid in g.vertex_ids:
            assert abs(psi_before[vid] - psi_after[vid]) <= 1e-10


def test_hitting_split_is_a_distribution():
    rng = np.random.default_rng(104)
    for _ in range(50):
        g, start = random_graph(rng, random_radii=True)
        w = derive_weights(g)
        hs = hitting_split(g, w, start)
        assert 0.0 <= hs.alpha_inf <= 1.0 + 1e-12
        if hs.alpha_inf > 0:
            assert np.all(hs.p >= -1e-12)
            assert np.sum(hs.p) == pytest.approx(1.0, abs=1e-9)


def test_methods_agree_with_per_site_strengths():
    rng = np.random.default_rng(105)
    for _ in range(50):
        g, start = random_graph(rng, random_radii=True)
        w = derive_weights(g)
        ks = KappaSpec.per_vertex(
            {s: float(rng.uniform(0.0, 30.0)) for s in g.active_vertices}
        )
        alpha_kac = conversion(g, w, start, ks).alpha
        alpha_fk = 1.0 - solve_survival(g, w, ks)[start]
        assert abs(alpha_kac - alpha_fk) <= 1e-9


def test_rational_form_bounded_degrees_and_zero_constant():
    rng = np.random.default_rng(106)
    for _ in range(50):
        g, start = random_graph(rng, random_radii=True)
        w = derive_weights(g)
        c = len(g.active_vertices)
        form = rational_form(g, w, start)
        assert form.numerator.degree <= c
        assert form.denominator.degree <= c
        assert form.numerator(0.0) == 0.0
        for kappa in kappa_samples(8):
            res = conversion(g, w, start, KappaSpec.constant(float(kappa)))
            assert form(float(kappa)) == pytest.approx(res.alpha, abs=1e-9)
