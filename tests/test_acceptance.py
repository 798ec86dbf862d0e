"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from graphreact import (
    ActiveZoneSpec,
    KappaSpec,
    SimConfig,
    chain_alpha_recursive,
    conversion,
    derive_weights,
    green_matrix,
    placement_leading_coeff,
    rational_form,
    simulate,
    solve_diffuse,
    solve_survival,
)
from helpers import (
    chain_graph,
    degree1_graph,
    kappa_samples,
    path_graph,
    random_graph,
    star_graph,
)
from oracles import det_poly, row_subtracted


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {label}")


def test_criterion_1_single_site_closed_form():
    with criterion(1, "single-site path closed form, both methods, < 10 ms"):
        g, start = path_graph(1.0, 1.0)
        w = derive_weights(g)
        ks = KappaSpec.constant(1.0)

        def both():
            a1 = conversion(g, w, start, ks).alpha
            a2 = 1.0 - solve_survival(g, w, ks)[start]
            return a1, a2

        both()  # warm-up
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            alpha_kac, alpha_fk = both()
            best = min(best, time.perf_counter() - t0)
        assert abs(alpha_kac - 2.0 / 3.0) <= 1e-12
        assert abs(alpha_fk - 2.0 / 3.0) <= 1e-12
        assert best < 0.010

        g1, s1 = degree1_graph(1.0)
        w1 = derive_weights(g1)
        assert abs(conversion(g1, w1, s1, ks).alpha - 0.5) <= 1e-12
        assert abs((1.0 - solve_survival(g1, w1, ks)[s1]) - 0.5) <= 1e-12


def test_criterion_2_star_formula():
    with criterion(2, "star formula, 20 kappa samples, leaf-length invariance"):
        rng = np.random.default_rng(202)
        for n in (2, 3, 4):
            exit_len = float(rng.uniform(0.5, 1.5))
            leaves = tuple(float(rng.uniform(0.2, 2.0)) for _ in range(n - 1))
            g, start = star_graph(n, exit_len=exit_len, leaf_lengths=leaves)
            w = derive_weights(g)
            lam = green_matrix(g, w).entries[0, 0]
            assert abs(lam - n * exit_len) <= 1e-12

            for kappa in kappa_samples(20):
                expected = n * exit_len * kappa / (1.0 + n * exit_len * kappa)
                got = conversion(g, w, start, KappaSpec.constant(float(kappa))).alpha
                assert abs(got - expected) <= 1e-10

            other = tuple(l * 2.3 + 0.1 for l in leaves)
            g2, start2 = star_graph(n, exit_len=exit_len, leaf_lengths=other)
            w2 = derive_weights(g2)
            for kappa in (0.3, 1.0, 5.0):
                a = conversion(g, w, start, KappaSpec.constant(kappa)).alpha
                b = conversion(g2, w2, start2, KappaSpec.constant(kappa)).alpha
                assert abs(a - b) <= 1e-10


def test_criterion_3_chain_green_matrix():
    with criterion(3, "chain local-time matrix and collapsing first-site ratio"):
        rng = np.random.default_rng(203)
        for _ in range(10):
            m = int(rng.integers(1, 6))
            gaps = tuple(float(rng.uniform(0.3, 1.5)) for _ in range(m + 1))
            g, _, _ = chain_graph(gaps)
            gm = green_matrix(g, derive_weights(g))
            tails = [sum(gaps[j:]) for j in range(1, m + 1)]
            expected = np.array(
                [[2.0 * tails[max(i, j)] for j in range(m)] for i in range(m)]
            )
            assert np.max(np.abs(gm.entries - expected)) <= 1e-10

            poly = det_poly(row_subtracted(gm.entries, 0))
            assert poly.coeffs[0] == 1.0
            assert all(abs(c) <= 1e-10 for c in poly.coeffs[1:])


def test_criterion_4_method_cross_agreement():
    with criterion(4, "100 random graphs: both methods within 1e-9, < 5 s"):
        rng = np.random.default_rng(204)
        t0 = time.perf_counter()
        for i in range(100):
            g, start = random_graph(rng, random_radii=(i % 3 == 0))
            w = derive_weights(g)
            kappa = float(rng.uniform(0.0, 50.0))
            alpha_kac = conversion(g, w, start, KappaSpec.constant(kappa)).alpha
            alpha_fk = 1.0 - solve_survival(g, w, KappaSpec.constant(kappa))[start]
            assert abs(alpha_kac - alpha_fk) <= 1e-9
        assert time.perf_counter() - t0 < 5.0


def test_criterion_5_monte_carlo_oracle():
    with criterion(5, "Monte Carlo oracle: 4-sigma windows, reproducible, < 30 s"):
        t0 = time.perf_counter()

        g, start = path_graph(1.0, 1.0)
        w = derive_weights(g)
        cfg = SimConfig(step=0.1, trajectories=100_000, seed=20)
        est = simulate(g, w, KappaSpec.constant(1.0), start, cfg)
        assert abs(est.mean - 1.0 / 3.0) <= 4.0 * est.standard_error
        assert est.standard_error <= 2e-3
        rerun = simulate(g, w, KappaSpec.constant(1.0), start, cfg)
        assert rerun.mean == est.mean
        assert rerun.standard_error == est.standard_error

        gs, starts = star_graph(3, exit_len=1.0, leaf_lengths=(1.0, 1.0))
        ws = derive_weights(gs)
        cfg_s = SimConfig(step=0.25, trajectories=100_000, seed=21)
        est_s = simulate(gs, ws, KappaSpec.constant(2.0), starts, cfg_s)
        assert abs(est_s.mean - 1.0 / 7.0) <= 4.0 * est_s.standard_error
        assert est_s.standard_error <= 2e-3
        rerun_s = simulate(gs, ws, KappaSpec.constant(2.0), starts, cfg_s)
        assert rerun_s.mean == est_s.mean

        assert time.perf_counter() - t0 < 30.0


def test_criterion_6_diffuse_zone_collapse():
    with criterion(6, "diffuse-zone collapse: closed form, order >= 0.8, star limit"):
        g, start = degree1_graph(1.0)
        w = derive_weights(g)
        h_list = (1e-1, 1e-2, 1e-3)
        errors = []
        for h in h_list:
            zone = ActiveZoneSpec(rate=1.0, delta=1.0, diffusion=1.0, h=h)
            psi_h = solve_diffuse(g, w, zone).evaluate(start)
            mu, y1 = zone.mu, h * 1.0
            closed = 1.0 / (math.cosh(mu * y1) + mu * math.sinh(mu * y1) * (1.0 - y1))
            assert abs(psi_h - closed) <= 1e-9
            errors.append(abs(psi_h - 0.5))
        assert errors[0] > errors[1] > errors[2]
        for (h1, e1), (h2, e2) in zip(zip(h_list, errors), zip(h_list[1:], errors[1:])):
            order = math.log(e1 / e2) / math.log(h1 / h2)
            assert order >= 0.8

        gs, starts = star_graph(3, exit_len=1.0)
        ws = derive_weights(gs)
        zone = ActiveZoneSpec(rate=1.0, delta=1.0, diffusion=1.0, h=1e-3)
        psi_star = solve_diffuse(gs, ws, zone).evaluate(starts)
        # point model at kappa = 1: alpha = 3/4
        assert abs(psi_star - 0.25) <= 5e-3


def test_criterion_7_rational_form():
    with criterion(7, "rational form: bounded degrees, matches conversion, zero at 0"):
        rng = np.random.default_rng(207)
        for _ in range(30):
            g, start = random_graph(rng, random_radii=True)
            w = derive_weights(g)
            c = len(g.active_vertices)
            form = rational_form(g, w, start)
            assert form.numerator.degree <= c
            assert form.denominator.degree <= c
            assert form.numerator(0.0) == 0.0
            for kappa in kappa_samples(20):
                expected = conversion(g, w, start, KappaSpec.constant(float(kappa))).alpha
                assert abs(form(float(kappa)) - expected) <= 1e-9


def test_criterion_8_placement_experiment():
    with criterion(8, "site placement: equal spacing at large kappa, clustering at small"):
        entrance = 0.5
        span = 1.0
        grid = [span * i / 51.0 for i in range(1, 51)]

        leading = []
        slopes = []
        for gap in grid:
            g, start, _ = chain_graph((entrance, gap, span - gap))
            w = derive_weights(g)
            leading.append(placement_leading_coeff(g, w))
            slopes.append(rational_form(g, w, start).numerator.coeffs[1])

        best_leading = grid[int(np.argmax(leading))]
        assert abs(best_leading - span / 2.0) <= span / 51.0

        # cross-check the coefficient against the weighted product of gaps
        k = 10
        assert leading[k] == pytest.approx(4.0 * grid[k] * (span - grid[k]), rel=1e-9)

        # small-kappa slope: clustering both sites nearest the entrance wins
        assert int(np.argmax(slopes)) == 0
        expected_slope = 2.0 * (span + (span - grid[0]))
        assert slopes[0] == pytest.approx(expected_slope, abs=1e-9)


def test_criterion_9_property_suites():
    with criterion(9, "randomized property suites, 50 instances each"):
        rng = np.random.default_rng(209)
        kgrid = [0.0, 0.1, 1.0, 10.0, 1e3, 1e6]
        for _ in range(50):
            g, start = random_graph(rng, random_radii=True)
            w = derive_weights(g)
            alphas = [conversion(g, w, start, KappaSpec.constant(k)).alpha for k in kgrid]
            for lo, hi in zip(alphas, alphas[1:]):
                assert hi >= lo - 1e-12
            assert abs(alphas[0]) <= 1e-12
            res = conversion(g, w, start, KappaSpec.constant(1e6))
            assert abs(res.alpha - res.alpha_inf) <= 1e-4

        from graphreact import PointOnGraph
        from oracles import split_at

        for _ in range(50):
            g, start = random_graph(rng, random_radii=False)
            w = derive_weights(g)
            kappa = float(rng.uniform(0.1, 10.0))
            before = conversion(g, w, start, KappaSpec.constant(kappa)).alpha
            k = int(rng.integers(0, len(g.edges)))
            off = float(rng.uniform(0.2, 0.8)) * g.edges[k].length
            g2, _ = split_at(g, PointOnGraph.on_edge(k, off))
            after = conversion(g2, derive_weights(g2), start, KappaSpec.constant(kappa)).alpha
            assert abs(before - after) <= 1e-10
