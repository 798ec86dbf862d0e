import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphreact import algebra
from graphreact import (
    Polynomial,
    PreconditionError,
    RationalForm,
    SingularSystemError,
    det,
)
from graphreact.algebra import solve_many
from oracles import det_poly, row_subtracted


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.5])
    assert np.array_equal(solve_many(np.eye(3), b), b)


def test_solve_diagonal():
    x = solve_many(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-15)


def test_solve_residual_contract():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        b = rng.standard_normal(6)
        x = solve_many(a, b)
        resid = np.max(np.abs(a @ x - b))
        assert resid <= 1e-10 * (1.0 + np.max(np.abs(b)))


def test_lu_solve_of_many_columns_is_dgetrs_to_the_bit():
    # two or more columns leave out dgetrs's threaded row swaps, not its arithmetic
    from scipy.linalg.lapack import dgetrs

    rng = np.random.default_rng(31)
    for trial in range(200):
        n, k = int(rng.integers(1, 60)), int(rng.integers(2, 8))
        # every other matrix diagonally dominant, which pivots no row
        lu, piv = algebra._factor(rng.standard_normal((n, n)) + trial % 2 * n * np.eye(n))
        b = rng.standard_normal((n, k))
        assert np.array_equal(algebra._lu_solve(lu, piv, b), dgetrs(lu, piv, b)[0])


def test_singular_names_pivot():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystemError, match="pivot column"):
        solve_many(a, np.array([1.0, 1.0]))


def test_non_square_rejected():
    with pytest.raises(PreconditionError):
        solve_many(np.ones((2, 3)), np.ones(2))


def test_det_against_numpy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal((5, 5))
        assert det(a) == pytest.approx(np.linalg.det(a), rel=1e-9)


def test_det_poly_single_entry():
    p = det_poly(np.array([[2.5]]))
    assert p.coeffs == (1.0, 2.5)


def test_det_poly_zero_matrix():
    assert det_poly(np.zeros((3, 3))).coeffs == (1.0,)


def test_det_poly_constant_term_exact():
    rng = np.random.default_rng(11)
    g = rng.uniform(0.0, 2.0, size=(4, 4))
    assert det_poly(g).coeffs[0] == 1.0


def test_det_poly_matches_principal_minors():
    # oracle: direct sum of principal minors via numpy determinants
    rng = np.random.default_rng(2)
    for _ in range(5):
        g = rng.uniform(-1.0, 1.0, size=(4, 4))
        p = det_poly(g)
        for m in range(1, 5):
            total = sum(
                np.linalg.det(g[np.ix_(rows, rows)])
                for rows in itertools.combinations(range(4), m)
            )
            assert p.coeffs[m] == pytest.approx(total, rel=1e-8, abs=1e-9)


def test_det_poly_evaluation_matches_direct_det():
    rng = np.random.default_rng(9)
    g = rng.uniform(0.0, 1.5, size=(5, 5))
    p = det_poly(g)
    for kappa in (0.0, 0.3, 1.0, 4.7, 20.0):
        direct = det(np.eye(5) + kappa * g)
        assert p(kappa) == pytest.approx(direct, rel=1e-9)


def test_row_subtracted():
    g = np.array([[1.0, 2.0], [3.0, 5.0]])
    r0 = row_subtracted(g, 0)
    assert np.array_equal(r0[0], [0.0, 0.0])
    assert np.array_equal(r0[1], [2.0, 3.0])
    assert np.array_equal(row_subtracted(np.array([[7.0]]), 0), [[0.0]])
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    for j in range(4):
        assert np.all(row_subtracted(a, j)[j] == 0.0)
    with pytest.raises(PreconditionError):
        row_subtracted(g, 2)


def test_polynomial_trim_and_degree():
    assert Polynomial((1.0, 2.0, 0.0)).coeffs == (1.0, 2.0)
    assert Polynomial((0.0,)).degree == float("-inf")
    assert Polynomial().degree == float("-inf")
    assert Polynomial((5.0,)).degree == 0
    assert Polynomial(()) ((3.0)) == 0.0


def test_polynomial_horner_matches_numpy():
    rng = np.random.default_rng(8)
    coeffs = tuple(rng.standard_normal(6))
    p = Polynomial(coeffs)
    xs = rng.standard_normal(10)
    expected = np.polyval(list(reversed(p.coeffs)), xs)
    assert np.allclose(p(xs), expected, rtol=1e-12, atol=1e-12)


def test_rational_form_normalization():
    f = RationalForm(Polynomial((0.0, 4.0)), Polynomial((2.0, 4.0)))
    assert f.denominator(0.0) == 1.0
    assert f.numerator.coeffs == (0.0, 2.0)
    assert f(0.0) == f.numerator(0.0) == 0.0
    with pytest.raises(PreconditionError):
        RationalForm(Polynomial((1.0,)), Polynomial((0.0, 1.0)))


def test_non_finite_residual_raises():
    # a NaN residual must fail the RTOL check, not pass it
    with pytest.raises(SingularSystemError, match="residual"):
        solve_many(np.array([[1.0, np.inf], [0.0, 1.0]]), np.ones(2))


def _sparse_system(rng, n, extra=3):
    """Triplets of order n above the sparse crossover: a diagonally
    dominant band plus a few random entries, repeats included."""
    rows = np.concatenate([np.arange(n), np.arange(1, n), np.arange(n - 1),
                           rng.integers(0, n, extra * n)])
    cols = np.concatenate([np.arange(n), np.arange(n - 1), np.arange(1, n),
                           rng.integers(0, n, extra * n)])
    vals = np.concatenate([np.full(n, 4.0 + extra), -np.ones(2 * n - 2),
                           rng.uniform(-1.0, 1.0, extra * n)])
    return algebra.Triplets(rows, cols, vals, n)


def test_triplets_dense_adds_repeats():
    t = algebra.Triplets(np.array([0, 1, 0]), np.array([1, 0, 1]),
                         np.array([2.0, 3.0, 0.5]), 2)
    assert np.array_equal(t.dense(), [[0.0, 2.5], [3.0, 0.0]])
    assert len(t) == 2 and t.shape == (2, 2)


def test_sparse_solve_residual_contract():
    rng = np.random.default_rng(12)
    n = algebra.SPARSE_MIN_ORDER + 50
    for _ in range(5):
        t = _sparse_system(rng, n)
        b = rng.standard_normal((n, 3))
        x = algebra.solve_many(t, b)
        resid = np.max(np.abs(t.dense() @ x - b), axis=0)
        assert np.all(resid <= 1e-10 * (1.0 + np.max(np.abs(b), axis=0)))
        assert np.allclose(x, algebra.solve_many(t.dense(), b), rtol=0, atol=1e-12)


def test_sparse_singular_raises():
    n = algebra.SPARSE_MIN_ORDER + 10
    t = _sparse_system(np.random.default_rng(13), n)
    keep = t.rows != 5  # row 5 all zero
    singular = algebra.Triplets(t.rows[keep], t.cols[keep], t.vals[keep], n)
    with pytest.raises(SingularSystemError, match="singular"):
        algebra.solve_many(singular, np.ones(n))


def test_sparse_non_finite_entries_raise():
    n = algebra.SPARSE_MIN_ORDER + 10
    t = _sparse_system(np.random.default_rng(14), n)
    vals = t.vals.copy()
    vals[n + 3] = np.nan
    with pytest.raises(SingularSystemError):
        algebra.solve_many(algebra.Triplets(t.rows, t.cols, vals, n), np.ones(n))


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported at the first factorization: loading it with the CLI
    # more than doubles the start-up time of commands that factor nothing
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, graphreact.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert run.stdout.strip() == "[]"
